"""Command-line surface: exit codes, output formats, config plumbing."""

import argparse
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import delaytree
from delaytree.cli import PRESETS, _build_parser, main
from delaytree.configio import build_config, parse_config_text
from delaytree.errors import ArgumentError
from delaytree.harness import ExperimentPlan, run


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_four_subcommands_and_no_model_flags():
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == {"simulate", "theory", "fringe", "check-delay"}
    for name, sp in sub.choices.items():
        flags = {f for a in sp._actions for f in a.option_strings}
        assert {"--config", "--preset", "--set"} <= flags, name
        assert not flags & {"--kernel", "--alpha", "--table", "--tail", "--monotone", "--delay", "--beta", "--seed", "--cap"}, name


def test_theory_affine(capsys):
    # no config: the defaults, affine alpha = 0
    rc = main(["theory", "--kmax", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "lambda_star=2" in out
    assert "p_1=0.666667" in out
    assert "p_2=0.166667" in out
    assert "p_3=0.066667" in out


def test_theory_tabulated(capsys):
    rc = main(
        [
            "theory",
            "--set", "kernel.kind=tabulated",
            "--set", "kernel.table=1,2,2",
            "--set", "kernel.monotone=true",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "lambda_star=1.41421" in out


def test_fringe_table_output(capsys):
    rc = main(["fringe", "--set", "kernel.alpha=0", "--set", "fringe_cap=3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "() 0.6666666667" in out
    assert "(()) 0.1333333333" in out
    assert "total_mass=" in out
    # deterministic: repeating the command reproduces the bytes
    main(["fringe", "--set", "kernel.alpha=0", "--set", "fringe_cap=3"])
    assert capsys.readouterr().out == out


def test_fringe_reads_a_run_config_echo(tmp_path, capsys):
    argv = ["simulate", "--preset", "grid-zero", "--set", "n_final=300", "--set", "fringe_cap=4"]
    main(argv + ["--out", str(tmp_path / "run")])
    capsys.readouterr()
    assert main(["fringe", "--config", str(tmp_path / "run" / "config_echo.txt")]) == 0
    out = capsys.readouterr().out
    codes = [line.split()[0] for line in out.splitlines() if line.startswith("(")]
    assert max(code.count("(") for code in codes) == 4
    assert main(["fringe", "--set", "fringe_cap=4"]) == 0
    assert capsys.readouterr().out == out


def test_simulate_with_preset_and_overrides(tmp_path, capsys):
    out_dir = tmp_path / "run"
    rc = main(
        [
            "simulate",
            "--preset",
            "grid-zero",
            "--set",
            "n_final=1500",
            "--set",
            "replicates=2",
            "--set",
            "fringe_cap=4",
            "--out",
            str(out_dir),
            "--tol",
            "degree_tv=0.2",
            "--tol",
            "fringe_abs=0.2",
            "--tol",
            "pair_abs=0.2",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "[degree]" in out and "[fringe]" in out
    assert "config_hash=" in out
    blob = json.loads((out_dir / "summary.json").read_text())
    assert blob["replicates"] == 2
    assert blob["ok"] is True


def test_simulate_rerun_reproduces_files(tmp_path, capsys):
    argv = [
        "simulate",
        "--preset",
        "grid-uniform01",
        "--set",
        "n_final=1200",
        "--set",
        "replicates=2",
        "--tol",
        "degree_tv=0.3",
        "--tol",
        "fringe_abs=0.3",
        "--tol",
        "pair_abs=0.3",
    ]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    for name in ("summary.json", "degree_hist.csv", "fringe.csv", "config_echo.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_config_echo_refeed_roundtrip(tmp_path, capsys):
    # the echoed config is itself a valid config file producing the same run
    assert (
        main(
            [
                "simulate",
                "--preset",
                "grid-zero",
                "--set",
                "n_final=1000",
                "--tol",
                "degree_tv=0.3",
                "--tol",
                "fringe_abs=0.3",
                "--tol",
                "pair_abs=0.3",
                "--out",
                str(tmp_path / "first"),
            ]
        )
        == 0
    )
    echo = tmp_path / "first" / "config_echo.txt"
    assert (
        main(
            [
                "simulate",
                "--config",
                str(echo),
                "--tol",
                "degree_tv=0.3",
                "--tol",
                "fringe_abs=0.3",
                "--tol",
                "pair_abs=0.3",
                "--out",
                str(tmp_path / "second"),
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert (tmp_path / "first" / "summary.json").read_bytes() == (
        tmp_path / "second" / "summary.json"
    ).read_bytes()


def test_unknown_config_key_is_exit_2(capsys):
    rc = main(["simulate", "--preset", "grid-zero", "--set", "bogus=1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "bogus" in err


def test_sampler_key_is_unknown(capsys):
    # the kernel picks the sampler, so an echo carrying a sampler line must drop it
    with pytest.raises(ArgumentError, match="sampler"):
        build_config(parse_config_text("n_final = 100\nsampler = auto\n"))
    rc = main(["simulate", "--preset", "grid-zero", "--set", "n_final=100", "--set", "sampler=scan"])
    assert rc == 2
    assert "sampler" in capsys.readouterr().err


def test_config_and_preset_together_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kernel.kind = uniform\n")
    assert main(["theory", "--config", str(cfg), "--preset", "grid-zero"]) == 2
    assert "--preset" in capsys.readouterr().err


def test_theory_kmax_below_one_is_exit_2(capsys):
    assert main(["theory", "--kmax", "-3"]) == 2
    assert "--kmax" in capsys.readouterr().err


def test_check_delay_grid_bounds_are_whole_numbers(capsys):
    assert main(["check-delay", "--ngrid", "2.5..40"]) == 2
    assert "whole numbers" in capsys.readouterr().err


def test_missing_config_file_is_exit_2(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "absent.cfg")])
    assert rc == 2
    capsys.readouterr()


def test_simulate_without_config_needs_n_final(capsys):
    assert main(["simulate"]) == 2
    assert "n_final" in capsys.readouterr().err


def test_bad_tol_value_is_exit_2(capsys):
    rc = main(["simulate", "--preset", "grid-zero", "--set", "n_final=100", "--tol", "degree_tv=abc"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "degree_tv" in err


@pytest.mark.parametrize("value", ["nan", "-1", "inf"])
def test_tol_outside_finite_nonnegative_is_exit_2(capsys, value):
    rc = main(["simulate", "--preset", "grid-zero", "--set", "n_final=100", "--tol", f"degree_tv={value}"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "degree_tv" in captured.err
    assert "FAIL" not in captured.out


def test_non_finite_delay_parameter_is_exit_2(capsys):
    argv = ["simulate", "--set", "delay.kind=pareto", "--set", "delay.tail_index=nan", "--set", "n_final=200"]
    assert main([*argv, "--stats", "degree"]) == 2
    assert "tail_index" in capsys.readouterr().err


def test_check_delay_satisfied(capsys):
    rc = main(["check-delay", "--preset", "grid-zero", "--ngrid", "1e2..1e4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("n,e_n,lemma\n")
    assert "verdict=satisfied" in out


def test_check_delay_inconclusive_exit_1(capsys):
    rc = main(["check-delay", "--preset", "grid-invpow2", "--ngrid", "1e2..1e4"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "verdict=inconclusive" in out


def test_check_delay_families_parse(capsys):
    families = (
        ["delay.kind=constant", "delay.c=1.5"],
        ["delay.kind=uniform01"],
        ["delay.kind=invpow", "delay.p=1"],
        ["delay.kind=pareto", "delay.tail_index=2.5", "delay.scale=1.0"],
        ["delay.kind=qtable", "delay.us=0,0.5,0.5,1", "delay.qs=0,1,2,3"],
    )
    for entries in families:
        argv = ["check-delay", "--ngrid", "1e2..1e3"]
        for entry in entries:
            argv += ["--set", entry]
        rc = main(argv)
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "n,e_n,lemma", entries
        assert len(out) == 5, entries
        assert [row.split(",")[0] for row in out[1:4]] == ["100", "316", "1000"], entries
        assert out[-1].startswith("verdict=") and rc == (0 if out[-1] == "verdict=satisfied" else 1), entries
    # no config: the default zero delay, whose condition holds
    assert main(["check-delay", "--ngrid", "1e2..1e3"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "verdict=satisfied"


def test_check_delay_bad_family(capsys):
    assert main(["check-delay", "--set", "delay.kind=lorentzian"]) == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_ends_with_pass_or_fail(capsys):
    base = [
        "simulate",
        "--preset",
        "grid-zero",
        "--set",
        "n_final=1000",
        "--set",
        "replicates=2",
    ]
    loose = ["--tol", "degree_tv=0.3", "--tol", "fringe_abs=0.3", "--tol", "pair_abs=0.3"]
    rc = main(base + loose)
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert lines[-2].startswith("config_hash=")
    assert lines[-1] == "PASS"
    rc = main(base + ["--tol", "degree_tv=1e-9"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 1
    assert lines[-1] == "FAIL"


def test_simulate_clt_statistic(tmp_path, capsys):
    rc = main(
        [
            "simulate",
            "--preset",
            "grid-uniform01",
            "--set",
            "n_final=400",
            "--set",
            "replicates=8",
            "--stats",
            "clt",
            "--tol",
            "clt_var_rel=50",
            "--out",
            str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "[clt] variance_rel_err=" in out
    clt = json.loads((tmp_path / "summary.json").read_text())["statistics"]["clt"]
    assert clt["sigma1_sq"] == pytest.approx(1.0 / 9.0)
    assert len(clt["s_values"]) == 8
    assert clt["variance"] > 0.0


def test_simulate_root_statistic(tmp_path, capsys):
    rc = main(
        [
            "simulate",
            "--preset",
            "grid-uniform01",
            "--set",
            "n_final=2000",
            "--set",
            "replicates=3",
            "--stats",
            "root",
            "--out",
            str(tmp_path),
        ]
    )
    capsys.readouterr()
    assert rc == 0
    root = json.loads((tmp_path / "summary.json").read_text())["statistics"]["root"]
    assert root["over_ex"] is None  # uniform01 is in the l2 regime
    assert len(root["last_octave_drift"]) == 3
    assert len(root["mean_over_ntheta"]) == len(root["ns"])


def _readme_tour_commands() -> list:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = readme.split("## CLI tour", 1)[1].split("\n## ", 1)[0]
    lines = tour.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("delaytree ")]


def test_readme_cli_tour_parses():
    parser = _build_parser()
    commands = _readme_tour_commands()
    assert {argv[0] for argv in commands} == {"simulate", "theory", "fringe", "check-delay"}
    for argv in commands:
        parser.parse_args(argv)


def test_readme_artifact_headers_match_writer(tmp_path):
    """Each CSV header in README's "Run artifacts" table is the first line the writer puts in that file."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("## Run artifacts", 1)[1].split("\n## ", 1)[0]
    rows = dict(re.findall(r"^\| `([\w.]+)` \|(.*)\|$", table, flags=re.M))
    headers = {name: re.findall(r"\(`([^`]+)`\)", text)[-1] for name, text in rows.items() if name.endswith(".csv")}
    entries = parse_config_text(PRESETS["grid-uniform01"])
    entries.update(n_final="300", replicates="2")
    config, replicates = build_config(entries)
    stats = ("degree", "fringe", "root", "clt", "delay-scan")
    run(ExperimentPlan(config, replicates, statistics=stats, outdir=str(tmp_path)))
    assert set(rows) == set(os.listdir(tmp_path))
    written = {name: (tmp_path / name).read_text().split("\n", 1)[0] for name in headers}
    assert written == headers


ENTRY_ARGS = ["theory", "--set", "kernel.alpha=1"]


def test_installed_entry_point():
    """The declared console script runs as its wrapper would run it."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["delaytree"]
    module, func = target.split(":")
    assert (module, func) == ("delaytree.cli", "main")
    src = str(Path(delaytree.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; from {module} import {func}; sys.exit({func}())", *ENTRY_ARGS],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "lambda_star=3" in proc.stdout


@pytest.mark.skipif(shutil.which("delaytree") is None, reason="delaytree console script is not on PATH")
def test_console_script_on_path():
    proc = subprocess.run(
        [shutil.which("delaytree"), *ENTRY_ARGS],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "lambda_star=3" in proc.stdout
