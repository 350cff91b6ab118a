"""The ``bench/`` scripts' shared driver, the ``replicate_sweep`` child run through it, and every benchmark plan.

The scripts are loaded from their files, as ``python3 bench/<name>.py``
would run them; each finds ``bench/driver.py`` beside itself.  The
benchmark's ``perfbench/`` modules are read from their files too, and
nothing under ``perfbench/`` is written.
"""

import hashlib
import importlib.util
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _perfbench(name):
    """``perfbench/<name>.py`` loaded from its file, with no bytecode cache written beside it."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.modules[spec.name] = module  # its dataclasses look the module up
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[spec.name]
    return module


WORKLOADS, GATE = _perfbench("workloads"), _perfbench("gate")


def test_source_trees_take_turns_in_reverse_every_other_run():
    driver = _script("replicate_sweep").driver
    order = []
    got = driver.alternate({"a": "A", "b": "B", "c": "C"}, 4, lambda case, i: order.append(case) or (case, i), str)
    assert "".join(order) == "ABCCBAABCCBA"
    assert got == {label: [(label.upper(), i) for i in range(4)] for label in "abc"}


def test_quartiles_lie_within_the_runs():
    driver = _script("replicate_sweep").driver
    assert driver.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == [2.0, 4.0]
    assert driver.quartiles([0.25]) == [0.25, 0.25]


def test_replicate_sweep_bench_runs_the_workload_of_this_tree(tmp_path):
    # the bench script's measurement child, so an API change cannot break it unseen
    bench = _script("replicate_sweep")
    got = bench.driver.measure(bench.CHILD, str(ROOT / "src"), bench.REPO, "default", bench.SEED)
    assert got["ok"] is True and got["grow_calls"] >= 1
    step = WORKLOADS.prepare("replicate-sweep", bench.SEED, str(tmp_path))[0]
    assert step.call()
    digest = hashlib.sha256()
    for name in sorted(os.listdir(step.outdir)):
        digest.update(name.encode() + b"\0" + (Path(step.outdir) / name).read_bytes())
    assert got["artifact_sha256"] == digest.hexdigest()


@pytest.mark.parametrize("name", WORKLOADS.NAMES)
def test_every_benchmark_plan_runs_at_a_small_scale(tmp_path, name):
    # the workloads build their plans from src/ signatures (kernels, configs, presets, ExperimentPlan),
    # so a signature change fails here and not only in the benchmark; the verdict's tolerances
    # assume the full sizes, so only the gate's exact identities and the artifact set are held
    for step in WORKLOADS.prepare(name, 7, str(tmp_path), 0.002):
        problems = GATE.check_plan(step.outdir, step.call(), step.replicates, step.n, step.statistics)
        assert [p for p in problems if not p.startswith("verdict:")] == []
