"""Replicate executor: seed derivation, TV metric, aggregation, files."""

import dataclasses
import itertools
import json
import os
from unittest import mock

import numpy as np
import pytest

from delaytree import estimators as est
from delaytree import growth, harness, theory
from delaytree.configio import config_hash
from delaytree.errors import ArgumentError
from delaytree.estimators import degree_hist, fringe_census
from delaytree.growth import grow
from delaytree.harness import (
    ExperimentPlan,
    replicate_seed,
    run,
    splitmix64,
    tv_distance,
)
from delaytree.kernels import (
    AffineKernel,
    GrowthConfig,
    InversePowerDelay,
    TabulatedKernel,
    Uniform01Delay,
    UniformKernel,
    ZeroDelay,
)

AFF = AffineKernel(0.0)
HEAVY = InversePowerDelay(p=2.0, beta=0.5)  # the heavy root regime


def _plan(n=1200, reps=2, stats=("degree",), delay=Uniform01Delay(beta=0.5), kernel=AFF, **kw):
    cfg = GrowthConfig(kernel, delay, n, seed=5)
    loose = {"degree_tv": 0.5, "fringe_abs": 0.5, "pair_abs": 0.5, "clt_var_rel": 50.0}
    kw.setdefault("tolerances", loose)
    return ExperimentPlan(config=cfg, replicates=reps, statistics=stats, **kw)


# ---------------------------------------------------------------------------
# seeds
# ---------------------------------------------------------------------------


def test_splitmix64_reference_values():
    # first two outputs of the standard 64-bit mixer from seed 0 and 1
    assert splitmix64(0) == 16294208416658607535
    assert splitmix64(1) == 10451216379200822465
    assert 0 <= splitmix64(2**64 - 1) < 2**64


def test_replicate_seeds_are_distinct_and_stable():
    seen = {replicate_seed(b, r) for b in (0, 1, 77) for r in range(200)}
    assert len(seen) == 600
    assert replicate_seed(0, 0) == 7960286522194355700  # frozen: feeds every rerun
    ref = [replicate_seed(42, r) for r in range(5)]
    assert ref == [replicate_seed(42, r) for r in range(5)]


# ---------------------------------------------------------------------------
# total variation
# ---------------------------------------------------------------------------


def test_tv_distance_vectors():
    assert tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert tv_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)
    assert tv_distance([0.6, 0.4], [0.5, 0.5]) == pytest.approx(0.1)
    # unaccounted mass on either side is compared in one lump
    assert tv_distance([0.5, 0.5], [0.5, 0.25]) == pytest.approx(0.25)
    with pytest.raises(ArgumentError):
        tv_distance([0.5, 0.5], [1.0])


def test_tv_distance_degree_hist():
    # a degree histogram is compared as a vector of count / n on degrees 1..60
    tr = grow(GrowthConfig(AFF, ZeroDelay(beta=0.5), 4000, seed=9))
    h = degree_hist(tr)
    theory = 4.0 / (np.arange(1.0, 61.0) * np.arange(2.0, 62.0) * np.arange(3.0, 63.0))
    emp = np.zeros(60)
    counts = h.counts[1:61]
    emp[: len(counts)] = counts / tr.n
    d = tv_distance(emp, theory)
    manual = 0.5 * sum(abs(e - t) for e, t in zip(emp.tolist(), theory.tolist()))
    manual += 0.5 * abs((1 - sum(emp.tolist())) - (1 - sum(theory.tolist())))
    assert d == pytest.approx(manual)
    assert d < 0.1


def test_tv_distance_fringe_census():
    # a fringe census is compared as a vector of count / n over the theory's codes
    tr = grow(GrowthConfig(AFF, ZeroDelay(beta=0.5), 4000, seed=9))
    cen = fringe_census(tr, cap=3)
    theory = {"()": 2 / 3, "(())": 2 / 15, "((()))": 2 / 105, "(()())": 4 / 105}
    emp = [cen.counts.get(code, 0) / cen.n for code in theory]
    assert tv_distance(emp, list(theory.values())) < 0.05


# ---------------------------------------------------------------------------
# plan validation
# ---------------------------------------------------------------------------


def test_plan_validation():
    cfg = GrowthConfig(AFF, Uniform01Delay(beta=0.5), 100)
    with pytest.raises(ArgumentError):
        ExperimentPlan(config=cfg, statistics=("degre",))
    with pytest.raises(ArgumentError):
        ExperimentPlan(config=cfg, statistics=())
    with pytest.raises(ArgumentError):
        ExperimentPlan(config=cfg, replicates=0)
    with pytest.raises(ArgumentError):
        ExperimentPlan(config=cfg, tolerances={"degree_tvv": 0.1})
    for value in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ArgumentError, match="pair_abs"):
            ExperimentPlan(config=cfg, tolerances={"degree_tv": 0.0, "pair_abs": value})
    with pytest.raises(ArgumentError):
        ExperimentPlan(config=cfg, statistics=("clt",), replicates=1)
    with pytest.raises(ArgumentError):
        ExperimentPlan(config=cfg, workers=0)
    ucfg = GrowthConfig(UniformKernel(), Uniform01Delay(beta=0.5), 100)
    with pytest.raises(ArgumentError):
        ExperimentPlan(config=ucfg, statistics=("clt",), replicates=3)
    with pytest.raises(ArgumentError):
        ExperimentPlan(config=ucfg, statistics=("root",))


@pytest.mark.parametrize(
    "make",
    [
        lambda cfg: ExperimentPlan(config=cfg, tolerances={"degree_tv": "0.1"}),
        lambda cfg: ExperimentPlan(config=cfg, replicates="3"),
        lambda cfg: ExperimentPlan(config=cfg, workers="2"),
        lambda cfg: ExperimentPlan(config=cfg, replicates=2.5),
        lambda cfg: dataclasses.replace(cfg, seed=1.5),
        lambda cfg: dataclasses.replace(cfg, n_final=100.5),
        lambda cfg: dataclasses.replace(cfg, fringe_cap=2.5),
        lambda cfg: dataclasses.replace(cfg, n_final=2**31),
        lambda cfg: dataclasses.replace(cfg, n_final=np.int64(2**40)),
    ],
    ids=["str-tolerance", "str-replicates", "str-workers", "float-replicates", "float-seed", "float-n_final",
         "float-fringe_cap", "n_final-2**31", "numpy-n_final-2**40"],
)
def test_wrong_types_raise_argument_errors(make):
    with pytest.raises(ArgumentError):
        make(GrowthConfig(AFF, Uniform01Delay(beta=0.5), 100))


def test_n_final_reaches_2_to_the_31_minus_1():
    # vertex ids are int32: the largest tree has 2**31 - 1 vertices, and one more is refused (above)
    assert GrowthConfig(AFF, Uniform01Delay(beta=0.5), 2**31 - 1).n_final == 2**31 - 1


def test_numpy_integers_count(tmp_path):
    cfg = GrowthConfig(AFF, Uniform01Delay(beta=0.5), np.int64(100), seed=np.int64(5), fringe_cap=np.int32(4))
    plan = ExperimentPlan(config=cfg, replicates=np.int64(2), workers=np.int32(1), outdir=str(tmp_path))
    counts = (cfg.n_final, cfg.seed, cfg.fringe_cap, plan.replicates, plan.workers)
    assert counts == (100, 5, 4, 2, 1) and all(type(c) is int for c in counts)
    run(plan)  # a NumPy seed used to overflow in replicate_seed


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def test_run_degree_and_fringe():
    plan = _plan(stats=("degree", "fringe"))
    summary = run(plan)
    assert summary.ok
    assert summary.payload["config_hash"] == config_hash(plan.config, plan.replicates)
    deg = summary.statistics["degree"]
    assert int(deg["pooled_counts"].sum()) == plan.replicates * plan.config.n_final
    assert 0.5 < deg["leaf_fraction"] < 0.8
    assert summary.checks["degree"]["tv"] < 0.5
    fr = summary.statistics["fringe"]
    assert fr["total_vertices"] == plan.replicates * plan.config.n_final
    assert 0 < fr["max_abs_gap"] < 0.5
    assert summary.wall_time > 0.0
    assert summary.payload["retry_total"] >= 0


def test_run_all_statistics_with_outputs(tmp_path):
    plan = _plan(
        n=900,
        reps=3,
        stats=("degree", "fringe", "root", "clt", "delay-scan"),
        outdir=str(tmp_path / "out"),
    )
    summary = run(plan)
    names = sorted(os.listdir(tmp_path / "out"))
    assert names == [
        "clt.csv",
        "config_echo.txt",
        "degree_hist.csv",
        "delay_scan.csv",
        "fringe.csv",
        "root.csv",
        "summary.json",
    ]
    blob = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert blob["config_hash"] == summary.payload["config_hash"]
    assert set(blob["statistics"]) == {"degree", "fringe", "root", "clt", "delay-scan"}
    assert "wall_time" not in blob  # timing must never enter the artifact
    first = (tmp_path / "out" / "degree_hist.csv").read_text().splitlines()[0]
    assert first == "n,k,count,p_theory"
    assert (tmp_path / "out" / "clt.csv").read_text().splitlines()[0] == "replicate,s_r"
    assert (tmp_path / "out" / "delay_scan.csv").read_text().splitlines()[0] == "n,e_n,verdict"
    echo = (tmp_path / "out" / "config_echo.txt").read_text()
    assert echo == summary.payload["config_echo"]


def test_rerun_is_byte_identical(tmp_path):
    for sub in ("a", "b"):
        run(_plan(n=800, reps=2, stats=("degree", "fringe"), outdir=str(tmp_path / sub)))
    for name in os.listdir(tmp_path / "a"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name


def test_worker_count_does_not_change_results(tmp_path):
    # same replicate seeds, same fold order -> identical artifact bytes, in
    # the light regime, in the heavy one, whose root.csv has a finite M_over_EXn,
    # and for a tabulated kernel, whose trees the thinning sampler grows; jobs of
    # two trees make the three replicates two jobs, so workers=2 starts the pool
    n = 500
    plans = {
        "light": (AFF, Uniform01Delay(beta=0.5), ("degree", "root")),
        "heavy": (AFF, HEAVY, ("degree", "root")),
        "tabulated": (
            TabulatedKernel((1.0, 2.0, 1.5, 1.2), tail=("const",), f_star=1.0),
            Uniform01Delay(beta=0.5),
            ("degree", "fringe"),
        ),
    }
    with mock.patch.object(growth, "_JOB_WIDTH", 2 * n):
        assert growth.batch_size(n) == 2
        for regime, (kernel, delay, stats) in plans.items():
            w1, w2 = tmp_path / f"{regime}-w1", tmp_path / f"{regime}-w2"
            r1 = run(_plan(n=n, reps=3, stats=stats, delay=delay, kernel=kernel, outdir=str(w1), workers=1))
            with mock.patch.object(harness, "ProcessPoolExecutor", wraps=harness.ProcessPoolExecutor) as pools:
                r2 = run(_plan(n=n, reps=3, stats=stats, delay=delay, kernel=kernel, outdir=str(w2), workers=2))
            assert pools.call_count == 1, regime
            assert r1.ok == r2.ok
            names = sorted(os.listdir(w1))
            assert "degree_hist.csv" in names and sorted(os.listdir(w2)) == names
            for name in names:
                assert (w1 / name).read_bytes() == (w2 / name).read_bytes(), (regime, name)


# (job width in trees, edge block in arrivals) at n = 400: a tree's 398
# arrivals make bands of EDGE_BLOCK // 398 rows, or column blocks of one row
JOBS = {
    "one-band-jobs": (2, 800),  # bands of 2 rows, one per job; ragged last job
    "several-bands": (6, 1194),  # bands of 3 rows, two per job; ragged last job and band
    "ragged-bands": (7, 800),  # bands 2, 2, 2, 1 in each job; ragged last job
    "column-blocks": (1, 128),  # one tree per job, resolved in column blocks
    "one-job": (17, 1 << 14),  # the whole plan in one job and one band
}


def test_batch_size_does_not_change_results(tmp_path):
    # every artifact byte matches the default jobs, in every job shape, under 1 and 2 workers:
    # a light plan of every grown statistic, and a heavy-regime root plan whose
    # root.csv has a finite M_over_EXn
    n, reps = 400, 17
    plans = {
        "light": (Uniform01Delay(beta=0.5), ("degree", "fringe", "root", "clt")),
        "heavy": (HEAVY, ("root",)),
    }
    want = {}
    for regime, (delay, stats) in plans.items():
        ref = tmp_path / f"{regime}-ref"
        summary = run(_plan(n=n, reps=reps, stats=stats, delay=delay, outdir=str(ref)))
        assert (summary.statistics["root"]["over_ex"] is None) == (regime == "light")
        want[regime] = {name: (ref / name).read_bytes() for name in sorted(os.listdir(ref))}
    for job, (rows, block) in JOBS.items():
        with mock.patch.object(growth, "_JOB_WIDTH", rows * n), mock.patch.object(growth, "_EDGE_BLOCK", block):
            assert growth.batch_size(n) == rows
            for workers, (regime, (delay, stats)) in itertools.product((1, 2), plans.items()):
                out = tmp_path / f"{job}-workers{workers}-{regime}"
                with (
                    mock.patch.object(harness, "grow", wraps=growth.grow) as grows,
                    mock.patch.object(growth, "_resolve_edge", wraps=growth._resolve_edge) as bands,
                ):
                    run(_plan(n=n, reps=reps, stats=stats, delay=delay, outdir=str(out), workers=workers))
                if workers == 1:
                    sizes = [len(call.args[1]) for call in grows.call_args_list]
                    assert sizes == [rows] * (reps // rows) + ([reps % rows] if reps % rows else []), job
                    # each job's bands of rows, each resolved in one or more column blocks
                    tall = max(1, block // (n - 2))
                    want_bands = [min(tall, size - lo) for size in sizes for lo in range(0, size, tall)]
                    per_band = -(-(n - 2) // min(block, n - 2))
                    got_bands = [len(call.args[0]) for call in bands.call_args_list]
                    assert got_bands == [b for b in want_bands for _ in range(per_band)], job
                assert sorted(os.listdir(out)) == list(want[regime])
                for name, data in want[regime].items():
                    assert (out / name).read_bytes() == data, (job, workers, regime, name)


def test_job_seeds_are_the_replicate_seeds():
    # a job derives its seeds as one uint64 array, equal to the scalar mix
    reps = np.arange(3000, dtype=np.uint64)
    for base in (0, 5, 2**63, 2**64 - 1):
        seeds = replicate_seed(base, reps)
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [replicate_seed(base, r) for r in range(3000)]


def test_root_constants_once_per_plan():
    # the aggregation asks for the constants once, for every replicate's counts at once
    with mock.patch.object(theory, "root_degree_constants", wraps=theory.root_degree_constants) as spy:
        run(_plan(n=500, reps=4, stats=("root",), workers=1))
    assert spy.call_count == 1


def test_root_grid_and_scales_once_per_plan():
    # the time grid travels in the job tuple, and in the heavy regime the
    # aggregation asks for E[min(X, n_j)]: one grid and one value per grid point per plan
    scales = []
    ex_x_truncated = InversePowerDelay.ex_x_truncated

    def counted(self, n):
        scales.append(n)
        return ex_x_truncated(self, n)

    cfg = GrowthConfig(AFF, InversePowerDelay(p=2.0, beta=0.5), 500, seed=5)
    plan = ExperimentPlan(config=cfg, replicates=4, statistics=("root",))
    with (
        mock.patch.object(est, "geometric_grid", wraps=est.geometric_grid) as grid_spy,
        mock.patch.object(InversePowerDelay, "ex_x_truncated", counted),
    ):
        root = run(plan).statistics["root"]
    assert grid_spy.call_count == 1
    assert scales == [float(m) for m in root["ns"]]
    assert root["over_ex"].shape == (4, len(root["ns"]))


@pytest.mark.parametrize("delay", [Uniform01Delay(beta=0.5), HEAVY], ids=["uniform01", "invpow2"])
def test_root_counts_are_normalised_by_the_harness(delay):
    # the trajectories are the grown trees' counts; the harness divides them by
    # n_j**theta and, in the heavy regime only, by the delay's E[min(X, n_j)]
    plan = _plan(n=500, reps=5, stats=("root",), delay=delay)
    root = run(plan).statistics["root"]
    ns, values = root["ns"], root["values"]
    traces = grow(plan.config, replicate_seed(plan.config.seed, np.arange(5, dtype=np.uint64)))
    np.testing.assert_array_equal(values, est.root_trajectories(growth.parent_rows(traces), grid=ns).values)
    theta = theory.root_degree_constants(AFF.alpha, delay).theta
    assert theta == 0.5
    np.testing.assert_array_equal(root["over_ntheta"], values / ns**theta)
    if delay is HEAVY:
        np.testing.assert_array_equal(root["over_ex"], values / [delay.ex_x_truncated(float(m)) for m in ns])
    else:
        assert root["over_ex"] is None


def test_delay_scan_only_skips_growth():
    cfg = GrowthConfig(AFF, Uniform01Delay(beta=0.5), 10**7, seed=1)  # growth would take minutes
    plan = ExperimentPlan(config=cfg, statistics=("delay-scan",))
    summary = run(plan)
    assert summary.wall_time < 5.0
    assert summary.checks["delay-scan"]["verdict"] == "satisfied"
    assert summary.ok


def test_delay_scan_violated_fails_the_plan():
    # xi = U**-2 at beta = 0.8: e_n keeps rising over the scan's grid 1e2..1e4
    cfg = GrowthConfig(AFF, InversePowerDelay(p=2.0, beta=0.8), 100, seed=1)
    summary = run(ExperimentPlan(config=cfg, statistics=("delay-scan",)))
    assert summary.checks["delay-scan"] == {"verdict": "violated", "ok": False}
    assert not summary.ok


def test_root_grid_of_one_point(tmp_path):
    # n_final = 2 gives the grid [2], which has no last octave to drift over
    cfg = GrowthConfig(AFF, InversePowerDelay(p=2.0, beta=0.5), 2, seed=0)
    summary = run(ExperimentPlan(config=cfg, replicates=3, statistics=("root",), outdir=str(tmp_path)))
    assert summary.ok
    root = summary.statistics["root"]
    assert root["ns"].tolist() == [2]
    assert root["last_octave_drift"].tolist() == [0.0, 0.0, 0.0]
    rows = (tmp_path / "root.csv").read_text().splitlines()
    assert [row.split(",")[:2] for row in rows[1:]] == [["0", "2"], ["1", "2"], ["2", "2"]]


def test_failing_tolerance_flips_ok():
    plan = _plan(n=600, reps=2, stats=("degree",), tolerances={"degree_tv": 1e-9})
    summary = run(plan)
    assert not summary.ok
    assert not summary.checks["degree"]["ok"]


def test_clt_values_match_leaf_clt_statistic():
    plan = _plan(n=600, reps=4, stats=("clt",))
    s = run(plan).statistics["clt"]["s_values"]
    n, p1 = plan.config.n_final, theory.clt_constants(0.0).p1
    want = []
    for r in range(plan.replicates):
        tr = grow(dataclasses.replace(plan.config, seed=replicate_seed(plan.config.seed, r)))
        want.append(np.sqrt(n) * (degree_hist(tr).count(1) / n - p1))
    np.testing.assert_array_equal(s, want)
