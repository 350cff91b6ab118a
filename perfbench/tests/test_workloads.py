import os
import shutil
import subprocess
import sys

import pytest

import layers
import worker
import workloads

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
SMOKE_SCALE = 0.002


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_run_is_correct_and_deterministic(name, tmp_path):
    runs = [
        worker.execute(name, 9, mode, str(tmp_path / str(k)), SMOKE_SCALE)
        for k, mode in enumerate(("plain", "traced", "traced"))
    ]
    for r in runs:
        assert r["attempted"] >= 1
        assert r["failed"] == 0, [p["problems"] for p in r["plans"]]
    assert len({r["artifact_digest"] for r in runs}) == 1
    assert runs[1]["parents_digest"] == runs[2]["parents_digest"]
    traced = runs[1]
    assert set(traced["layers"]) | set(layers.alloc_metrics([])) | {
        "trace.overhead_share"
    } == set(layers.UNITS)
    assert traced["layers"]["growth.grow.calls"] >= 1
    assert traced["missing_boundaries"] == []


def test_traced_execution_restores_every_wrapper(tmp_path):
    worker._import_delaytree()
    from delaytree import cli, estimators, growth, harness, kernels

    before = (harness.run, harness.grow, estimators.subtree_codes, growth.snapshot_times,
              cli.main, kernels.InversePowerDelay.sample_many)
    worker.execute("pa-census-1m", 3, "alloc", str(tmp_path), SMOKE_SCALE)
    after = (harness.run, harness.grow, estimators.subtree_codes, growth.snapshot_times,
             cli.main, kernels.InversePowerDelay.sample_many)
    assert before == after


def test_plan_seeds_follow_the_benchmark_seed():
    a = workloads.plan_seed(1, "pa-census-1m", 0)
    assert a == workloads.plan_seed(1, "pa-census-1m", 0)
    assert a != workloads.plan_seed(2, "pa-census-1m", 0)
    assert a != workloads.plan_seed(1, "tabulated-growth", 0)
    assert 0 <= a < 2**64


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replicate-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
