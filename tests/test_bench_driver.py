"""The ``bench/`` scripts' shared driver, and the ``replicate_sweep`` child run through it.

The scripts are loaded from their files, as ``python3 bench/<name>.py``
would run them; each finds ``bench/driver.py`` beside itself.
"""

import hashlib
import importlib.util
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_replicate_sweep_bench_runs_the_workload_of_this_tree(tmp_path, monkeypatch):
    # the bench script's measurement child, so an API change cannot break it unseen
    bench = _script("replicate_sweep")
    got = bench.driver.measure(bench.CHILD, str(ROOT / "src"), bench.REPO, "default", bench.SEED)
    assert got["ok"] is True and got["grow_calls"] >= 1
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave no cache under perfbench/
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look the module up
    spec.loader.exec_module(workloads)
    step = workloads.prepare("replicate-sweep", bench.SEED, str(tmp_path))[0]
    assert step.call()
    digest = hashlib.sha256()
    for name in sorted(os.listdir(step.outdir)):
        digest.update(name.encode() + b"\0" + (Path(step.outdir) / name).read_bytes())
    assert got["artifact_sha256"] == digest.hexdigest()
