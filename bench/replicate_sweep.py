"""Time the ``replicate-sweep`` plan end to end, its growth and its writing, and one large tree.

    python3 bench/replicate_sweep.py --tree parent=OLD/src --tree change=src \
        > BENCH_band_draws.json

``--tree LABEL=SRC`` names a source directory holding the ``delaytree``
package; give it twice to compare two versions on the same machine.  Each
measurement is one fresh Python process with SRC first on ``sys.path``.
It builds the benchmark's ``replicate-sweep`` plan (``perfbench``
workload: preset ``grid-uniform01``, 1500 replicates at n = 2000,
statistics ``degree,root,clt,delay-scan``, artifacts written) and runs it
once through ``cli.main``, timing

* ``wall_s``: the whole plan with ``time.perf_counter``, as the benchmark
  times one execution;
* ``grow_s``: the part of it spent inside ``harness.grow``, summed over
  its calls (``grow_calls``, one per job of replicates);
* ``write_s``: the part of it spent inside ``harness._write_outputs``,
  writing the plan's artifact files;
* ``minflt_plan`` and ``minflt_grow``: the minor page faults
  (``ru_minflt``) of the whole plan and of its ``harness.grow`` calls,
  which count the fresh memory the plan and its growth touch;

then records the peak RSS so far (``ru_maxrss``) and the SHA-256 over the
plan's artifact files, and finally grows one ``grid-invpow2`` tree at
n = 1e6 (``single_grow_s``, with the SHA-256 of its ``parents``), to show
that single-tree growth is not slowed.  Each run also records the tree's
``delaytree.growth._EDGE_BLOCK`` (``edge_block``), its ``_JOB_WIDTH``
(``job_width``: the vertices of one job of replicates; null for a tree
without jobs, whose batch is one edge block) and the trees per job
(``batch_size``).  The trees take turns run by run so that host drift
hits them alike, and the median of ``RUNS`` is recorded.

The sweep then repeats the measurement on the last tree with
``_JOB_WIDTH`` set to each of ``WIDTHS`` before the plan runs, the widths
taking turns run by run; the edge block keeps its value (its own sweep is
``BENCH_replicate_batches.json``).  The JSON document goes to standard
output, progress to standard error.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHILD = r"""
import contextlib, hashlib, io, json, os, resource, sys, tempfile, time
sys.path.insert(0, sys.argv[1])
sys.path.insert(1, sys.argv[2])
from delaytree import growth, harness
from delaytree.cli import PRESETS
from delaytree.configio import build_config, parse_config_text
from perfbench import workloads

if sys.argv[3] != "default":
    growth._JOB_WIDTH = int(sys.argv[3])
grow, write = harness.grow, harness._write_outputs
spent = {"grow": [], "write": []}
faults = {"grow": 0}

def minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

def timed(name, call):
    def wrapper(*args, **kwargs):
        f0, t0 = minflt(), time.perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            spent[name].append(time.perf_counter() - t0)
            if name in faults:
                faults[name] += minflt() - f0
    return wrapper

harness.grow = timed("grow", grow)
harness._write_outputs = timed("write", write)
with tempfile.TemporaryDirectory() as root:
    step = workloads.prepare("replicate-sweep", int(sys.argv[4]), root)[0]
    f0, t0 = minflt(), time.perf_counter()
    ok = step.call()
    wall = time.perf_counter() - t0
    plan_faults = minflt() - f0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    digest = hashlib.sha256()
    for name in sorted(os.listdir(step.outdir)):
        with open(os.path.join(step.outdir, name), "rb") as fh:
            digest.update(name.encode() + b"\0" + fh.read())
harness.grow, harness._write_outputs = grow, write

entries = parse_config_text(PRESETS["grid-invpow2"])
entries["n_final"] = "1000000"
entries["seed"] = sys.argv[4]
config, _ = build_config(entries)
t0 = time.perf_counter()
trace = growth.grow(config)
single = time.perf_counter() - t0
print(json.dumps({
    "ok": ok,
    "edge_block": growth._EDGE_BLOCK,
    "job_width": getattr(growth, "_JOB_WIDTH", None),
    "batch_size": growth.batch_size(step.n),
    "wall_s": wall,
    "grow_s": sum(spent["grow"]),
    "grow_calls": len(spent["grow"]),
    "write_s": sum(spent["write"]),
    "minflt_plan": plan_faults,
    "minflt_grow": faults["grow"],
    "peak_rss_mb": rss,
    "artifact_sha256": digest.hexdigest(),
    "single_grow_s": single,
    "single_parents_sha256": hashlib.sha256(trace.parents.astype("<i8").tobytes()).hexdigest(),
}))
"""

RUNS = 7  # median of seven per tree (and per width in the sweep)
WIDTHS = (1 << 14, 1 << 15, 1 << 16, 1 << 17, 1 << 18)
SEED = 5

# one client on a small machine: keep NumPy single-threaded
ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def measure(src: str, width: str) -> dict:
    env = dict(os.environ, **ENV)
    env.pop("PYTHONPATH", None)
    out = subprocess.run(
        [sys.executable, "-c", CHILD, os.path.abspath(src), REPO, width, str(SEED)],
        check=True, capture_output=True, text=True, env=env,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(got: list) -> dict:
    def med(key):
        return round(statistics.median(g[key] for g in got), 4)

    return {
        "edge_block": sorted({g["edge_block"] for g in got}),
        "job_width": sorted({g["job_width"] for g in got}, key=str),
        "batch_size": sorted({g["batch_size"] for g in got}),
        "wall_s": [round(g["wall_s"], 4) for g in got],
        "median_wall_s": med("wall_s"),
        "median_grow_s": med("grow_s"),
        "median_write_s": med("write_s"),
        "median_minflt_plan": med("minflt_plan"),
        "median_minflt_grow": med("minflt_grow"),
        "grow_calls": sorted({g["grow_calls"] for g in got}),
        "median_peak_rss_mb": med("peak_rss_mb"),
        "median_single_grow_s": med("single_grow_s"),
        "failed_plans": sum(not g["ok"] for g in got),
        "artifact_sha256": sorted({g["artifact_sha256"] for g in got}),
        "single_parents_sha256": sorted({g["single_parents_sha256"] for g in got}),
    }


def alternate(cases: dict) -> dict:
    """``{label: summary}`` of RUNS measurements of each ``(src, width)`` case, taking turns."""
    runs: dict = {label: [] for label in cases}
    for i in range(RUNS):
        for label in list(cases)[:: -1 if i % 2 else 1]:
            src, width = cases[label]
            got = measure(src, width)
            runs[label].append(got)
            print(f"{label} wall {got['wall_s']:.3f} s grow {got['grow_s']:.3f} s ({got['grow_calls']} jobs) "
                  f"write {got['write_s']:.3f} s faults {got['minflt_plan']}/{got['minflt_grow']} single {got['single_grow_s']:.3f} s", file=sys.stderr)
    return {label: summary(got) for label, got in runs.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", action="append", required=True, metavar="LABEL=SRC")
    args = ap.parse_args(argv)

    trees = dict(t.split("=", 1) for t in args.tree)
    compare = alternate({label: (src, "default") for label, src in trees.items()})
    last = list(trees.values())[-1]
    sweep = alternate({str(width): (last, str(width)) for width in WIDTHS})
    digests = {h for row in [compare, sweep] for t in row.values() for h in t["artifact_sha256"]}
    doc = {
        "benchmark": "replicate-sweep plan end to end, its growth phase (one grow call per job), its artifact writing and their minor page faults; one grid-invpow2 tree at n = 1e6",
        "script": "bench/replicate_sweep.py",
        "seed": SEED,
        "runs": RUNS,
        "host": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
        },
        "trees": compare,
        "artifacts_identical": len(digests) == 1,
        "job_width_sweep": {"tree": list(trees)[-1], **sweep},
    }
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
