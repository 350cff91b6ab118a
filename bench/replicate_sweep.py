"""Time the ``replicate-sweep`` plan end to end, its growth and its writing, and one large tree.

    python3 bench/replicate_sweep.py --tree parent=OLD/src --tree change=src \
        > BENCH_band_draws.json

Each tree is measured through ``driver.py`` beside this script: fresh
processes, the trees taking turns, medians with their quartiles.  One
measurement builds the benchmark's ``replicate-sweep`` plan (``perfbench``
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
(``job_width``: the vertices of one job of replicates) and the trees per
job (``batch_size``).  The median of ``RUNS`` is recorded.

The sweep then repeats the measurement on the last tree with
``_JOB_WIDTH`` set to each of ``WIDTHS`` before the plan runs, the widths
taking turns run by run; the edge block keeps its value (its own sweep is
``BENCH_replicate_batches.json``).
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))  # the driver, also when loaded by file path
import driver  # noqa: E402

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# after driver.PRELUDE; arguments: the repository holding perfbench, job width or "default", seed
CHILD = r"""
import resource, tempfile, time
sys.path.insert(1, sys.argv[1])
from delaytree import growth, harness
from perfbench import workloads

if sys.argv[2] != "default":
    growth._JOB_WIDTH = int(sys.argv[2])
grow, write = harness.grow, harness._write_outputs
spent, faults = {"grow": [], "write": []}, {"grow": 0, "write": 0}

def minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

def timed(name, call):
    def wrapper(*args, **kwargs):
        f0, t0 = minflt(), time.perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            spent[name].append(time.perf_counter() - t0)
            faults[name] += minflt() - f0
    return wrapper

harness.grow = timed("grow", grow)
harness._write_outputs = timed("write", write)
with tempfile.TemporaryDirectory() as root:
    step = workloads.prepare("replicate-sweep", int(sys.argv[3]), root)[0]
    f0, t0 = minflt(), time.perf_counter()
    ok = step.call()
    wall = time.perf_counter() - t0
    plan_faults = minflt() - f0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    digest = artifact_sha256(step.outdir)

config = preset_config("grid-invpow2", {"n_final": "1000000", "seed": sys.argv[3]})
t0 = time.perf_counter()
trace = growth.grow(config)
single = time.perf_counter() - t0
print(json.dumps({
    "ok": ok,
    "edge_block": growth._EDGE_BLOCK,
    "job_width": growth._JOB_WIDTH,
    "batch_size": growth.batch_size(step.n),
    "wall_s": wall,
    "grow_s": sum(spent["grow"]),
    "grow_calls": len(spent["grow"]),
    "write_s": sum(spent["write"]),
    "minflt_plan": plan_faults,
    "minflt_grow": faults["grow"],
    "peak_rss_mb": rss,
    "artifact_sha256": digest,
    "single_grow_s": single,
    "single_parents_sha256": parents_sha256(trace),
}))
"""

RUNS = 7  # median of seven per tree (and per width in the sweep)
WIDTHS = (1 << 14, 1 << 15, 1 << 16, 1 << 17, 1 << 18)
SEED = 5
MEDIANS = ("wall_s", "grow_s", "write_s", "minflt_plan", "minflt_grow", "peak_rss_mb", "single_grow_s")


def summary(got: list) -> dict:
    row = {key: driver.distinct(got, key) for key in ("edge_block", "job_width", "batch_size", "grow_calls")}
    row["wall_s"] = [round(g["wall_s"], 4) for g in got]
    row.update({"median_" + key: driver.median(g[key] for g in got) for key in MEDIANS})
    row["quartiles"] = driver.spread(got, MEDIANS)
    row["failed_plans"] = sum(not g["ok"] for g in got)
    row.update({key: driver.distinct(got, key) for key in ("artifact_sha256", "single_parents_sha256")})
    return row


def alternate(cases: dict) -> dict:
    """``{label: summary}`` of RUNS measurements of each ``(src, width)`` case, taking turns."""
    got = driver.alternate(
        cases, RUNS, lambda case, i: driver.measure(CHILD, case[0], REPO, case[1], SEED),
        lambda g: (f"wall {g['wall_s']:.3f} s grow {g['grow_s']:.3f} s ({g['grow_calls']} jobs) write {g['write_s']:.3f} s "
                   f"faults {g['minflt_plan']}/{g['minflt_grow']} single {g['single_grow_s']:.3f} s"),
    )
    return {label: summary(results) for label, results in got.items()}


def main(argv=None) -> int:
    trees = driver.trees(__doc__, argv)
    compare = alternate({label: (src, "default") for label, src in trees.items()})
    last = list(trees.values())[-1]
    sweep = alternate({str(width): (last, width) for width in WIDTHS})
    digests = {h for row in [compare, sweep] for t in row.values() for h in t["artifact_sha256"]}
    return driver.write(
        "replicate-sweep plan end to end, its growth phase (one grow call per job), its artifact writing "
        "and their minor page faults; one grid-invpow2 tree at n = 1e6",
        "bench/replicate_sweep.py",
        seed=SEED,
        runs=RUNS,
        trees=compare,
        artifacts_identical=len(digests) == 1,
        job_width_sweep={"tree": list(trees)[-1], **sweep},
    )


if __name__ == "__main__":
    sys.exit(main())
