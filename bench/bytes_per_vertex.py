"""Time and weigh one ``grid-invpow2`` replicate (degree + fringe), stage by stage.

    python3 bench/bytes_per_vertex.py --tree parent=OLD/src --tree change=src \
        > BENCH_spelled_counts.json

(``BENCH_bytes_per_vertex.json``, ``BENCH_census.json``,
``BENCH_census_memory.json``, ``BENCH_census_blocks.json`` and
``BENCH_spelled_counts.json`` each hold one such document, for the change
each one measured; the ``write`` stage is in the last one only.)

Each tree is measured through ``driver.py`` beside this script: fresh
processes, the trees taking turns, medians with their quartiles.  One
measurement builds the ``grid-invpow2`` preset (affine alpha = 0, invpow:2
delay, beta = 0.5, fringe cap 6) at size n and runs what ``harness.run``
does for one replicate with statistics ``degree,fringe``, one stage at a
time:

* ``grow``: ``growth.grow``;
* ``degree``: the tree's child counts, ``TreeTrace.child_counts``, and
  ``DegreeHist.from_children`` of them;
* ``labels``: ``canonical.shape_labels`` of its parents and those counts;
* ``censuses``: ``FringeCensus.from_labels``, then the pair counts,
  ``theory.extended_fringe_law`` of its counts at depth 1 (the harness
  applies this map to the pooled counts of a plan; for one replicate that
  is the same work);
* ``write``: ``harness._write_outputs`` inside ``harness.run`` of the
  one-replicate plan of this config with an output directory (the plan
  grows its replicate from its own seed, so this tree is not the stages'
  one); the SHA-256 over the artifact files (``artifact_sha256``) shows
  that they are the same across source trees.

The child program needs a ``delaytree`` with ``TreeTrace.child_counts``
and an ``extended_fringe_law`` that takes a mapping of masses; older
trees need the script of their own time.

A timed run records each stage's ``time.perf_counter`` seconds and the
process's peak RSS (``ru_maxrss``) after imports, after ``grow`` and after
the censuses (``peak``, before the plan that writes), in MB and in bytes
per vertex.  A traced run repeats the stages under
``tracemalloc``, started afresh for each stage, and records each stage's
peak allocation in bytes per vertex: memory the stage allocated itself,
not the tree it was handed.  Both report the SHA-256 of ``parents`` (as
little-endian int64) and of the census counts, so the trees and censuses
can be compared across source trees.

Every size in ``SIZES`` is timed ``RUNS`` times per source tree, and the
median of each number is recorded, with every run's replicate time, the
sum of its stage times (``replicate_s_runs``); ``TRACED`` sizes get one
traced run per tree.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))  # the driver, also when loaded by file path
import driver  # noqa: E402

# after driver.PRELUDE; arguments: n, seed, "timed" or "traced"
CHILD = r"""
import resource, tempfile, time, tracemalloc
from delaytree import estimators as est
from delaytree import harness
from delaytree import theory
from delaytree.canonical import shape_labels
from delaytree.growth import grow

config = preset_config("grid-invpow2", {"n_final": sys.argv[1], "seed": sys.argv[2]})
n, cap, traced = config.n_final, config.fringe_cap, sys.argv[3] == "traced"
out = {}

def rss(name):
    mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out[name + "_rss_mb"] = mb
    out[name + "_rss_b_per_vertex"] = mb * 2**20 / n

def stage(name, run):
    if traced:
        tracemalloc.start()
    t0 = time.perf_counter()
    result = run()
    out[name + "_s"] = time.perf_counter() - t0
    if traced:
        out[name + "_traced_b_per_vertex"] = tracemalloc.get_traced_memory()[1] / n
        tracemalloc.stop()
    return result

def degree():  # one child count, which both the histogram and the labelling read
    kids = trace.child_counts()
    return kids, est.DegreeHist.from_children(kids)

def censuses():
    fringe = est.FringeCensus.from_labels(labels, codes, cap)
    return fringe, theory.extended_fringe_law(fringe.counts, 1)

rss("import")
trace = stage("grow", lambda: grow(config))
rss("grow")
kids, hist = stage("degree", degree)
labels, codes = stage("labels", lambda: shape_labels(trace.parents, kids, cap))
fringe, pairs = stage("censuses", censuses)
rss("peak")
counts = [hist.counts.tolist(), sorted(fringe.counts.items()), fringe.truncated,
          sorted(pairs.items()), n - 1 - sum(pairs.values())]
out["parents_sha256"] = parents_sha256(trace)
out["census_sha256"] = hashlib.sha256(json.dumps(counts).encode()).hexdigest()
del trace, kids, hist, labels, codes, fringe, pairs

write_outputs = harness._write_outputs
harness._write_outputs = lambda *args: stage("write", lambda: write_outputs(*args))
with tempfile.TemporaryDirectory() as outdir:
    harness.run(harness.ExperimentPlan(config=config, statistics=("degree", "fringe"), outdir=outdir))
    out["artifact_sha256"] = artifact_sha256(outdir)
print(json.dumps(out))
"""

SIZES = (1_000_000, 10_000_000)
TRACED = (1_000_000,)
RUNS = 5  # median of five per size and tree: one run's replicate time spreads by about 20% on a 2-core host
SEED = 1
STAGES = ("grow", "degree", "labels", "censuses", "write")


def summary(got: list) -> dict:
    """Medians of the numbers of ``got`` (rounded) with their quartiles, and the set of each digest."""
    numbers = [key for key in got[0] if not key.endswith("sha256")]
    row = {key: driver.distinct(got, key) if key.endswith("sha256") else driver.median(g[key] for g in got)
           for key in got[0]}
    runs = [round(sum(g[s + "_s"] for s in STAGES), 4) for g in got]
    row["replicate_s"] = driver.median(runs)
    row["replicate_s_runs"] = runs
    row["quartiles"] = {**driver.spread(got, numbers), "replicate_s": driver.quartiles(runs)}
    return row


def measured(trees: dict, n: int, mode: str, runs: int) -> dict:
    """``{label: summary}`` of ``runs`` runs per source tree at size n, ``mode`` "timed" or "traced"."""
    got = driver.alternate(
        trees, runs, lambda src, i: driver.measure(CHILD, src, n, SEED, mode),
        lambda g: f"n={n} {mode} replicate {sum(g[s + '_s'] for s in STAGES):.3f} s, peak RSS {g['peak_rss_mb']:.1f} MB",
    )
    return {label: summary(results) for label, results in got.items()}


def main(argv=None) -> int:
    trees = driver.trees(__doc__, argv)
    timed = {str(n): measured(trees, n, "timed", RUNS) for n in SIZES}
    traced = {str(n): measured(trees, n, "traced", 1) for n in TRACED}
    identical = {
        size: all(len({h for row in rows.values() for h in row[key]}) == 1
                  for key in ("parents_sha256", "census_sha256", "artifact_sha256"))
        for size, rows in {**timed, **traced}.items()
    }
    return driver.write(
        "one grid-invpow2 replicate (degree + fringe): seconds and bytes per vertex by stage",
        "bench/bytes_per_vertex.py",
        seed=SEED,
        runs_per_size=RUNS,
        timed=timed,
        traced=traced,
        identical_across_trees=identical,
    )


if __name__ == "__main__":
    sys.exit(main())
