"""Time and weigh one ``grid-invpow2`` replicate (degree + fringe), stage by stage.

    python3 bench/bytes_per_vertex.py --tree parent=OLD/src --tree change=src \
        > BENCH_census.json

(``BENCH_bytes_per_vertex.json`` and ``BENCH_census.json`` each hold one
such document, for the change each one measured.)

``--tree LABEL=SRC`` names a source directory holding the ``delaytree``
package; give it twice to compare two versions on the same machine.  Each
measurement is one fresh Python process with SRC first on ``sys.path``.
It builds the ``grid-invpow2`` preset (affine alpha = 0, invpow:2 delay,
beta = 0.5, fringe cap 6) at size n and runs what ``harness.run`` does for
one replicate with statistics ``degree,fringe``, one stage at a time:

* ``grow``: ``growth.grow``;
* ``degree``: ``estimators.degree_hists`` of the tree;
* ``labels``: ``canonical.shape_labels`` of its parents;
* ``censuses``: ``FringeCensus.from_labels``, then the pair counts,
  ``theory.extended_fringe_law`` of its counts at depth 1 (the harness
  applies this map to the pooled counts of a plan; for one replicate that
  is the same work).

The child script needs a ``delaytree`` whose ``extended_fringe_law``
takes a mapping of masses; older trees need the script of their own time.

A timed run records each stage's ``time.perf_counter`` seconds and the
process's peak RSS (``ru_maxrss``) after imports, after ``grow`` and at the
end, in MB and in bytes per vertex.  A traced run repeats the stages under
``tracemalloc``, started afresh for each stage, and records each stage's
peak allocation in bytes per vertex: memory the stage allocated itself,
not the tree it was handed.  Both report the SHA-256 of ``parents`` (as
little-endian int64) and of the census counts, so the trees and censuses
can be compared across source trees.

Every size in ``SIZES`` is timed ``RUNS`` times per source tree, the trees
taking turns run by run so that host drift hits them alike, and the median
of each number is recorded; ``TRACED`` sizes get one traced run per tree.
The JSON document goes to standard output, progress to standard error.
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

CHILD = r"""
import hashlib, json, resource, sys, time, tracemalloc
sys.path.insert(0, sys.argv[1])
import numpy as np
from delaytree import estimators as est
from delaytree import theory
from delaytree.canonical import shape_labels
from delaytree.cli import PRESETS
from delaytree.configio import build_config, parse_config_text
from delaytree.growth import grow

entries = parse_config_text(PRESETS["grid-invpow2"])
entries["n_final"] = sys.argv[2]
entries["seed"] = sys.argv[3]
config, _ = build_config(entries)
n, cap, traced = config.n_final, config.fringe_cap, sys.argv[4] == "traced"
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

rss("import")
trace = stage("grow", lambda: grow(config))
rss("grow")
hist = stage("degree", lambda: est.degree_hists([trace])[0])
labels, codes = stage("labels", lambda: shape_labels(trace.parents, cap))

def censuses():
    fringe = est.FringeCensus.from_labels(labels, codes, cap)
    return fringe, theory.extended_fringe_law(fringe.counts, 1)

fringe, pairs = stage("censuses", censuses)
rss("peak")
counts = [hist.counts.tolist(), sorted(fringe.counts.items()), fringe.truncated,
          sorted(pairs.items()), n - 1 - sum(pairs.values())]
out["parents_sha256"] = hashlib.sha256(trace.parents.astype("<i8").tobytes()).hexdigest()
out["census_sha256"] = hashlib.sha256(json.dumps(counts).encode()).hexdigest()
print(json.dumps(out))
"""

SIZES = (1_000_000, 10_000_000)
TRACED = (1_000_000,)
RUNS = 3  # median of three per size and tree
SEED = 1
STAGES = ("grow", "degree", "labels", "censuses")

# one client on a small machine: keep NumPy single-threaded
ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def measure(src: str, n: int, mode: str) -> dict:
    env = dict(os.environ, **ENV)
    env.pop("PYTHONPATH", None)
    out = subprocess.run(
        [sys.executable, "-c", CHILD, os.path.abspath(src), str(n), str(SEED), mode],
        check=True, capture_output=True, text=True, env=env,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(got: list) -> dict:
    """Medians of the numbers of ``got`` (rounded), and the set of each digest."""
    row = {}
    for key in got[0]:
        values = [g[key] for g in got]
        if key.endswith("sha256"):
            row[key] = sorted(set(values))
        else:
            row[key] = round(statistics.median(values), 4)
    if "grow_s" in row:
        row["replicate_s"] = round(statistics.median(sum(g[s + "_s"] for s in STAGES) for g in got), 4)
    return row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", action="append", required=True, metavar="LABEL=SRC")
    args = ap.parse_args(argv)

    trees = dict(t.split("=", 1) for t in args.tree)
    timed, traced = {}, {}
    for n in SIZES:
        runs: dict = {label: [] for label in trees}
        for _ in range(RUNS):
            for label, src in trees.items():
                got = measure(src, n, "timed")
                runs[label].append(got)
                print(f"{label} n={n} replicate {sum(got[s + '_s'] for s in STAGES):.3f} s, "
                      f"peak RSS {got['peak_rss_mb']:.1f} MB", file=sys.stderr)
        timed[str(n)] = {label: summary(got) for label, got in runs.items()}
    for n in TRACED:
        traced[str(n)] = {}
        for label, src in trees.items():
            traced[str(n)][label] = summary([measure(src, n, "traced")])
            print(f"{label} n={n} traced", file=sys.stderr)
    identical = {
        size: all(len({h for row in rows.values() for h in row[key]}) == 1
                  for key in ("parents_sha256", "census_sha256"))
        for size, rows in {**timed, **traced}.items()
    }
    doc = {
        "benchmark": "one grid-invpow2 replicate (degree + fringe): seconds and bytes per vertex by stage",
        "script": "bench/bytes_per_vertex.py",
        "seed": SEED,
        "runs_per_size": RUNS,
        "host": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
        },
        "timed": timed,
        "traced": traced,
        "identical_across_trees": identical,
    }
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
