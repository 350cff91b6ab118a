"""Time ``grow`` with the edge sampler on the grid-invpow2 preset.

    python3 bench/edge_growth.py --tree parent=OLD/src --tree change=src \
        > BENCH_edge_growth.json

``--tree LABEL=SRC`` names a source directory holding the ``delaytree``
package; give it twice to compare two versions on the same machine.  Each
measurement is one fresh Python process with SRC first on ``sys.path``: it
builds the preset config at size n, times one ``grow`` call with
``time.perf_counter``, and reports that time, its own peak RSS
(``ru_maxrss``) and the SHA-256 of ``parents``.  Every size in ``SIZES``
is grown ``RUNS`` times per tree, the trees taking turns run by run so
that host drift hits them alike, and the median is recorded.  One more
process grows ``RSS_SIZE`` vertices with the last tree listed, to record
peak memory at that size.  The JSON document goes to standard output,
progress to standard error.
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
import hashlib, json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from delaytree.cli import PRESETS
from delaytree.configio import build_config, parse_config_text
from delaytree.growth import grow

entries = parse_config_text(PRESETS["grid-invpow2"])
entries["n_final"] = sys.argv[2]
entries["seed"] = sys.argv[3]
config, _ = build_config(entries)
t0 = time.perf_counter()
trace = grow(config)
seconds = time.perf_counter() - t0
print(json.dumps({
    "grow_s": seconds,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "parents_sha256": hashlib.sha256(trace.parents.astype("<i8").tobytes()).hexdigest(),
}))
"""

SIZES = (1_000_000, 3_000_000)
RUNS = 3  # median of three per size and tree
RSS_SIZE = 10_000_000
SEED = 1

# one client on a small machine: keep NumPy single-threaded
ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def measure(src: str, n: int, seed: int) -> dict:
    env = dict(os.environ, **ENV)
    env.pop("PYTHONPATH", None)
    out = subprocess.run(
        [sys.executable, "-c", CHILD, os.path.abspath(src), str(n), str(seed)],
        check=True, capture_output=True, text=True, env=env,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", action="append", required=True, metavar="LABEL=SRC")
    args = ap.parse_args(argv)

    trees = dict(t.split("=", 1) for t in args.tree)
    runs: dict = {label: {n: [] for n in SIZES} for label in trees}
    for n in SIZES:
        for _ in range(RUNS):
            for label, src in trees.items():
                got = measure(src, n, SEED)
                runs[label][n].append(got)
                print(f"{label} n={n} grow {got['grow_s']:.3f} s", file=sys.stderr)

    results = {}
    for label in trees:
        rows = {}
        for n in SIZES:
            got = runs[label][n]
            median = statistics.median(g["grow_s"] for g in got)
            rows[str(n)] = {
                "grow_s": [round(g["grow_s"], 4) for g in got],
                "median_s": round(median, 4),
                "us_per_vertex": round(median / n * 1e6, 4),
                "peak_rss_mb": round(max(g["peak_rss_mb"] for g in got), 1),
                "parents_sha256": sorted({g["parents_sha256"] for g in got}),
            }
        results[label] = rows
    identical = {
        str(n): len({h for label in trees for h in results[label][str(n)]["parents_sha256"]}) == 1
        for n in SIZES
    }

    last = list(trees)[-1]
    big = measure(trees[last], RSS_SIZE, SEED)
    doc = {
        "benchmark": "grow, edge sampler, grid-invpow2 preset (affine alpha = 0, invpow:2 delay, beta = 0.5)",
        "script": "bench/edge_growth.py",
        "seed": SEED,
        "runs_per_size": RUNS,
        "host": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
        },
        "trees": results,
        "parents_identical_across_trees": identical,
        "large": {
            "tree": last,
            "n": RSS_SIZE,
            "grow_s": round(big["grow_s"], 4),
            "us_per_vertex": round(big["grow_s"] / RSS_SIZE * 1e6, 4),
            "peak_rss_mb": round(big["peak_rss_mb"], 1),
        },
    }
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
