"""Time ``grow`` on the edge sampler's preset and on the two tabulated-growth plans.

    python3 bench/edge_growth.py --tree parent=OLD/src --tree change=src \
        > BENCH_speculative_thinning.json

``--tree LABEL=SRC`` names a source directory holding the ``delaytree``
package; give it twice to compare two versions on the same machine.  Each
measurement is one fresh Python process with SRC first on ``sys.path``: it
builds one of the ``CONFIGS`` at size n, times one ``grow`` call with
``time.perf_counter``, and reports that time, its peak RSS at that point
(``ru_maxrss``), the rejected proposals ``retries``, the SHA-256 of
``parents`` and the tree's degree TV: ``harness.tv_distance`` between its
degree shares (degrees 1 up to its largest) and ``theory.degree_law`` on
the same degrees.  The TV shows that a tree grown by another sampler is
still drawn from the model when its parents differ.  Every (config, size)
pair in ``SIZES`` is grown ``RUNS`` times per tree, on seeds ``SEED``,
``SEED + 1``, ..., the trees taking turns run by run so that host drift
hits them alike, and the median time is recorded.  The ``LARGE`` sizes,
too slow to repeat five times, are grown the same way ``LARGE_RUNS``
times per tree: a single run per tree falls within the host's run-to-run
spread.  ``LAW`` grows ``LAW_SEEDS`` trees per tree source in one more
process each, untimed after the first, and records the mean, standard
deviation and range of their degree TVs.  The JSON document goes to
standard output, progress to standard error.

The configs:

* ``grid-invpow2`` -- the preset of that name (affine alpha = 0, invpow:2
  delay, beta = 0.5): the edge sampler.
* ``tabulated-pow`` -- the monotone table (1, 1.4, 1.7, 2.0) with a
  ``pow:0.5`` tail and an ``invpow:1`` delay, the first plan of the
  ``tabulated-growth`` benchmark workload.
* ``tabulated-bumpy`` -- the non-monotone table (1, 2, 1.5, 1.2) with a
  ``const`` tail and a ``uniform01`` delay, its second plan.

The kernel picks the sampler, so both tabulated configs use rejection.
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
from delaytree.estimators import degree_hist
from delaytree.growth import grow
from delaytree.harness import tv_distance
from delaytree.theory import degree_law, solve_malthusian

entries = parse_config_text(PRESETS["grid-invpow2"])
entries.update(json.loads(sys.argv[2]))
entries["n_final"] = sys.argv[3]
first, count = map(int, sys.argv[4].split(":"))
entries["seed"] = str(first)
config, _ = build_config(entries)
t0 = time.perf_counter()
trace = grow(config)
seconds = time.perf_counter() - t0
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
lam = solve_malthusian(config.kernel).lambda_star


def tv(trace):
    hist = degree_hist(trace)
    return tv_distance(hist.counts[1:] / hist.n, degree_law(config.kernel, lam, hist.max_degree()))


more = grow(config, range(first + 1, first + count)) if count > 1 else []
print(json.dumps({
    "grow_s": seconds,
    "sampler": config.resolve_sampler(),
    "retries": trace.retries,
    "peak_rss_mb": peak,
    "parents_sha256": hashlib.sha256(trace.parents.astype("<i8").tobytes()).hexdigest(),
    "degree_tv": [tv(t) for t in (trace, *more)],
}))
"""

# config entries over the grid-invpow2 preset
CONFIGS = {
    "grid-invpow2": {},
    "tabulated-pow": {
        "kernel.kind": "tabulated",
        "kernel.table": "1,1.4,1.7,2.0",
        "kernel.tail": "pow:0.5",
        "kernel.f_star": "1",
        "kernel.monotone": "true",
        "delay.kind": "invpow",
        "delay.p": "1.0",
    },
    "tabulated-bumpy": {
        "kernel.kind": "tabulated",
        "kernel.table": "1,2,1.5,1.2",
        "kernel.tail": "const",
        "kernel.f_star": "1",
        "delay.kind": "uniform01",
    },
}
SIZES = {
    "grid-invpow2": (1_000_000, 3_000_000),
    "tabulated-pow": (300_000, 1_000_000),
    "tabulated-bumpy": (20_000,),
}
LARGE = {"grid-invpow2": 10_000_000, "tabulated-pow": 3_000_000, "tabulated-bumpy": 1_000_000}
LARGE_RUNS = 3  # median of three per LARGE config and tree, on seeds SEED .. SEED + LARGE_RUNS - 1
RUNS = 5  # median of five per config, size and tree, on seeds SEED .. SEED + RUNS - 1
SEED = 1
LAW = {"tabulated-pow": 300_000, "tabulated-bumpy": 20_000}  # degree TV over LAW_SEEDS trees per tree source
LAW_SEEDS = 20

# one client on a small machine: keep NumPy single-threaded
ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def measure(src: str, name: str, n: int, seed: int, count: int = 1) -> dict:
    """One fresh process: grow seed ``seed`` timed, then seeds up to ``seed + count - 1`` for their degree TV."""
    env = dict(os.environ, **ENV)
    env.pop("PYTHONPATH", None)
    out = subprocess.run(
        [sys.executable, "-c", CHILD, os.path.abspath(src), json.dumps(CONFIGS[name]), str(n), f"{seed}:{count}"],
        check=True, capture_output=True, text=True, env=env,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def row(got: list, n: int) -> dict:
    median = statistics.median(g["grow_s"] for g in got)
    return {
        "sampler": sorted({g["sampler"] for g in got}),
        "grow_s": [round(g["grow_s"], 4) for g in got],
        "median_s": round(median, 4),
        "us_per_vertex": round(median / n * 1e6, 4),
        "retries_per_arrival": round(statistics.median(g["retries"] for g in got) / (n - 2), 4),
        "peak_rss_mb": round(max(g["peak_rss_mb"] for g in got), 1),
        "parents_sha256": sorted({g["parents_sha256"] for g in got}),
        "degree_tv": [round(g["degree_tv"][0], 5) for g in got],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", action="append", required=True, metavar="LABEL=SRC")
    args = ap.parse_args(argv)

    trees = dict(t.split("=", 1) for t in args.tree)
    configs = {}
    for name, sizes in SIZES.items():
        runs: dict = {label: {n: [] for n in sizes} for label in trees}
        for n in sizes:
            for run in range(RUNS):
                for label, src in trees.items():
                    got = measure(src, name, n, SEED + run)
                    runs[label][n].append(got)
                    print(f"{label} {name} n={n} grow {got['grow_s']:.3f} s", file=sys.stderr)
        results = {label: {str(n): row(runs[label][n], n) for n in sizes} for label in trees}
        identical = {  # the same seed grows the same tree under every source
            str(n): len({tuple(results[label][str(n)]["parents_sha256"]) for label in trees}) == 1
            for n in sizes
        }
        configs[name] = {"trees": results, "parents_identical_across_trees": identical}

    large = {}
    for name, n in LARGE.items():
        runs = {label: [] for label in trees}
        for run in range(LARGE_RUNS):
            for label, src in trees.items():
                got = measure(src, name, n, SEED + run)
                runs[label].append(got)
                print(f"{label} {name} n={n} grow {got['grow_s']:.3f} s", file=sys.stderr)
        large[name] = {"n": n, "trees": {label: row(got, n) for label, got in runs.items()}}

    law = {}
    for name, n in LAW.items():
        law[name] = {"n": n, "seeds": [SEED, SEED + LAW_SEEDS - 1], "trees": {}}
        for label, src in trees.items():
            tvs = measure(src, name, n, SEED, LAW_SEEDS)["degree_tv"]
            print(f"{label} {name} n={n} degree TV mean {statistics.mean(tvs):.5f}", file=sys.stderr)
            law[name]["trees"][label] = {
                "mean": round(statistics.mean(tvs), 5),
                "sd": round(statistics.stdev(tvs), 5),
                "range": [round(min(tvs), 5), round(max(tvs), 5)],
                "degree_tv": [round(t, 5) for t in tvs],
            }
    doc = {
        "benchmark": "grow on grid-invpow2 (edge sampler) and the two tabulated-growth plans (rejection sampler)",
        "script": "bench/edge_growth.py",
        "seed": SEED,
        "runs_per_size": RUNS,
        "runs_per_large_size": LARGE_RUNS,
        "host": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
        },
        "configs": configs,
        "large": large,
        "degree_tv": law,
    }
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
