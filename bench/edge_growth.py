"""Time ``grow`` on the edge sampler's preset, its mixed affine kernel and the two tabulated-growth plans.

    python3 bench/edge_growth.py --tree parent=OLD/src --tree change=src \
        > BENCH_thinning_rounds.json

Each tree is measured through ``driver.py`` beside this script: fresh
processes, the trees taking turns, medians with their quartiles.  One
measurement builds one of the ``CONFIGS`` at size n, times one ``grow``
call with ``time.perf_counter``, and reports that time, its peak RSS at
that point (``ru_maxrss``), the rejected proposals ``retries``, the
SHA-256 of ``parents`` and the tree's degree TV: ``harness.tv_distance``
between its degree shares (degrees 1 up to its largest) and
``theory.degree_law`` on the same degrees.  The TV shows that a tree grown
by another sampler is still drawn from the model when its parents differ.
Every (config, size) pair in ``SIZES`` is grown ``RUNS`` times per tree
and each of the slower ``LARGE`` sizes ``LARGE_RUNS`` times, on seeds
``SEED``, ``SEED + 1``, ..., and the median time is recorded.  The
tabulated configs also run at n = 2048, where a thinning block is almost
all per-call overhead.  ``LAW``
grows ``LAW_SEEDS`` trees per tree source in one more process each,
untimed after the first, and records the mean, standard deviation and
range of their degree TVs.  The kernel picks the sampler, so both
tabulated configs use rejection.  ``affine-1`` (alpha = 1) is the one
mixed kernel: it times the edge sampler's branch uniforms and, at sizes
past one edge block, its picks drawn through ``growth._ahead``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))  # the driver, also when loaded by file path
import driver  # noqa: E402

# after driver.PRELUDE; arguments: CONFIGS entry as JSON, n, first seed, trees grown
CHILD = r"""
import resource, time
from delaytree.estimators import degree_hist
from delaytree.growth import grow
from delaytree.harness import tv_distance
from delaytree.theory import degree_law, solve_malthusian

first, count = int(sys.argv[3]), int(sys.argv[4])
config = preset_config("grid-invpow2", {**json.loads(sys.argv[1]), "n_final": sys.argv[2], "seed": str(first)})
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
    "parents_sha256": parents_sha256(trace),
    "degree_tv": [tv(t) for t in (trace, *more)],
}))
"""

# config entries over the grid-invpow2 preset
CONFIGS = {
    "grid-invpow2": {},  # the preset itself (affine alpha = 0, invpow:2 delay, beta = 0.5): the edge sampler
    "affine-1": {"kernel.alpha": "1"},  # the edge sampler on a mixed kernel: a branch uniform per arrival
    "tabulated-pow": {  # the first plan of the tabulated-growth benchmark workload
        "kernel.kind": "tabulated",
        "kernel.table": "1,1.4,1.7,2.0",
        "kernel.tail": "pow:0.5",
        "kernel.f_star": "1",
        "kernel.monotone": "true",
        "delay.kind": "invpow",
        "delay.p": "1.0",
    },
    "tabulated-bumpy": {  # its second plan
        "kernel.kind": "tabulated",
        "kernel.table": "1,2,1.5,1.2",
        "kernel.tail": "const",
        "kernel.f_star": "1",
        "delay.kind": "uniform01",
    },
}
SIZES = {
    "grid-invpow2": (1_000_000, 3_000_000),
    "affine-1": (1_000_000,),  # rows of many edge blocks
    "tabulated-pow": (2048, 300_000, 1_000_000),
    "tabulated-bumpy": (2048, 20_000),
}
LARGE = {"grid-invpow2": 10_000_000, "tabulated-pow": 3_000_000, "tabulated-bumpy": 1_000_000}
LARGE_RUNS = 3  # median of three per LARGE config and tree, on seeds SEED .. SEED + LARGE_RUNS - 1
RUNS = 11  # median of eleven per config, size and tree, on seeds SEED .. SEED + RUNS - 1
SEED = 1
LAW = {"tabulated-pow": 300_000, "tabulated-bumpy": 20_000}  # degree TV over LAW_SEEDS trees per tree source
LAW_SEEDS = 20

def row(got: list, n: int) -> dict:
    median = statistics.median(g["grow_s"] for g in got)
    return {
        "sampler": driver.distinct(got, "sampler"),
        "grow_s": [round(g["grow_s"], 4) for g in got],
        "median_s": round(median, 4),
        "us_per_vertex": round(median / n * 1e6, 4),
        "retries_per_arrival": round(statistics.median(g["retries"] for g in got) / (n - 2), 4),
        "quartiles": driver.spread(got, ("grow_s", "retries")),
        "peak_rss_mb": round(max(g["peak_rss_mb"] for g in got), 1),
        "parents_sha256": driver.distinct(got, "parents_sha256"),
        "degree_tv": [round(g["degree_tv"][0], 5) for g in got],
    }


def grown(trees: dict, name: str, n: int, runs: int) -> dict:
    """``{label: row}`` of ``runs`` trees of config ``name`` at size n per source tree, on seeds SEED, SEED + 1, ..."""
    got = driver.alternate(
        trees, runs,
        lambda src, i: driver.measure(CHILD, src, json.dumps(CONFIGS[name]), n, SEED + i, 1),
        lambda g: f"{name} n={n} grow {g['grow_s']:.3f} s",
    )
    return {label: row(results, n) for label, results in got.items()}


def main(argv=None) -> int:
    trees = driver.trees(__doc__, argv)
    configs = {}
    for name, sizes in SIZES.items():
        rows = {str(n): grown(trees, name, n, RUNS) for n in sizes}
        configs[name] = {
            "trees": {label: {n: rows[n][label] for n in rows} for label in trees},
            # the same seed grows the same tree under every source
            "parents_identical_across_trees": {
                n: len({tuple(r["parents_sha256"]) for r in by_tree.values()}) == 1 for n, by_tree in rows.items()
            },
        }
    large = {name: {"n": n, "trees": grown(trees, name, n, LARGE_RUNS)} for name, n in LARGE.items()}

    law = {}
    for name, n in LAW.items():
        got = driver.alternate(
            trees, 1,
            lambda src, i: driver.measure(CHILD, src, json.dumps(CONFIGS[name]), n, SEED, LAW_SEEDS),
            lambda g: f"{name} n={n} degree TV mean {statistics.mean(g['degree_tv']):.5f}",
        )
        law[name] = {"n": n, "seeds": [SEED, SEED + LAW_SEEDS - 1], "trees": {}}
        for label, [result] in got.items():
            tvs = result["degree_tv"]
            law[name]["trees"][label] = {
                "mean": round(statistics.mean(tvs), 5),
                "sd": round(statistics.stdev(tvs), 5),
                "range": [round(min(tvs), 5), round(max(tvs), 5)],
                "degree_tv": [round(t, 5) for t in tvs],
            }
    return driver.write(
        "grow on grid-invpow2 and its affine alpha = 1 variant (edge sampler) and the two tabulated-growth plans"
        " (rejection sampler)",
        "bench/edge_growth.py",
        seed=SEED,
        runs_per_size=RUNS,
        runs_per_large_size=LARGE_RUNS,
        configs=configs,
        large=large,
        degree_tv=law,
    )


if __name__ == "__main__":
    sys.exit(main())
