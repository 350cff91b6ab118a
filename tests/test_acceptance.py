"""End-to-end acceptance battery.

One test per numbered behaviour contract (C1..C9).  Every test prints a
single ``[PASS]``/``[FAIL]`` verdict line to the real stderr -- bypassing
pytest's capture so the verdicts survive into piped logs -- and then
asserts.  Seeds and tolerances are frozen; reruns are bit-reproducible.

Heavy-delay regimes: under inverse-power raw delays the horizon X has a
heavy tail, P(X > x) ~ x**-gamma with gamma = (1 - beta) / p, and local
frequencies approach their n = infinity law like n**-gamma.  For the
inverse-square delay (gamma = 1/4) the pooled degree TV at n = 50000 is
still near 0.028 (almost all of it extra leaves), and each 4x step in n
shrinks it by about 4**0.25 = 1.41.  C3 and C4 therefore grow such a
regime at N_POOL and N_POOL // 16 as well, cancel the first-order term at
the delay's own rate gamma, and gate the extrapolated law on the same 0.01
budgets.  A simulator converging to a wrong limit, or at another rate, still
fails.  Bounded-horizon regimes are gated on the raw N_POOL pool.
"""

import itertools
import sys
import time

import numpy as np
import pytest
from scipy import stats

from delaytree.canonical import all_canonical_trees
from delaytree.estimators import (
    degree_hist,
    delay_condition_scan,
    fringe_census,
    root_trajectory,
)
from delaytree.growth import (
    attachment_distribution,
    grow,
    sample_parent_rejection,
    thinning_distribution,
    trace_from_parents,
)
from delaytree.harness import ExperimentPlan, replicate_seed, run, tv_distance
from delaytree.kernels import (
    AffineKernel,
    ConstantDelay,
    GrowthConfig,
    InversePowerDelay,
    TabulatedKernel,
    Uniform01Delay,
    UniformKernel,
    ZeroDelay,
)
from delaytree.theory import (
    clt_constants,
    degree_law,
    extended_fringe_law,
    fringe_bruteforce,
    fringe_recursion,
    root_degree_constants,
    solve_malthusian,
)

ALPHA0 = AffineKernel(0.0)
N_POOL = 50_000
R_POOL = 20
N_SMALL = N_POOL // 16
REGIMES = (
    ("zero", ZeroDelay(beta=0.5), 3101),
    ("uniform01", Uniform01Delay(beta=0.5), 3102),
    ("invpow1", InversePowerDelay(1.0, beta=0.5), 3103),
    ("invpow2", InversePowerDelay(2.0, beta=0.5), 3104),
)


@pytest.fixture
def report(capfd):
    """Verdict printer that sidesteps capture so the line reaches the log."""

    def _report(tag: str, ok: bool, detail: str) -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] {tag} {detail}"
        with capfd.disabled():
            print(line, file=sys.stderr, flush=True)
        assert ok, line

    return _report


# ---------------------------------------------------------------------------
# C1 / C2: closed-form oracles
# ---------------------------------------------------------------------------


def test_c1_malthusian_solver(report):
    t0 = time.perf_counter()
    gaps = [
        abs(solve_malthusian(AffineKernel(a)).lambda_star - (2.0 + a))
        for a in (0.0, 0.5, 1.0, 2.0)
    ]
    gaps.append(abs(solve_malthusian(UniformKernel()).lambda_star - 1.0))
    wall = time.perf_counter() - t0
    worst = max(gaps)
    report(
        "C1",
        worst < 1e-8 and wall < 1.0,
        f"growth-rate solver: worst |gap|={worst:.2e} (tol 1e-08), wall={wall:.3f}s (<1s)",
    )


def test_c2_fringe_routes_agree(report):
    t0 = time.perf_counter()
    codes = [c for s in range(1, 6) for c in all_canonical_trees(5)[s]]
    assert len(codes) == 17
    worst = 0.0
    boundary_exact = True
    for kern, lam in ((UniformKernel(), 1.0), (AffineKernel(0.0), 2.0), (AffineKernel(1.0), 3.0)):
        table = fringe_recursion(5, kern, lam)
        for code in codes:
            worst = max(worst, abs(table.prob(code) - fringe_bruteforce(code, kern, lam)))
        want = lam / (lam + kern.evaluate(1))
        boundary_exact &= table.prob("()") == want == fringe_bruteforce("()", kern, lam)
    wall = time.perf_counter() - t0
    report(
        "C2",
        worst <= 1e-12 and boundary_exact and wall < 10.0,
        f"fringe recursion vs direct sum: worst |gap|={worst:.2e} (tol 1e-12), "
        f"singleton boundary exact={boundary_exact}, wall={wall:.2f}s (<10s)",
    )


# ---------------------------------------------------------------------------
# C3 / C4: simulated degree and fringe frequencies, four delay regimes
# ---------------------------------------------------------------------------


def _pad(v: np.ndarray, k: int) -> np.ndarray:
    return np.pad(v, (0, k - len(v)))


def _extrapolate(big, small, r: float):
    """Cancel the first-order n**-gamma bias from pools at N and N/16.

    If p_n = p + c * n**-gamma + o(n**-gamma), then with r = 16**-gamma
    (p_N - r * p_{N/16}) / (1 - r) = p + o(N**-gamma).
    """
    return (big - r * small) / (1.0 - r)


def _grow_pool(delay, base: int, n: int, codes, pair_keys) -> dict:
    """R_POOL frozen-seed trees of size n: pooled degree law, per-tree fringe rows."""
    pooled = np.zeros(0, dtype=np.int64)
    code_rows = np.zeros((R_POOL, len(codes)))
    pair_rows = np.zeros((R_POOL, len(pair_keys)))
    for r in range(R_POOL):
        tr = grow(GrowthConfig(ALPHA0, delay, n, seed=replicate_seed(base, r)))
        h = degree_hist(tr)
        counts = np.array([h.count(k) for k in range(1, h.max_degree() + 1)])
        pooled = _pad(pooled, max(len(pooled), len(counts)))
        pooled[: len(counts)] += counts
        cen = fringe_census(tr, cap=4)
        code_rows[r] = [cen.counts.get(c, 0) / n for c in codes]
        pairs = extended_fringe_law(cen.counts, 1)
        pair_rows[r] = [pairs.get(k, 0) / n for k in pair_keys]
    return {"degree": pooled / pooled.sum(), "code_rows": code_rows, "pair_rows": pair_rows}


@pytest.fixture(scope="module")
def regime_pool():
    """Grow all four frozen regimes once; C3 and C4 both read from this.

    A regime whose horizon X is heavy-tailed (``x_tail_index()`` is not
    None) also gets a second pool at N_SMALL, from which the tests cancel
    the model's own n**-gamma finite-size term.
    """
    table = fringe_recursion(4, ALPHA0, 2.0)
    codes = [c for s in range(1, 5) for c in all_canonical_trees(4)[s]]
    pair_theory = {k: v for k, v in extended_fringe_law(table.probs, 1).items() if v >= 0.01}
    pair_keys = sorted(pair_theory)
    t0 = time.perf_counter()
    pool = {"codes": codes, "table": table, "pair_theory": pair_theory, "pair_keys": pair_keys}
    for name, delay, base in REGIMES:
        entry = {"big": _grow_pool(delay, base, N_POOL, codes, pair_keys)}
        gamma = delay.x_tail_index()
        if gamma is not None:
            entry["small"] = _grow_pool(delay, base, N_SMALL, codes, pair_keys)
            entry["r"] = (N_POOL / N_SMALL) ** -gamma
        pool[name] = entry
    pool["wall"] = time.perf_counter() - t0
    return pool


def test_c3_pooled_degree_tv(regime_pool, report):
    def tv(p):
        return tv_distance(p, degree_law(ALPHA0, 2.0, len(p)))

    tvs, parts = {}, []
    for name, _, _ in REGIMES:
        entry = regime_pool[name]
        big = entry["big"]["degree"]
        if "small" not in entry:
            tvs[name] = tv(big)
            parts.append(f"{name}={tvs[name]:.5f}")
            continue
        small = entry["small"]["degree"]
        k = max(len(big), len(small))
        big, small, r = _pad(big, k), _pad(small, k), entry["r"]
        raw_big, raw_small = tv(big), tv(small)
        tvs[name] = tv(_extrapolate(big, small, r))
        parts.append(
            f"{name}: raw n={N_POOL} {raw_big:.5f}, n={N_SMALL} {raw_small:.5f}, "
            f"ratio {raw_big / raw_small:.3f} vs 16^-gamma={r:.3f}, extrapolated={tvs[name]:.5f}"
        )
    wall = regime_pool["wall"]
    ok = all(v < 0.01 for v in tvs.values()) and wall < 300.0
    detail = "pooled degree TV " + "; ".join(parts) + f" (tol 0.01), four-regime wall={wall:.0f}s (<300s)"
    report("C3", ok, detail)


def _mean_se(rows: np.ndarray):
    return rows.mean(axis=0), rows.std(axis=0, ddof=1) / np.sqrt(R_POOL)


def test_c4_fringe_and_pair_frequencies(regime_pool, report):
    codes = regime_pool["codes"]
    table = regime_pool["table"]
    pair_theory = regime_pool["pair_theory"]
    pair_keys = regime_pool["pair_keys"]
    theory = np.array([table.prob(c) for c in codes])
    ok = True
    worst_code, worst_code_at, worst_code_tol = -1.0, "", 0.0
    worst_pair, worst_pair_at = -1.0, ""
    heavy = []
    for name, _, _ in REGIMES:
        entry = regime_pool[name]
        mean, se = _mean_se(entry["big"]["code_rows"])
        pmean = entry["big"]["pair_rows"].mean(axis=0)
        if "small" in entry:
            r = entry["r"]
            mean_s, se_s = _mean_se(entry["small"]["code_rows"])
            raw_big = np.abs(mean - theory).max()
            raw_small = np.abs(mean_s - theory).max()
            mean = _extrapolate(mean, mean_s, r)
            se = np.sqrt(se**2 + (r * se_s) ** 2) / (1.0 - r)
            pmean = _extrapolate(pmean, entry["small"]["pair_rows"].mean(axis=0), r)
            heavy.append(
                f"{name}: raw n={N_POOL} {raw_big:.4f}, n={N_SMALL} {raw_small:.4f}, "
                f"ratio {raw_big / raw_small:.3f} vs 16^-gamma={r:.3f}, "
                f"extrapolated={np.abs(mean - theory).max():.4f}"
            )
        for j, code in enumerate(codes):
            gap = abs(mean[j] - theory[j])
            tol = max(3.0 * se[j], 0.01)
            if gap - tol > worst_code - worst_code_tol:
                worst_code, worst_code_tol, worst_code_at = gap, tol, f"{name}:{code}"
            ok &= gap <= tol
        for j, key in enumerate(pair_keys):
            gap = abs(pmean[j] - pair_theory[key])
            if gap > worst_pair:
                worst_pair, worst_pair_at = gap, f"{name}:{key[0]}<-{key[1]}"
            ok &= gap <= 0.01
    report(
        "C4",
        ok,
        f"fringe freqs: worst subtree gap={worst_code:.4f} (allowed {worst_code_tol:.4f}) "
        f"at {worst_code_at}; worst depth-1 pair gap={worst_pair:.4f} (tol 0.01) at {worst_pair_at}; "
        "worst subtree gap " + "; ".join(heavy),
    )


# ---------------------------------------------------------------------------
# C5: leaf-count CLT
# ---------------------------------------------------------------------------


def test_c5_leaf_count_clt(report):
    # replicate r grows from replicate_seed(2024, r)
    R, n = 500, 10_000
    plan = ExperimentPlan(
        GrowthConfig(ALPHA0, Uniform01Delay(beta=0.3), n, seed=2024), replicates=R, statistics=("clt",)
    )
    s = run(plan).statistics["clt"]["s_values"]
    assert len(s) == R
    sigma2 = clt_constants(0.0).sigma1_sq
    var = s.var(ddof=1)
    rel = abs(var - sigma2) / sigma2
    ad = stats.anderson(s, dist="norm", method="interpolate")
    ok = rel <= 0.15 and ad.pvalue > 0.01
    report(
        "C5",
        ok,
        f"leaf CLT: var={var:.5f} vs {sigma2:.5f} (rel {rel:.1%} <= 15%), "
        f"AD stat={ad.statistic:.3f}, p={ad.pvalue:.3f} (>0.01)",
    )


# ---------------------------------------------------------------------------
# C6: root-degree scaling, light vs heavy delay
# ---------------------------------------------------------------------------


def test_c6_root_degree_regimes(report):
    grid = np.array([1_000, 10_000, 100_000])
    reps = 50

    light = root_degree_constants(0.0, 0.5, Uniform01Delay(beta=0.5))
    assert light.regime == "l2"
    stable = 0
    for r in range(reps):
        tr = grow(GrowthConfig(ALPHA0, Uniform01Delay(beta=0.5), 100_000, seed=replicate_seed(61, r)))
        v = root_trajectory(tr, light.theta, grid=grid).over_ntheta
        stable += abs(v[-1] - v[-2]) / v[-2] < 0.10
    light_frac = stable / reps

    heavy = root_degree_constants(0.0, 0.5, InversePowerDelay(2.0, beta=0.5))
    assert heavy.regime == "heavy"
    floor = 0.5 * heavy.ex_x_truncated(100_000)
    grew, above = 0, 0
    for r in range(reps):
        tr = grow(
            GrowthConfig(ALPHA0, InversePowerDelay(2.0, beta=0.5), 100_000, seed=replicate_seed(62, r))
        )
        m = root_trajectory(tr, heavy.theta, grid=grid).values
        grew += m[-1] >= 2.0 * m[0]
        above += m[-1] >= floor
    ok = light_frac >= 0.80 and grew / reps >= 0.90 and above / reps >= 0.90
    report(
        "C6",
        ok,
        f"root degree: light drift<10% in {light_frac:.0%} (>=80%); heavy 2x growth in "
        f"{grew / reps:.0%}, above half-truncated-mean ({floor:.0f}) in {above / reps:.0%} (>=90%)",
    )


# ---------------------------------------------------------------------------
# C7: attachment samplers vs linear-scan oracle on every small history
# ---------------------------------------------------------------------------


def test_c7_sampler_distributions(report):
    t0 = time.perf_counter()
    worst = 0.0
    n_trees = 0
    # affine kernels (acceptance 1: the edge law) and two non-monotone tables
    kernels = (
        AffineKernel(0.0),
        AffineKernel(1.3),
        TabulatedKernel((1.0, 2.0, 1.5, 1.2), tail=("const",), f_star=1.0),
        TabulatedKernel((3.0, 1.0, 2.5), tail=("pow", 0.5), f_star=1.0),
    )
    for kern in kernels:
        for n in range(2, 9):
            for combo in itertools.product(*[range(1, v) for v in range(3, n + 1)]):
                parents = [0, 0, 1, *combo]
                tr = trace_from_parents(parents)
                n_trees += 1
                for m in range(1, n + 1):
                    base = attachment_distribution(tr, m, kern)
                    worst = max(worst, np.abs(thinning_distribution(tr, m, kern) - base).max())
    assert n_trees == len(kernels) * 5913  # sum over n<=8 of (n-1)! histories, once per kernel

    # a drawn-sample check of a non-monotone table on one frozen mid-sized history
    kern50 = TabulatedKernel((1.0, 2.0, 1.5, 1.2), tail=("const",), f_star=1.0)
    tr = grow(GrowthConfig(kern50, Uniform01Delay(beta=0.5), 50, seed=7))
    law = attachment_distribution(tr, 50, kern50)
    draws, _ = sample_parent_rejection(tr, 50, kern50, np.random.default_rng(12345), 1_000_000)
    counts = np.bincount(draws, minlength=51)[1:]
    chi = stats.chisquare(counts, 1_000_000 * law)
    wall = time.perf_counter() - t0
    report(
        "C7",
        worst <= 1e-12 and chi.pvalue > 0.001,
        f"samplers: worst analytic gap={worst:.2e} (tol 1e-12) over 5913 histories x {len(kernels)} kernels, "
        f"chi2 p={chi.pvalue:.4f} (>0.001) on 1e6 draws, wall={wall:.1f}s",
    )


# ---------------------------------------------------------------------------
# C8: delay admissibility scan
# ---------------------------------------------------------------------------


def test_c8_delay_condition_scan(report):
    grid = [100, 316, 1_000, 3_162, 10_000, 31_623, 100_000, 316_228, 1_000_000]
    families = (
        ("zero", ZeroDelay(beta=0.5)),
        ("const1", ConstantDelay(1.0, beta=0.5)),
        ("uniform01", Uniform01Delay(beta=0.5)),
        ("invpow1", InversePowerDelay(1.0, beta=0.5)),
        ("invpow2", InversePowerDelay(2.0, beta=0.5)),
    )
    verdicts = {}
    monotone = True
    for name, delay in families:
        scan = delay_condition_scan(delay, grid)
        verdicts[name] = scan.verdict
        monotone &= bool(np.all(np.diff(scan.e_values) <= 1e-12))
    ok = all(v == "satisfied" for v in verdicts.values()) and monotone
    report(
        "C8",
        ok,
        "delay scan verdicts "
        + " ".join(f"{k}={v}" for k, v in verdicts.items())
        + f", e_n tables monotone nonincreasing={monotone}",
    )


# ---------------------------------------------------------------------------
# C9: byte-identical reruns
# ---------------------------------------------------------------------------


def test_c9_rerun_byte_identical(tmp_path, report):
    def one(sub):
        cfg = GrowthConfig(ALPHA0, Uniform01Delay(beta=0.5), 2_000, seed=9)
        plan = ExperimentPlan(
            config=cfg,
            replicates=3,
            statistics=("degree", "fringe", "root", "clt", "delay-scan"),
            outdir=str(tmp_path / sub),
        )
        run(plan)

    one("a")
    one("b")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    same = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in names
    )
    report(
        "C9",
        len(names) == 7 and same,
        f"rerun of a full plan reproduced all {len(names)} artifact files byte-for-byte",
    )
