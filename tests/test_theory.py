"""Analytic side: growth-rate root, degree law, fringe measures, constants.

The hand-derived anchor values used here were each computed twice (closed
form and independent series/enumeration) before being frozen.
"""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import delaytree
from delaytree.canonical import all_canonical_trees, top_level_children
from delaytree.errors import ArgumentError
from delaytree.kernels import (
    AffineKernel,
    ConstantDelay,
    InversePowerDelay,
    ParetoDelay,
    QuantileTableDelay,
    TabulatedKernel,
    Uniform01Delay,
    UniformKernel,
    ZeroDelay,
    snapshot_times,
)
from delaytree.theory import (
    CltConstants,
    clt_constants,
    degree_law,
    extended_fringe_law,
    fringe_bruteforce,
    fringe_recursion,
    rho_hat,
    rho_hat_series,
    root_degree_constants,
    snapshot_law,
    solve_malthusian,
    tree_weight,
)

TAB_SQRT2 = TabulatedKernel(values=(1.0, 2.0, 2.0), tail=("const",), f_star=1.0, monotone=True)


# ---------------------------------------------------------------------------
# growth rate (the unique lambda with transform value 1)
# ---------------------------------------------------------------------------


def test_rho_hat_closed_forms():
    assert rho_hat(UniformKernel(), 2.0) == pytest.approx(0.5)
    assert rho_hat(UniformKernel(), 0.25) == pytest.approx(4.0)
    assert rho_hat(AffineKernel(0.0), 3.0) == pytest.approx(0.5)
    assert rho_hat(AffineKernel(1.0), 3.0) == pytest.approx(1.0)
    assert rho_hat(AffineKernel(0.0), 1.0) == math.inf
    assert rho_hat(AffineKernel(0.0), 0.5) == math.inf


def test_series_brackets_the_closed_form():
    # the truncated sum plus its certified tail bound must sandwich the
    # closed form (up to summation roundoff, far below the bound itself)
    kern = AffineKernel(0.0)
    lam = 2.5
    detail = rho_hat_series(kern, lam)
    closed = rho_hat(kern, lam)
    slack = 1e-13
    assert detail.partial <= closed + slack
    assert closed <= detail.partial + detail.tail_bound + slack
    assert detail.tail_bound < 1e-6
    assert detail.terms > 50


def test_series_divergence_and_early_exit():
    d = rho_hat_series(AffineKernel(0.0), 1.2, stop_above=1.0)
    assert d.partial > 1.0
    assert d.terms < 10_000
    # sup-bounded kernel: geometric tail bound is finite and tight-ish
    d2 = rho_hat_series(TAB_SQRT2, 1.5, tol=1e-13)
    assert d2.value == pytest.approx((1.5 + 2.0) / (1.5 * 2.5), abs=1e-10)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0, 3.7])
def test_malthusian_affine(alpha):
    res = solve_malthusian(AffineKernel(alpha))
    assert res.lambda_star == pytest.approx(2.0 + alpha, abs=1e-9)
    assert res.rho_at_solution == pytest.approx(1.0, abs=1e-9)
    lo, hi = res.bracket
    assert lo <= res.lambda_star <= hi


def test_malthusian_uniform():
    assert solve_malthusian(UniformKernel()).lambda_star == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize(
    "kernel, want",
    [
        (UniformKernel(), "0x1.0000000000080p+0"),
        (AffineKernel(0.0), "0x1.0000000000080p+1"),
        (AffineKernel(0.5), "0x1.4000000000000p+1"),
        (AffineKernel(1.3), "0x1.a666666666700p+1"),
    ],
    ids=("uniform", "affine0", "affine0.5", "affine1.3"),
)
def test_malthusian_linear_kernels_bit_for_bit(kernel, want):
    # the closed form's float operations fix lambda* to the last bit
    assert solve_malthusian(kernel).lambda_star.hex() == want


@pytest.mark.parametrize(
    "kernel, want",
    [
        (
            TabulatedKernel(values=(1.0, 1.4, 1.7, 2.0), tail=("pow", 0.5), f_star=1.0, monotone=True),
            "0x1.5241c52b59100p+0",  # 1.3213160734968028
        ),
        (
            TabulatedKernel(values=(1.0, 2.0, 1.5, 1.2), tail=("const",), f_star=1.0),
            "0x1.432b75a37ed00p+0",  # 1.2623818897398564
        ),
    ],
    ids=("pow-tail", "bumpy"),
)
def test_malthusian_tabulated_kernels_bit_for_bit(kernel, want):
    # the two tabulated-growth kernels: the bisection over the series fixes lambda* to the last bit
    assert solve_malthusian(kernel).lambda_star.hex() == want


def test_malthusian_tabulated_sqrt2():
    # for the table (1, 2, 2, ...) the fixed point solves
    # (lam + 2) / (lam (lam + 1)) = 1, hence lam = sqrt(2)
    res = solve_malthusian(TAB_SQRT2)
    assert res.lambda_star == pytest.approx(math.sqrt(2.0), abs=1e-9)


@pytest.mark.parametrize("c", (0.1, 1e-6, 1e-11, 1e-12, 1e-13))
def test_malthusian_constant_table_below_one(c):
    # the constant table c has rho(lam) = c/lam, so lambda* = c; below 1 the bracket search halves
    # downwards, for as many steps as it may double upwards, and the bisection must stop on a width
    # relative to lambda*, not an absolute one
    res = solve_malthusian(TabulatedKernel((c,), ("const",), f_star=c))
    assert res.lambda_star == pytest.approx(c, rel=1e-12, abs=0.0)
    assert abs(res.rho_at_solution - 1.0) <= 1e-10
    lo, hi = res.bracket
    assert lo <= res.lambda_star <= hi < 1.0


def test_malthusian_pow_tail_self_consistent():
    kern = TabulatedKernel(values=(1.0, 1.5), tail=("pow", 0.5), f_star=1.0, monotone=True)
    res = solve_malthusian(kern)
    assert res.lambda_star == pytest.approx(1.3444140963665632, abs=1e-6)
    assert abs(rho_hat(kern, res.lambda_star) - 1.0) < 1e-8
    assert res.truncation_terms > 10


# ---------------------------------------------------------------------------
# stationary degree law
# ---------------------------------------------------------------------------


def test_degree_law_proportional():
    p = degree_law(AffineKernel(0.0), 2.0, 40)
    for k in range(1, 13):
        assert p[k - 1] == pytest.approx(4.0 / (k * (k + 1) * (k + 2)), rel=1e-12)


def test_degree_law_uniform():
    p = degree_law(UniformKernel(), 1.0, 30)
    np.testing.assert_allclose(p, 0.5 ** np.arange(1, 31), rtol=1e-12)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
def test_degree_law_leaf_share(alpha):
    p = degree_law(AffineKernel(alpha), 2.0 + alpha, 10)
    assert p[0] == pytest.approx((2.0 + alpha) / (3.0 + 2.0 * alpha), rel=1e-12)


def test_degree_law_telescopes_to_one():
    # survival product: sum_{k<=K} p_k + prod_{j<=K} f(j)/(lam+f(j)) == 1
    for kern, lam in [(AffineKernel(1.0), 3.0), (TAB_SQRT2, math.sqrt(2.0)), (UniformKernel(), 1.0)]:
        K = 60
        p = degree_law(kern, lam, K)
        prod = 1.0
        for j in range(1, K + 1):
            prod *= kern.evaluate(j) / (lam + kern.evaluate(j))
        assert p.sum() + prod == pytest.approx(1.0, abs=1e-12)


def test_degree_law_ratio_recursion():
    kern = AffineKernel(0.4)
    lam = 2.4
    p = degree_law(kern, lam, 25)
    for k in range(1, 24):
        assert p[k] / p[k - 1] == pytest.approx(
            kern.evaluate(k) / (lam + kern.evaluate(k + 1)), rel=1e-12
        )


# ---------------------------------------------------------------------------
# fringe law, both routes
# ---------------------------------------------------------------------------


def test_tree_weight():
    aff = AffineKernel(0.0)
    assert tree_weight("()", aff) == 1.0
    assert tree_weight("(())", aff) == 3.0  # f(2) + f(1)
    assert tree_weight("((())())", aff) == pytest.approx(3.0 + 2.0 + 1.0 + 1.0)


HAND_ANCHORS = {
    # proportional kernel, lam = 2; enumerated by hand over birth histories
    "()": 2.0 / 3.0,
    "(())": 2.0 / 15.0,
    "(()())": 4.0 / 105.0,
    "((()))": 2.0 / 105.0,
    "((())())": 12.0 / 945.0,
}


def test_bruteforce_hand_anchors():
    for code, want in HAND_ANCHORS.items():
        assert fringe_bruteforce(code, AffineKernel(0.0), 2.0) == pytest.approx(want, rel=1e-12)


def test_bruteforce_boundary_other_kernels():
    # singleton mass is lam/(lam + f(1)) for every kernel
    assert fringe_bruteforce("()", AffineKernel(1.0), 3.0) == pytest.approx(0.6)
    assert fringe_bruteforce("()", UniformKernel(), 1.0) == pytest.approx(0.5)
    s2 = math.sqrt(2.0)
    assert fringe_bruteforce("()", TAB_SQRT2, s2) == pytest.approx(s2 / (s2 + 1.0))


def test_bruteforce_rejects_non_canonical():
    with pytest.raises(ArgumentError):
        fringe_bruteforce("(()(()))", AffineKernel(0.0), 2.0)  # children out of order


@pytest.mark.parametrize(
    "kern,lam",
    [
        (AffineKernel(0.0), 2.0),
        (AffineKernel(1.0), 3.0),
        (UniformKernel(), 1.0),
        (TAB_SQRT2, math.sqrt(2.0)),
    ],
)
def test_recursion_equals_bruteforce(kern, lam):
    table = fringe_recursion(6, kern, lam)
    for size, codes in all_canonical_trees(6).items():
        for code in codes:
            assert table.prob(code) == pytest.approx(
                fringe_bruteforce(code, kern, lam), abs=1e-13
            ), code


def _root_child_marginal(table, c: int) -> float:
    """Reference: the mass of the table's trees whose root has exactly c children."""
    return float(sum(p for code, p in table.probs.items() if len(top_level_children(code)) == c))


def test_table_shape_and_marginals():
    table = fringe_recursion(5, AffineKernel(0.0), 2.0)
    sizes = all_canonical_trees(5)
    assert set(table.probs) == {c for codes in sizes.values() for c in codes}
    assert table.prob("()") == 2.0 / 3.0  # boundary value, exact
    assert 0.9 < table.total_mass() < 1.0
    assert _root_child_marginal(table, 0) == pytest.approx(2.0 / 3.0)
    per_c = sum(_root_child_marginal(table, c) for c in range(5))
    assert per_c == pytest.approx(table.total_mass())
    with pytest.raises(ArgumentError):
        table.prob("(((((())))))")  # larger than the cap


def test_fringe_mass_by_size_proportional():
    # for f(k)=k, lam=2 the size marginal telescopes: the mass of all
    # shapes on s vertices is 2/((2s-1)(2s+1)), summing to 1 over s
    table = fringe_recursion(6, AffineKernel(0.0), 2.0)
    by_size = {}
    for code, p in table.probs.items():
        by_size[code.count("(")] = by_size.get(code.count("("), 0.0) + p
    for s in range(1, 7):
        assert by_size[s] == pytest.approx(2.0 / ((2 * s - 1) * (2 * s + 1)), rel=1e-10), s


def test_q_matrix():
    # the Q matrix of the extended fringe law is the root-child subtree count
    assert top_level_children("((())())").count("()") == 1
    assert top_level_children("((())())").count("(())") == 1
    assert top_level_children("(()()())").count("()") == 3
    assert top_level_children("((()))").count("()") == 0


def test_extended_law_depth0_is_the_table():
    table = fringe_recursion(4, AffineKernel(0.0), 2.0)
    chains = extended_fringe_law(table.probs, 0)
    assert chains == {(code,): p for code, p in table.probs.items()}


def test_extended_law_depth1_anchors():
    table = fringe_recursion(5, AffineKernel(0.0), 2.0)
    chains = extended_fringe_law(table.probs, 1)
    # child-first keys: (own shape, parent shape)
    assert chains[("()", "(())")] == pytest.approx(2.0 / 15.0)
    assert chains[("()", "(()())")] == pytest.approx(8.0 / 105.0)  # two leaf slots
    assert chains[("(())", "((()))")] == pytest.approx(2.0 / 105.0)
    assert chains[("(())", "((())())")] == pytest.approx(12.0 / 945.0)
    assert all(mass > 0 for mass in chains.values())


def test_extended_law_total_mass_identity():
    # summing depth-1 chains over both slots counts each parent once per
    # root child: sum = sum_t pi(t) * (number of root children of t)
    table = fringe_recursion(7, AffineKernel(0.0), 2.0)
    chains = extended_fringe_law(table.probs, 1)
    total = sum(chains.values())
    by_hand = sum(p * len(top_level_children(code)) for code, p in table.probs.items())
    assert total == pytest.approx(by_hand, abs=1e-14)


def test_extended_law_depth2_formula():
    table = fringe_recursion(5, AffineKernel(0.0), 2.0)
    chains = extended_fringe_law(table.probs, 2)
    host = "((())())"
    want = table.prob(host) * top_level_children(host).count("(())") * top_level_children("(())").count("()")
    assert chains[("()", "(())", "((())())")] == pytest.approx(want, rel=1e-12)


def _sha(lines) -> str:
    return hashlib.sha256("".join(lines).encode()).hexdigest()


@pytest.mark.parametrize(
    "kernel, fringe_digest, chain_digest",
    [
        (
            AffineKernel(1.3),
            "6e0e23e0da837b85e89353890e434c1c70a6e31db980dda2e4e906fd93bbf7c0",
            "025437cd1744ec8f7eb2b071666999f1fa435767c83231fabffae4b14c0f1e4b",
        ),
        (
            TabulatedKernel((1.0, 2.0, 1.5, 1.2), ("const",), f_star=1.0),
            "85de0cffcbfb513afc956dcc6d85884b7374e969aea1c909bb6a63b3f2ed6af3",
            "117b8fdd64007619c16e5a097aa1ee23ce5800d098f38a0535b6006abd0f688e",
        ),
    ],
    ids=("affine1.3", "bumpy"),
)
def test_oracles_are_golden(kernel, fringe_digest, chain_digest):
    # every bit of the fringe table at cap 10 and of the depth-2 chain law at cap 6
    lam = solve_malthusian(kernel).lambda_star
    probs = fringe_recursion(10, kernel, lam).probs
    assert len(probs) == 1205
    assert _sha(f"{code} {p!r}\n" for code, p in sorted(probs.items())) == fringe_digest
    chains = extended_fringe_law(fringe_recursion(6, kernel, lam).probs, 2)
    assert len(chains) == 38
    assert _sha(f"{'|'.join(key)} {p!r}\n" for key, p in sorted(chains.items())) == chain_digest


_CHAIN_ORDER = (
    "from delaytree import AffineKernel, extended_fringe_law, fringe_recursion; "
    "print(list(extended_fringe_law(fringe_recursion(5, AffineKernel(0.0), 2.0).probs, 1)))"
)


def test_extended_law_order_ignores_the_hash_seed():
    # the chain law's key order, and so any float sum over its values, is the same in every process
    src = str(Path(delaytree.__file__).resolve().parents[1])
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", _CHAIN_ORDER], capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# scalar constants
# ---------------------------------------------------------------------------


def test_clt_constants():
    c0 = clt_constants(0.0)
    assert c0 == CltConstants(p1=pytest.approx(2.0 / 3.0), sigma1_sq=pytest.approx(1.0 / 9.0))
    c1 = clt_constants(1.0)
    assert c1.p1 == pytest.approx(0.6)
    assert c1.sigma1_sq == pytest.approx(18.0 / 175.0)
    with pytest.raises(ArgumentError):
        clt_constants(-0.5)


def test_root_degree_constants_regimes():
    light = root_degree_constants(0.0, Uniform01Delay(beta=0.5))
    assert light.theta == pytest.approx(0.5)
    assert light.regime == "l2"
    heavy_delay = InversePowerDelay(p=2.0, beta=0.5)
    heavy = root_degree_constants(0.0, heavy_delay)
    assert heavy.regime == "heavy"
    assert heavy_delay.x_tail_index() == pytest.approx(0.25)
    assert not heavy_delay.x_power_moment_finite(1.0)
    assert heavy_delay.ex_x_truncated(16.0) == pytest.approx(31.0 / 3.0)
    # U**-1 delay: E[X^(1/2)] has a log-divergent integral -> heavy too
    assert root_degree_constants(0.0, InversePowerDelay(p=1.0, beta=0.5)).regime == "heavy"
    assert root_degree_constants(0.0, ZeroDelay(beta=0.5)).regime == "l2"
    assert root_degree_constants(1.0, Uniform01Delay(beta=0.5)).theta == pytest.approx(1 / 3)


def test_root_degree_constants_validation():
    with pytest.raises(ArgumentError):
        root_degree_constants(-1.0, Uniform01Delay(beta=0.5))


# ---------------------------------------------------------------------------
# snapshot law
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("c", (1.0, 0.5))
def test_snapshot_law_of_a_constant_delay_sits_on_the_snapshot_time(c):
    # the slab edges and snapshot_times round alike, also where c * t**beta is an integer (t = 4 under c = 1)
    delay = ConstantDelay(c, beta=0.5)
    for t in range(1, 2001):
        law = snapshot_law(delay, t)
        (m,) = snapshot_times(np.array([t]), np.array([c]), 0.5).tolist()
        assert law[m - 1] == 1.0 and law.sum() == 1.0, (t, m, np.flatnonzero(law) + 1)


@pytest.mark.parametrize(
    "delay",
    (
        ZeroDelay(beta=0.5),
        ConstantDelay(1.7, beta=0.3),
        Uniform01Delay(beta=0.5),
        InversePowerDelay(2.0, beta=0.5),
        InversePowerDelay(0.5, beta=0.75),
        ParetoDelay(tail_index=1.5, scale=2.0, beta=0.4),
        QuantileTableDelay(us=(0.0, 0.25, 0.5, 0.5, 1.0), qs=(0.0, 1.0, 1.0, 2.0, 3.0), beta=0.5),
    ),
    ids=("zero", "const", "uniform01", "invpow2", "invpow0.5", "pareto", "qtable"),
)
def test_snapshot_law_is_a_law_on_1_to_t(delay):
    for t in (1, 2, 3, 4, 10, 257, 5000):
        law = snapshot_law(delay, t)
        assert law.shape == (t,) and law.min() >= 0.0, t
        assert law.sum() == pytest.approx(1.0, abs=1e-12), t
    with pytest.raises(ArgumentError):
        snapshot_law(delay, 0)
