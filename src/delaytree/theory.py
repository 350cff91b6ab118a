"""Analytic limit objects for snapshot preferential attachment.

Everything here is exact (no simulation): the kernel transform
rho(lam) = sum_{k>=1} prod_{i<=k} f(i)/(lam + f(i)) and its Malthusian
root lam* with rho(lam*) = 1; the limiting degree law

    p_k = [lam* / (lam* + f(k))] * prod_{j=1}^{k-1} f(j)/(lam* + f(j));

the fringe-subtree distribution over canonical rooted trees, computed two
independent ways (exhaustive history enumeration, and a bottom-up
leaf-attachment recursion) so each can police the other; the scalar
constants for the leaf CLT and the root-degree growth scales; and the exact
finite-n law of the snapshot an arrival reads.

Tree weights follow the jump-chain convention: a vertex with c children
weighs f(c + 1) -- that is the rate at which it acquires child c+1 -- so a
tree t has total weight W(t) = sum_v f(c_v + 1) and the singleton fringe
probability is lam*/(lam* + f(1)).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .canonical import (
    SINGLETON,
    attach_leaf,
    child_counts,
    code_from_parents,
    code_of_nested,
    decode,
    positions,
    top_level_children,
)
from .errors import ArgumentError, AssumptionError, check_count
from .kernels import AttachmentKernel, DelayLaw, snapshot_slabs
from . import canonical as _canonical

__all__ = [
    "rho_hat",
    "rho_hat_series",
    "SeriesDetail",
    "solve_malthusian",
    "MalthusianResult",
    "degree_law",
    "tree_weight",
    "fringe_bruteforce",
    "fringe_recursion",
    "FringeTable",
    "extended_fringe_law",
    "clt_constants",
    "CltConstants",
    "root_degree_constants",
    "RootDegreeConstants",
    "snapshot_law",
]


# ---------------------------------------------------------------------------
# The kernel transform and its Malthusian root
# ---------------------------------------------------------------------------

_PROD_FLOOR = 1e-15  # the series stops once its running product is below this and its tail is certified
_HARD_CAP = 10**6  # terms summed at most
_MALTHUS_TOL = 1e-10  # solve_malthusian's bound on |rho(lambda*) - 1|


@dataclass(frozen=True)
class SeriesDetail:
    """Partial sum of the transform series with a certified tail bound."""

    partial: float
    terms: int
    tail_bound: float

    @property
    def value(self) -> float:
        if not math.isfinite(self.tail_bound):
            return math.inf
        return self.partial


def _tail_bound(kernel: AttachmentKernel, lam: float, k: int, prod: float) -> float:
    """Upper bound on sum_{j>k} prod_{i<=j} f(i)/(lam+f(i)) given prodate k.

    Bounded kernels get the geometric bound with ratio sup/(lam+sup);
    otherwise f(i) <= a*i + b gives, via 1/(1+x) <= exp(-x/(1+x)),
    tail <= prod * (lam + b + a(k+1)) / (lam - a) whenever lam > a.
    """
    sup = kernel.sup_value()
    if sup is not None:
        r = sup / (lam + sup)
        return prod * r / (1.0 - r)
    a, b = kernel.linear_bound()
    if lam > a:
        return prod * (lam + b + a * (k + 1)) / (lam - a)
    return math.inf


def rho_hat_series(
    kernel: AttachmentKernel,
    lam: float,
    tol: float = 1e-12,
    stop_above: float | None = None,
) -> SeriesDetail:
    """Direct series evaluation with adaptive, certified truncation.

    Terms are accumulated until the running product drops below
    _PROD_FLOOR *and* the tail certificate is below ``tol``, or for
    _HARD_CAP terms.  Partial sums beyond 1e6 abort with an infinite flag
    (divergence).  When ``stop_above`` is set, accumulation ends early as
    soon as the partial sum (a lower bound on the true value) exceeds it --
    handy when only the comparison against 1 matters.
    """
    if lam <= 0.0:
        return SeriesDetail(math.inf, 0, math.inf)
    s = 0.0
    prod = 1.0
    k = 0
    evaluate = kernel.evaluate
    while True:
        k += 1
        fk = evaluate(k)
        prod *= fk / (lam + fk)
        s += prod
        if s > 1e6:
            return SeriesDetail(math.inf, k, math.inf)
        if stop_above is not None and s > stop_above:
            return SeriesDetail(s, k, math.inf)
        if prod < _PROD_FLOOR:
            bound = _tail_bound(kernel, lam, k, prod)
            if bound < tol:
                return SeriesDetail(s, k, bound)
        if prod == 0.0:
            return SeriesDetail(s, k, 0.0)
        if k >= _HARD_CAP:
            return SeriesDetail(s, k, _tail_bound(kernel, lam, k, prod))


def rho_hat(kernel: AttachmentKernel, lam: float) -> float:
    """Value of the transform, +inf when the series diverges.

    A linear kernel f(k) = a*k + b -- uniform (a = 0, b = 1) or affine
    (a = 1, b = alpha) -- sums to (a + b)/(lam - a) for lam > a (the series
    telescopes through ratios of rising factorials); that closed form is
    used directly and is cross-checked against the series in the tests.
    """
    if kernel.kind in ("uniform", "affine"):
        a, b = kernel.linear_bound()
        return math.inf if lam <= a else (a + b) / (lam - a)
    return rho_hat_series(kernel, lam).value


def _compare_to_one(kernel: AttachmentKernel, lam: float) -> int:
    """Sign of rho(lam) - 1: +1, -1, or 0 when within resolution."""
    if kernel.kind in ("uniform", "affine"):
        val = rho_hat(kernel, lam)
        if not math.isfinite(val):
            return 1
        if abs(val - 1.0) <= 1e-14:
            return 0
        return 1 if val > 1.0 else -1
    detail = rho_hat_series(kernel, lam, stop_above=1.0 + 1e-12)
    if not math.isfinite(detail.tail_bound):
        # partial sum crossed the early-exit line or diverged: rho > 1
        return 1
    hi = detail.partial + detail.tail_bound
    if detail.partial > 1.0:
        return 1
    if hi < 1.0:
        return -1
    return 0


@dataclass(frozen=True)
class MalthusianResult:
    lambda_star: float
    rho_at_solution: float
    truncation_terms: int
    bracket: tuple[float, float]


def solve_malthusian(kernel: AttachmentKernel) -> MalthusianResult:
    """Bisection for the root of rho(lam) = 1 (rho is strictly decreasing), to |rho - 1| <= _MALTHUS_TOL.

    Raises AssumptionError when no bracket exists on the feasible ray,
    which for admissible kernels (positive, at most linear) cannot happen.
    """
    hi = 1.0
    for _ in range(200):
        if _compare_to_one(kernel, hi) < 0:
            break
        hi *= 2.0
    else:
        raise AssumptionError("rho never drops below 1; kernel violates the standing assumptions")
    lo = hi / 2.0
    while _compare_to_one(kernel, lo) < 0:
        hi = lo
        lo /= 2.0
        if lo < 1e-12:
            raise AssumptionError("rho never reaches 1; kernel violates the standing assumptions")
    bracket = (lo, hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        sign = _compare_to_one(kernel, mid)
        if sign == 0:
            lo = hi = mid
            break
        if sign > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(1.0, hi):
            break
    lam = 0.5 * (lo + hi)
    detail = (
        rho_hat_series(kernel, lam)
        if kernel.kind not in ("uniform", "affine")
        else SeriesDetail(rho_hat(kernel, lam), 0, 0.0)
    )
    rho_val = detail.value if math.isfinite(detail.tail_bound) else detail.partial
    if not (abs(rho_val - 1.0) <= _MALTHUS_TOL):
        raise AssumptionError(f"bisection failed to reach |rho - 1| <= {_MALTHUS_TOL}: got {rho_val}")
    return MalthusianResult(
        lambda_star=lam,
        rho_at_solution=rho_val,
        truncation_terms=detail.terms,
        bracket=bracket,
    )


# ---------------------------------------------------------------------------
# Limiting degree law
# ---------------------------------------------------------------------------


def degree_law(kernel: AttachmentKernel, lambda_star: float, k_max: int) -> np.ndarray:
    """p_k for k = 1..k_max (index 0 holds p_1).

    Telescoping identity, exact for every positive normaliser:
    sum_{k<=K} p_k + prod_{j<=K} f(j)/(lam + f(j)) = 1.
    """
    if k_max < 1:
        raise ArgumentError("k_max must be >= 1")
    if lambda_star <= 0.0:
        raise ArgumentError("lambda_star must be > 0")
    p = np.empty(k_max)
    prod = 1.0
    for k in range(1, k_max + 1):
        fk = kernel.evaluate(k)
        p[k - 1] = prod * lambda_star / (lambda_star + fk)
        prod *= fk / (lambda_star + fk)
    return p


# ---------------------------------------------------------------------------
# Fringe distribution: brute force and recursion
# ---------------------------------------------------------------------------


def tree_weight(tree, kernel: AttachmentKernel) -> float:
    """W(t) = sum over vertices of f(child count + 1)."""
    if isinstance(tree, str):
        tree = decode(tree)
    return sum(kernel.evaluate(c + 1) for c in child_counts(tree))


@lru_cache(maxsize=64)
def _history_table(size: int, kernel: AttachmentKernel, lam: float) -> dict:
    """Fringe mass per canonical code, by exhaustive history enumeration.

    Every birth-ordered labelled tree on ``size`` vertices (parent arrays
    with parents[v] < v) is a distinct sample path of the embedded jump
    chain; its probability is the product over births of
    f(c_parent + 1)/(lam + W(partial tree)) times the terminal factor
    lam/(lam + W(t)).  Grouping paths by canonical shape gives the fringe
    law with isomorphism multiplicities handled exactly, no automorphism
    bookkeeping required.
    """
    f1 = kernel.evaluate(1)
    if size == 1:
        return {SINGLETON: lam / (lam + f1)}
    table: dict = {}
    evaluate = kernel.evaluate
    for parr in itertools.product(*[range(1, v) for v in range(2, size + 1)]):
        c = [0] * (size + 1)
        w = f1
        prod = 1.0
        for i, p in enumerate(parr):
            prod *= evaluate(c[p] + 1) / (lam + w)
            w += f1 + evaluate(c[p] + 2) - evaluate(c[p] + 1)
            c[p] += 1
        parents = [0, 0, *parr]
        code = code_from_parents(parents)
        table[code] = table.get(code, 0.0) + prod * lam / (lam + w)
    return table


def fringe_bruteforce(tree, kernel: AttachmentKernel, lambda_star: float) -> float:
    """Limit fringe probability of one canonical tree, by enumeration.

    Exponential in the tree size; intended as the oracle for sizes <= 7.
    """
    code = str(tree)
    size = code.count("(")
    if size < 1:
        raise ArgumentError("empty tree code")
    table = _history_table(size, kernel, float(lambda_star))
    try:
        return table[code]
    except KeyError:
        raise ArgumentError(f"code {code!r} is not canonical") from None


@dataclass(frozen=True)
class FringeTable:
    """Fringe probabilities for every canonical tree up to a size cap."""

    probs: dict
    size_cap: int
    lambda_star: float
    kernel: AttachmentKernel

    def prob(self, tree) -> float:
        code = str(tree)
        if code.count("(") > self.size_cap:
            raise ArgumentError(f"tree larger than table cap {self.size_cap}")
        return self.probs[code]

    def total_mass(self) -> float:
        return float(sum(self.probs.values()))


def fringe_recursion(size_cap: int, kernel: AttachmentKernel, lambda_star: float) -> FringeTable:
    """Bottom-up fringe table.

    A tree t on s vertices is reached from a tree s' on s-1 vertices by
    attaching a leaf at some vertex v of s'; the move carries weight
    f(c_v + 1).  Summing over every vertex of every predecessor (two
    automorphic attachment sites contribute twice -- they are distinct
    histories) and dividing by lam + W(t) gives

        pi(t) = [sum_{s', v : s' + leaf at v ~ t} pi(s') f(c_v + 1)] / (lam + W(t)),

    anchored at pi(singleton) = lam/(lam + f(1)).  This is the
    youngest-child deletion identity read forwards, aggregated over
    canonical forms.
    """
    if size_cap < 1:
        raise ArgumentError("size_cap must be >= 1")
    lam = float(lambda_star)
    values: dict = {SINGLETON: lam / (lam + kernel.evaluate(1))}
    frontier = [SINGLETON]
    for _ in range(2, size_cap + 1):
        contrib: dict = {}
        for code in frontier:
            t = decode(code)
            val = values[code]
            for path in positions(t):
                sub = t
                for i in path:
                    sub = sub[i]
                weight = kernel.evaluate(len(sub) + 1)
                new_code = code_of_nested(attach_leaf(t, path))
                contrib[new_code] = contrib.get(new_code, 0.0) + val * weight
        for new_code, num in contrib.items():
            values[new_code] = num / (lam + tree_weight(new_code, kernel))
        frontier = sorted(contrib)
    table = FringeTable(probs=values, size_cap=size_cap, lambda_star=lam, kernel=kernel)
    total = table.total_mass()
    if not (0.0 < total <= 1.0 + 1e-12):
        raise AssumptionError(f"fringe table mass {total} outside (0, 1]")
    return table


def extended_fringe_law(masses, depth: int) -> dict:
    """Joint law of the fringe chain (t_0, ..., t_depth) along ancestors.

    ``masses`` maps each code to its mass: the limit law pi
    (``FringeTable.probs``), or the fringe counts of one or more trees.
    Keys are tuples of codes ordered child-first; the mass of
    (t_0, ..., t_d) is masses(t_d) * prod_{j=1}^{d} Q(t_j, t_{j-1}), where
    Q counts root-children subtrees.  Depth 0 recovers the plain masses.
    A vertex of shape s has exactly the children of s, so integer fringe
    counts give the integer counts of the chains that fit under the cap:
    at depth 1, the (own shape, parent's shape) pair counts.
    """
    if depth < 0:
        raise ArgumentError("depth must be >= 0")
    level = {(code,): p for code, p in masses.items()}
    for _ in range(depth):
        nxt: dict = {}
        for key, mass in level.items():
            head = key[0]
            for sub in set(top_level_children(head)):
                q = _canonical.q_count(head, sub)
                nxt[(sub,) + key] = mass * q
        level = nxt
    return level


# ---------------------------------------------------------------------------
# Scalar constants: leaf CLT and root-degree scales
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CltConstants:
    p1: float
    sigma1_sq: float


def clt_constants(alpha: float) -> CltConstants:
    """Limit leaf fraction and CLT variance for the affine kernel.

    p_1 = (2+alpha)/(3+2alpha);
    sigma_1^2 = (1+alpha)(2+alpha)^2 / ((3+2alpha)^2 (4+3alpha)).
    """
    if alpha < 0.0:
        raise ArgumentError("alpha must be >= 0")
    p1 = (2.0 + alpha) / (3.0 + 2.0 * alpha)
    sigma = (1.0 + alpha) * (2.0 + alpha) ** 2 / ((3.0 + 2.0 * alpha) ** 2 * (4.0 + 3.0 * alpha))
    return CltConstants(p1=p1, sigma1_sq=sigma)


@dataclass(frozen=True)
class RootDegreeConstants:
    """Growth scales for the root's degree under a given delay tail.

    theta = 1/(2+alpha) is the light-regime exponent: M(n)/n**theta
    converges when E[X**(1-theta)] is finite, X = xi**(1/(1-beta)).
    Otherwise the root is delay-dominated and M(n) tracks E[min(X, n)].
    """

    theta: float
    regime: str  # "l2" or "heavy"
    x_tail_index: float | None
    mean_x_finite: bool
    delay: DelayLaw

    def ex_x_truncated(self, n: float) -> float:
        return self.delay.ex_x_truncated(n)


def root_degree_constants(alpha: float, delay: DelayLaw) -> RootDegreeConstants:
    if alpha < 0.0:
        raise ArgumentError("alpha must be >= 0")
    theta = 1.0 / (2.0 + alpha)
    light = delay.x_power_moment_finite(1.0 - theta)
    return RootDegreeConstants(
        theta=theta,
        regime="l2" if light else "heavy",
        x_tail_index=delay.x_tail_index(),
        mean_x_finite=delay.x_power_moment_finite(1.0),
        delay=delay,
    )


# ---------------------------------------------------------------------------
# Snapshot law: the one way a delay reaches the tree
# ---------------------------------------------------------------------------


def snapshot_law(delay: DelayLaw, t: int) -> np.ndarray:
    """P(m = j) for j = 1..t: the law of the snapshot m = max(floor(t - t**beta * xi), 1).

    This is the snapshot that the arrival at time t + 1 reads.  Slab j of
    the floor, xi in (a_j, b_j], has mass S(a_j) - S(b_j), S the delay's
    survival; the clamp folds every floor below 1 into slab 1, of mass S(a_1).
    """
    t = check_count("t", t, 1)
    a, b = snapshot_slabs(t, np.arange(1, t + 1, dtype=np.float64), delay.beta)
    law = delay.survival(a)
    law[1:] -= delay.survival(b[1:])
    return law
