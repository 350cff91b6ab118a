"""Empirical statistics of grown traces.

Degree histograms, fringe-subtree censuses (plain and parent-paired),
root-degree trajectories, the leaf CLT statistic across replicates, and the
analytic delay-condition scan.  Everything here is read-only over a trace.

Both fringe censuses read one integer shape labelling of the trace
(``canonical.shape_labels``): the fringe counts are a bincount of the
labels and the pair counts a count of (own label, parent's label) keys, so
a caller that wants both labels the trace once and builds each census with
``from_labels``.  Code strings appear only as the keys of the result.

Degree conventions, fixed once for the whole package: the histogram counts
*graph* degrees (children plus the parent edge, root has no parent edge),
so sum_k k*N_k = 2(n-1) holds on every tree; the root trajectory uses the
birth-inclusive convention deg_at = 1 + children, under which a star's
center reads n.  The two differ only at the root and the difference is
what makes both sets of identities exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# subtree_codes is not called here; it stays importable under this module
# because perfbench/tracer.py wraps it at delaytree.estimators.subtree_codes
from .canonical import shape_labels, subtree_codes  # noqa: F401
from .errors import ArgumentError
from .growth import TreeTrace, deg_at
from .kernels import DelayLaw
from .theory import clt_constants

__all__ = [
    "DegreeHist",
    "degree_hist",
    "FringeCensus",
    "fringe_census",
    "PairCensus",
    "extended_fringe_census",
    "LeafCltResult",
    "leaf_clt_value",
    "leaf_clt_statistic",
    "RootTrajectory",
    "root_trajectory",
    "geometric_grid",
    "DelayScan",
    "delay_condition_scan",
    "floor_reach_mean",
    "random_centering_rate",
    "random_centering_diagnostic",
]


# ---------------------------------------------------------------------------
# Degree histogram
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DegreeHist:
    """counts[k] = number of vertices of graph degree k at final time."""

    counts: np.ndarray
    n: int

    def count(self, k: int) -> int:
        if k < 0:
            raise ArgumentError("degree must be >= 0")
        if k >= len(self.counts):
            return 0
        return int(self.counts[k])

    def probs(self) -> np.ndarray:
        return self.counts / self.n

    def max_degree(self) -> int:
        return len(self.counts) - 1


def degree_hist(trace: TreeTrace) -> DegreeHist:
    n = trace.n
    cc = trace.children_count_final()
    gdeg = cc[1 : n + 1].copy()
    gdeg[1:] += 1  # every vertex but the root also has a parent edge
    return DegreeHist(counts=np.bincount(gdeg), n=n)


# ---------------------------------------------------------------------------
# Fringe censuses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FringeCensus:
    """Counts of canonical fringe shapes of size <= cap.

    truncated counts the vertices whose fringe outgrew the cap, so
    sum(counts.values()) + truncated == n always.
    """

    counts: dict
    n: int
    truncated: int
    cap: int

    @property
    def truncated_mass(self) -> float:
        return self.truncated / self.n

    def freq(self, code: str) -> float:
        return self.counts.get(code, 0) / self.n

    @classmethod
    def from_labels(cls, labels: np.ndarray, codes, cap: int) -> "FringeCensus":
        """Census of a ``shape_labels(parents, cap)`` result."""
        own = labels[1:]
        kept = own[own >= 0]
        counts = np.bincount(kept, minlength=len(codes))
        return cls(
            counts={codes[i]: c for i, c in enumerate(counts.tolist())},
            n=len(own),
            truncated=len(own) - len(kept),
            cap=cap,
        )


def fringe_census(trace: TreeTrace, cap: int = 6) -> FringeCensus:
    labels, codes = shape_labels(trace.parents[: trace.n + 1], cap)
    return FringeCensus.from_labels(labels, codes, cap)


@dataclass(frozen=True)
class PairCensus:
    """Counts of (own fringe, parent's fringe) shape pairs.

    Keys are (child_code, parent_code); a vertex enters only when its
    parent's fringe fits under the cap (its own then fits automatically,
    being a strict subtree).  Frequencies are per vertex, count/n, which
    is the normalization under which they converge to the depth-1 chain
    masses pi(parent) * Q(parent, child).
    """

    counts: dict
    n: int
    truncated: int
    cap: int

    @property
    def truncated_mass(self) -> float:
        return self.truncated / self.n

    def freq(self, pair) -> float:
        return self.counts.get(tuple(pair), 0) / self.n

    def child_marginal(self, code: str) -> int:
        return sum(c for (t0, _), c in self.counts.items() if t0 == code)

    @classmethod
    def from_labels(cls, labels: np.ndarray, codes, parents, cap: int) -> "PairCensus":
        """Pair census of a ``shape_labels(parents, cap)`` result."""
        n = len(labels) - 1
        up = labels[parents[2 : n + 1]]
        kept = up >= 0
        keys, counts = np.unique(
            labels[2:][kept] * len(codes) + up[kept], return_counts=True
        )
        own, parent = np.divmod(keys, len(codes))
        return cls(
            counts={
                (codes[a], codes[b]): c
                for a, b, c in zip(own.tolist(), parent.tolist(), counts.tolist())
            },
            n=n,
            truncated=int(np.count_nonzero(~kept)),
            cap=cap,
        )


def extended_fringe_census(trace: TreeTrace, cap: int = 6) -> PairCensus:
    parents = trace.parents[: trace.n + 1]
    labels, codes = shape_labels(parents, cap)
    return PairCensus.from_labels(labels, codes, parents, cap)


# ---------------------------------------------------------------------------
# Leaf CLT statistic
# ---------------------------------------------------------------------------


def leaf_clt_value(n1: int, n: int, p1: float) -> float:
    """The leaf CLT statistic of one tree: sqrt(n) * (N_1/n - p1)."""
    return math.sqrt(n) * (n1 / n - p1)


@dataclass(frozen=True)
class LeafCltResult:
    s_values: np.ndarray  # per replicate: sqrt(n) * (N_1/n - p1)
    n: int
    p1: float
    sigma1_sq: float

    @property
    def mean(self) -> float:
        return float(self.s_values.mean())

    @property
    def variance(self) -> float:
        return float(self.s_values.var(ddof=1))

    @property
    def standardized(self) -> np.ndarray:
        return self.s_values / math.sqrt(self.sigma1_sq)


def leaf_clt_statistic(traces, alpha: float) -> LeafCltResult:
    """sqrt(n)-scaled centered leaf counts across replicates at common n.

    Accepts any iterable of traces (a generator keeps memory flat across
    hundreds of replicates).  Centering is the deterministic limit p_1;
    whether that centering is valid for the delay at hand is the business
    of delay_condition_scan, not checked here.
    """
    consts = clt_constants(alpha)
    svals = []
    n_ref: int | None = None
    for trace in traces:
        if n_ref is None:
            n_ref = trace.n
        elif trace.n != n_ref:
            raise ArgumentError(f"replicates at mixed sizes: {n_ref} vs {trace.n}")
        svals.append(leaf_clt_value(degree_hist(trace).count(1), trace.n, consts.p1))
    if n_ref is None or len(svals) < 2:
        raise ArgumentError("need at least 2 replicates")
    return LeafCltResult(
        s_values=np.array(svals), n=n_ref, p1=consts.p1, sigma1_sq=consts.sigma1_sq
    )


# ---------------------------------------------------------------------------
# Root-degree trajectory
# ---------------------------------------------------------------------------


def geometric_grid(n_final: int) -> np.ndarray:
    """Half-octave time grid 2, ceil(2^(j/2)), ..., ending exactly at n_final."""
    if n_final < 2:
        raise ArgumentError("n_final must be >= 2")
    pts = []
    j = 2
    while True:
        v = math.ceil(2.0 ** (j / 2.0))
        if v >= n_final:
            break
        if not pts or v > pts[-1]:
            pts.append(v)
        j += 1
    pts.append(n_final)
    return np.array(pts, dtype=np.int64)


@dataclass(frozen=True)
class RootTrajectory:
    ns: np.ndarray
    values: np.ndarray  # deg_at(1, n_j): 1 + children by time n_j
    theta: float
    over_ntheta: np.ndarray
    over_truncated_mean: np.ndarray | None  # values / E[min(X, n_j)], heavy regime

    def __post_init__(self) -> None:
        if np.any(np.diff(self.values) < 0):
            raise ArgumentError("root degree can never decrease")


def root_trajectory(trace: TreeTrace, theta: float, grid=None, ex_x=None) -> RootTrajectory:
    """Root degree sampled along a geometric time grid.

    ex_x, when given, is a callable n -> E[min(X, n)] (the heavy-regime
    growth scale); the trajectory then also carries values normalized by
    it.  In the light regime values/n^theta is the quantity that settles.
    """
    ns = geometric_grid(trace.n) if grid is None else np.asarray(grid, dtype=np.int64)
    if np.any(np.diff(ns) <= 0) or ns[0] < 1 or ns[-1] > trace.n:
        raise ArgumentError("grid must be strictly increasing within [1, n]")
    values = np.array([deg_at(trace, 1, int(m)) for m in ns], dtype=np.float64)
    over_ex = None
    if ex_x is not None:
        over_ex = values / np.array([ex_x(float(m)) for m in ns])
    return RootTrajectory(
        ns=ns,
        values=values,
        theta=theta,
        over_ntheta=values / ns.astype(np.float64) ** theta,
        over_truncated_mean=over_ex,
    )


# ---------------------------------------------------------------------------
# Delay-condition scan
# ---------------------------------------------------------------------------


def _slab_edges(n: int, beta: float):
    """xi-intervals on which floor(n - n^beta xi) = j, for j = n-1 down to 1."""
    nb = float(n) ** beta
    j = np.arange(1, n, dtype=np.float64)
    b = (n - j) / nb  # inclusive right edge
    a = (n - j - 1.0) / nb
    return nb, j, a, b


def _e_n_exact(delay: DelayLaw, n: int) -> float | None:
    """E[n^beta xi / floor(n - n^beta xi); floor >= 1], by slab decomposition."""
    nb, j, a, b = _slab_edges(n, delay.beta)
    pm = delay.partial_mean(a, b)
    if pm is None:
        return None
    return float(nb * np.sum(pm / j))


def _e_n_montecarlo(delay: DelayLaw, n: int, rng: np.random.Generator, samples: int = 10**6):
    nb = float(n) ** delay.beta
    xi = delay.sample_many(rng, samples)
    raw = n - nb * xi
    vals = np.where(raw >= 1.0, nb * xi / np.maximum(np.floor(raw), 1.0), 0.0)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(samples))


def _lemma_values(delay: DelayLaw, ns: np.ndarray) -> np.ndarray:
    """n log n * P(ceil(X) = n): the analytic sufficient-condition sequence."""
    out = np.empty(len(ns))
    for i, n in enumerate(ns):
        n = float(n)
        out[i] = n * math.log(n) * (delay.x_survival(n - 1.0) - delay.x_survival(n))
    return out


@dataclass(frozen=True)
class DelayScan:
    ns: np.ndarray
    e_values: np.ndarray
    stderrs: np.ndarray  # zeros under exact quadrature
    lemma_values: np.ndarray
    verdict: str  # satisfied | violated | inconclusive
    method: str  # exact | montecarlo

    def rows(self):
        for i in range(len(self.ns)):
            yield (int(self.ns[i]), float(self.e_values[i]), float(self.stderrs[i]))


def delay_condition_scan(delay: DelayLaw, n_grid, seed: int = 0) -> DelayScan:
    """Decay table for the centering-error expectation, with a verdict.

    e_n is computed exactly for the built-in families by decomposing over
    the level sets of the floor (one slab per attainable snapshot time,
    each an interval in xi with an analytic restricted mean); laws without
    that closed form get a million-sample Monte Carlo estimate with its
    standard error.  The verdict additionally consults the analytic
    sufficient-condition sequence n log n P(ceil(X) = n).
    """
    ns = np.asarray(list(n_grid), dtype=np.int64)
    if len(ns) < 2 or np.any(np.diff(ns) <= 0) or ns[0] < 2:
        raise ArgumentError("n_grid must be increasing with at least 2 values >= 2")
    rng = np.random.default_rng(seed)
    evals = np.empty(len(ns))
    errs = np.zeros(len(ns))
    method = "exact"
    for i, n in enumerate(ns):
        e = _e_n_exact(delay, int(n))
        if e is None:
            method = "montecarlo"
            e, se = _e_n_montecarlo(delay, int(n), rng)
            errs[i] = se
        evals[i] = e
    lemma = _lemma_values(delay, ns)

    slack = 1e-12 + 3.0 * errs[:-1] + 3.0 * errs[1:]
    monotone = bool(np.all(np.diff(evals) <= slack))
    emax = float(evals.max())
    lmax = float(lemma.max())
    e_vanishing = emax == 0.0 or evals[-1] <= 0.5 * emax + 3.0 * errs[-1]
    lemma_vanishing = lmax == 0.0 or lemma[-1] <= 0.5 * lmax
    if monotone and e_vanishing and lemma_vanishing:
        verdict = "satisfied"
    elif emax > 0.0 and evals[-1] >= 0.9 * emax and lemma[-1] >= 0.9 * lmax and lmax > 0.0:
        verdict = "violated"
    else:
        verdict = "inconclusive"
    return DelayScan(
        ns=ns, e_values=evals, stderrs=errs, lemma_values=lemma, verdict=verdict, method=method
    )


# ---------------------------------------------------------------------------
# Random-centering diagnostic
# ---------------------------------------------------------------------------


def floor_reach_mean(delay: DelayLaw, n: int) -> float:
    """E[1{n - n^beta xi >= 1} / floor(n - n^beta xi)], exactly.

    This is the contraction defect of the leaf-count recursion; n times it
    tends to 1 whenever the delay cannot reach all the way back.
    """
    _, j, a, b = _slab_edges(n, delay.beta)
    mass = delay.survival_array(a) - delay.survival_array(b)
    # xi = 0 exactly lands on snapshot n, outside the slab range 1..n-1
    atom_at_zero = 1.0 - delay.survival(0.0)
    return float(np.sum(mass / j) + atom_at_zero / n)


def random_centering_rate(delay: DelayLaw, alpha: float, n: int) -> float:
    """k_n = 1 - (1+alpha)/(2+alpha) * E[1{snapshot valid}/snapshot]."""
    gamma_c = (1.0 + alpha) / (2.0 + alpha)
    return 1.0 - gamma_c * floor_reach_mean(delay, n)


def random_centering_diagnostic(delay: DelayLaw, alpha: float, n_grid) -> dict:
    """Reports the alternative (random) centering's ingredients on a grid.

    The leaf-count recursion contracts at rate k_n with unit-mean inflow;
    balancing it at stationarity with inflow exactly 1 implies a leaf
    fraction 1/(1 + gamma_c * n * g_n), where g_n is the floor-reach mean.
    The gap between that and the true p_1 measures the quality of the
    inflow ~ 1 approximation; nothing is asserted about it.
    """
    gamma_c = (1.0 + alpha) / (2.0 + alpha)
    p1 = clt_constants(alpha).p1
    ns = np.asarray(list(n_grid), dtype=np.int64)
    g = np.array([floor_reach_mean(delay, int(n)) for n in ns])
    k = 1.0 - gamma_c * g
    implied = 1.0 / (1.0 + gamma_c * ns * g)
    return {
        "ns": ns,
        "k_values": k,
        "n_times_g": ns * g,
        "implied_leaf_fraction": implied,
        "p1": p1,
        "inflow_approximation_gap": np.abs(implied - p1),
    }
