"""Empirical statistics of grown traces.

Degree histograms, fringe-subtree censuses (plain and parent-paired),
root-degree trajectories, the leaf CLT statistic of one tree, and the
exact delay-condition scan.  Everything here is read-only over a trace.

Both fringe censuses come from one integer shape labelling of the trace
(``canonical.shape_labels``): the fringe counts are one bincount of the
labels, and the pair counts follow from the fringe counts alone, since a
vertex of shape s has exactly the children of s.  So a caller that wants
both labels the trace once, builds ``FringeCensus.from_labels`` and then
``PairCensus.from_fringe``, with no second pass over the vertices.  Code
strings appear only as the keys of the result.

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
from .canonical import shape_labels, subtree_codes, top_level_children  # noqa: F401
from .errors import ArgumentError
from .growth import TreeTrace
from .kernels import DelayLaw

__all__ = [
    "DegreeHist",
    "degree_hist",
    "degree_hists",
    "FringeCensus",
    "fringe_census",
    "PairCensus",
    "extended_fringe_census",
    "leaf_clt_value",
    "RootTrajectory",
    "root_trajectory",
    "root_trajectories",
    "geometric_grid",
    "half_decade_grid",
    "DelayScan",
    "delay_condition_scan",
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
    return degree_hists([trace])[0]


def _common_size(traces) -> int:
    """The one vertex count n shared by every tree of a batch."""
    sizes = {trace.n for trace in traces}
    if len(sizes) != 1:
        raise ArgumentError(f"a batch needs one or more trees of one size, got sizes {sorted(sizes)}")
    return sizes.pop()


def degree_hists(traces) -> list[DegreeHist]:
    """:func:`degree_hist` of each tree of a batch of one size.

    Each row of the batch's parents is sorted in an int32 copy, so a
    vertex's children form one run of equal entries: the runs' lengths,
    plus one for every parent edge, give the degrees of the vertices with
    children, every other vertex has degree 1, and the root comes first in
    its row.  Every histogram comes from one bincount with row offsets and
    stops at its own tree's largest degree.  The sorted copy, then two
    int64 arrays over the vertices with children, hold the peak near 8 B
    per vertex.
    """
    n = _common_size(traces)
    rows = len(traces)
    if n == 1:  # a lone root, of degree 0
        return [DegreeHist(counts=np.ones(1, dtype=np.int64), n=1) for _ in traces]
    par = np.stack([trace.parents[2 : n + 1] for trace in traces])
    par.sort(axis=1)
    # a run of equal entries is one vertex's children; each row opens with its root's run
    head = np.empty(par.size, dtype=bool)
    np.not_equal(par.ravel()[1:], par.ravel()[:-1], out=head[1:])
    head[:: n - 1] = True
    start = np.flatnonzero(head)
    del par, head
    first = np.searchsorted(start, np.arange(0, rows * (n - 1), n - 1))  # each row's root run
    degree = np.empty_like(start)
    np.subtract(start[1:], start[:-1], out=degree[:-1])
    degree[-1] = rows * (n - 1) - start[-1]
    degree += 1  # the parent edge
    degree[first] -= 1  # which the root lacks
    tops = np.maximum.reduceat(degree, first)
    width = int(tops.max()) + 1
    runs = np.diff(first, append=degree.size)
    degree += np.repeat(np.arange(0, rows * width, width), runs)
    counts = np.bincount(degree, minlength=rows * width).reshape(rows, width)
    counts[:, 1] += n - runs  # the vertices with no children
    return [DegreeHist(counts=c[: top + 1], n=n) for c, top in zip(counts, tops.tolist())]


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
        # bin 0 holds the -1 labels, the vertices whose fringe outgrew the cap
        counts = np.bincount(labels[1:] + 1, minlength=len(codes) + 1).tolist()
        return cls(
            counts=dict(zip(codes, counts[1:])),
            n=len(labels) - 1,
            truncated=counts[0],
            cap=cap,
        )


def fringe_census(trace: TreeTrace, cap: int = 6) -> FringeCensus:
    labels, codes = shape_labels(trace.parents, cap)
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
    def from_fringe(cls, fringe: FringeCensus) -> "PairCensus":
        """Pair census of the tree that ``fringe`` counted.

        A vertex of fringe shape s has exactly the children of s, so the
        N_s such vertices pair N_s times with each child of s, and every
        vertex whose parent is truncated is a truncated pair.
        """
        counts: dict = {}
        paired = 0
        for shape, count in fringe.counts.items():
            children = top_level_children(shape)
            paired += count * len(children)
            for child in children:
                counts[(child, shape)] = counts.get((child, shape), 0) + count
        return cls(counts=counts, n=fringe.n, truncated=fringe.n - 1 - paired, cap=fringe.cap)


def extended_fringe_census(trace: TreeTrace, cap: int = 6) -> PairCensus:
    return PairCensus.from_fringe(fringe_census(trace, cap))


# ---------------------------------------------------------------------------
# Leaf CLT statistic
# ---------------------------------------------------------------------------


def leaf_clt_value(n1: int, n: int, p1: float) -> float:
    """The leaf CLT statistic of one tree: sqrt(n) * (N_1/n - p1)."""
    return math.sqrt(n) * (n1 / n - p1)


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


def half_decade_grid(lo: float, hi: float) -> list:
    """Sizes round(10^(e/2)) within [lo, hi], bracketed by the whole numbers lo and hi."""
    if not (2.0 <= lo < hi and float(lo).is_integer() and float(hi).is_integer()):
        raise ArgumentError(f"a size grid needs whole numbers 2 <= lo < hi, got {lo:g}..{hi:g}")
    grid = []
    e = math.floor(2.0 * math.log10(lo))
    while (v := round(10.0 ** (e / 2.0))) <= hi:
        if v >= lo:
            grid.append(v)
        e += 1
    if not grid or grid[0] > int(lo):
        grid.insert(0, int(lo))
    if grid[-1] < int(hi):
        grid.append(int(hi))
    return grid


@dataclass(frozen=True)
class RootTrajectory:
    ns: np.ndarray
    values: np.ndarray  # deg_at(1, n_j): 1 + children by time n_j
    theta: float
    over_ntheta: np.ndarray
    over_truncated_mean: np.ndarray | None  # values / E[min(X, n_j)], heavy regime

    def __post_init__(self) -> None:
        if (self.values[1:] < self.values[:-1]).any():
            raise ArgumentError("root degree can never decrease")


def root_trajectory(trace: TreeTrace, theta: float, grid=None, ex_x=None) -> RootTrajectory:
    """Root degree sampled along a geometric time grid.

    ex_x, when given, holds E[min(X, n_j)] (the heavy-regime growth scale)
    at each grid point n_j; the trajectory then also carries values
    normalized by it.  In the light regime values/n^theta is the quantity
    that settles.
    """
    return root_trajectories([trace], theta, grid=grid, ex_x=ex_x)[0]


def root_trajectories(traces, theta: float, grid=None, ex_x=None) -> list[RootTrajectory]:
    """:func:`root_trajectory` of each tree of a batch of one size, on one grid.

    The grid and ``ex_x`` are checked once, and the root's children of
    every row are found in one pass and counted at the grid by one search.
    """
    n = _common_size(traces)
    ns = geometric_grid(n) if grid is None else np.asarray(grid, dtype=np.int64)
    if np.any(np.diff(ns) <= 0) or ns[0] < 1 or ns[-1] > n:
        raise ArgumentError("grid must be strictly increasing within [1, n]")
    if ex_x is not None:
        ex = np.asarray(ex_x, dtype=np.float64)
        if ex.shape != ns.shape:
            raise ArgumentError("ex_x needs one value per grid point")
    # row r's child v of the root sits at r*(n-1) + v - 2, rows in order
    births = np.flatnonzero(np.stack([trace.parents[2 : n + 1] for trace in traces]) == 1)
    starts = np.arange(len(traces))[:, None] * (n - 1)
    values = 1.0 + (np.searchsorted(births, starts + (ns - 2), "right") - np.searchsorted(births, starts))
    over_ntheta = values / ns.astype(np.float64) ** theta
    over_ex = values / ex if ex_x is not None else [None] * len(values)
    return [
        RootTrajectory(ns=ns, values=v, theta=theta, over_ntheta=o, over_truncated_mean=x)
        for v, o, x in zip(values, over_ntheta, over_ex)
    ]


# ---------------------------------------------------------------------------
# Delay-condition scan
# ---------------------------------------------------------------------------


_SCAN_BLOCK = 1 << 20  # slabs summed at once: every size up to 1e6 is one block


def _e_n_exact(delay: DelayLaw, n: int) -> float:
    """E[n^beta xi / floor(n - n^beta xi); floor >= 1], by slab decomposition.

    The floor equals j on the xi-interval (a, b] below, for j = n-1 down to 1.
    The slabs are summed _SCAN_BLOCK at a time, so memory stays bounded in n.
    """
    nb = float(n) ** delay.beta
    total = 0.0
    for lo in range(1, n, _SCAN_BLOCK):
        j = np.arange(lo, min(lo + _SCAN_BLOCK, n), dtype=np.float64)
        b = (n - j) / nb  # inclusive right edge
        a = (n - j - 1.0) / nb
        total += np.sum(delay.partial_mean(a, b) / j)
    return float(nb * total)


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
    lemma_values: np.ndarray
    verdict: str  # satisfied | violated | inconclusive


def delay_condition_scan(delay: DelayLaw, n_grid) -> DelayScan:
    """Decay table for the centering-error expectation, with a verdict.

    e_n is exact for every delay family: it decomposes over the level sets
    of the floor (one slab per attainable snapshot time, each an interval in
    xi with a closed-form restricted mean, ``DelayLaw.partial_mean``).  The
    verdict additionally consults the analytic sufficient-condition sequence
    n log n P(ceil(X) = n).
    """
    ns = np.asarray(list(n_grid), dtype=np.int64)
    if len(ns) < 2 or np.any(np.diff(ns) <= 0) or ns[0] < 2:
        raise ArgumentError("n_grid must be increasing with at least 2 values >= 2")
    evals = np.array([_e_n_exact(delay, int(n)) for n in ns])
    lemma = _lemma_values(delay, ns)

    monotone = bool(np.all(np.diff(evals) <= 1e-12))
    emax = float(evals.max())
    lmax = float(lemma.max())
    e_vanishing = emax == 0.0 or evals[-1] <= 0.5 * emax
    lemma_vanishing = lmax == 0.0 or lemma[-1] <= 0.5 * lmax
    if monotone and e_vanishing and lemma_vanishing:
        verdict = "satisfied"
    elif emax > 0.0 and evals[-1] >= 0.9 * emax and lemma[-1] >= 0.9 * lmax and lmax > 0.0:
        verdict = "violated"
    else:
        verdict = "inconclusive"
    return DelayScan(ns=ns, e_values=evals, lemma_values=lemma, verdict=verdict)
