"""Empirical statistics of grown traces.

Degree histograms, the fringe-subtree census, root-degree trajectories,
the leaf CLT statistic, and the exact delay-condition scan.  Everything
here is read-only over a trace.  Root trajectories are counts: the
harness normalises them, once per plan, by n**theta and E[min(X, n)].

A tree's children are counted once (``TreeTrace.child_counts``, or
``canonical.tally_rows`` of ``growth.parent_rows`` for a batch), and the
degree histogram and the shape labelling both read that count.  The
fringe counts are one tally of the integer shape labelling of the trace
(``canonical.shape_labels``).  Parent-paired counts are no census
of their own: a vertex of shape s has exactly the children of s, so they
are ``theory.extended_fringe_law`` applied to the fringe counts, the one
map that also turns the limit law pi into the pair law.  Code strings
appear only as the keys of the result.

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
from .canonical import shape_labels, subtree_codes, tally, tally_rows  # noqa: F401
from .errors import ArgumentError
from .growth import TreeTrace
from .kernels import DelayLaw, check_count, snapshot_slabs
from .theory import extended_fringe_law

__all__ = [
    "DegreeHist",
    "degree_hist",
    "degree_counts",
    "FringeCensus",
    "fringe_census",
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

    def max_degree(self) -> int:
        return len(self.counts) - 1

    @classmethod
    def from_children(cls, kids: np.ndarray) -> "DegreeHist":
        """Histogram of a ``TreeTrace.child_counts()`` result: :func:`degree_counts` of a batch of one.

        The counts stop at the tree's largest degree.
        """
        return cls(counts=degree_counts(kids[None])[0], n=len(kids) - 1)


def degree_hist(trace: TreeTrace) -> DegreeHist:
    return DegreeHist.from_children(trace.child_counts())


def degree_counts(kids: np.ndarray) -> np.ndarray:
    """int64 ``counts[r, k]``, the vertices of graph degree k in tree r, from child counts.

    ``kids`` holds one ``child_counts`` row per tree; one tally counts the
    whole batch, and the columns stop at the batch's largest degree.  A
    vertex's graph degree is its children plus the parent edge, which the
    root lacks.
    """
    roots = kids[:, 1]
    top = max(int(kids[:, 2:].max(initial=-1)) + 1, int(roots.max()))
    counts = np.zeros((len(kids), top + 1), dtype=np.int64)
    # the other vertices by child count: c children make degree c + 1
    counts[:, 1:] = tally_rows(kids[:, 2:], top)
    counts[np.arange(len(kids)), roots] += 1
    return counts


# ---------------------------------------------------------------------------
# Fringe census
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

    @classmethod
    def from_labels(cls, labels: np.ndarray, codes, cap: int) -> "FringeCensus":
        """Census of a ``shape_labels(parents, kids, cap)`` result."""
        # the last bin takes the -1 labels, the vertices whose fringe outgrew the cap
        counts = tally(labels[1:], len(codes) + 1).tolist()
        return cls(
            counts=dict(zip(codes, counts)),
            n=len(labels) - 1,
            truncated=counts[-1],
            cap=cap,
        )


def fringe_census(trace: TreeTrace, cap: int = 6) -> FringeCensus:
    labels, codes = shape_labels(trace.parents, trace.child_counts(), cap)
    return FringeCensus.from_labels(labels, codes, cap)


# extended_fringe_census is not called in the package; it stays, as the pair
# counts of one tree, because perfbench/tracer.py wraps it as a boundary
def extended_fringe_census(trace: TreeTrace, cap: int = 6) -> dict:
    return extended_fringe_law(fringe_census(trace, cap).counts, 1)


# ---------------------------------------------------------------------------
# Leaf CLT statistic
# ---------------------------------------------------------------------------


def leaf_clt_value(n1, n: int, p1: float):
    """The leaf CLT statistic sqrt(n) * (N_1/n - p1), of one leaf count or elementwise of an array of them."""
    return math.sqrt(n) * (n1 / n - p1)


# ---------------------------------------------------------------------------
# Root-degree trajectory
# ---------------------------------------------------------------------------


def _check_grid(grid, name: str) -> np.ndarray:
    """``grid`` as an int64 array; ArgumentError unless it is a non-empty 1-D sequence of integers."""
    ns = np.asarray(grid)
    if ns.ndim != 1 or not len(ns) or ns.dtype.kind not in "iu":
        raise ArgumentError(f"{name} must be a non-empty 1-D sequence of integers, got {grid!r}")
    return ns.astype(np.int64)


def geometric_grid(n_final: int) -> np.ndarray:
    """Half-octave time grid 2, ceil(2^(j/2)), ..., ending exactly at n_final."""
    n_final = check_count("n_final", n_final, 2)
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
    """Root degree on the time grid ``ns``: of one tree, or of a batch of trees as rows.

    ``values`` is 1-D for one tree (:func:`root_trajectory`) and
    (trees x grid) for a batch (:func:`root_trajectories`).  These are
    counts; the harness normalises them by n**theta and E[min(X, n)].
    """

    ns: np.ndarray
    values: np.ndarray  # deg_at(1, n_j): 1 + children by time n_j

    def __post_init__(self) -> None:
        if (self.values[..., 1:] < self.values[..., :-1]).any():
            raise ArgumentError("root degree can never decrease")


def root_trajectory(trace: TreeTrace, grid=None) -> RootTrajectory:
    """Root degree sampled along a time grid (by default :func:`geometric_grid`)."""
    batch = root_trajectories(trace.parents[None, 2:], grid=grid)
    return RootTrajectory(batch.ns, batch.values[0])


def root_trajectories(rows, grid=None) -> RootTrajectory:
    """:func:`root_trajectory` of every tree of a batch of one size, on one grid, as one (trees x grid) object.

    ``rows`` holds ``parents[2:]`` of each tree as a row of one matrix
    (``growth.parent_rows``).  The grid is checked once, the root's
    children of every row are found in one pass and counted at the grid
    by one search, and the batch's monotonicity is checked once.
    """
    rows = np.asarray(rows)
    if rows.ndim != 2 or not len(rows):
        raise ArgumentError(f"a batch needs the parent rows of one or more trees as a matrix, got shape {rows.shape}")
    n = rows.shape[1] + 1
    ns = geometric_grid(n) if grid is None else _check_grid(grid, "grid")
    if np.any(np.diff(ns) <= 0) or ns[0] < 1 or ns[-1] > n:
        raise ArgumentError("grid must be strictly increasing within [1, n]")
    # row r's child v of the root sits at r*(n-1) + v - 2, rows in order
    births = np.flatnonzero(rows == 1)
    starts = np.arange(len(rows))[:, None] * (n - 1)
    values = 1.0 + (np.searchsorted(births, starts + (ns - 2), "right") - np.searchsorted(births, starts))
    return RootTrajectory(ns=ns, values=values)


# ---------------------------------------------------------------------------
# Delay-condition scan
# ---------------------------------------------------------------------------


_SCAN_BLOCK = 1 << 20  # slabs summed at once: every size up to 1e6 is one block


def _e_n_exact(delay: DelayLaw, n: int) -> float:
    """E[n^beta xi / floor(n - n^beta xi); floor >= 1], by slab decomposition.

    The floor equals j on the xi-slab (a, b] of ``snapshot_slabs``, for j = 1
    to n-1.  The slabs are summed _SCAN_BLOCK at a time, so memory stays
    bounded in n.
    """
    nb = float(n) ** delay.beta
    total = 0.0
    for lo in range(1, n, _SCAN_BLOCK):
        j = np.arange(lo, min(lo + _SCAN_BLOCK, n), dtype=np.float64)
        a, b = snapshot_slabs(n, j, delay.beta)
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
    ns = _check_grid(list(n_grid), "n_grid")
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
