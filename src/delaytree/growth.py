"""Tree growth engine: the trace, degree views and the parent samplers.

A grown tree is recorded as a :class:`TreeTrace`: its birth-order parent
array plus, per vertex, the delay it drew and the snapshot time it
consulted.  The parent array is the one stored form of the tree; degrees at
any time, the total weight Psi(m) and the edge list are counts over it.

Parent choice within a snapshot is implemented three ways, all
distributionally identical where their preconditions hold.  Each has one
draw routine; :func:`grow` feeds it every arrival and the
``sample_parent_*`` single-draw entry points call it on a frozen tree.

* ``edge``   -- endpoint-list trick of Batagelj & Brandes (Phys. Rev. E 71,
  036113, 2005), exact for uniform and affine kernels.  The edge made by
  vertex k has endpoints (parents[k], k), so the first 2(m-1) endpoints
  contain each vertex v <= m exactly graph-degree(v in snapshot m) times
  and endpoint e is vertex k = e//2 + 2 when e is odd, parents[k] when e is
  even.  A uniform endpoint plus a uniform-vertex mixture realises
  P(v) = (deg + alpha) / Psi(m) with no endpoint array stored.  Parents
  are resolved a block of arrivals at a time with NumPy: direct answers
  and copies of parents before the block in one pass, copies of parents
  inside the block by pointer jumping.  Temporaries are O(block), and the
  draws and the resulting tree equal those of one draw per arrival.
* ``rejection`` -- Fenwick-indexed proposal from the *current* weights
  restricted to [1..m], thinned by f(deg in snapshot)/f(deg now).  Exact
  for any monotone kernel; expected retries = Psi(n)-to-Psi(m) ratio.  The
  Fenwick tree, current degrees and child birth lists are sampler state,
  built by :func:`grow` or by :func:`rejection_state` for a frozen tree.
* ``scan`` -- linear scan of snapshot weights.  Exact for every kernel and
  the oracle the other two are tested against.

Degrees that enter attachment weights are graph degrees (child count, +1
for the parent edge; the root simply has its child count, clamped to 1 at
time 1 where nothing is sampled anyway).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .canonical import check_parents
from .errors import ArgumentError, StrategyError
from .kernels import AttachmentKernel, GrowthConfig, snapshot_times

__all__ = [
    "Fenwick",
    "TreeTrace",
    "grow",
    "trace_from_parents",
    "deg_at",
    "weight_degree",
    "psi_recomputed",
    "rejection_state",
    "sample_parent_scan",
    "sample_parent_affine",
    "sample_parent_rejection",
    "attachment_distribution",
    "edge_trick_distribution",
    "rejection_distribution",
    "export_trace",
    "load_trace",
]


class Fenwick:
    """Binary indexed tree over vertex weights, 1-based."""

    __slots__ = ("n", "tree")

    def __init__(self, n: int):
        self.n = n
        self.tree = [0.0] * (n + 1)

    def add(self, i: int, delta: float) -> None:
        n, tree = self.n, self.tree
        while i <= n:
            tree[i] += delta
            i += i & (-i)

    def prefix(self, i: int) -> float:
        tree = self.tree
        s = 0.0
        while i > 0:
            s += tree[i]
            i -= i & (-i)
        return s

    def search(self, r: float) -> int:
        """Smallest index i with prefix(i) >= r (assumes 0 <= r <= total)."""
        idx = 0
        bit = 1 << (self.n.bit_length() - 1)
        tree, n = self.tree, self.n
        while bit:
            nxt = idx + bit
            if nxt <= n and tree[nxt] < r:
                r -= tree[nxt]
                idx = nxt
            bit >>= 1
        return idx + 1


@dataclass
class TreeTrace:
    """Complete record of one growth run (or a hand-built tree).

    ``parents[v]`` is the parent of vertex v (v >= 2; entries 0 and 1 are
    0), ``xis[v]``/``snapshots[v]`` the delay drawn and snapshot consulted
    by vertex v (0 for hand-built traces and for the deterministic vertex
    2), ``retries`` the rejected proposals of the rejection sampler.
    """

    kernel: AttachmentKernel
    n: int
    parents: np.ndarray
    xis: np.ndarray
    snapshots: np.ndarray
    retries: int = 0
    config: GrowthConfig | None = None

    def children_count_final(self) -> np.ndarray:
        """c[v] = number of children of v at the final time (c[0] unused)."""
        c = np.bincount(self.parents[2 : self.n + 1], minlength=self.n + 1)
        return c[: self.n + 1]


# ---------------------------------------------------------------------------
# Degree views
# ---------------------------------------------------------------------------


def _children_by(trace: TreeTrace, v: int, m: int) -> int:
    """Children of v born by time m, for 1 <= m <= n."""
    if m < 1 or m > trace.n:
        raise ArgumentError(f"snapshot time {m} outside 1..{trace.n}")
    return int(np.count_nonzero(trace.parents[2 : m + 1] == v))


def deg_at(trace: TreeTrace, v: int, m: int) -> int:
    """Reported degree of v at time m: 1 + children born by m; 0 if unborn.

    The root counts like everyone else (degree 1 at birth), so on the
    3-chain deg_at(1, 3) == 2.
    """
    cnt = _children_by(trace, v, m)
    if v < 1 or v > trace.n:
        raise ArgumentError(f"vertex {v} outside 1..{trace.n}")
    return 0 if v > m else 1 + cnt


def weight_degree(trace: TreeTrace, v: int, m: int) -> int:
    """Graph degree of v in the time-m snapshot, as used by the samplers.

    Equals deg_at for every vertex except the root, which has no parent
    edge; at m = 1 the lone root is clamped to degree 1 by convention.
    """
    cnt = _children_by(trace, v, m)
    if v < 1 or v > m:
        raise ArgumentError(f"vertex {v} not alive at time {m}")
    return max(cnt, 1) if v == 1 else cnt + 1


def _weight_degrees(parents: np.ndarray, m: int) -> np.ndarray:
    """Weight degrees of vertices 1..m in the time-m snapshot (index 0 = vertex 1)."""
    counts = np.bincount(parents[2 : m + 1], minlength=m + 1)[1 : m + 1]
    counts[1:] += 1
    if counts[0] < 1:
        counts[0] = 1
    return counts


def psi_recomputed(trace: TreeTrace, m: int) -> float:
    """Psi(m), the total attachment weight of the time-m tree."""
    if m < 1 or m > trace.n:
        raise ArgumentError(f"snapshot time {m} outside 1..{trace.n}")
    return float(np.sum(trace.kernel.evaluate_array(_weight_degrees(trace.parents, m))))


# ---------------------------------------------------------------------------
# Draws: grow's loops and the single-draw entry points share these
# ---------------------------------------------------------------------------


def _resolve_edge(parents, base: int, ms, slope: float, alpha: float, branch, picks) -> np.ndarray:
    """Endpoint-list draws for f(k) = slope*k + alpha, one per arrival.

    Arrival i is vertex base + i and draws from snapshot ms[i]; parents
    below ``base`` must be final.  Psi(m) = slope*2(m-1) + alpha*m.  The
    uniform ``branch`` sends a draw to a uniform vertex of [1..m] with
    probability alpha*m/Psi(m), else to a uniform endpoint e among the
    first 2(m-1); the uniform ``pick`` selects within either.  Kernels
    without a mixture pass branch = 0.0, which always picks a vertex when
    slope is 0 and an endpoint when alpha is 0.  At m = 1 both routes give
    the root (the endpoint route reads e = -1, odd, naming k = 1).

    An odd e names vertex k = e//2 + 2; an even e copies the parent of
    that k <= m.  Copies of a parent below ``base`` read ``parents``; the
    rest copy an earlier arrival of the block, and pointer jumping walks
    each chain down to a direct answer in O(log chain) rounds.
    """
    top = 2 * (ms - 1)
    to_vertex = branch * (slope * top + ms * alpha) < ms * alpha
    e = np.minimum((picks * top).astype(np.int64), top - 1)
    out = e // 2 + 2
    np.copyto(out, np.minimum((picks * ms).astype(np.int64), ms - 1) + 1, where=to_vertex)
    copy = np.flatnonzero(~to_vertex & ((e & 1) == 0))
    src = out[copy]
    early = src < base
    out[copy[early]] = parents[src[early]]
    # within the block: link each copy to the arrival it copies, then jump
    copy, link = copy[~early], np.arange(len(out))
    link[copy] = src[~early] - base
    hops = link[copy]
    while True:
        nxt = link[hops]
        if np.array_equal(nxt, hops):
            break
        link[copy] = hops = nxt
    out[copy] = out[hops]
    return out


def _draw_rejection(m: int, fen: Fenwick, wdeg: list, kids: list, evaluate, rng) -> tuple[int, int]:
    """Prefix proposal plus thinning; returns (parent, rejected proposals).

    Proposes v <= m with probability proportional to its current weight
    f(wdeg[v]) and accepts with probability f(deg in snapshot m) /
    f(wdeg[v]) <= 1, reading the snapshot degree off v's sorted child
    birth times ``kids[v]``.
    """
    if m == 1:
        return 1, 0
    total = fen.prefix(m)
    rejected = 0
    while True:
        v = fen.search(rng.random() * total)
        d_now = wdeg[v]
        cnt = bisect_right(kids[v], m)
        d_snap = (cnt if cnt >= 1 else 1) if v == 1 else cnt + 1
        if d_snap == d_now or rng.random() * evaluate(d_now) < evaluate(d_snap):
            return v, rejected
        rejected += 1


def _draw_scan(parents, m: int, kernel: AttachmentKernel, rng) -> int:
    """Linear-scan oracle: exact inverse-CDF over snapshot weights."""
    if m == 1:
        return 1
    cum = np.cumsum(kernel.evaluate_array(_weight_degrees(parents, m)))
    v = int(np.searchsorted(cum, rng.random() * cum[-1], side="right")) + 1
    return min(v, m)


def rejection_state(parents, kernel: AttachmentKernel) -> tuple[Fenwick, list, list]:
    """Rejection-sampler state of a frozen tree: (Fenwick, wdeg, kids).

    The Fenwick tree holds each vertex's final weight, ``wdeg[v]`` its
    final weight degree and ``kids[v]`` its children's birth times.
    """
    par = check_parents(parents)
    n = len(par) - 1
    wdeg = [0, *_weight_degrees(par, n).tolist()]
    fen = Fenwick(n)
    for v in range(1, n + 1):
        fen.add(v, kernel.evaluate(wdeg[v]))
    kids: list = [[] for _ in range(n + 1)]
    for v, p in enumerate(par[2:].tolist(), start=2):
        kids[p].append(v)
    return fen, wdeg, kids


def sample_parent_scan(trace: TreeTrace, m: int, kernel: AttachmentKernel, rng) -> int:
    """One scan draw from snapshot m of a frozen trace."""
    return _draw_scan(trace.parents, m, kernel, rng)


def sample_parent_affine(trace: TreeTrace, m: int, alpha: float, rng) -> int:
    """One endpoint-list draw for f(k) = k + alpha from snapshot m."""
    branch = rng.random() if alpha > 0.0 else 0.0
    ms = np.array([m], dtype=np.int64)
    return int(_resolve_edge(trace.parents, trace.n + 1, ms, 1.0, alpha, branch, rng.random())[0])


def sample_parent_rejection(state, m: int, kernel: AttachmentKernel, rng) -> tuple[int, int]:
    """One rejection draw from snapshot m; ``state`` from :func:`rejection_state`.

    Returns (parent, rejected proposals).
    """
    if not getattr(kernel, "monotone", False):
        raise StrategyError("rejection sampling requires a monotone kernel")
    fen, wdeg, kids = state
    return _draw_rejection(m, fen, wdeg, kids, kernel.evaluate, rng)


# ---------------------------------------------------------------------------
# Exact attachment distributions (for oracle comparisons; no sampling)
# ---------------------------------------------------------------------------


def attachment_distribution(trace: TreeTrace, m: int, kernel: AttachmentKernel) -> np.ndarray:
    """P(parent = v) over v = 1..m from snapshot weights (ground truth)."""
    if m == 1:
        return np.array([1.0])
    w = kernel.evaluate_array(_weight_degrees(trace.parents, m)).astype(np.float64)
    return w / w.sum()


def edge_trick_distribution(trace: TreeTrace, m: int, alpha: float) -> np.ndarray:
    """Law of :func:`sample_parent_affine`, from the first 2(m-1) endpoints."""
    if m == 1:
        return np.array([1.0])
    e = np.arange(2 * (m - 1))
    k = e // 2 + 2
    ends = np.where(e & 1, k, trace.parents[k])
    counts = np.bincount(ends, minlength=m + 1)[1 : m + 1].astype(np.float64)
    psi_m = 2.0 * (m - 1) + m * alpha
    return (counts + alpha) / psi_m


def rejection_distribution(trace: TreeTrace, m: int, kernel: AttachmentKernel) -> np.ndarray:
    """Law of :func:`sample_parent_rejection` via the thinning algebra."""
    if m == 1:
        return np.array([1.0])
    d_snap = _weight_degrees(trace.parents, m)
    w_now = kernel.evaluate_array(_weight_degrees(trace.parents, trace.n)[:m]).astype(np.float64)
    accept = kernel.evaluate_array(d_snap) / w_now
    mass = w_now * accept
    return mass / mass.sum()


# ---------------------------------------------------------------------------
# Growth
# ---------------------------------------------------------------------------


def grow(config: GrowthConfig) -> TreeTrace:
    """Grow a tree to ``config.n_final`` vertices; deterministic in the seed.

    Draw order is fixed: one vectorised block of delays for vertices
    3..n_final, then the attachment draws (for the edge sampler, every
    branch uniform and then every pick; for the others, step by step).
    Vertex 2 attaches to the root deterministically.
    """
    strategy = config.resolve_sampler()
    n_final = config.n_final
    rng = np.random.default_rng(config.seed)

    parents = np.zeros(n_final + 1, dtype=np.int64)
    xis = np.zeros(n_final + 1)
    snaps = np.zeros(n_final + 1, dtype=np.int64)
    parents[2] = 1
    snaps[2] = 1
    retries = 0

    steps = n_final - 2
    if steps > 0:
        tail = config.delay.sample_many(rng, steps)
        ms = snapshot_times(np.arange(2, n_final), tail, config.beta)
        xis[3:] = tail
        snaps[3:] = ms
        loop = {"edge": _loop_edge, "rejection": _loop_rejection, "scan": _loop_scan}[strategy]
        retries = loop(parents, config.kernel, ms, rng)

    return TreeTrace(
        kernel=config.kernel,
        n=n_final,
        parents=parents,
        xis=xis,
        snapshots=snaps,
        retries=retries,
        config=config,
    )


_EDGE_BLOCK = 1 << 16


def _loop_edge(parents, kernel, ms, rng) -> int:
    slope, alpha = kernel.linear_bound()  # exact for uniform and affine kernels
    steps = len(ms)
    # uniform kernels (slope 0) and alpha = 0 need no branch uniform
    branch = rng.random(steps) if slope and alpha > 0.0 else np.broadcast_to(0.0, steps)
    picks = rng.random(steps)
    # blocks keep the temporaries small; each reads only final parents below it
    for lo in range(0, steps, _EDGE_BLOCK):
        hi = min(lo + _EDGE_BLOCK, steps)
        parents[lo + 3 : hi + 3] = _resolve_edge(
            parents, lo + 3, ms[lo:hi], slope, alpha, branch[lo:hi], picks[lo:hi]
        )
    return 0


def _loop_rejection(parents, kernel, ms, rng) -> int:
    n_final = parents.shape[0] - 1
    evaluate = kernel.evaluate
    f1 = evaluate(1)
    fen = Fenwick(n_final)
    fen.add(1, f1)
    fen.add(2, f1)
    wdeg = [0] * (n_final + 1)
    wdeg[1] = 1
    wdeg[2] = 1
    kids: list = [[] for _ in range(n_final + 1)]
    kids[1].append(2)
    retries = 0
    for t in range(len(ms)):
        k = t + 3
        v, rejected = _draw_rejection(int(ms[t]), fen, wdeg, kids, evaluate, rng)
        retries += rejected
        parents[k] = v
        kids[v].append(k)
        d_old = wdeg[v]
        wdeg[v] = d_old + 1
        wdeg[k] = 1
        fen.add(v, evaluate(d_old + 1) - evaluate(d_old))
        fen.add(k, f1)
    return retries


def _loop_scan(parents, kernel, ms, rng) -> int:
    for t in range(len(ms)):
        parents[t + 3] = _draw_scan(parents, int(ms[t]), kernel, rng)
    return 0


# ---------------------------------------------------------------------------
# Hand-built traces and export
# ---------------------------------------------------------------------------


def trace_from_parents(parents, kernel: AttachmentKernel) -> TreeTrace:
    """Build a TreeTrace from explicit parent pointers.

    ``parents[v]`` is the parent of vertex v for v = 2..n (1-based; leading
    entries ignored).  Delays and snapshots are recorded as zeros.
    """
    parr = check_parents(parents).copy()
    parr[:2] = 0
    n = len(parr) - 1
    return TreeTrace(
        kernel=kernel,
        n=n,
        parents=parr,
        xis=np.zeros(n + 1),
        snapshots=np.zeros(n + 1, dtype=np.int64),
    )


def export_trace(trace: TreeTrace, path, config_hash: str = "") -> None:
    """Write the trace as 'child parent xi m' lines, one vertex per line."""
    with open(path, "w") as fh:
        fh.write("# delaytree trace v1\n")
        fh.write(f"# config_hash = {config_hash}\n")
        fh.write(f"# n = {trace.n}\n")
        fh.write("# columns: child parent xi m\n")
        fh.write("1 0 0 0\n")
        for v in range(2, trace.n + 1):
            fh.write(f"{v} {int(trace.parents[v])} {float(trace.xis[v])!r} {int(trace.snapshots[v])}\n")


def load_trace(path) -> dict:
    """Read an exported trace back into plain arrays (for audits/tests).

    Raises ArgumentError naming the line on a malformed line, and naming
    the vertex when a parent is not an earlier vertex.
    """
    header: dict = {}
    parents: list[int] = [0, 0]
    xis: list[float] = [0.0, 0.0]
    ms: list[int] = [0, 0]
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if "=" in line:
                    key, _, val = line[1:].partition("=")
                    header[key.strip()] = val.strip()
                continue
            try:
                child, parent, xi, m = line.split()
                v, p, x, s = int(child), int(parent), float(xi), int(m)
            except ValueError:
                raise ArgumentError(f"trace line {lineno}: expected 'child parent xi m', got {line!r}") from None
            if v == 1:
                continue
            if v != len(parents):
                raise ArgumentError(f"trace file out of birth order at vertex {v}")
            parents.append(p)
            xis.append(x)
            ms.append(s)
    check_parents(parents)
    return {"header": header, "parents": parents, "xis": xis, "snapshots": ms}
