"""Tree growth engine: the trace, degree views and the parent samplers.

A grown tree is recorded as a :class:`TreeTrace`: its birth-order parent
array plus, per vertex, the delay it drew and the snapshot time it
consulted.  The parent array is the one stored form of the tree; degrees at
any time, the total weight Psi(m) and the edge list are counts over it.

Parent choice within a snapshot is implemented two ways, and the kernel
picks one (``GrowthConfig.resolve_sampler``).  Each is exact for the
kernels it serves and has one draw routine, which :func:`grow` feeds every
arrival and the tests call on a frozen tree; the referee of both is the
exact law :func:`attachment_distribution`.

* ``edge``   -- endpoint-list trick of Batagelj & Brandes (Phys. Rev. E 71,
  036113, 2005), exact for uniform and affine kernels.  The edge made by
  vertex k has endpoints (parents[k], k), so the first 2(m-1) endpoints
  contain each vertex v <= m exactly graph-degree(v in snapshot m) times
  and endpoint e is vertex k = e//2 + 2 when e is odd, parents[k] when e is
  even.  A uniform endpoint plus a uniform-vertex mixture realises
  P(v) = (deg + alpha) / Psi(m) with no endpoint array stored.  Parents
  are resolved a block of arrivals at a time with NumPy: direct answers
  and copies of parents before the block in one pass, copies of parents
  inside the block by pointer jumping.  A block is a run of columns of
  one tree or, for trees of at most half a block, a band of whole trees
  as rows: :func:`grow` given several seeds grows them side by side, each
  drawing from its own generator.  Temporaries are O(block), and the
  draws and the resulting trees equal those of one draw per arrival.
* ``rejection`` -- thinning (Lewis & Shedler, Naval Res. Logist. Q. 26,
  1979) of the same endpoint proposal taken at the kernel's affine
  envelope f(d) <= a*d + b (``linear_bound``): propose v with probability
  (a*d + b)/Psi_g(m), accept with f(d)/(a*d + b), d being v's degree in
  snapshot m.  Exact for every kernel, monotone or not; for uniform and
  affine kernels the acceptance is 1 and it draws the edge law.  A
  proposal reads only parents[k] with k <= m, so no copy chain arises.
  Growth goes by waves: the wave at the first unresolved arrival P is the
  run of arrivals k >= P with m_k < P, which read only final parents and
  are independent given them.  Waves of at least _WAVE_MIN arrivals are
  proposed, thinned and retried in NumPy rounds; shorter ones are drawn
  one arrival at a time.  Snapshot degrees come from one array degree
  view (:class:`_DegreeView`) that both paths read.

Degrees that enter attachment weights are graph degrees (child count, +1
for the parent edge; the root simply has its child count, clamped to 1 at
time 1 where nothing is sampled anyway).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .canonical import check_parents
from .errors import ArgumentError
from .kernels import AttachmentKernel, GrowthConfig, check_seed, snapshot_times

__all__ = [
    "TreeTrace",
    "grow",
    "batch_size",
    "trace_from_parents",
    "deg_at",
    "weight_degree",
    "psi_recomputed",
    "sample_parent_rejection",
    "attachment_distribution",
    "thinning_distribution",
    "export_trace",
    "load_trace",
]


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


class _DegreeView:
    """Children counts of a growing tree at every earlier snapshot, in arrays.

    Arrivals enter in birth order.  ``count[v]`` is v's children so far,
    ``last[v]`` the birth time of the youngest (0: none) and ``prev[k]``
    that of the sibling born just before k (0: none).  ``key`` holds the
    children born before ``frozen`` as parent*frozen + birth, sorted.
    v's children born by m number ``count[v]`` when ``last[v] <= m``;
    otherwise one search of ``key`` answers when m < ``frozen``, and a
    walk back over v's siblings born after m when not.  ``counts``,
    ``lasts`` and ``prevs`` are memoryviews for scalar reads and writes
    without NumPy boxing.
    """

    def __init__(self, size: int):
        self.count = np.zeros(size, dtype=np.int32)
        self.last = np.zeros(size, dtype=np.int32)
        self.prev = np.zeros(size, dtype=np.int32)
        self.counts, self.lasts, self.prevs = map(memoryview, (self.count, self.last, self.prev))
        self.rebuild(np.zeros(2, dtype=np.int64), 1)

    def add(self, k: int, v: int) -> None:
        """Vertex k is born a child of v."""
        self.prevs[k] = self.lasts[v]
        self.lasts[v] = k
        self.counts[v] += 1

    def extend(self, parents, lo: int, hi: int) -> None:
        """Add arrivals lo..hi-1 at once: :meth:`add` of each, in birth order."""
        if hi <= lo:
            return
        order = np.argsort(parents[lo:hi], kind="stable")
        vs, ks = parents[lo:hi][order], (order + lo).astype(np.int32)
        head = np.empty(len(vs), dtype=bool)  # first of its parent in the batch
        head[0] = True
        np.not_equal(vs[1:], vs[:-1], out=head[1:])
        self.prev[ks[1:]] = ks[:-1]
        self.prev[ks[head]] = self.last[vs[head]]
        heads = np.flatnonzero(head)
        tails = np.append(heads[1:], len(vs)) - 1
        self.count[vs[heads]] += (tails - heads + 1).astype(np.int32)
        self.last[vs[heads]] = ks[tails]

    def rebuild(self, parents, frozen: int) -> None:
        """Sort the children born before ``frozen``, all of them final, into ``key``."""
        key = parents[2:frozen].astype(np.int64) * frozen
        key += np.arange(2, frozen)
        key.sort()
        self.key, self.keys, self.frozen = key, memoryview(key), frozen

    def refresh(self, parents, first: int) -> None:
        """Rebuild ``key`` once the first unresolved arrival is _REBUILD times the last rebuild's."""
        if first >= _REBUILD * self.frozen:
            self.rebuild(parents, first)

    def children(self, v: int, m: int) -> int:
        """Children of v born by time m, for a vertex v <= m whose children by m are all in."""
        c, k = self.counts[v], self.lasts[v]
        if k <= m:
            return c
        if m < self.frozen:
            lo = v * self.frozen
            return bisect_right(self.keys, lo + m) - bisect_left(self.keys, lo)
        prev = self.prevs
        while k > m:
            c -= 1
            k = prev[k]
        return c

    def degrees(self, vs, ms) -> np.ndarray:
        """Weight degrees of vertices ``vs`` in snapshots ``ms``: :meth:`children` a column at a time."""
        d = self.count[vs]
        late = (self.last[vs] > ms).nonzero()[0]
        if late.size:
            old = ms[late] < self.frozen
            hit = late[old]
            if hit.size:
                lo = vs[hit] * self.frozen
                d[hit] = np.searchsorted(self.key, lo + ms[hit], "right") - np.searchsorted(self.key, lo)
            walk = late[~old]
            born, mw = self.last[vs[walk]], ms[walk]
            while len(walk) > _STRAGGLERS:  # each round steps every walk back one sibling
                d[walk] -= 1
                born = self.prev[born]
                on = born > mw
                walk, born, mw = walk[on], born[on], mw[on]
            for i in walk.tolist():  # the longest few walks finish in Python
                d[i] = self.children(int(vs[i]), int(ms[i]))
        d += vs != 1  # the root has no parent edge
        return np.maximum(d, 1, out=d)  # and at m = 1 counts as degree 1


# ---------------------------------------------------------------------------
# Draws: grow's loops and the frozen-tree entry point share these
# ---------------------------------------------------------------------------


def _resolve_edge(parents, base: int, ms, slope: float, alpha: float, branch, picks) -> np.ndarray:
    """Endpoint-list draws for f(k) = slope*k + alpha, one per arrival.

    ``ms``, ``branch`` and ``picks`` are a row of arrivals or a block of
    rows, row i being arrivals base, base+1, ... of the tree in row i of
    ``parents`` (a parent array or a stack of them); each draws from its
    snapshot ms[i, j], and parents below ``base`` must be final.
    Psi(m) = slope*2(m-1) + alpha*m.  The uniform ``branch`` sends a draw to
    a uniform vertex of [1..m] with probability alpha*m/Psi(m), else to a
    uniform endpoint e among the first 2(m-1); the uniform ``pick`` selects
    within either.  Kernels without a mixture pass branch = None: every
    draw picks a vertex when alpha > 0 (then slope is 0) and an endpoint
    when alpha is 0.  At m = 1 both routes give the root (the endpoint
    route reads e = -1, odd, naming k = 1).

    An odd e names vertex k = e//2 + 2; an even e copies the parent of
    that k <= m.  Copies of a parent below ``base`` read their row of
    ``parents``; the rest copy an earlier arrival of the same row, and
    pointer jumping over the whole block walks each chain down to a direct
    answer in O(log chain) rounds.
    """
    if branch is None and alpha > 0.0:
        return np.minimum((picks * ms).astype(np.int64), ms - 1) + 1
    top = 2 * (ms - 1)
    e = np.minimum((picks * top).astype(np.int64), top - 1)
    out = (e >> 1) + 2
    copy = (e & 1) == 0
    if branch is not None:
        to_vertex = branch * (slope * top + ms * alpha) < ms * alpha
        np.copyto(out, np.minimum((picks * ms).astype(np.int64), ms - 1) + 1, where=to_vertex)
        copy &= ~to_vertex
    flat, width = out.reshape(-1), ms.shape[-1]
    copy = np.flatnonzero(copy)
    src, row = flat[copy], copy // width
    early = src < base
    flat[copy[early]] = parents.reshape(-1, parents.shape[-1])[row[early], src[early]]
    # within the block: link each copy to the arrival it copies, then jump;
    # a chain leaves the jumping once it reaches a direct answer (a self-link)
    late = ~early
    copy, link = copy[late], np.arange(len(flat))
    link[copy] = hops = row[late] * width + (src[late] - base)
    pending = copy
    while True:
        nxt = link[hops]
        moving = (nxt != hops).nonzero()[0]
        if not moving.size:
            break
        pending, hops = pending[moving], nxt[moving]
        link[pending] = hops
    flat[copy] = flat[link[copy]]
    return out


def _uniform_triples(rng):
    """Endless (branch, pick, accept) uniforms, drawn from ``rng`` a block at a time.

    A block is _THIN_BLOCK branch uniforms, then as many picks, then as
    many accepts; zipping the three columns is cheaper than row lists.
    """
    while True:
        yield from zip(*rng.random((3, _THIN_BLOCK)).tolist())


def _draw_thinning(par, view, m: int, slope: float, offset: float, evaluate, triples) -> tuple[int, int]:
    """Envelope proposal plus thinning; returns (parent, rejected proposals).

    Proposes v <= m with probability (slope*d + offset)/Psi_g(m), d being
    v's weight degree in snapshot m, by the endpoint rule of
    :func:`_resolve_edge` on Python scalars: every ``par[k]`` it reads has
    k <= m and is final.  Accepts with probability f(d)/(slope*d + offset),
    reading d off the degree view.
    """
    if m == 1:
        return 1, 0
    top = 2 * (m - 1)
    mix = offset * m
    psi = slope * top + mix
    count, last = view.counts, view.lasts
    rejected = 0
    for branch, pick, u in triples:
        if branch * psi < mix:
            v = min(int(pick * m), m - 1) + 1
        else:
            e = min(int(pick * top), top - 1)
            v = e // 2 + 2 if e & 1 else par[e // 2 + 2]
        d = (count[v] if last[v] <= m else view.children(v, m)) + (v != 1)  # the root has no parent edge
        if u * (slope * d + offset) < evaluate(d):
            return v, rejected
        rejected += 1


def _thin_wave(parents, view, ms, slope: float, offset: float, kernel: AttachmentKernel, rng, triples):
    """Thinning draws for arrivals whose snapshots ``ms`` hold only final parents.

    Returns (parents drawn, rejected proposals).  Each round draws a
    (branch, pick, accept) column per pending arrival from ``rng``,
    proposes by :func:`_resolve_edge` (every parent it reads is final, so
    no copy chain arises), reads snapshot degrees off the degree view and
    thins; the rejected go to the next round.  The last few stragglers
    finish through :func:`_draw_thinning` on ``triples``.  Given the final
    parents the draws are independent, so each has the thinning law of its
    own snapshot whatever the order.
    """
    out = np.ones(len(ms), dtype=np.int64)  # m = 1 sees only the root
    pending = (ms > 1).nonzero()[0]
    m = ms[pending]
    rejected = 0
    while len(pending) > _STRAGGLERS:
        branch, pick, u = rng.random((3, len(pending)))
        v = _resolve_edge(parents, len(parents), m, slope, offset, branch, pick)
        d = view.degrees(v, m)
        ok = u * (slope * d + offset) < kernel.evaluate_array(d)
        out[pending[ok]] = v[ok]
        np.logical_not(ok, out=ok)
        pending, m = pending[ok], m[ok]
        rejected += len(pending)
    par = memoryview(parents)
    for i, mi in zip(pending.tolist(), m.tolist()):
        out[i], r = _draw_thinning(par, view, mi, slope, offset, kernel.evaluate, triples)
        rejected += r
    return out, rejected


def sample_parent_rejection(
    trace: TreeTrace, m: int, kernel: AttachmentKernel, rng, size: int
) -> tuple[np.ndarray, int]:
    """``size`` thinning draws from snapshot m of a frozen trace.

    Every parent of a frozen tree is final, so the draws are one wave.
    Returns (parents drawn, rejected proposals).
    """
    if m < 1 or m > trace.n:
        raise ArgumentError(f"snapshot time {m} outside 1..{trace.n}")
    parents = np.ascontiguousarray(trace.parents[: trace.n + 1], dtype=np.int64)
    view = _DegreeView(trace.n + 1)
    view.extend(parents, 2, trace.n + 1)
    view.rebuild(parents, trace.n + 1)
    slope, offset = kernel.linear_bound()
    return _thin_wave(parents, view, np.full(size, m), slope, offset, kernel, rng, _uniform_triples(rng))


# ---------------------------------------------------------------------------
# Exact attachment distributions (for oracle comparisons; no sampling)
# ---------------------------------------------------------------------------


def attachment_distribution(trace: TreeTrace, m: int, kernel: AttachmentKernel) -> np.ndarray:
    """P(parent = v) over v = 1..m from snapshot weights (ground truth)."""
    if m == 1:
        return np.array([1.0])
    w = kernel.evaluate_array(_weight_degrees(trace.parents, m)).astype(np.float64)
    return w / w.sum()


def thinning_distribution(trace: TreeTrace, m: int, kernel: AttachmentKernel) -> np.ndarray:
    """Law of the thinning draw: the endpoint proposal at ``kernel.linear_bound()``
    times the acceptance min(1, f(d)/(a*d + b)), normalised.

    The proposal counts each vertex's endpoints among the first 2(m-1), so
    for uniform and affine kernels (acceptance 1) this is the edge law.  It
    equals :func:`attachment_distribution` exactly when the envelope holds.
    """
    if m == 1:
        return np.array([1.0])
    slope, offset = kernel.linear_bound()
    e = np.arange(2 * (m - 1))
    k = e // 2 + 2
    ends = np.bincount(np.where(e & 1, k, trace.parents[k]), minlength=m + 1)[1 : m + 1]
    proposal = (slope * ends + offset) / (slope * 2 * (m - 1) + offset * m)
    d = _weight_degrees(trace.parents, m)
    accept = np.minimum(kernel.evaluate_array(d) / (slope * d + offset), 1.0)  # as the draw caps it
    mass = proposal * accept
    return mass / mass.sum()


# ---------------------------------------------------------------------------
# Growth
# ---------------------------------------------------------------------------


def grow(config: GrowthConfig, seeds=None):
    """Grow a tree to ``config.n_final`` vertices; deterministic in the seed.

    Given ``seeds``, grow one tree per seed instead and return their list:
    tree i equals ``grow(replace(config, seed=seeds[i]))`` field for field.
    The edge sampler resolves such a batch as rows of shared blocks (see
    :func:`batch_size`); the rejection sampler grows its trees one by one.

    Draw order is fixed, and a batch draws each seed's stream in that
    order from the seed's own generator, whatever the other seeds: one
    vectorised block of delays for vertices 3..n_final, then the
    attachment draws.  The edge sampler draws every branch
    uniform and then every pick.  Rejection takes its arrivals wave by
    wave (see the module docstring): a long wave draws a (branch, pick,
    accept) column per pending arrival and round from the generator, and
    everything drawn one arrival at a time (short waves and a long wave's
    last few stragglers) takes one triple per proposal from blocks of
    uniforms drawn ahead.
    Vertex 2 attaches to the root deterministically.
    """
    n_final = config.n_final
    batch = [config.seed] if seeds is None else list(seeds)
    for seed in batch:
        check_seed(seed)
    rngs = [np.random.default_rng(seed) for seed in batch]

    shape = (len(batch), n_final + 1)  # one row per tree
    parents = np.zeros(shape, dtype=np.int64)
    xis = np.zeros(shape)
    snaps = np.zeros(shape, dtype=np.int64)
    parents[:, 2] = 1
    snaps[:, 2] = 1
    retries = [0] * len(batch)

    if n_final > 2:
        for row, rng in zip(xis, rngs):
            row[3:] = config.delay.sample_many(rng, n_final - 2)
        ms = snaps[:, 3:]
        ms[:] = snapshot_times(np.arange(2, n_final), xis[:, 3:], config.beta)
        if config.resolve_sampler() == "edge":
            _loop_edge(parents, config.kernel, ms, rngs)
        else:
            retries = [_loop_rejection(p, config.kernel, m, rng) for p, m, rng in zip(parents, ms, rngs)]

    traces = [TreeTrace(config.kernel, n_final, *row) for row in zip(parents, xis, snaps, retries)]
    return traces[0] if seeds is None else traces


_EDGE_BLOCK = 1 << 14  # arrivals per edge block (BENCH_replicate_batches.json)


def batch_size(n_final: int) -> int:
    """Trees of ``n_final`` vertices that one edge block holds as rows: a batch for :func:`grow`."""
    return max(1, _EDGE_BLOCK // n_final)


def _loop_edge(parents, kernel, ms, rngs) -> None:
    """Edge-sampler parents for every row of ``parents``, row i drawing from ``rngs[i]``.

    A block is up to _EDGE_BLOCK arrivals: a band of whole rows when a row
    holds at most half a block, else _EDGE_BLOCK columns of one row.  Each
    block reads only final parents below it.
    """
    slope, alpha = kernel.linear_bound()  # exact for uniform and affine kernels

    def uniforms():
        out = np.empty(ms.shape)
        for row, rng in zip(out, rngs):
            rng.random(out=row)
        return out

    # uniform kernels (slope 0) and alpha = 0 need no branch uniform
    branch = uniforms() if slope and alpha > 0.0 else None
    picks = uniforms()
    rows, steps = ms.shape
    width = min(steps, _EDGE_BLOCK)
    tall = _EDGE_BLOCK // width
    for first in range(0, rows, tall):
        band = slice(first, first + tall)
        for lo in range(0, steps, width):
            cols = slice(lo, lo + width)
            parents[band, lo + 3 : lo + width + 3] = _resolve_edge(
                parents[band], lo + 3, ms[band, cols], slope, alpha,
                None if branch is None else branch[band, cols], picks[band, cols],
            )


_THIN_BLOCK = 1 << 13
_WAVE_MIN = 128  # shorter waves are drawn one arrival at a time
_STRAGGLERS = 8  # a NumPy round with this few draws or sibling walks left hands them to scalar code
_REBUILD = 2  # the degree view rebuilds its sorted key once P doubles (this ratio) since the last rebuild


def _wave_starts(ms, lo: int, hi: int) -> list:
    """Arrivals P in [lo, hi) whose wave holds at least _WAVE_MIN arrivals.

    The wave at P is the run of arrivals k = P, P+1, ... with m_k < P
    (``ms[k - 3]`` is m_k); it reaches _WAVE_MIN when the largest snapshot
    of arrivals P+1 .. P+_WAVE_MIN-1 is below P.
    """
    span = _WAVE_MIN - 1
    reach, width = ms[lo - 2 : hi + span - 3], 1
    if len(reach) < span:
        return []
    while 2 * width < span:  # reach[i] is the largest of the width snapshots from arrival lo + 1 + i
        reach, width = np.maximum(reach[:-width], reach[width:]), 2 * width
    reach = np.maximum(reach[: len(reach) - span + width], reach[span - width :])
    return (np.flatnonzero(reach < np.arange(lo, lo + len(reach))) + lo).tolist()


def _loop_rejection(parents, kernel, ms, rng) -> int:
    slope, offset = kernel.linear_bound()
    evaluate = kernel.evaluate
    par = memoryview(parents)  # scalar reads and writes without NumPy boxing
    view = _DegreeView(len(parents))
    view.add(2, 1)
    triples = _uniform_triples(rng)
    retries = 0
    k, end = 3, len(parents)  # k: the first unresolved arrival, P
    # ms is read a block at a time to keep the Python ints few
    while k < end:
        view.refresh(parents, k)
        hi = min(k + _THIN_BLOCK, end)
        for start in [*_wave_starts(ms, k, hi), hi]:
            if start < k:
                continue  # resolved with the wave before
            for k, m in enumerate(ms[k - 3 : start - 3].tolist(), start=k):
                v, rejected = _draw_thinning(par, view, m, slope, offset, evaluate, triples)
                retries += rejected
                par[k] = v
                view.add(k, v)
            k = start
            if start < hi:
                view.refresh(parents, k)
                ahead = ms[k - 3 : k - 3 + _THIN_BLOCK]
                size = int(np.argmax(ahead >= k)) or len(ahead)  # ahead[0] < k always
                parents[k : k + size], rejected = _thin_wave(
                    parents, view, ahead[:size], slope, offset, kernel, rng, triples
                )
                retries += rejected
                view.extend(parents, k, k + size)
                k += size
    return retries


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
