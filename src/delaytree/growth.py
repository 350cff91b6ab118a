"""Tree growth engine: the trace, degree views and the parent samplers.

A grown tree is recorded as a :class:`TreeTrace`: its birth-order parent
array plus, per vertex, the snapshot time it consulted.  A delay matters
only through the snapshot it selects, so the delays are not kept.  The
parent array is the one stored form of the tree; degrees at any time, the
total weight Psi(m) and the edge list are counts over it.

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
  Growth goes by blocks of arrivals past the first unresolved arrival P,
  a quarter of P long (one arrival while P < 8).  Each arrival owns its
  (branch, pick, accept) triples, a budget drawn with the block and then
  overflow drawn in birth order, so its parent is a function of its
  triples and of earlier parents.  Every block, the one-arrival blocks
  included, guesses every parent at once in NumPy, then redoes only the
  arrivals whose reads changed until a round changes nothing: that fixed
  point is the one-at-a-time answer.  Snapshot degrees come from one
  array degree view (:class:`_DegreeView`).

Degrees that enter attachment weights are graph degrees (child count, +1
for the parent edge; the root simply has its child count, clamped to 1 at
time 1 where nothing is sampled anyway).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .canonical import check_parents
from .errors import ArgumentError
from .kernels import AttachmentKernel, GrowthConfig, check_count, check_seed, snapshot_times

__all__ = [
    "TreeTrace",
    "grow",
    "batch_size",
    "trace_from_parents",
    "deg_at",
    "sample_parent_rejection",
    "attachment_distribution",
    "thinning_distribution",
]


@dataclass
class TreeTrace:
    """What growth decided for one tree (or a hand-built tree).

    ``parents[v]`` is the parent of vertex v (v >= 2; entries 0 and 1 are
    0), ``snapshots[v]`` the snapshot consulted by vertex v (0 for
    hand-built traces, 1 for the deterministic vertex 2), ``retries`` the
    rejected proposals of the rejection sampler.  Grown and hand-built
    traces store both arrays as int32 (vertex ids stay below 2**31), so a
    tree keeps 8 B per vertex.
    """

    parents: np.ndarray
    snapshots: np.ndarray
    retries: int = 0

    @property
    def n(self) -> int:
        """The number of vertices."""
        return len(self.parents) - 1


# ---------------------------------------------------------------------------
# Degree views
# ---------------------------------------------------------------------------


def _check_snapshot(trace: TreeTrace, m, name: str = "snapshot time") -> int:
    """``m`` as an int; ArgumentError unless it is an integer in 1..n of ``trace``.

    ``name`` says what ``m`` is in the message: a snapshot time or a vertex.
    """
    if not isinstance(m, numbers.Integral) or not 1 <= m <= trace.n:
        raise ArgumentError(f"{name} must be an integer in 1..{trace.n}, got {m!r}")
    return int(m)


def deg_at(trace: TreeTrace, v: int, m: int) -> int:
    """Reported degree of v at time m: 1 + children born by m; 0 if unborn.

    The root counts like everyone else (degree 1 at birth), so on the
    3-chain deg_at(1, 3) == 2.
    """
    m = _check_snapshot(trace, m)
    v = _check_snapshot(trace, v, "vertex")
    return 0 if v > m else 1 + int(np.count_nonzero(trace.parents[2 : m + 1] == v))


def _weight_degrees(parents: np.ndarray, m: int) -> np.ndarray:
    """Weight degrees of vertices 1..m in the time-m snapshot (index 0 = vertex 1)."""
    counts = np.bincount(parents[2 : m + 1], minlength=m + 1)[1 : m + 1]
    counts[1:] += 1
    if counts[0] < 1:
        counts[0] = 1
    return counts


class _DegreeView:
    """Children counts of a growing tree at every earlier snapshot, in arrays.

    Arrivals enter in birth order.  ``count[v]`` is v's children so far,
    ``last[v]`` the birth time of the youngest (0: none) and ``prev[k]``
    that of the sibling born just before k (0: none).  ``key`` holds the
    children born before ``frozen`` as parent*frozen + birth, sorted.
    v's children born by m number ``count[v]`` when ``last[v] <= m``;
    otherwise one search of ``key`` answers when m < ``frozen``, and a
    walk back over v's siblings born after m when not.  Arrivals enter a
    block at a time through :meth:`extend`.  ``counts``, ``lasts`` and
    ``prevs`` are memoryviews for the scalar walks of :meth:`children`
    without NumPy boxing.  ``mark`` is per-vertex working space for
    :func:`_thin_block`.
    """

    def __init__(self, size: int):
        self.count = np.zeros(size, dtype=np.int32)
        self.last = np.zeros(size, dtype=np.int32)
        self.prev = np.zeros(size, dtype=np.int32)
        self.counts, self.lasts, self.prevs = map(memoryview, (self.count, self.last, self.prev))
        self.mark = np.full(size + 1, _NEVER, dtype=np.int32)  # _NEVER between uses
        self.rebuild(np.zeros(2, dtype=np.int64), 1)

    def extend(self, parents, lo: int, hi: int) -> None:
        """Add arrivals lo..hi-1, born in that order, at once."""
        if hi <= lo:
            return
        width = hi - lo
        key = parents[lo:hi].astype(np.int64) * width + np.arange(width)
        key.sort()  # by parent, then birth
        vs, ks = key // width, (key % width + lo).astype(np.int32)
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
        self.key = None  # the old key goes before the new one is built
        key = parents[2:frozen].astype(np.int64)
        key *= frozen
        key += np.arange(2, frozen, dtype=np.int32)
        key.sort()
        self.key, self.frozen = key, frozen

    def refresh(self, parents, first: int) -> None:
        """Rebuild ``key`` once the first unresolved arrival is _REBUILD times the last rebuild's."""
        if first >= _REBUILD * self.frozen:
            self.rebuild(parents, first)

    def children(self, v: int, m: int) -> int:
        """Children of v born by time m, by a walk back over its siblings; v <= m, its children by m all in."""
        c, k, prev = self.counts[v], self.lasts[v], self.prevs
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
    top = 2 * (ms.astype(np.int64) - 1)  # passes 2**31 in int32 from m = 2**30 + 1 on
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


def _thin_block(parents, view, base: int, out, ms, slope: float, offset: float, kernel: AttachmentKernel, budget, rng):
    """Thinning draws for a block of arrivals base, base+1, ... with snapshots ``ms``; returns rejected proposals.

    ``out`` receives the parents: ``parents[base:base + len(ms)]`` when the
    block grows the tree, a separate array when it draws from a frozen one
    (base past its end, so that every read is final).  ``budget`` holds
    rows of uniforms by slot and arrival, (rows, width, len(ms)): branch
    (for a mixed envelope, see :func:`_rows`), pick and accept.  Arrival i
    owns the triples ``budget[:, s, i]`` for s < width and then, once all
    of them are rejected, the columns of ``rng.random((rows, width))``
    chunks drawn in birth order.  So its parent is a function of its own
    triples and the parents of earlier arrivals.

    Every arrival starts unknown (0).  A round recomputes the pending
    arrivals from the current guesses, all at once: proposals by
    :func:`_resolve_edge` (a copy of an unknown parent proposes 0 and stops
    the arrival for the round), degrees off the view plus the guessed
    children born into the block by the snapshot, then thinning, slot by
    slot.  An arrival is pending again when a vertex it proposed
    gained or lost a guessed child born by its snapshot; that covers copies
    too, since a copy proposes the copied arrival's old guess.  Arrivals
    before the first pending one read only settled guesses and are final;
    when the first unknown one among them has spent its budget, its
    overflow is drawn and thinned now.  When nothing is pending or unknown,
    each guess equals its recomputation, and by induction over birth order
    that fixed point is the one-at-a-time answer.
    """
    rows, width, size = budget.shape
    *branch, pick, accept = budget
    branch = branch[0] if branch else None
    ms = ms.astype(np.int64)
    tried = np.empty((width, size), dtype=np.int32)  # proposals read, by slot: the first reads[i] of column i
    reads = np.zeros(size, dtype=np.int64)
    rejected = np.zeros(size, dtype=np.int64)
    mark = view.mark
    bits = max(size - 1, 1).bit_length()  # keys pack (vertex, arrival i) as vertex << bits | i
    keys = None  # the guesses as sorted keys (parent, i), once there are any

    def guesses():
        """The current guesses as sorted keys (parent, i)."""
        keys = (out.astype(np.int64) << bits) | np.arange(size)
        keys.sort()
        return keys

    def thin(vs, m, u):
        """Accept flags of proposals ``vs`` from snapshots ``m``: degrees off the view plus the guessed children."""
        d = view.degrees(vs, m)
        if keys is not None:
            lo = vs << bits
            d += np.searchsorted(keys, lo + np.maximum(m - base, -1), "right") - np.searchsorted(keys, lo)
        return u * (slope * d + offset) < kernel.evaluate_array(d)

    def draw(pending):
        """New guesses for the arrivals ``pending``, from the current ones; records what each reads."""
        new = np.zeros(len(pending), dtype=out.dtype)
        reads[pending] = rejected[pending] = width
        live, s = np.arange(len(pending)), 0
        while live.size and s < width:
            # a slot at a time while many arrivals are live, then all their remaining slots at once
            span = width - s if len(live) * (width - s) <= max(len(pending) // 4, 2048) else 1
            i = pending[live]
            m = np.tile(ms[i], span)
            b, p, u = (None if row is None else row[s : s + span].take(i, axis=1).reshape(-1) for row in (branch, pick, accept))
            vs = _resolve_edge(parents, len(parents), m, slope, offset, b, p)
            stop = vs == 0  # copied an unknown parent
            if stop.any():
                known = ~stop
                stop[known] = thin(vs[known], m[known], u[known])
            else:
                stop = thin(vs, m, u)
            if span == 1:
                tried[s, i] = vs
                done, last, vs = stop, 0, vs[stop]
            else:  # the first stop of each arrival among its span slots
                vs, stop = vs.reshape(span, -1), stop.reshape(span, -1)
                tried[s : s + span, i] = vs
                last = stop.argmax(axis=0)
                done = stop[last, np.arange(len(i))]
                last = last[done]
                vs = vs[last, done.nonzero()[0]]
            reads[i[done]] = s + last + 1
            rejected[i[done]] = s + last
            new[live[done]] = vs
            live, s = live[~done], s + span
        return new

    def readers(changed, old, new):
        """Arrivals whose proposals saw a vertex gain or lose a guessed child at the births ``base + changed``."""
        if not changed.size:
            return changed
        changes = (np.concatenate([old, new]).astype(np.int64) << bits) | np.tile(changed, 2)
        changes.sort()
        verts = changes >> bits
        head = np.ones(len(changes), dtype=bool)
        np.not_equal(verts[1:], verts[:-1], out=head[1:])
        verts = verts[head]
        mark[verts] = (changes[head] & ((1 << bits) - 1)) + base  # each vertex's first change
        hit = np.zeros(size, dtype=bool)
        cols = np.arange(changed.min() + 1, size)
        for s in range(width):
            cols = cols[reads[cols] > s]
            hit[cols[mark[tried[s, cols]] <= ms[cols]]] = True
        mark[verts] = _NEVER
        return np.flatnonzero(hit)

    # round one: no guesses yet, so every arrival reads the view alone; m = 1 takes the root
    out[:] = 0
    pending = np.flatnonzero(ms > 1)
    out[pending] = draw(pending)
    out[ms == 1] = 1
    changed = np.flatnonzero(out)
    pending = readers(changed, np.zeros(len(changed), dtype=np.int64), out[changed])
    while True:
        unknown = np.flatnonzero(out == 0)
        if unknown.size and (not pending.size or unknown[0] < pending[0]):
            # every arrival before q is final and q spent its budget: draw its overflow
            q = int(unknown[0])
            keys = guesses()
            m = np.full(width, ms[q])
            while True:
                *b, p, u = rng.random((rows, width))
                vs = _resolve_edge(parents, len(parents), m, slope, offset, b[0] if b else None, p)
                ok = thin(vs, m, u)
                if ok.any():
                    break
                rejected[q] += width
            s = int(np.argmax(ok))
            rejected[q] += s
            out[q] = vs[s]
            hit = readers(np.array([q]), np.zeros(1, dtype=np.int64), vs[s : s + 1])
            pending = np.union1d(pending, hit)
            continue
        if not pending.size:
            return int(rejected.sum())
        keys = guesses()
        new = draw(pending)
        moved = new != out[pending]
        changed = pending[moved]
        old = out[changed]
        out[pending] = new
        pending = readers(changed, old, new[moved])


def sample_parent_rejection(
    trace: TreeTrace, m: int, kernel: AttachmentKernel, rng, size: int
) -> tuple[np.ndarray, int]:
    """``size`` thinning draws from snapshot m of a frozen trace.

    Every parent of a frozen tree is final, so the draws go through
    :func:`_thin_block` in blocks of up to _BLOCK_MAX whose reads are all
    final, each settled in one round, with budgets sized as :func:`grow`
    sizes them.  Returns (parents drawn, rejected proposals).
    """
    m = _check_snapshot(trace, m)
    size = check_count("size", size, 0)
    parents = trace.parents
    view = _DegreeView(len(parents))
    view.extend(parents, 2, len(parents))
    view.rebuild(parents, len(parents))
    slope, offset = kernel.linear_bound()
    rows = _rows(slope, offset)
    out = np.empty(size, dtype=np.int64)
    rejected = 0
    for lo in range(0, size, _BLOCK_MAX):
        hi = min(lo + _BLOCK_MAX, size)
        budget = rng.random((rows, _budget(rejected, rejected + lo * (m > 1), hi - lo), hi - lo))
        rejected += _thin_block(parents, view, len(parents), out[lo:hi], np.full(hi - lo, m), slope, offset, kernel, budget, rng)
    return out, rejected


# ---------------------------------------------------------------------------
# Exact attachment distributions (for oracle comparisons; no sampling)
# ---------------------------------------------------------------------------


def attachment_distribution(trace: TreeTrace, m: int, kernel: AttachmentKernel) -> np.ndarray:
    """P(parent = v) over v = 1..m from snapshot weights (ground truth)."""
    if _check_snapshot(trace, m) == 1:
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
    if _check_snapshot(trace, m) == 1:
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

    Draw order is fixed, and a batch draws each seed's stream in that order
    from the seed's own generator, whatever the other seeds: one vectorised
    draw of delays for vertices 3..n_final, which set the snapshots (an edge
    block at a time) and are then dropped, then the attachment draws.  The
    edge sampler draws every branch uniform and then every pick.  Rejection
    takes its arrivals block by block (see the module docstring): each
    block draws its budget of uniforms, and an arrival that rejects all of
    its budget draws overflow chunks when it is resolved, in birth order.
    Vertex 2 attaches to the root deterministically.  Trees are int32 (see
    :class:`TreeTrace`).  The edge sampler peaks at about 28 B per vertex,
    in the delay draw; the rejection sampler at about 42, in its degree
    view and sorted key, plus a few MB for a block.
    """
    n_final = config.n_final
    batch = [config.seed] if seeds is None else [check_seed(seed) for seed in seeds]
    rngs = [np.random.default_rng(seed) for seed in batch]

    shape = (len(batch), n_final + 1)  # one row per tree
    snaps = np.zeros(shape, dtype=np.int32)
    snaps[:, 2] = 1
    ms = snaps[:, 3:]
    if n_final > 2:
        delays = np.empty(ms.shape)
        for row, rng in zip(delays, rngs):
            row[:] = config.delay.sample_many(rng, n_final - 2)
        for band, lo, hi in _blocks(ms.shape):
            ms[band, lo:hi] = snapshot_times(np.arange(lo + 2, hi + 2), delays[band, lo:hi], config.beta)
        del delays
    # allocated once the delays are gone, so that their draw alone sets the peak
    parents = np.zeros(shape, dtype=np.int32)
    parents[:, 2] = 1
    retries = [0] * len(batch)

    if n_final > 2:
        if config.resolve_sampler() == "edge":
            _loop_edge(parents, config.kernel, ms, rngs)
        else:
            retries = [_loop_rejection(p, config.kernel, m, rng) for p, m, rng in zip(parents, ms, rngs)]

    traces = [TreeTrace(*row) for row in zip(parents, snaps, retries)]
    return traces[0] if seeds is None else traces


_EDGE_BLOCK = 1 << 14  # arrivals per edge block (BENCH_replicate_batches.json)


def batch_size(n_final: int) -> int:
    """Trees of ``n_final`` vertices that one edge block holds as rows: a batch for :func:`grow`."""
    return max(1, _EDGE_BLOCK // n_final)


def _blocks(shape):
    """(band of rows, lo, hi) covering a (rows, arrivals) array in blocks of up to _EDGE_BLOCK arrivals.

    A block is a band of whole rows when a row holds at most half a block,
    else columns lo..hi-1 of one row; blocks come in row order, columns
    ascending.
    """
    rows, steps = shape
    width = min(steps, _EDGE_BLOCK)
    tall = _EDGE_BLOCK // width
    for first in range(0, rows, tall):
        for lo in range(0, steps, width):
            yield slice(first, first + tall), lo, min(lo + width, steps)


def _loop_edge(parents, kernel, ms, rngs) -> None:
    """Edge-sampler parents for every row of ``parents``, row i drawing from ``rngs[i]``.

    The blocks are those of :func:`_blocks`; each reads only final parents
    below it.
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
    for band, lo, hi in _blocks(ms.shape):
        cols = slice(lo, hi)
        parents[band, lo + 3 : hi + 3] = _resolve_edge(
            parents[band], lo + 3, ms[band, cols], slope, alpha,
            None if branch is None else branch[band, cols], picks[band, cols],
        )


_BLOCK_MAX = 1 << 14  # thinning blocks hold P/4 arrivals past the first unresolved arrival P, up to this many
_BUDGET_MAX = 32  # triples drawn ahead per arrival at most
_STRAGGLERS = 8  # a NumPy round with this few sibling walks left hands them to scalar code
_NEVER = np.iinfo(np.int32).max  # a birth later than any vertex
_REBUILD = 2  # the degree view rebuilds its sorted key once P doubles (this ratio) since the last rebuild


def _block_size(first: int) -> int:
    """Arrivals in the thinning block that starts at the first unresolved arrival ``first``."""
    return max(1, min(first >> 2, _BLOCK_MAX))


def _budget(rejected: int, proposals: int, size: int) -> int:
    """Triples drawn ahead per arrival for a block of ``size``, from the proposals and rejections so far.

    At the smoothed rejection rate r = (rejected + 1)/(proposals + 2), the
    smallest width w with size * r**w <= 1: at most about one arrival per
    block overflows its budget.
    """
    rate = (rejected + 1) / (proposals + 2)
    return min(_BUDGET_MAX, max(1, math.ceil(math.log(size) / -math.log(rate))))


def _rows(slope: float, offset: float) -> int:
    """Uniforms per triple: a mixed envelope needs the branch, a pure one (slope or offset 0) does not."""
    return 3 if slope and offset else 2


def _loop_rejection(parents, kernel, ms, rng) -> int:
    """Thinning parents for one tree, a block at a time; returns the rejected proposals.

    Each block draws its budget from ``rng`` (:func:`_budget` triples per
    arrival, sized by the rejections so far), resolves through
    :func:`_thin_block` and then enters the degree view.
    """
    slope, offset = kernel.linear_bound()
    rows = _rows(slope, offset)
    view = _DegreeView(len(parents))
    view.extend(parents, 2, 3)  # vertex 2, the root's child
    retries = accepted = 0
    k, end = 3, len(parents)  # k: the first unresolved arrival, P
    while k < end:
        size = min(_block_size(k), end - k)
        width = _budget(retries, retries + accepted, size)
        budget = rng.random((rows, width, size))
        view.refresh(parents, k)
        block = ms[k - 3 : k - 3 + size]
        retries += _thin_block(parents, view, k, parents[k : k + size], block, slope, offset, kernel, budget, rng)
        view.extend(parents, k, k + size)
        accepted += int(np.count_nonzero(block > 1))
        k += size
    return retries


# ---------------------------------------------------------------------------
# Hand-built traces
# ---------------------------------------------------------------------------


def trace_from_parents(parents) -> TreeTrace:
    """Build a TreeTrace from explicit parent pointers.

    ``parents[v]`` is the parent of vertex v for v = 2..n (1-based; leading
    entries ignored).  The trace holds an int32 copy, as a grown one does;
    snapshots are recorded as zeros.
    """
    parr = check_parents(parents).astype(np.int32)
    parr[:2] = 0
    return TreeTrace(parents=parr, snapshots=np.zeros(len(parr), dtype=np.int32))
