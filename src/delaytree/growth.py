"""Tree growth engine: the trace, degree views and the parent samplers.

A grown tree is recorded as a :class:`TreeTrace`: its birth-order parent
array plus, per vertex, the snapshot time it consulted.  A delay matters
only through the snapshot it selects, so the delays are not kept.  The
parent array is the one stored form of the tree; degrees at any time, the
total weight Psi(m) and the edge list are counts over it.

:func:`grow` given several seeds grows their trees as the rows of one
array, each from its own generator, cut into tiles (:func:`_tiles`).  One
delay pass (:func:`_snapshots`) sets every row's snapshots tile by tile
before any attachment draw, for both samplers.

Parent choice within a snapshot is implemented two ways, and the kernel
picks one (``GrowthConfig.resolve_sampler``).  Each is exact for the
kernels it serves and has one draw routine, which :func:`grow` feeds every
arrival and the tests call on a finished tree; the referee of both is the
exact law :func:`attachment_distribution`.

* ``edge``   -- endpoint-list trick of Batagelj & Brandes (Phys. Rev. E 71,
  036113, 2005), exact for uniform and affine kernels.  The edge made by
  vertex k has endpoints (parents[k], k), so the first 2(m-1) endpoints
  contain each vertex v <= m exactly graph-degree(v in snapshot m) times
  and endpoint e is vertex k = e//2 + 2 when e is odd, parents[k] when e is
  even.  A uniform endpoint plus a uniform-vertex mixture realises
  P(v) = (deg + alpha) / Psi(m) with no endpoint array stored.  Parents
  are resolved a tile at a time with NumPy: direct answers and copies of
  parents before the tile in one pass, copies of parents inside it by
  pointer jumping.  A tile draws its uniforms when it starts, each row
  from its own stream at the row's offset, so draws and temporaries are
  O(block) and only the int32 trees are batch-sized; the draws and the
  resulting trees equal those of one draw per arrival.  The endpoint
  arithmetic runs in int32 when the parents it reads, a tree or a band of
  rows, hold at most 2**30 + 1 entries, so that 2(m-1) and every index
  fit in it, and in int64 for larger ones.
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
  point is the one-at-a-time answer.  A round draws its arrivals a slot
  at a time while many are live, then all their remaining slots at once:
  proposals read the current guesses as final parents, one gather each
  (:func:`_resolve_edge`); snapshot degrees come from the degree view
  (:class:`_DegreeView`), a count or a pair of searches in each of its few
  sorted runs of final children, plus two searches of the known guesses,
  which a block keeps as one sorted key array, sorted once after round
  one and merged with each later change; the acceptance is a lookup in
  per-tree tables of the envelope and the kernel (:class:`_Acceptance`);
  and the readers of a change come from one gather over every arrival's
  first proposal and one more over the few that read further.  The final
  keys enter the degree view as one more sorted run.

Degrees that enter attachment weights are graph degrees (child count, +1
for the parent edge; the root simply has its child count, clamped to 1 at
time 1 where nothing is sampled anyway).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .canonical import check_parents, tally
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

    def child_counts(self) -> np.ndarray:
        """int32 ``kids[v]``, the children of vertex v (entry 0 is 0); not stored."""
        return tally(self.parents[2:], len(self.parents))


def parent_rows(traces) -> np.ndarray:
    """``parents[2:]`` of each tree of a batch of one or more trees of one size, as the rows of one matrix.

    A larger batch is copied once; a batch of one is a view of its tree.
    """
    sizes = {trace.n for trace in traces}
    if len(sizes) != 1:
        raise ArgumentError(f"a batch needs one or more trees of one size, got sizes {sorted(sizes)}")
    if len(traces) == 1:
        return traces[0].parents[None, 2:]
    return np.concatenate([trace.parents[2:] for trace in traces]).reshape(len(traces), sizes.pop() - 1)


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

    Arrivals enter in birth order.  ``count[v]`` is v's weight degree with
    its children so far (children + 1; the root's children alone) and
    ``last[v]`` the birth time of its youngest child (0: none).  ``key``
    is a few sorted runs, ``bounds`` apart: between bounds lo and hi it
    holds arrivals lo..hi-1 as parent*size + birth, sorted.  Each block
    enters as a run, and merges with the run before it while that one is
    no longer, so there are about log2(blocks) runs (Bentley & Saxe, J.
    Algorithms 1, 1980).  v's weight degree at m is ``count[v]`` when
    ``last[v] <= m``, and otherwise a pair of searches per run.  Arrivals
    enter a block at a time through :meth:`extend`, or :meth:`enter` when
    their keys are sorted already.  ``mark`` is per-vertex working space
    for :func:`_thin_block`.  ``count``, ``last`` and ``mark`` have one
    entry past the tree, the unknown guess of a thinning block, which no
    key names as a parent: its weight degree is its count, 1.
    """

    def __init__(self, size: int):
        self.count = np.ones(size + 1, dtype=np.int32)
        self.count[1] = 0  # the root has no parent edge
        self.last = np.zeros(size + 1, dtype=np.int32)
        self.mark = np.full(size + 1, _NEVER, dtype=np.int32)  # _NEVER between uses
        self.key = np.empty(size, dtype=np.int64)
        self.bounds = [2]  # where each run starts, then where the last one ends

    def extend(self, parents, lo: int, hi: int) -> None:
        """Add arrivals lo..hi-1, born in that order, at once."""
        if hi > lo:
            bits = _key_bits(hi - lo)
            self.enter(_sorted_keys(parents[lo:hi], bits), bits, lo)

    def enter(self, keys, bits: int, lo: int) -> None:
        """Add arrivals lo, lo+1, ... given as their sorted keys parent << bits | birth - lo (:func:`_sorted_keys`).

        They become one more sorted run of ``key``, merged with the runs
        before it that are no longer than it, and one pass over them,
        parent by parent, moves ``count`` and ``last``.
        """
        vs = keys >> bits  # int64 indexes, the faster kind
        born = keys & ((1 << bits) - 1)
        born += lo
        hi = lo + len(keys)
        run = np.multiply(vs, len(self.key), out=self.key[lo:hi])
        run += born
        bounds = self.bounds
        while len(bounds) > 1 and bounds[-1] - bounds[-2] <= hi - bounds[-1]:
            bounds.pop()  # two sorted runs: one merge
            self.key[bounds[-1] : hi].sort(kind="stable")
        bounds.append(hi)
        tail = np.empty(len(vs), dtype=bool)
        tail[-1] = True
        np.not_equal(vs[1:], vs[:-1], out=tail[:-1])
        tails = tail.nonzero()[0]  # the last child of each parent
        vs = vs.take(tails)
        runs = tails.astype(np.int32)  # each parent's children: the distance between tails
        runs[1:] -= runs[:-1]
        runs[0] += 1
        self.count[vs] += runs
        self.last[vs] = born.take(tails)

    def degrees(self, vs, ms) -> np.ndarray:
        """Weight degrees of vertices ``vs`` in snapshots ``ms``; every ``v <= m``, its children by m all in."""
        d = self.count.take(vs)  # take: fancy indexing by an int32 vs would cast it first, and slowly
        late = (self.last.take(vs) > ms).nonzero()[0]
        if late.size:  # searched in sorted order, which saves most of a search's cache misses
            size = len(self.key)
            lo = vs.take(late).astype(np.int64) * size
            hi = lo + ms.take(late)
            order = hi.argsort()
            hi, lo = hi.take(order), lo.take(order)
            hi += 1  # keys are unique: those up to hi are those below hi + 1
            got = (lo != size).astype(np.int64)  # the parent edge: lo is size for the root alone
            for a, b in zip(self.bounds, self.bounds[1:]):
                run = self.key[a:b]
                got += run.searchsorted(hi)
                got -= run.searchsorted(lo)
            d[late.take(order)] = got
        return np.maximum(d, 1, out=d)  # the root at m = 1 counts as degree 1


# ---------------------------------------------------------------------------
# Draws: grow's loops and the finished-tree entry point share these
# ---------------------------------------------------------------------------


# the most entries of parents for int32 endpoint arithmetic: a tree of up to 2**30
# vertices, whose 2(m-1) is at most 2**31 - 2
_INT32_SIZE = (1 << 30) + 1


def _resolve_edge(parents, base: int, ms, slope: float, alpha: float, branch, picks) -> np.ndarray:
    """Endpoint-list draws for f(k) = slope*k + alpha, one per arrival.

    ``ms``, ``branch`` and ``picks`` are a row of arrivals or a block of
    rows, row i being arrivals base, base+1, ... of the tree in row i of
    ``parents`` (a parent array or a stack of them); each draws from its
    snapshot ms[i, j], at most the tree's last vertex, and parents below
    ``base`` must be final.
    Psi(m) = slope*2(m-1) + alpha*m.  The uniform ``branch`` sends a draw to
    a uniform vertex of [1..m] with probability alpha*m/Psi(m), else to a
    uniform endpoint e among the first 2(m-1); the uniform ``pick`` selects
    within either.  Kernels without a mixture pass branch = None: every
    draw picks a vertex when alpha > 0 (then slope is 0) and an endpoint
    when alpha is 0.  At m = 1 both routes give the root (the endpoint
    route reads e = -1, odd, naming k = 1).

    An odd e names vertex k = e//2 + 2; an even e copies the parent of
    that k <= m.  For one tree whose parents are all final, one ``take``
    answers every copy.  Otherwise copies of a parent below ``base`` are
    answered by one ``take`` from the rows of ``parents`` laid end to end;
    the rest copy an earlier arrival of the same row, each linked to that
    arrival's place in the block, and pointer jumping over the whole block
    walks each chain down to a direct answer in O(log chain) rounds.  The
    arithmetic runs in place on two arrays, the second of which becomes the
    answer, in int32 when ``parents`` holds at most _INT32_SIZE entries
    (then every 2(m-1) and every place in the rows end to end fits in it)
    and in int64 above.
    """
    ints = np.int32 if parents.size <= _INT32_SIZE else np.int64
    if branch is None and alpha > 0.0:
        return np.minimum((picks * ms).astype(ints), ms - 1) + 1
    top = ms.astype(ints)
    top -= 1
    top <<= 1  # 2(m-1)
    if branch is not None:  # the vertex route, taken only where the branch sends a draw
        weight = ms * alpha
        to_vertex = branch * (slope * top + weight) < weight
    e = (picks * top).astype(ints)
    top -= 1
    np.minimum(e, top, out=e)
    copy = np.bitwise_and(e, 1, out=top) == 0
    out = np.right_shift(e, 1, out=e)  # k = e//2 + 2, in place; copies are overwritten below
    out += 2
    flat, width = out.reshape(-1), ms.shape[-1]
    if branch is not None:
        copy &= ~to_vertex
        to_vertex = to_vertex.ravel().nonzero()[0]
        m = ms.reshape(-1)[to_vertex]
        flat[to_vertex] = np.minimum((picks.reshape(-1)[to_vertex] * m).astype(ints), m - 1) + 1
    copy = copy.ravel().nonzero()[0]
    src = flat.take(copy)
    rows, stride = parents.reshape(-1), parents.shape[-1]  # the rows of parents, end to end
    if parents.ndim == 1 and base >= stride:  # one tree, every parent final: one gather answers every copy
        flat[copy] = rows.take(src)
        return out
    early = src < base
    hit = copy[early]
    flat[hit] = rows.take(src[early] + hit // width * stride)
    # within the block: link each copy to the arrival it copies, then jump;
    # a chain leaves the jumping once it reaches a direct answer (a self-link)
    late = ~early
    copy, link = copy[late], np.arange(len(flat))
    link[copy] = hops = src[late] + copy // width * width - base
    pending = copy
    while True:
        nxt = link.take(hops)
        moving = (nxt != hops).nonzero()[0]
        if not moving.size:
            break
        pending, hops = pending.take(moving), nxt.take(moving)
        link[pending] = hops
    flat[copy] = flat.take(link.take(copy))
    return out


class _Acceptance:
    """The thinning test u * (a*d + b) < f(d) of a kernel, by lookup in tables indexed by weight degree d.

    ``env[d] = a*d + b`` and ``f[d] = kernel.evaluate_array(d)`` are built
    from degree 1 (entry 0 repeats degree 1: a kernel with only a scalar
    ``evaluate`` refuses 0) and rebuilt at the next power of two when a
    larger degree appears.  Each flag comes from the same float operations
    as the direct test, so the flags are identical.  One object serves one
    tree, whose degrees only grow.  ``rows`` is the uniforms per triple:
    a mixed envelope needs the branch, a pure one (slope or offset 0) does
    not.
    """

    def __init__(self, kernel: AttachmentKernel):
        self.kernel = kernel
        self.slope, self.offset = kernel.linear_bound()
        self.rows = 3 if self.slope and self.offset else 2
        self.env = self.f = np.empty(0)

    def __call__(self, d, u) -> np.ndarray:
        """Accept flags of proposals of weight degrees ``d`` (>= 1, at least one) with uniforms ``u``."""
        top = int(d.max())
        if top >= len(self.env):
            degrees = np.arange(1 << top.bit_length())
            degrees[0] = 1
            self.env = self.slope * degrees + self.offset
            self.f = self.kernel.evaluate_array(degrees)
        return u * self.env.take(d) < self.f.take(d)


def _key_bits(size: int) -> int:
    """Bits for the arrival in a key of a block of ``size`` arrivals (:func:`_sorted_keys`)."""
    return max(size - 1, 1).bit_length()


def _sorted_keys(guesses, bits: int) -> np.ndarray:
    """The keys ``guesses[i] << bits | i``, sorted: by parent, then by arrival."""
    keys = (guesses.astype(np.int64) << bits) | np.arange(len(guesses))
    keys.sort()
    return keys


def _thin_block(parents, view, base: int, out, ms, acceptance: _Acceptance, budget, rng):
    """Thinning draws for a block of arrivals base, base+1, ... with snapshots ``ms``; returns rejected proposals.

    ``out`` receives the parents: ``parents[base:base + len(ms)]`` when the
    block grows the tree, which also enters the block into ``view``, and a
    separate array when it draws from a finished one (base past its end, so
    that every read is final).  ``acceptance`` is the tree's thinning
    test, its envelope the proposal's.  ``budget`` holds rows of uniforms
    by slot and arrival, (``acceptance.rows``, width, len(ms)): branch (for
    a mixed envelope), pick and accept.  Arrival i owns the
    triples ``budget[:, s, i]`` for s < width and then, once all of them
    are rejected, the columns of ``rng.random((rows, width))`` chunks
    drawn in birth order.  So its parent is a function of its own triples
    and the parents of earlier arrivals.

    Every arrival starts unknown: its guess is ``len(parents)``, the view's
    entry past the tree.  Round one draws every arrival, each slot's
    uniforms read in place; an arrival whose snapshot holds the root alone
    takes it untested, one read like any accepted first proposal.  A round
    recomputes the pending arrivals from the
    current guesses, all at once: proposals by :func:`_resolve_edge` (a
    copy of an unknown parent proposes the unknown vertex, which stops the
    arrival for the round whatever its thinning says), degrees off the
    view plus the guessed children born into the block by the snapshot,
    then thinning, slot by slot.  An arrival is pending again when a vertex it proposed
    gained or lost a guessed child born by its snapshot; that covers copies
    too, since a copy proposes the copied arrival's old guess.  Arrivals
    before the first pending one read only settled guesses and are final;
    when the first unknown one among them has spent its budget, its
    overflow is drawn and thinned now.  When nothing is pending or unknown,
    each guess equals its recomputation, and by induction over birth order
    that fixed point is the one-at-a-time answer.

    The known guesses are kept as one sorted key array
    (:func:`_sorted_keys`), sorted once after round one and then merged with
    each change, so the guessed children of a vertex are one pair of
    searches, and the final keys enter the view without a second sort
    (:meth:`_DegreeView.enter`).  An unknown guess has no key, so the
    unknown vertex reads the view's degree 1.
    The readers of a change come from ``view.mark``, which holds, for
    each vertex that gained or lost a guess, the first birth at which it
    did: every arrival past the first change looks up the mark of its
    first proposal, and only those that read more slots look up the rest,
    their slots past the last read masked off.  Unread slots hold vertex
    0, which is never marked.  ``mark`` is back to all _NEVER on return.
    """
    rows, width, size = budget.shape
    slope, offset = acceptance.slope, acceptance.offset
    ms = ms.astype(np.int64)
    unknown = len(parents)  # the guess of an arrival not drawn yet: the view's entry past the tree
    tried = np.zeros((width, size), dtype=np.int32)  # tried[s, i]: what arrival i proposed in slot s; vertex 0 is never marked
    reads = np.empty(size, dtype=np.int64)  # the slots each arrival read in its last draw; round one sets them all
    guess = np.empty(size, dtype=out.dtype)  # each arrival's guess from its last draw
    # a drawn arrival rejects every proposal it reads but the last; an overflow's
    # rejections past its budget, and its budget's last read, go to spilled
    spilled = 0
    mark = view.mark
    bits = _key_bits(size)
    keys = None  # the known guesses as sorted keys (parent, i), once there are any

    def thin(vs, m, u):
        """Accept flags of proposals ``vs`` from snapshots ``m``: degrees off the view plus the guessed children."""
        vs = vs.astype(np.int64)  # int64 indexes, the faster kind
        d = view.degrees(vs, m)
        if keys is not None:  # searched in sorted order, which saves most of a search's cache misses
            lo = vs << bits
            hi = m - (base - 1)
            np.maximum(hi, 0, out=hi)
            hi += lo  # the keys below hi are v's guessed children born by m
            order = hi.argsort()
            d[order] += keys.searchsorted(hi.take(order)) - keys.searchsorted(lo.take(order))
        return acceptance(d, u)

    def draw(i):
        """New guesses for the arrivals ``i`` (ascending) from the current ones, into ``guess``; records what each reads.

        Each slot writes every arrival it drew, stopped or not: a later slot
        overwrites those that go on.  A draw of every arrival, round one's,
        reads its uniforms and writes its slots in place, and an arrival
        whose snapshot is the root alone stops at its first proposal, the root.
        """
        whole, s = len(i) == size, 0
        at = slice(None) if whole else i
        most = max(len(i) // 4, 2048)
        while i.size and s < width:
            # a slot at a time while many arrivals are live, then all their remaining slots at once
            span = width - s if len(i) * (width - s) <= most else 1
            if whole:
                m, slots = ms, budget[:, s : s + span]
            else:
                m, slots = ms.take(i), [row[s : s + span].take(i, axis=1) for row in budget]
            if span > 1:
                m = np.concatenate((m,) * span)
            *b, p, u = [row.reshape(-1) for row in slots]
            vs = _resolve_edge(parents, len(parents), m, slope, offset, b[0] if b else None, p)
            stop = thin(vs, m, u)
            stop |= vs == unknown  # a copy of an unknown guess proposes it, and stops the arrival for the round
            if whole and not s:
                stop[:size] |= ms == 1
            if span > 1:  # the first stop of each arrival among its span slots
                vs, stop = vs.reshape(span, -1), stop.reshape(span, -1)
                tried[s : s + span, at] = vs
                last = stop.argmax(axis=0)
                guess[at] = vs[last, np.arange(len(i))]
                last += s + 1
                reads[at] = last
                stop = stop.any(axis=0)
            else:
                tried[s, at] = guess[at] = vs
                reads[at] = s + 1
            i, s = i[~stop], s + span
            whole, at = False, i
        guess[i] = unknown
        reads[i] = width

    def mark_first(verts, births):
        """Mark each vertex of ``verts`` at the first of its ``births`` (ascending, one per entry); returns them as indexes.

        The marks are put latest birth first, so that the first one stays.
        """
        verts = verts[::-1].astype(np.int64)
        mark.put(verts, births[::-1])
        return verts

    def readers(first, also=None):
        """The arrivals ``also`` (all past ``first``) and those past ``first`` that read a vertex at or after its mark."""
        lo = first + 1
        seen = mark.take(tried[0, lo:]) <= ms[lo:]
        if also is not None:
            seen[also - lo] = True
        many = (reads[lo:] > 1).nonzero()[0]  # the arrivals that read past slot 0
        if many.size:  # their slots past the last read hold an earlier draw's proposals: masked off
            many += lo
            last = reads.take(many)
            top = int(last.max())
            got = mark.take(tried[1:top, many]) <= ms.take(many)
            got &= np.arange(1, top)[:, None] < last
            seen[many - lo] |= got.any(axis=0)
        hit = seen.nonzero()[0]
        hit += lo
        return hit

    def settle(changed, also=None):
        """Set the guesses of arrivals ``changed`` (ascending) to theirs in ``guess``; returns the arrivals pending after it.

        Those are ``also`` and the readers of the change (:func:`readers`),
        each vertex that gained or lost a guess marked at the first birth at
        which it did.
        """
        nonlocal keys
        old, new = out.take(changed), guess.take(changed)
        out.put(changed, new)
        gone, come = old.astype(np.int64), new.astype(np.int64)
        gone <<= bits
        gone |= changed
        come <<= bits
        come |= changed
        gone, come = gone[old != unknown], come[new != unknown]  # an unknown guess has no key
        kept = np.ones(len(keys), dtype=bool)
        kept[keys.searchsorted(gone)] = False
        come.sort()
        keys = np.concatenate((keys[kept], come))
        keys.sort(kind="stable")  # two sorted runs: one merge
        verts = np.empty(2 * len(changed), dtype=old.dtype)
        verts[0::2], verts[1::2] = old, new  # each changed arrival's old and new guess, in birth order
        verts = mark_first(verts, np.repeat(changed + base, 2))
        pending = readers(int(changed[0]), also)
        mark.put(verts, _NEVER)
        return pending

    # round one: no guesses yet, so every arrival reads the view alone
    out[:] = unknown
    draw(np.arange(size))
    out[:] = guess
    keys = _sorted_keys(out, bits)
    keys = keys[: keys.searchsorted(unknown << bits)]  # unknown is the largest parent: its keys sort last
    first = int(np.argmax(guess != unknown))
    pending = np.arange(0)
    if guess[first] != unknown:  # every guess changed from unknown: each guessed parent first at its first child
        verts = mark_first(guess, np.arange(base, base + size))
        mark[unknown] = first + base  # every old guess was unknown: the unknown vertex changes first at the first change
        pending = readers(first)
        mark.put(verts, _NEVER)
        mark[unknown] = _NEVER
    while True:
        settled = out[: pending[0] if pending.size else size]  # the guesses before the first pending arrival
        q = int(settled.argmax()) if settled.size else 0
        if settled.size and settled[q] == unknown:
            # every arrival before q is final and q spent its budget: draw its overflow
            m = np.full(width, ms[q])
            spilled += 1  # the budget's last read
            while True:
                *b, p, u = rng.random((rows, width))
                vs = _resolve_edge(parents, len(parents), m, slope, offset, b[0] if b else None, p)
                ok = thin(vs, m, u)
                if ok.any():
                    break
                spilled += width
            s = int(np.argmax(ok))
            spilled += s
            guess[q] = vs[s]
            pending = settle(np.array([q]), pending)
            continue
        if not pending.size:
            break
        draw(pending)
        moved = pending[guess.take(pending) != out.take(pending)]
        pending = settle(moved) if moved.size else moved
    if base < len(parents):
        view.enter(keys, bits, base)
    return int(reads.sum()) - size + spilled


def sample_parent_rejection(
    trace: TreeTrace, m: int, kernel: AttachmentKernel, rng, size: int
) -> tuple[np.ndarray, int]:
    """``size`` thinning draws from snapshot m of a finished trace.

    Every parent of a finished tree is final, so the draws go through
    :func:`_thin_block` in blocks of up to _BLOCK_MAX whose reads are all
    final, each settled in one round, with budgets sized as :func:`grow`
    sizes them.  Returns (parents drawn, rejected proposals).
    """
    m = _check_snapshot(trace, m)
    size = check_count("size", size, 0)
    parents = trace.parents
    view = _DegreeView(len(parents))
    view.extend(parents, 2, len(parents))
    acceptance = _Acceptance(kernel)
    out = np.empty(size, dtype=np.int64)
    rejected = 0
    for lo in range(0, size, _BLOCK_MAX):
        hi = min(lo + _BLOCK_MAX, size)
        budget = rng.random((acceptance.rows, _budget(rejected, rejected + lo * (m > 1), hi - lo), hi - lo))
        rejected += _thin_block(parents, view, len(parents), out[lo:hi], np.full(hi - lo, m), acceptance, budget, rng)
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
# Generators
# ---------------------------------------------------------------------------

# NumPy's SeedSequence (numpy/random/bit_generator.pyx) at its default pool
# of four 32-bit words, by the public constants of its hashmix and mix
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT = np.uint64(16)


def _hash_constants(init: int, mult: int, steps: int) -> np.ndarray:
    """The hash constant before each of ``steps`` hashmix steps and after the last, as a column.

    It starts at ``init`` and is multiplied by ``mult`` at every step,
    whatever the words hashed, so the whole run is fixed in advance.
    """
    out = [init]
    for _ in range(steps):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint64)[:, None]


# the pool's four words, then each word into the other three; then the
# eight 32-bit words of a PCG64 seed and increment
_HASH_A = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)


def _hashmix(words: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each row i of ``words`` (a 1-D ``words`` serves every row).

    Row i is xored with ``consts[i]``, multiplied by ``consts[i + 1]`` and
    xor-shifted, all modulo 2**32.
    """
    words = ((words ^ consts[:-1]) * consts[1:]) & _MASK32
    return words ^ (words >> _SHIFT)


def _pcg64_states(seeds) -> np.ndarray:
    """``(len(seeds), 4)`` uint64: the PCG64 state words ``SeedSequence(seed)`` generates, for all seeds at once.

    A seed below 2**64 is two 32-bit entropy words, low first, and the pool
    pads them with zero words, hashed like any other; so every seed takes
    the same steps, done here as uint64 arithmetic masked to 32 bits.
    """
    s = np.array(seeds, dtype=np.uint64)
    pool = np.zeros((_POOL, len(s)), dtype=np.uint64)
    pool[0] = s & _MASK32
    pool[1] = s >> np.uint64(32)
    pool = _hashmix(pool, _HASH_A[: _POOL + 1])
    at = _POOL
    for src in range(_POOL):
        dst = [i for i in range(_POOL) if i != src]
        hashed = _hashmix(pool[src], _HASH_A[at : at + _POOL])
        at += _POOL - 1
        mixed = (np.uint64(_MIX_L) * pool[dst] - np.uint64(_MIX_R) * hashed) & _MASK32
        pool[dst] = mixed ^ (mixed >> _SHIFT)
    words = _hashmix(np.tile(pool, (2, 1)), _HASH_B)
    # uint64 word i is 32-bit words 2i (low) and 2i + 1; rows contiguous for PCG64
    return np.ascontiguousarray((words[0::2] | (words[1::2] << np.uint64(32))).T)


class _Seeded(ISeedSequence):
    """A seed's precomputed PCG64 state, handed to ``PCG64`` as its seed sequence."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 asks once, for its four uint64 words
        return self.state


def generators(seeds) -> list:
    """``np.random.default_rng(seed)`` for each seed, state for state, from one hashing pass over all of them."""
    return [np.random.Generator(np.random.PCG64(_Seeded(state))) for state in _pcg64_states(seeds)]


# ---------------------------------------------------------------------------
# Growth
# ---------------------------------------------------------------------------


def grow(config: GrowthConfig, seeds=None):
    """Grow a tree to ``config.n_final`` vertices; deterministic in the seed.

    Given ``seeds``, grow one tree per seed instead and return their list:
    tree i equals ``grow(replace(config, seed=seeds[i]))`` field for field.
    The seeds' generators are made by one pass (:func:`generators`).  The
    edge sampler resolves such a batch as rows of shared tiles (see
    :func:`batch_size`); the rejection sampler grows its trees one by one.
    No seeds grow no trees.

    Draw order is fixed, and a batch draws each seed's stream in that order
    from the seed's own generator, whatever the other seeds: the delays of
    vertices 3..n_final, which set the snapshots and are then dropped, then
    the attachment draws.  One delay pass sets every row's snapshots, tile
    by tile, for both samplers (:func:`_snapshots`).  The edge sampler then
    draws every branch uniform and then every pick, each tile's when the
    tile starts (see :func:`_loop_edge`).  Rejection takes its arrivals
    block by block (see the module docstring): each block draws its budget
    of uniforms, and an arrival that rejects all of its budget draws
    overflow chunks when it is resolved, in birth order.
    Vertex 2 attaches to the root deterministically.  Trees are int32 (see
    :class:`TreeTrace`).  The edge sampler peaks at those 8 B per vertex of
    the batch plus about 1 MB for one tile; the rejection sampler at those
    8 B and 20 B more in its degree view per vertex of one tree, plus 3-6
    MB for a block: a traced peak of 31-34 B per vertex at n = 1e6.
    """
    n_final = config.n_final
    batch = [config.seed] if seeds is None else [check_seed(seed) for seed in seeds]
    rngs = generators(batch)

    shape = (len(batch), n_final + 1)  # one row per tree
    snaps, parents = np.zeros(shape, dtype=np.int32), np.zeros(shape, dtype=np.int32)
    snaps[:, 2] = parents[:, 2] = 1
    retries = [0] * len(batch)

    if n_final > 2:
        ms = snaps[:, 3:]
        _snapshots(ms, config.delay, rngs)
        if config.resolve_sampler() == "edge":
            _loop_edge(parents, config.kernel, ms, rngs)
        else:
            for i, rng in enumerate(rngs):
                retries[i] = _loop_rejection(parents[i], config.kernel, ms[i], rng)

    traces = [TreeTrace(*row) for row in zip(parents, snaps, retries)]
    return traces[0] if seeds is None else traces


_EDGE_BLOCK = 1 << 14  # arrivals per tile, at most (BENCH_replicate_batches.json)
_JOB_WIDTH = 1 << 16  # vertices per batch of trees: four tiles (BENCH_replicate_jobs.json)


def batch_size(n_final: int) -> int:
    """Trees of ``n_final`` vertices to a batch for :func:`grow`: as many as _JOB_WIDTH vertices hold, at least one.

    The batch still resolves its parents one tile at a time; its
    width only spreads each call's fixed costs, and its callers' per-batch
    passes, over several tiles.
    """
    return max(1, _JOB_WIDTH // n_final)


def _tiles(rows: int, steps: int) -> tuple[list, np.ndarray]:
    """The tiles of ``rows`` rows of ``steps`` arrivals, in draw order, and a float64 buffer that holds the largest.

    A tile ``(band, lo, hi)`` is arrivals lo..hi-1 (columns) of the rows in
    the slice ``band``.  Rows of at most _EDGE_BLOCK arrivals go in bands
    of as many whole rows as a block holds; a longer row goes alone, a
    block of _EDGE_BLOCK columns per tile.  Each row's tiles come in column
    order, so draws taken tile by tile read each row's stream in order.
    """
    tall, wide = max(1, _EDGE_BLOCK // steps), min(steps, _EDGE_BLOCK)
    bands = [slice(first, min(first + tall, rows)) for first in range(0, rows, tall)]
    tiles = [(band, lo, min(lo + wide, steps)) for band in bands for lo in range(0, steps, wide)]
    return tiles, np.empty((min(rows, tall), wide))


def _snapshots(ms, delay, rngs) -> None:
    """Every row's snapshots into the int32 rows ``ms`` (arrivals 3, 4, ...), row i's delays drawn from ``rngs[i]``.

    The delays are drawn a tile at a time (:func:`_tiles`), a band's into
    one reused buffer, and each tile's snapshots are set by one call.  A
    row reads the stream one draw of all its delays reads, and its
    generator is left where that draw leaves it.
    """
    tiles, delays = _tiles(*ms.shape)
    for band, lo, hi in tiles:
        band_rngs = rngs[band]
        if len(band_rngs) == 1:  # a lone row: its draw goes to its snapshots uncopied
            tile, out = delay.sample_many(band_rngs[0], hi - lo), ms[band.start, lo:hi]
        else:
            tile, out = delays[: len(band_rngs), : hi - lo], ms[band, lo:hi]
            for i, rng in enumerate(band_rngs):
                tile[i] = delay.sample_many(rng, hi - lo)
        snapshot_times(np.arange(lo + 2, hi + 2), tile, delay.beta, out=out)


def _ahead(rng, count: int):
    """A generator that draws what ``rng`` draws after its next ``count`` uniforms; ``rng`` does not move."""
    bits = np.random.PCG64(0)
    bits.state = rng.bit_generator.state
    bits.advance(count)  # one 64-bit step per uniform
    return np.random.Generator(bits)


def _loop_edge(parents, kernel, ms, rngs) -> None:
    """Edge-sampler parents for every row of ``parents`` from its snapshots ``ms``, row i drawing from ``rngs[i]``.

    Each row's stream, past its delays, is a branch uniform per arrival for
    a mixed kernel and then a pick per arrival.  The rows are resolved a
    tile at a time (:func:`_tiles`): a tile draws its rows' uniforms when it
    starts, into tile buffers that every tile reuses, and then resolves,
    reading only final parents below it.  A row of several tiles takes its
    picks from a generator :func:`_ahead` of all its branch uniforms.
    """
    slope, alpha = kernel.linear_bound()  # exact for uniform and affine kernels
    mixed = bool(slope and alpha > 0.0)  # uniform kernels (slope 0) and alpha = 0 need no branch uniform
    steps = ms.shape[1]
    tiles, picks = _tiles(*ms.shape)
    branch = np.empty_like(picks) if mixed else None
    for band, lo, hi in tiles:
        h, w = band.stop - band.start, hi - lo
        for i, rng in enumerate(rngs[band]):
            if lo == 0:  # a row's first tile; a row of several tiles reads its picks ahead
                pick_rng = _ahead(rng, steps) if mixed and w < steps else rng
            if mixed:
                rng.random(out=branch[i, :w])
            pick_rng.random(out=picks[i, :w])
        parents[band, lo + 3 : hi + 3] = _resolve_edge(
            parents[band], lo + 3, ms[band, lo:hi], slope, alpha,
            branch[:h, :w] if mixed else None, picks[:h, :w],
        )


_BLOCK_MAX = 1 << 14  # thinning blocks hold P/4 arrivals past the first unresolved arrival P, up to this many
_BUDGET_MAX = 32  # triples drawn ahead per arrival at most
_NEVER = np.iinfo(np.int32).max  # a birth later than any vertex


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


def _loop_rejection(parents, kernel, ms, rng) -> int:
    """Thinning parents for one tree, a block at a time; returns the rejected proposals.

    Each block draws its budget from ``rng`` (:func:`_budget` triples per
    arrival, sized by the rejections so far) and resolves through
    :func:`_thin_block`, which also enters it into the degree view.
    """
    acceptance = _Acceptance(kernel)
    view = _DegreeView(len(parents))
    view.extend(parents, 2, 3)  # vertex 2, the root's child
    retries = accepted = 0
    k, end = 3, len(parents)  # k: the first unresolved arrival, P
    while k < end:
        size = min(_block_size(k), end - k)
        width = _budget(retries, retries + accepted, size)
        budget = rng.random((acceptance.rows, width, size))
        block = ms[k - 3 : k - 3 + size]
        retries += _thin_block(parents, view, k, parents[k : k + size], block, acceptance, budget, rng)
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
