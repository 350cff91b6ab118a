"""Canonical forms for finite rooted trees.

A rooted tree is encoded as a balanced-parenthesis string: a leaf is
``()`` and an internal vertex wraps the lexicographically sorted codes of
its child subtrees, e.g. the 3-vertex star is ``(()())`` and the 3-vertex
path is ``((()))``.  Two rooted trees get the same code exactly when a
root-preserving isomorphism maps one onto the other, so code equality *is*
the isomorphism test and codes can key dictionaries.  A shape is its code
throughout: ``child_counts`` reads a code's preorder child counts (and
validates it) in one scan, and ``leaf_extensions`` grows it by one leaf at
each vertex, with no second tree form in between.

The module also provides exhaustive enumeration of all canonical trees up
to a size cap (two independent routes: multiset composition here, and leaf
extension, cross-checked in the tests) and two bottom-up subtree
censuses.  ``shape_labels`` is the one the fringe estimators use: it gives
every vertex an integer label for the shape of its fringe (the subtree
below it), interning sorted child-label rows level by level with NumPy in
the manner of Aho, Hopcroft & Ullman's tree-isomorphism algorithm, and
writes a parenthesis code only once per distinct shape.  A vertex not yet
labelled keeps the child labels it has received in its own output slot, and
the first rounds walk the vertices in cache-sized blocks; the labelling
peaks at about 7 B per vertex.  It is handed the tree's child counts
(``TreeTrace.child_counts``, a ``tally`` of the parents), which the degree
histogram reads too.  ``distinct`` numbers the distinct values of an
integer key, for the labelling and the artifact writer alike.
``subtree_codes`` builds a code string at every vertex; it is the plain
reference the labelling is tested against, and backs ``code_from_parents``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ArgumentError, check_count

__all__ = [
    "SINGLETON",
    "code_from_children",
    "top_level_children",
    "leaf_extensions",
    "child_counts",
    "code_from_parents",
    "subtree_codes",
    "MAX_VERTICES",
    "check_parents",
    "tally",
    "tally_rows",
    "shape_labels",
    "distinct",
    "all_canonical_trees",
]

SINGLETON = "()"
MAX_VERTICES = 2**31 - 1  # vertex ids are int32
BLOCK = 2**16  # vertices per block of a pass over a per-vertex array: its temporaries stay in cache
# distinct numbers a key it does not table by searching its sorted distinct values when there are at
# most one per this many entries, and by an argsort scatter otherwise: a plan's 31 500 root values,
# 200 distinct, are scattered
_SEARCHED = 256


def code_from_children(child_codes) -> str:
    """Code of a vertex whose child subtrees have the given codes."""
    return "(" + "".join(sorted(child_codes)) + ")"


def child_counts(code: str) -> list[int]:
    """Child counts of every vertex of a code, root first in depth-first order.

    One left-to-right scan: each ``(`` opens a vertex and adds a child to
    the vertex open around it.  Raises ArgumentError unless the code is one
    balanced tree, so it is also the validator of a code.
    """
    counts: list[int] = []
    path: list[int] = []  # the open vertices, as indices into counts
    for ch in code:
        if ch == "(":
            if path:
                counts[path[-1]] += 1
            elif counts:
                raise ArgumentError(f"tree code {code!r} is a forest, not a single root")
            path.append(len(counts))
            counts.append(0)
        elif ch == ")":
            if not path:
                raise ArgumentError(f"unbalanced tree code {code!r}")
            path.pop()
        else:
            raise ArgumentError(f"invalid character {ch!r} in tree code")
    if path or not counts:
        raise ArgumentError(f"unbalanced tree code {code!r}")
    return counts


def top_level_children(code: str) -> list[str]:
    """Codes of the root's child subtrees, in stored (sorted) order."""
    inner = code[1:-1]
    out: list[str] = []
    depth = 0
    start = 0
    for i, ch in enumerate(inner):
        depth += 1 if ch == "(" else -1
        if depth == 0:
            out.append(inner[start : i + 1])
            start = i + 1
    return out


def leaf_extensions(code: str):
    """Yield ``(grown, c)`` for every vertex of a canonical code, root first and depth first.

    ``grown`` is the code of the tree with one more leaf, a child of that
    vertex, and ``c`` the vertex's child count before the leaf joins it.
    Automorphic vertices each yield their (equal) code.
    """
    kids = top_level_children(code)
    yield code_from_children(kids + [SINGLETON]), len(kids)
    for i, kid in enumerate(kids):
        for grown, c in leaf_extensions(kid):
            yield code_from_children(kids[:i] + [grown] + kids[i + 1 :]), c


def code_from_parents(parents) -> str:
    """Canonical code of the whole tree given birth-order parent pointers.

    ``parents[v]`` is the parent of vertex v for v = 2..n (1-based; entries
    0 and 1 are ignored).  Parents must precede children: parents[v] < v.
    """
    return subtree_codes(parents)[1]


def subtree_codes(parents, cap: int | None = None) -> list:
    """Codes of the subtree hanging below each vertex, bottom-up.

    Returns a list indexed by vertex (entry 0 unused).  When ``cap`` is
    given, vertices whose subtree exceeds ``cap`` vertices get ``None``
    instead of a code; this keeps the pass O(n * cap) overall.
    """
    if cap is not None:
        cap = check_count("cap", cap, 1)
    n = len(parents) - 1
    if n < 1:
        raise ArgumentError("parent array must cover at least vertex 1")
    kids: list[list[int]] = [[] for _ in range(n + 1)]
    for v in range(2, n + 1):
        p = parents[v]
        if not (1 <= p < v):
            raise ArgumentError(f"vertex {v} has invalid parent {p}")
        kids[p].append(v)
    sizes = [0] * (n + 1)
    codes: list = [None] * (n + 1)
    for v in range(n, 0, -1):
        size = 1 + sum(sizes[c] for c in kids[v])
        sizes[v] = size
        if cap is None or size <= cap:  # a child over the cap puts its parent over it too
            codes[v] = code_from_children(codes[c] for c in kids[v])
    return codes


def check_parents(parents) -> np.ndarray:
    """Validate a birth-order parent array and return it as int32 or int64.

    Every vertex v = 2..n needs 1 <= parents[v] < v (entries 0 and 1 are
    ignored); the first vertex that breaks this is named in the
    ArgumentError.  Vertex ids are int32, so n must stay below 2**31.  An
    int32 or int64 array is returned as it is, with no copy; other
    integer input is converted to int64.  The array is read in blocks of
    ``BLOCK`` vertices, so the check makes no per-vertex temporary.
    """
    par = np.asarray(parents)
    n = len(par) - 1
    if n < 1:
        raise ArgumentError("parent array must cover at least vertex 1")
    if n > MAX_VERTICES:
        raise ArgumentError(f"a tree holds at most 2**31 - 1 vertices (int32 ids), got {n}")
    if par.dtype.kind not in "iu":
        raise ArgumentError("parent array must hold integers")
    if par.dtype not in (np.int32, np.int64):
        par = par.astype(np.int64)
    ramp = np.arange(min(BLOCK, n), dtype=par.dtype)
    for lo in range(2, n + 1, BLOCK):
        up = par[lo : lo + BLOCK]
        behind = up - ramp[: len(up)]  # parents[v] - v + lo: below lo exactly when parents[v] < v
        if up.min() < 1 or behind.max() >= lo:
            v = lo + int(np.flatnonzero((up < 1) | (behind >= lo))[0])
            raise ArgumentError(f"vertex {v} has invalid parent {par[v]}")
    return par


def tally(index, size: int) -> np.ndarray:
    """int32 counts, in ``size`` bins, of the entries of ``index``.

    One ``np.add.at`` of an int32 one: NumPy casts the index to intp through
    a bounded buffer, so no int64 copy of ``index`` is made.  A negative
    index counts from the end.
    """
    out = np.zeros(size, dtype=np.int32)
    np.add.at(out, index, np.int32(1))
    return out


def tally_rows(rows: np.ndarray, size: int) -> np.ndarray:
    """int32 ``(len(rows), size)`` counts: row r tallies the entries of ``rows[r]``, all by one tally.

    ``rows`` is a 2-D integer array.  Row r's entries, each in 0..size-1,
    are offset into bins r*size and up by one broadcast add.  A single row
    is tallied as it is, so a batch of one copies nothing.
    """
    if len(rows) == 1:
        return tally(rows[0], size)[None]
    offsets = np.arange(len(rows), dtype=np.intp)[:, None] * size
    return tally(rows + offsets, len(rows) * size).reshape(len(rows), size)


def distinct(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a 1-D integer ``key``, ascending, and each entry's index among them.

    The values keep ``key``'s dtype; the index has the narrowest unsigned
    type that holds their number.  A non-negative key whose largest entry is
    below twice its length indexes a table over 0..max, marked where it
    occurs and numbered by a running count.  Any other key is sorted once:
    when its distinct values are few, at most one per _SEARCHED entries,
    each entry is numbered by ``np.searchsorted`` among them; otherwise,
    where searching is slower, an argsort of the key hands each entry its
    run's number.
    """
    if len(key) and key.min() >= 0 and (top := int(key.max())) < 2 * len(key):
        seen = np.zeros(top + 1, dtype=bool)
        seen[key] = True
        values = np.flatnonzero(seen)
        index = np.cumsum(seen, dtype=np.min_scalar_type(len(values)))
        index -= 1
        return values.astype(key.dtype), index[key]
    values = np.sort(key)
    runs = np.ones(len(values), dtype=bool)  # True at the first entry of each run of equal keys
    np.not_equal(values[1:], values[:-1], out=runs[1:])
    values = values[runs]  # the sorted copy goes before the index is made
    narrow = np.min_scalar_type(len(values))
    if len(values) * _SEARCHED <= len(key):
        return values, np.searchsorted(values, key).astype(narrow)
    ranks = np.cumsum(runs, dtype=narrow)  # in sorted order, each entry's run, from 1
    ranks -= 1
    index = np.empty(len(key), dtype=narrow)
    index[key.argsort()] = ranks
    return values, index


def shape_labels(parents, kids, cap: int) -> tuple[np.ndarray, tuple[str, ...]]:
    """Integer shape label of the subtree below each vertex, up to ``cap``.

    ``parents`` is a birth-order parent array as for ``subtree_codes``, and
    ``kids[v]`` the number of children of vertex v: the tree's
    ``TreeTrace.child_counts()``, which the degree histogram reads too.  The
    counts must be integers, none negative, whose int64 sum is n - 1 (so
    counts that wrapped in a narrow dtype are refused); a disagreement with
    ``parents`` that keeps the sum is not detected.  Returns ``(labels,
    codes)``: ``labels[v]`` (int32; entry 0 unused, -1) is an index into
    ``codes``, the canonical codes of the distinct shapes met, and equal
    labels mean isomorphic subtrees.  A vertex gets -1 instead when its
    subtree has more than ``cap`` vertices.

    Round 0 labels the leaves; round r labels the vertices whose last child
    was labelled in round r-1 and whose subtree fits under the cap, so a
    shape is labelled in the round equal to its height and at most ``cap``
    rounds run.  A vertex with a child left at -1 is never labelled.  A
    round's labels exceed the previous round's and go by row width, then by
    lexicographic row of child labels.

    An unlabelled vertex v holds -2 - p in ``labels[v]``, p naming the
    *prefix* of sorted child labels it has been handed.  Prefix c < cap is
    "c leaf children" (label 0 is the least).  Rounds 0 and 1 walk the
    vertex array in blocks of ``BLOCK`` from the end: ``labels`` starts at
    -2 - kids, each child that is no leaf takes one off its parent's
    prefix (one ``np.add.at`` per block), and the block's stars, whose
    prefix then holds all their children, are labelled by child count.
    Round r >= 2 sorts a (parent, label) key of the labels fresh from round
    r-1, less those whose parent has more than cap - r children (such a
    label heads at least r vertices, so its parent outgrows the cap), and
    extends each parent's prefix one label at a time by a trie step keyed
    (prefix + 1) * len(codes) + label.  A step's keys, and the prefixes met
    at the round's end, are numbered by :func:`distinct`: in a table over
    0..max when max is small against their number, and after one sort
    otherwise.  A prefix whose children hold cap vertices or more
    sets its vertex to -1; a vertex whose prefix holds all its children is
    labelled.

    ``labels`` is the only per-vertex array made (int32); rounds 0 and 1
    make block-sized temporaries, and the peak, about 7 B per vertex on
    ``grid-invpow2`` at cap 6, is round 2's sort key and owner arrays,
    which hold one entry per label handed up.  The sort key is int64, since
    parent*(n+1) passes 2**31 from n = 46 341 on.
    """
    cap = check_count("cap", cap, 1)
    par = check_parents(parents)
    n = len(par) - 1
    kids = np.asarray(kids)
    if len(kids) != n + 1:
        raise ArgumentError(f"a tree of {n} vertices needs {n + 1} child counts, got {len(kids)}")
    if kids.dtype.kind not in "iu":
        raise ArgumentError(f"child counts must be integers, got dtype {kids.dtype}")
    if kids.min() < 0 or kids.sum(dtype=np.int64) != n - 1:
        raise ArgumentError(f"child counts of a tree of {n} vertices must be >= 0 and sum to {n - 1}")
    cap = min(cap, n)  # no subtree outgrows n vertices: a larger cap labels the same

    def hand(fresh, r):
        """The vertices labelled in round r - 1 that hand their label up in round r, and their parents."""
        fresh = np.compress(fresh > 1, fresh).astype(np.int32, copy=False)  # vertex 1 has no parent
        up = par[fresh]
        keep = kids[up] <= cap - r  # a parent with more children outgrows the cap
        return np.compress(keep, fresh), np.compress(keep, up)

    # rounds 0 and 1, a block at a time from the end.  labels starts at -2 - kids, prefix "every child
    # a leaf", and each child that is no leaf takes one off its parent's prefix; children come after
    # their parent, so once a block is done its prefixes count their leaf children, and a vertex whose
    # prefix holds all its children is a star, labelled by its child count
    labels = np.subtract(np.int32(-2), kids, dtype=np.int32, casting="unsafe")
    present = np.zeros(cap, dtype=bool)  # the star widths met
    handed = []
    for hi in range(n + 1, 1, -BLOCK):
        lo = max(hi - BLOCK, 1)
        k, lab = kids[lo:hi], labels[lo:hi]
        inner = k != 0
        below = max(lo, 2)  # the parent entry of vertex 1 is ignored
        np.add.at(labels, np.compress(inner[below - lo :], par[below:hi]), np.int32(1))
        np.multiply(lab, inner, out=lab)  # label 0 at the leaves
        np.add(lab, k, out=lab, casting="unsafe")  # -2 where the prefix is all the children, in place
        star = np.flatnonzero(lab == -2)
        np.subtract(lab, k, out=lab, casting="unsafe")
        star = np.compress(k[star] < cap, star)
        lab[star] = width = k[star]
        present[width] = True
        handed.append(hand(star + lo, 2))
    labels[0] = -1
    widths = np.flatnonzero(present).tolist()
    if widths and widths[-1] != len(widths):  # a width is missing below the widest: number by rank
        rank = np.cumsum(present, dtype=np.int32)
        for lo in range(1, n + 1, BLOCK):
            lab = labels[lo : lo + BLOCK]
            star = np.flatnonzero(lab > 0)
            lab[star] = rank[lab[star]]
    codes = [SINGLETON] + [code_from_children([SINGLETON] * k) for k in widths]
    sizes = [1] + [1 + k for k in widths]  # vertex count of each shape
    fresh, up = (np.concatenate(part) for part in zip(*handed))
    del handed

    # prefix cap + i holds the child labels rows[i]; in round r, trie maps a step's key
    # (prefix + 1) * radix + label, radix = len(codes) at the round's start, to the prefix one label
    # longer, or to -1 once its children hold cap vertices or more
    rows: list[tuple] = []
    trie: dict[int, int] = {}

    def step(key: int) -> int:
        p, label = divmod(key, radix)
        p -= 1  # -1: a vertex already over the cap
        row = (rows[p - cap] if p >= cap else (0,) * p) + (label,)
        fits = p >= 0 and sum(sizes[c] for c in row) < cap
        trie[key] = cap + len(rows) if fits else -1
        if fits:
            rows.append(row)
        return trie[key]

    for r in range(2, cap):
        if not fresh.size:
            break
        # hand the fresh labels to the parents, sorted by (parent, label)
        key = up.astype(np.int64)
        key *= n + 1
        key += labels[fresh]
        del fresh, up
        key.sort()
        owner, label = np.empty(len(key), dtype=np.int32), np.empty(len(key), dtype=np.int32)
        np.divmod(key, n + 1, out=(owner, label), casting="unsafe")  # both fit in int32
        del key
        first = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]]).astype(np.int32)
        owners = owner[first]
        del owner
        count = np.diff(first, append=np.int32(label.size))
        # extend each owner's prefix by its fresh labels, in ascending order, one trie step at a time
        prefix = -2 - labels[owners]
        radix = len(codes)
        trie.clear()  # keys of earlier rounds read with another radix
        for j in range(int(count.max())):
            going = np.flatnonzero(count > j)
            key = prefix[going].astype(np.int64)
            key += 1
            key *= radix
            key += label[first[going] + j]
            known, at = distinct(key)
            longer = [trie[k] if k in trie else step(k) for k in known.tolist()]  # no call for a known key
            prefix[going] = np.array(longer, dtype=np.int32)[at]
        del label, first, count
        labels[owners] = -2 - prefix
        # an owner whose prefix holds all its children is labelled: by row width, then row
        ids, at = distinct(prefix + 1)
        met = [rows[p - 1 - cap] if p > cap else () for p in ids.tolist()]  # prefix -1: over the cap
        ready = np.array([len(row) for row in met])[at] == kids[owners]
        fresh, at = np.compress(ready, owners), np.compress(ready, at)
        order = np.flatnonzero(np.bincount(at, minlength=len(met))).tolist()
        order.sort(key=lambda i: (len(met[i]), met[i]))
        rank = np.zeros(len(met), dtype=np.int32)
        rank[order] = len(codes) + np.arange(len(order), dtype=np.int32)
        labels[fresh] = rank[at]
        for i in order:
            codes.append(code_from_children(codes[c] for c in met[i]))
            sizes.append(1 + sum(sizes[c] for c in met[i]))
        fresh, up = hand(fresh, r + 1)
    np.maximum(labels, -1, out=labels)
    return labels, tuple(codes)


@lru_cache(maxsize=None)
def _trees_of_size(n: int) -> tuple[str, ...]:
    """All canonical codes of rooted trees on n vertices (sorted)."""
    if n == 1:
        return (SINGLETON,)
    pool: list[str] = []
    for k in range(1, n):
        pool.extend(_trees_of_size(k))
    # order the pool; children are chosen as a non-increasing sequence of
    # pool indices so each multiset is produced exactly once
    pool.sort(key=lambda c: (c.count("("), c))
    sizes = [c.count("(") for c in pool]
    results: set[str] = set()

    def build(budget: int, max_idx: int, chosen: list[str]) -> None:
        if budget == 0:
            results.add(code_from_children(chosen))
            return
        for idx in range(max_idx, -1, -1):
            if sizes[idx] <= budget:
                chosen.append(pool[idx])
                build(budget - sizes[idx], idx, chosen)
                chosen.pop()

    build(n - 1, len(pool) - 1, [])
    return tuple(sorted(results))


def all_canonical_trees(max_size: int) -> dict[int, tuple[str, ...]]:
    """Canonical codes grouped by size, for sizes 1..max_size."""
    if max_size < 1:
        raise ArgumentError("max_size must be >= 1")
    return {s: _trees_of_size(s) for s in range(1, max_size + 1)}
