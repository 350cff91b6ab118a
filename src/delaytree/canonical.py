"""Canonical forms for finite rooted trees.

A rooted tree is encoded as a balanced-parenthesis string: a leaf is
``()`` and an internal vertex wraps the lexicographically sorted codes of
its child subtrees, e.g. the 3-vertex star is ``(()())`` and the 3-vertex
path is ``((()))``.  Two rooted trees get the same code exactly when a
root-preserving isomorphism maps one onto the other, so code equality *is*
the isomorphism test and codes can key dictionaries.

The module also provides exhaustive enumeration of all canonical trees up
to a size cap (two independent routes: multiset composition and leaf
attachment, cross-checked in the tests) and two bottom-up subtree
censuses.  ``shape_labels`` is the one the fringe estimators use: it gives
every vertex an integer label for the shape of its fringe (the subtree
below it), interning sorted child-label rows level by level with NumPy in
the manner of Aho, Hopcroft & Ullman's tree-isomorphism algorithm, and
writes a parenthesis code only once per distinct shape.  ``subtree_codes``
builds a code string at every vertex; it is the plain reference the
labelling is tested against, and backs ``code_from_parents``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ArgumentError

__all__ = [
    "CanonicalTree",
    "SINGLETON",
    "code_from_children",
    "top_level_children",
    "decode",
    "code_of_nested",
    "positions",
    "attach_leaf",
    "child_counts",
    "code_from_parents",
    "subtree_codes",
    "MAX_VERTICES",
    "check_parents",
    "shape_labels",
    "all_canonical_trees",
    "q_count",
]

SINGLETON = "()"
MAX_VERTICES = 2**31 - 1  # vertex ids are int32


def code_from_children(child_codes) -> str:
    """Code of a vertex whose child subtrees have the given codes."""
    return "(" + "".join(sorted(child_codes)) + ")"


def _validate(code: str) -> None:
    depth = 0
    last = len(code) - 1
    for i, ch in enumerate(code):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        else:
            raise ArgumentError(f"invalid character {ch!r} in tree code")
        if depth < 0:
            raise ArgumentError(f"unbalanced tree code {code!r}")
        if depth == 0 and i != last:
            raise ArgumentError(f"tree code {code!r} is a forest, not a single root")
    if depth != 0 or not code:
        raise ArgumentError(f"unbalanced tree code {code!r}")


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


def _decode_unchecked(code: str):
    return tuple(_decode_unchecked(c) for c in top_level_children(code))


def decode(code: str):
    """Nested-tuple representative: a vertex is the tuple of its children."""
    _validate(code)
    return _decode_unchecked(code)


def code_of_nested(tree) -> str:
    return code_from_children(code_of_nested(c) for c in tree)


def positions(tree, prefix=()):
    """Yield every vertex of a nested-tuple tree as a path of child indices."""
    yield prefix
    for i, child in enumerate(tree):
        yield from positions(child, prefix + (i,))


def attach_leaf(tree, path):
    """New nested-tuple tree with an extra leaf child at the given vertex."""
    if not path:
        return tree + ((),)
    i = path[0]
    return tree[:i] + (attach_leaf(tree[i], path[1:]),) + tree[i + 1 :]


def child_counts(tree) -> list[int]:
    """Child counts of every vertex (root first, depth-first order)."""
    out = [len(tree)]
    for child in tree:
        out.extend(child_counts(child))
    return out


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
        if cap is not None and size > cap:
            codes[v] = None
        elif any(codes[c] is None for c in kids[v]):
            codes[v] = None
        else:
            codes[v] = code_from_children(codes[c] for c in kids[v])
    return codes


def check_parents(parents) -> np.ndarray:
    """Validate a birth-order parent array and return it as int32 or int64.

    Every vertex v = 2..n needs 1 <= parents[v] < v (entries 0 and 1 are
    ignored); the first vertex that breaks this is named in the
    ArgumentError.  Vertex ids are int32, so n must stay below 2**31.  An
    int32 or int64 array is returned as it is, with no copy; other
    integer input is converted to int64.
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
    up = par[2:]
    bad = np.flatnonzero((up < 1) | (up >= np.arange(2, n + 1, dtype=par.dtype)))
    if bad.size:
        v = int(bad[0]) + 2
        raise ArgumentError(f"vertex {v} has invalid parent {par[v]}")
    return par


def shape_labels(parents, cap: int) -> tuple[np.ndarray, tuple[str, ...]]:
    """Integer shape label of the subtree below each vertex, up to ``cap``.

    ``parents`` is a birth-order parent array as for ``subtree_codes``.
    Returns ``(labels, codes)``: ``labels[v]`` (int32; entry 0 unused, -1)
    is an index into ``codes``, the canonical codes of the distinct shapes
    met, and equal labels mean isomorphic subtrees.  A vertex gets -1
    instead when its subtree has more than ``cap`` vertices.

    Round 0 labels the leaves; round r labels the vertices whose last child
    was labelled in round r-1 and whose subtree fits under the cap, so a
    shape is labelled in the round equal to its height and at most ``cap``
    rounds run.  A vertex with a child left at -1 is never labelled.
    Children are appended to their parent's slice of ``rows`` in ascending
    label order (a round's labels all exceed the previous round's), so
    every child-label row arrives sorted and is interned as a whole.

    Every per-vertex array is int32: five of length n hold 20 B per vertex,
    and a round's temporaries, each dropped once used, take the peak to
    about 35 B per vertex.  Only the round's (parent, label) sort key is
    int64, since parent*(n+1) passes 2**31 from n = 46 341 on.
    """
    if cap < 1:
        raise ArgumentError("cap must be >= 1")
    par = check_parents(parents)
    n = len(par) - 1

    kids = np.bincount(par[2:], minlength=n + 1).astype(np.int32)
    # the labels of u's children go to rows[start[u] : start[u] + kids[u]]
    start = np.cumsum(kids, dtype=np.int32)
    start -= kids
    rows = np.empty(n - 1, dtype=np.int32)
    filled = np.zeros(n + 1, dtype=np.int32)
    labels = np.full(n + 1, -1, dtype=np.int32)
    fresh = (np.flatnonzero(kids[1:] == 0) + 1).astype(np.int32)
    labels[fresh] = 0
    codes = [SINGLETON]
    sizes = [1]  # vertex count of each shape
    for _ in range(1, cap):
        fresh = fresh[fresh > 1]
        if not fresh.size:
            break
        # hand the fresh labels to the parents, sorted by (parent, label)
        key = par[fresh].astype(np.int64)
        key *= n + 1
        key += labels[fresh]
        del fresh
        key.sort()
        owner, label = np.empty(len(key), dtype=np.int32), np.empty(len(key), dtype=np.int32)
        np.divmod(key, n + 1, out=(owner, label), casting="unsafe")  # both fit in int32
        del key
        first = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
        owners = owner[first]
        del owner
        count = np.diff(np.r_[first, label.size])
        # a label's slot in rows: its parent's start + filled, plus its rank among the parent's fresh labels
        at = np.repeat((start[owners] + filled[owners] - first).astype(np.int32), count)
        at += np.arange(at.size, dtype=np.int32)
        rows[at] = label
        del label, at
        filled[owners] += count
        ready = owners[(filled[owners] == kids[owners]) & (kids[owners] < cap)]

        shape_size = np.asarray(sizes)
        base = len(codes)
        labelled = []
        width = kids[ready]
        for k in np.unique(width).tolist():
            group = ready[width == k]
            child = rows[start[group][:, None] + np.arange(k)]
            fits = shape_size[child].sum(axis=1) < cap
            group, child = group[fits], child[fits]
            if not group.size:
                continue
            # intern the rows column by column: row ids stay below the row
            # count and child labels below base, so the keys fit in int64
            row_id = child[:, 0].astype(np.int64)
            for j in range(1, k):
                row_id = np.unique(row_id * base + child[:, j], return_inverse=True)[1]
            _, first_row, row_id = np.unique(row_id, return_index=True, return_inverse=True)
            labels[group] = len(codes) + row_id.reshape(-1)
            for row in child[first_row].tolist():
                codes.append(code_from_children(codes[c] for c in row))
                sizes.append(1 + sum(sizes[c] for c in row))
            labelled.append(group)
        fresh = np.concatenate(labelled) if labelled else ready[:0]
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


def q_count(host: str, sub: str) -> int:
    """How many child subtrees of the host's root are isomorphic to sub.

    Zero when the host's root has no children (in particular for the
    singleton host).
    """
    _validate(host)
    _validate(sub)
    return sum(1 for c in top_level_children(host) if c == sub)


@dataclass(frozen=True)
class CanonicalTree:
    """Immutable wrapper around a canonical code with derived views."""

    code: str

    def __post_init__(self) -> None:
        _validate(self.code)
        if self.code != code_of_nested(decode(self.code)):
            raise ArgumentError(f"code {self.code!r} is not in canonical (sorted) form")

    @classmethod
    def from_parents(cls, parents) -> "CanonicalTree":
        return cls(code_from_parents(parents))

    @classmethod
    def singleton(cls) -> "CanonicalTree":
        return cls(SINGLETON)

    @property
    def size(self) -> int:
        return self.code.count("(")

    @property
    def root_child_count(self) -> int:
        return len(top_level_children(self.code))

    def children(self) -> tuple["CanonicalTree", ...]:
        return tuple(CanonicalTree(c) for c in top_level_children(self.code))
