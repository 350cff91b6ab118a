"""Canonical codes for rooted trees: encoding, enumeration, surgery."""

from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaytree import canonical
from delaytree.canonical import (
    all_canonical_trees,
    child_counts,
    code_from_children,
    code_from_parents,
    distinct,
    leaf_extensions,
    subtree_codes,
    top_level_children,
)
from delaytree.errors import ArgumentError


def _canonical(code: str) -> str:
    """Reference: the code, checked to be one balanced tree, rebuilt bottom-up with every sibling list sorted."""
    child_counts(code)
    return code_from_children(_canonical(c) for c in top_level_children(code))


@dataclass(frozen=True)
class CanonicalTree:
    """Reference wrapper around a canonical code with derived views."""

    code: str

    def __post_init__(self) -> None:
        if self.code != _canonical(self.code):
            raise ArgumentError(f"code {self.code!r} is not in canonical (sorted) form")

    @classmethod
    def from_parents(cls, parents) -> "CanonicalTree":
        return cls(code_from_parents(parents))

    @classmethod
    def singleton(cls) -> "CanonicalTree":
        return cls("()")

    @property
    def size(self) -> int:
        return self.code.count("(")

    @property
    def root_child_count(self) -> int:
        return len(top_level_children(self.code))

    def children(self) -> tuple["CanonicalTree", ...]:
        return tuple(CanonicalTree(c) for c in top_level_children(self.code))


def test_basic_codes():
    assert code_from_parents([0, 0]) == "()"
    assert code_from_parents([0, 0, 1]) == "(())"
    assert code_from_parents([0, 0, 1, 1]) == "(()())"
    assert code_from_parents([0, 0, 1, 2]) == "((()))"
    # root with a leaf child and a 2-path child
    assert code_from_parents([0, 0, 1, 1, 3]) == "((())())"


def test_children_sort_order():
    # sibling codes sort lexicographically, which puts "(())" before "()"
    assert code_from_children(["()", "(())"]) == "((())())"
    assert code_from_children(["(())", "()"]) == "((())())"
    assert top_level_children("((())())") == ["(())", "()"]


def test_code_invariant_under_sibling_relabelling():
    # the code is an isomorphism invariant: re-assigning birth labels with
    # reversed sibling order must not change it
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 12))
        parents = [0, 0, 1] + [int(rng.integers(1, v)) for v in range(3, n + 1)]
        kids = [[] for _ in range(n + 1)]
        for v in range(2, n + 1):
            kids[parents[v]].append(v)
        queue, new_parent = [1], {1: 0}
        while queue:
            u = queue.pop(0)
            for w in reversed(kids[u]):
                new_parent[w] = u
                queue.append(w)
        rank = {v: i + 1 for i, v in enumerate(new_parent)}  # BFS visit order
        arr = [0] * (n + 1)
        for v, p in new_parent.items():
            if p:
                arr[rank[v]] = rank[p]
        assert code_from_parents(arr) == code_from_parents(parents)


def test_decode_roundtrip_all_small_trees():
    for size, codes in all_canonical_trees(7).items():
        for code in codes:
            assert len(code) == 2 * size
            assert _canonical(code) == code


def test_enumeration_counts():
    counts = {size: len(codes) for size, codes in all_canonical_trees(8).items()}
    assert counts == {1: 1, 2: 1, 3: 2, 4: 4, 5: 9, 6: 20, 7: 48, 8: 115}


def test_leaf_extensions():
    # one per vertex, root first, each with the child count of the vertex the leaf joins
    assert list(leaf_extensions("(())")) == [("(()())", 1), ("((()))", 0)]


def test_attach_leaf_covers_next_size():
    # attaching a leaf everywhere on every size-s tree reaches every
    # size-(s+1) tree, and nothing else
    trees = all_canonical_trees(6)
    for s in range(1, 6):
        reached = set()
        for code in trees[s]:
            grown = list(leaf_extensions(code))
            assert [c for _, c in grown] == child_counts(code)  # one per vertex, in the same order
            for new_code, _ in grown:
                assert _canonical(new_code) == new_code
                reached.add(new_code)
        assert reached == set(trees[s + 1])


def test_child_counts():
    assert child_counts("((())())") == [2, 1, 0, 0]
    assert sum(child_counts("(()()())")) == 3


def test_subtree_codes_with_cap():
    parents = [0, 0, 1, 2, 3, 4]  # path on 5 vertices
    codes = subtree_codes(parents, cap=3)
    assert codes[5] == "()"
    assert codes[4] == "(())"
    assert codes[3] == "((()))"
    assert codes[2] is None and codes[1] is None  # exceed the cap
    full = subtree_codes(parents, cap=None)
    assert full[1] == "((((()))))"


def test_q_count():
    # Q(host, sub): how many child subtrees of the host's root are isomorphic to sub
    assert top_level_children("((())())").count("()") == 1
    assert top_level_children("((())())").count("(())") == 1
    assert top_level_children("(()()())").count("()") == 3
    assert top_level_children("((())())").count("((()))") == 0
    assert top_level_children("()").count("()") == 0  # a singleton root has no child subtrees


def test_invalid_codes_rejected():
    for bad in ["", "(", "())(", "()()", "((]", ")("]:
        with pytest.raises(ArgumentError):
            child_counts(bad)


def test_canonical_tree_wrapper():
    t = CanonicalTree.from_parents([0, 0, 1, 1])
    assert t.code == "(()())"
    assert t.size == 3
    assert t.root_child_count == 2
    assert [c.code for c in t.children()] == ["()", "()"]
    assert CanonicalTree.singleton().code == "()"
    with pytest.raises(ArgumentError):
        CanonicalTree(code="(()")


# the arm each kind of key takes: a non-negative key below twice its length is tabled; any other is
# sorted, then searched when its distinct values are few against its entries and scattered by argsort
# when they are many
_ARM = {"narrow": "table", "few": "searched", "many": "scattered", "empty": "searched"}


@st.composite
def _keys(draw, kind):
    """A 1-D integer key of the given kind, in a drawn dtype."""
    wide = ("int16", "int32", "int64", "uint16", "uint32", "uint64")
    dtype = np.dtype(draw(st.sampled_from(("int8", "uint8", *wide) if kind in ("narrow", "empty") else wide)))
    info = np.iinfo(dtype)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "empty":
        return np.zeros(0, dtype=dtype)
    if kind == "narrow":
        n = draw(st.integers(1, 300))
        return rng.integers(0, min(2 * n, int(info.max) + 1), n).astype(dtype)
    # few: at most one distinct value per _SEARCHED entries; many: two or more in under 2 * _SEARCHED.
    # Either spans 2n or more, or holds a negative entry
    searched = canonical._SEARCHED
    n = draw(st.integers(2 * searched, 4000) if kind == "few" else st.integers(2, 2 * searched - 1))
    count = draw(st.integers(2, n // searched if kind == "few" else n))
    span = draw(st.integers(1 if info.min < 0 else 2 * n, int(info.max) - int(info.min)))
    low = draw(st.integers(int(info.min), -1 if span < 2 * n else int(info.max) - span))
    pool = np.unique(np.r_[0, span, rng.integers(0, span, count - 2, dtype=np.uint64, endpoint=True)])
    offsets = pool[np.r_[0, len(pool) - 1, rng.integers(0, len(pool), n - 2)]]  # both ends met
    return np.array([low + int(o) for o in offsets], dtype=dtype)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(tuple(_ARM)).flatmap(lambda kind: st.tuples(st.just(kind), _keys(kind))))
def test_distinct_numbers_keys_as_np_unique_does(drawn):
    kind, key = drawn
    with (
        mock.patch.object(np, "sort", wraps=np.sort) as sort,
        mock.patch.object(np, "searchsorted", wraps=np.searchsorted) as search,
    ):
        values, index = distinct(key)
    arm = "searched" if search.called else "scattered" if sort.called else "table"
    assert arm == _ARM[kind]
    want_values, want_index = np.unique(key, return_inverse=True)
    assert values.dtype == key.dtype
    np.testing.assert_array_equal(values, want_values)
    assert index.dtype == np.min_scalar_type(len(values)) and index.dtype.kind == "u"
    np.testing.assert_array_equal(index, want_index.reshape(-1))
