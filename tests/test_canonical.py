"""Canonical codes for rooted trees: encoding, enumeration, surgery."""

from dataclasses import dataclass

import numpy as np
import pytest

from delaytree.canonical import (
    all_canonical_trees,
    child_counts,
    code_from_children,
    code_from_parents,
    leaf_extensions,
    q_count,
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
    assert q_count("((())())", "()") == 1
    assert q_count("((())())", "(())") == 1
    assert q_count("(()()())", "()") == 3
    assert q_count("((())())", "((()))") == 0
    assert q_count("()", "()") == 0  # a singleton root has no child subtrees


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
