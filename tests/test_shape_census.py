"""The integer shape labelling against the string-code reference.

``shape_labels`` feeds the fringe census, and ``extended_fringe_law``
maps its counts to pair counts; ``subtree_codes`` builds a code string at
every vertex and serves as the reference for both here.
"""

import dataclasses
import hashlib
import importlib.util
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaytree import harness
from delaytree.canonical import check_parents, shape_labels, subtree_codes
from delaytree.cli import PRESETS
from delaytree.configio import build_config, parse_config_text
from delaytree.errors import ArgumentError
from delaytree.estimators import (
    FringeCensus,
    degree_hist,
    extended_fringe_census,
    fringe_census,
)
from delaytree.growth import grow, trace_from_parents
from delaytree.harness import ExperimentPlan
from delaytree.kernels import AffineKernel, GrowthConfig, Uniform01Delay
from delaytree.theory import extended_fringe_law

AFF = AffineKernel(0.0)


def _reference(parents, cap):
    """Fringe counts, truncated, pair counts, pair truncated via subtree_codes."""
    codes = subtree_codes(parents, cap)
    n = len(parents) - 1
    counts, pairs = {}, {}
    for v in range(1, n + 1):
        if codes[v] is not None:
            counts[codes[v]] = counts.get(codes[v], 0) + 1
    for v in range(2, n + 1):
        up = codes[parents[v]]
        if up is not None:
            pairs[(codes[v], up)] = pairs.get((codes[v], up), 0) + 1
    truncated = sum(c is None for c in codes[1:])
    pair_truncated = sum(codes[parents[v]] is None for v in range(2, n + 1))
    return codes, counts, truncated, pairs, pair_truncated


def _pairs(fc):
    """Pair counts of a fringe census by the fringe-to-pair map, and the unpaired vertices."""
    pairs = extended_fringe_law(fc.counts, 1)
    return pairs, fc.n - 1 - sum(pairs.values())


def _check_against_reference(parents, cap):
    parents = np.asarray(parents)
    n = len(parents) - 1
    codes, counts, truncated, pairs, pair_truncated = _reference(parents, cap)
    labels, shapes = shape_labels(parents, cap)
    assert len(set(shapes)) == len(shapes)  # one label per shape
    assert labels[0] == -1
    for v in range(1, n + 1):
        assert (shapes[labels[v]] if labels[v] >= 0 else None) == codes[v]
    fc = FringeCensus.from_labels(labels, shapes, cap)
    assert (fc.counts, fc.truncated, fc.n) == (counts, truncated, n)
    got = _pairs(fc)
    assert got == (pairs, pair_truncated)
    assert all(type(c) is int for c in got[0].values())
    assert sum(fc.counts.values()) + fc.truncated == n


@st.composite
def _parent_arrays(draw):
    n = draw(st.integers(1, 80))
    parents = [0, 0] + [draw(st.integers(1, v - 1)) for v in range(2, n + 1)]
    return parents[: n + 1], draw(st.integers(1, n + 2))


@settings(max_examples=300, deadline=None)
@given(_parent_arrays())
def test_labels_match_reference_on_random_trees(case):
    parents, cap = case
    _check_against_reference(parents, cap)


def _path(n):
    return [0, 0] + list(range(1, n))


def _star(n):
    return [0, 0] + [1] * (n - 1)


def _caterpillar(spine, legs):
    parents = [0, 0] + list(range(1, spine))
    for s in range(1, spine + 1):
        parents += [s] * legs
    return parents


def _star_of_stars(*legs):
    """A root whose i-th child is a hub with legs[i] leaf children."""
    parents = [0, 0] + [1] * len(legs)
    for hub, k in enumerate(legs, start=2):
        parents += [hub] * k
    return parents


@pytest.mark.parametrize(
    "parents",
    [
        [0, 0],
        _path(12),
        _star(12),
        _caterpillar(6, 2),
        _caterpillar(4, 3),
        _star_of_stars(4, 4, 4),
        _star_of_stars(1, 2, 5, 7),
    ],
    ids=["singleton", "path", "star", "caterpillar-6x2", "caterpillar-4x3", "hubs-3x4", "hubs-1-2-5-7"],
)
@pytest.mark.parametrize("cap", [1, 2, 3, 5, 8, 40])
def test_labels_match_reference_on_hand_trees(parents, cap):
    _check_against_reference(parents, cap)


@pytest.mark.parametrize("cap", [1, 2, 3, 6])
def test_round_one_labels_nothing_when_every_leaf_parent_reaches_the_cap(cap):
    parents = _star_of_stars(cap, cap, cap)
    _check_against_reference(parents, cap)
    labels, shapes = shape_labels(parents, cap)
    assert shapes == ("()",)
    assert labels.tolist() == [-1] * 5 + [0] * (3 * cap)
    pairs, pair_truncated = _pairs(FringeCensus.from_labels(labels, shapes, cap))
    assert pairs == {} and pair_truncated == len(parents) - 2


def test_hubs_over_the_cap_leave_their_small_siblings_unpaired():
    # the hubs of 1 and 2 leaves are labelled; the root, with 4 children, never is
    parents = _star_of_stars(1, 2, 5, 7)
    _check_against_reference(parents, 4)
    labels, shapes = shape_labels(parents, 4)
    assert [shapes[i] if i >= 0 else None for i in labels[1:6]] == [None, "(())", "(()())", None, None]
    pairs, pair_truncated = _pairs(FringeCensus.from_labels(labels, shapes, 4))
    assert pairs == {("()", "(())"): 1, ("()", "(()())"): 2}
    assert pair_truncated == 4 + 5 + 7


@settings(max_examples=100, deadline=None)
@given(_parent_arrays(), st.sampled_from([1, 2]))
def test_labels_match_reference_at_caps_1_and_2(case, cap):
    _check_against_reference(case[0], cap)


@settings(max_examples=100, deadline=None)
@given(_parent_arrays())
def test_a_tree_within_the_cap_pairs_every_vertex(case):
    parents = case[0]
    n = len(parents) - 1
    _check_against_reference(parents, n)
    labels, shapes = shape_labels(parents, n)
    assert labels[1] >= 0
    pairs, pair_truncated = _pairs(FringeCensus.from_labels(labels, shapes, n))
    assert pair_truncated == 0 and sum(pairs.values()) == n - 1


def test_hand_tree_labels():
    labels, shapes = shape_labels(_path(4), cap=3)
    assert [shapes[i] if i >= 0 else None for i in labels[1:]] == [
        None,
        "((()))",
        "(())",
        "()",
    ]
    labels, shapes = shape_labels([0, 0], cap=1)
    assert labels.tolist() == [-1, 0] and shapes == ("()",)
    labels, shapes = shape_labels(_star(5), cap=5)
    assert shapes == ("()", "(()()()())")
    assert labels.tolist() == [-1, 1, 0, 0, 0, 0]
    labels, _ = shape_labels(_star(5), cap=4)  # root has 4 children: size 5
    assert labels.tolist() == [-1, -1, 0, 0, 0, 0]


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_census_matches_reference_on_presets(preset):
    entries = parse_config_text(PRESETS[preset])
    entries["n_final"] = "20000"
    config, _ = build_config(entries)
    trace = grow(config)
    parents = trace.parents[: trace.n + 1]
    for cap in (4, 6):
        _, counts, truncated, pairs, pair_truncated = _reference(parents, cap)
        fc = fringe_census(trace, cap=cap)
        assert (fc.counts, fc.truncated) == (counts, truncated)
        assert _pairs(fc) == (pairs, pair_truncated)
        assert extended_fringe_census(trace, cap=cap) == pairs


@pytest.mark.parametrize(
    "parents, cap, message",
    [
        ([0, 0, 1, 0], 4, "vertex 3 has invalid parent 0"),
        ([0, 0, 1, 3], 4, "vertex 3 has invalid parent 3"),
        ([0, 0, 1, 2, 7], 4, "vertex 4 has invalid parent 7"),
        ([0, 0, -1], 4, "vertex 2 has invalid parent -1"),
        ([0], 4, "at least vertex 1"),
        ([0, 0, 1], 0, "cap must be >= 1"),
        ([0, 0, 1.0], 4, "integers"),
    ],
    ids=["zero", "self", "later", "negative", "empty", "cap", "float"],
)
def test_invalid_input_raises(parents, cap, message):
    with pytest.raises(ArgumentError, match=message):
        shape_labels(parents, cap)
    if cap >= 1 and not isinstance(parents[-1], float):
        with pytest.raises(ArgumentError, match=message):
            subtree_codes(parents, cap)  # the same boundary as the reference


def _grown_parents(preset, n):
    entries = parse_config_text(PRESETS[preset])
    entries["n_final"] = str(n)
    config, _ = build_config(entries)
    return grow(config).parents


def test_int32_and_int64_parents_past_the_int32_key_range():
    # the round's sort key parent*(n+1) + label passes 2**31 from n = 46 341 on
    parents = _grown_parents("grid-invpow2", 60_000)
    assert parents.dtype == np.int32
    assert int(parents.max()) * len(parents) > 2**31
    _check_against_reference(parents, 6)
    results = []
    for par in (parents, parents.astype(np.int64)):
        labels, shapes = shape_labels(par, 6)
        assert labels.dtype == np.int32
        fc = FringeCensus.from_labels(labels, shapes, 6)
        results.append((labels.tolist(), shapes, fc, _pairs(fc)))
    assert results[0] == results[1]


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_check_parents_keeps_int32_and_int64_input(dtype):
    parents = np.array([0, 0, 1, 1, 2], dtype=dtype)
    assert check_parents(parents) is parents  # no copy
    assert check_parents(parents.astype(np.uint16)).dtype == np.int64
    assert check_parents([0, 0, 1, 1, 2]).dtype == np.int64
    with pytest.raises(ArgumentError, match="vertex 4 has invalid parent 4"):
        check_parents(np.array([0, 0, 1, 1, 4], dtype=dtype))


def test_check_parents_refuses_2_to_the_31_vertices():
    # a zero-stride view: 2**31 + 1 entries that take no memory
    parents = np.broadcast_to(np.int32(1), (2**31 + 1,))
    for check in (check_parents, lambda p: shape_labels(p, 6)):
        with pytest.raises(ArgumentError, match=r"2\*\*31"):
            check(parents)


def test_labelling_and_censuses_stay_under_25_bytes_per_vertex():
    # five int32 arrays of length n, plus the int64 child counts or round 1's temporaries
    parents = _grown_parents("grid-invpow2", 200_000)
    tracemalloc.start()
    try:
        labels, shapes = shape_labels(parents, 6)
        extended_fringe_law(FringeCensus.from_labels(labels, shapes, 6).counts, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (len(parents) - 1) <= 25, peak / (len(parents) - 1)


def test_censuses_reject_bad_cap():
    trace = trace_from_parents([0, 0, 1, 1])
    for census in (fringe_census, extended_fringe_census):
        with pytest.raises(ArgumentError, match="cap must be >= 1"):
            census(trace, cap=0)


def test_harness_labels_each_replicate_once(monkeypatch, tmp_path):
    calls = []

    def counting(parents, cap):
        calls.append(len(parents) - 1)
        return shape_labels(parents, cap)

    monkeypatch.setattr(harness, "shape_labels", counting)
    cfg = GrowthConfig(AFF, Uniform01Delay(beta=0.5), 800, seed=3)
    plan = ExperimentPlan(
        config=cfg,
        replicates=3,
        statistics=("degree", "fringe"),
        tolerances={"degree_tv": 1.0, "fringe_abs": 1.0, "pair_abs": 1.0},
        outdir=str(tmp_path),
    )
    harness.run(plan)
    assert calls == [800, 800, 800]
    f = json.loads((tmp_path / "summary.json").read_text())["statistics"]["fringe"]
    # the pooled counts in summary.json are the per-vertex reference's, summed over the
    # replicates: the pair theory comes from the same map as the pooled pairs, so the pair
    # gate cannot catch a bug in that map, and this comparison can
    expect, expect_pairs = {}, {}
    truncated = pair_truncated = 0
    for r in range(3):
        trace = grow(dataclasses.replace(cfg, seed=harness.replicate_seed(cfg.seed, r)))
        _, counts, trunc, pairs, pair_trunc = _reference(trace.parents, cfg.fringe_cap)
        for code, c in counts.items():
            expect[code] = expect.get(code, 0) + c
        for (child, up), c in pairs.items():
            expect_pairs[f"{child}|{up}"] = expect_pairs.get(f"{child}|{up}", 0) + c
        truncated += trunc
        pair_truncated += pair_trunc
    assert (f["counts"], f["truncated"]) == (expect, truncated)
    assert (f["pair_counts"], f["pair_truncated"]) == (expect_pairs, pair_truncated)


def test_bytes_per_vertex_bench_measures_this_tree():
    # the bench script's measurement child at n = 2000, so an API change cannot break it unseen
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("bytes_per_vertex", root / "bench" / "bytes_per_vertex.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    entries = parse_config_text(PRESETS["grid-invpow2"])
    entries["n_final"] = "2000"
    entries["seed"] = str(bench.SEED)
    config, _ = build_config(entries)
    trace = grow(config)
    fc = fringe_census(trace, config.fringe_cap)
    pairs, pair_truncated = _pairs(fc)
    counts = [degree_hist(trace).counts.tolist(), sorted(fc.counts.items()), fc.truncated,
              sorted(pairs.items()), pair_truncated]
    got = bench.measure(str(root / "src"), 2000, "traced")  # a traced run also times every stage
    for stage in bench.STAGES:
        assert stage + "_s" in got and stage + "_traced_b_per_vertex" in got, sorted(got)
    assert got["census_sha256"] == hashlib.sha256(json.dumps(counts).encode()).hexdigest()
