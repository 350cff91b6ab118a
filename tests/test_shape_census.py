"""The integer shape labelling against the string-code reference.

``shape_labels`` feeds the fringe census, and ``extended_fringe_law``
maps its counts to pair counts; ``subtree_codes`` builds a code string at
every vertex and serves as the reference for both here.
"""

import dataclasses
import gc
import hashlib
import importlib.util
import json
import tracemalloc
import weakref
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


def _kids(parents):
    """The tree's child counts, as the harness hands them to the labelling."""
    return trace_from_parents(parents).child_counts()


def _pairs(fc):
    """Pair counts of a fringe census by the fringe-to-pair map, and the unpaired vertices."""
    pairs = extended_fringe_law(fc.counts, 1)
    return pairs, fc.n - 1 - sum(pairs.values())


def _check_against_reference(parents, cap):
    parents = np.asarray(parents)
    n = len(parents) - 1
    codes, counts, truncated, pairs, pair_truncated = _reference(parents, cap)
    labels, shapes = shape_labels(parents, _kids(parents), cap)
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
    labels, shapes = shape_labels(parents, _kids(parents), cap)
    assert shapes == ("()",)
    assert labels.tolist() == [-1] * 5 + [0] * (3 * cap)
    pairs, pair_truncated = _pairs(FringeCensus.from_labels(labels, shapes, cap))
    assert pairs == {} and pair_truncated == len(parents) - 2


def test_hubs_over_the_cap_leave_their_small_siblings_unpaired():
    # the hubs of 1 and 2 leaves are labelled; the root, with 4 children, never is
    parents = _star_of_stars(1, 2, 5, 7)
    _check_against_reference(parents, 4)
    labels, shapes = shape_labels(parents, _kids(parents), 4)
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
    labels, shapes = shape_labels(parents, _kids(parents), n)
    assert labels[1] >= 0
    pairs, pair_truncated = _pairs(FringeCensus.from_labels(labels, shapes, n))
    assert pair_truncated == 0 and sum(pairs.values()) == n - 1


def _hubs_of_leaves_and_stars(seed):
    """A root over a star of each width 1..18 and 40 random hubs of 12-16 leaves plus 1-2 small stars.

    Under cap 20, round 1 labels the 18 star widths, so round 2 interns
    the hubs' rows of 13-18 child labels below base 19, rows whose
    mixed-radix key (19**15 and up) would pass 2**63: each walks the trie
    of child-label prefixes one label at a time instead.
    """
    rng = np.random.default_rng(seed)
    parents = [0, 0]

    def add(parent, width):
        parents.append(parent)
        hub = len(parents) - 1
        parents.extend([hub] * width)
        return hub

    for width in range(1, 19):
        add(1, width)
    for _ in range(40):
        hub = add(1, int(rng.integers(12, 17)))
        for _ in range(int(rng.integers(1, 3))):
            add(hub, int(rng.integers(1, 3)))
    return parents


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_labels_match_reference_when_row_keys_pass_int64(seed):
    parents = _hubs_of_leaves_and_stars(seed)
    _check_against_reference(parents, 20)
    labels, _ = shape_labels(parents, _kids(parents), 20)
    assert (_kids(parents)[labels >= 0] >= 15).any()  # rows whose key is re-ranked get labels


def test_labelling_refuses_float_child_counts():
    parents = _star(5)
    with pytest.raises(ArgumentError, match="child counts must be integers"):
        shape_labels(parents, _kids(parents).astype(np.float64), 3)


def test_hand_tree_labels():
    labels, shapes = shape_labels(_path(4), _kids(_path(4)), cap=3)
    assert [shapes[i] if i >= 0 else None for i in labels[1:]] == [
        None,
        "((()))",
        "(())",
        "()",
    ]
    labels, shapes = shape_labels([0, 0], _kids([0, 0]), cap=1)
    assert labels.tolist() == [-1, 0] and shapes == ("()",)
    labels, shapes = shape_labels([7, 3, 1, 1], _kids([0, 0, 1, 1]), cap=3)  # entries 0 and 1 are ignored
    assert labels.tolist() == [-1, 1, 0, 0] and shapes == ("()", "(()())")
    labels, shapes = shape_labels(_star(5), _kids(_star(5)), cap=5)
    assert shapes == ("()", "(()()()())")
    assert labels.tolist() == [-1, 1, 0, 0, 0, 0]
    labels, _ = shape_labels(_star(5), _kids(_star(5)), cap=4)  # root has 4 children: size 5
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
        ([0, 0, 1], 0, "cap must be an integer >= 1"),
        ([0, 0, 1], 3.0, "cap must be an integer >= 1"),
        ([0, 0, 1.0], 4, "integers"),
    ],
    ids=["zero", "self", "later", "negative", "empty", "cap", "float-cap", "float"],
)
def test_invalid_input_raises(parents, cap, message):
    with pytest.raises(ArgumentError, match=message):
        shape_labels(parents, np.zeros(len(parents), dtype=np.int32), cap)
    if not isinstance(parents[-1], float):
        with pytest.raises(ArgumentError, match=message):
            subtree_codes(parents, cap)  # the same boundary as the reference


@pytest.mark.parametrize("size", [0, 5, 7], ids=["empty", "short", "long"])
def test_labelling_refuses_child_counts_of_the_wrong_length(size):
    parents = _star(5)  # 5 vertices: 6 counts
    with pytest.raises(ArgumentError, match=f"needs 6 child counts, got {size}"):
        shape_labels(parents, np.zeros(size, dtype=np.int32), 3)
    shape_labels(parents, _kids(parents), 3)  # the right length passes


def test_labelling_refuses_child_counts_that_wrap_or_miss_the_edge_count():
    parents = _grown_parents("grid-zero", 50_000)
    kids = _kids(parents)
    assert kids.max() > np.iinfo(np.int8).max  # the int8 counts wrap
    short = kids.copy()
    short[1] -= 1
    negative = kids.copy()
    negative[1] += 1
    negative[-1] = -1  # a leaf at -1: the sum is kept
    for bad in (kids.astype(np.int8), short, negative):
        with pytest.raises(ArgumentError, match="of 50000 vertices must be >= 0 and sum to 49999"):
            shape_labels(parents, bad, 6)


def _grown_parents(preset, n):
    entries = parse_config_text(PRESETS[preset])
    entries["n_final"] = str(n)
    config, _ = build_config(entries)
    return grow(config).parents


# SHA-256 of (labels as little-endian int32, JSON of the codes) for frozen preset trees at n = 2e5,
# recorded before the labelling moved to child-label prefixes; the parents digest keeps the tree frozen
PINNED_LABELS = {
    "grid-invpow2": (
        "b2372febb08472f62bc87479e8d8a72245ef4665dc4504b998f3554fea9bf760",
        {
            3: "91adc761b96c12a72fab96722e3fc647141514d43da6d03d18f9f352c7eb95c8",
            6: "b88c63bcc2d432e626a714f9ba2dfe5f0e83a1119eb732e3f287497873c7c89b",
        },
    ),
    "grid-uniform01": (
        "866541463af1be25d45f6a6f9778e07b6d8dbbca66ccc516721223ae24e70f0a",
        {
            3: "e35ffad39773b0ecc6cc2771dcfdb38b40c6bc544c2f17c8496ba66e560545f1",
            6: "6ccdd714525ebaf16ba2157c34aa806b2ad280f9fd0cd4416ebd5bcf97854f49",
        },
    ),
}


def _digest(labels, shapes):
    return hashlib.sha256(labels.astype("<i4").tobytes() + json.dumps(shapes).encode()).hexdigest()


@pytest.mark.parametrize("preset", sorted(PINNED_LABELS))
def test_labels_and_codes_match_their_pinned_digests(preset):
    parents = _grown_parents(preset, 200_000)
    tree, pinned = PINNED_LABELS[preset]
    assert hashlib.sha256(parents.astype("<i8").tobytes()).hexdigest() == tree
    kids = _kids(parents)
    for cap, digest in pinned.items():
        assert _digest(*shape_labels(parents, kids, cap)) == digest, cap


# at large caps the trie steps meet many prefixes and labels, and their keys span far more than their
# number: (parents digest, labels-and-codes digest, tracemalloc peak of the labelling in B per vertex)
# for frozen preset trees at n = 2e5, all recorded before the labelling went by blocks and counted steps
# (the peaks, 12.06 and 16.02 B, rounded up)
LARGE_CAPS = {
    ("grid-zero", 16): (
        "b1c110beba6e3d2b41c9bb73aba467003be6422bb130c504476f35234d975ab8",
        "126a888818aa6496c229385656f2a5eeb0a2cb2c35a9a2f888e7583579dae69f",
        12.1,
    ),
    ("grid-uniform01", 24): (
        "866541463af1be25d45f6a6f9778e07b6d8dbbca66ccc516721223ae24e70f0a",
        "9faa3e2428b15b507020b4fae5be0a0ec34e37e431df05b4c744e62ad13691e5",
        16.1,
    ),
}


@pytest.mark.parametrize("preset, cap", sorted(LARGE_CAPS))
def test_large_caps_keep_their_labels_within_the_earlier_peak(preset, cap):
    tree, digest, peak_bound = LARGE_CAPS[preset, cap]
    parents = _grown_parents(preset, 200_000)
    assert hashlib.sha256(parents.astype("<i8").tobytes()).hexdigest() == tree
    kids = _kids(parents)
    gc.collect()  # empties the interpreter's free lists, so the rows' tuples are traced whatever ran before
    tracemalloc.start()
    try:
        labels, shapes = shape_labels(parents, kids, cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _digest(labels, shapes) == digest
    assert peak / (len(parents) - 1) <= peak_bound, peak / (len(parents) - 1)


def test_int32_and_int64_parents_past_the_int32_key_range():
    # the round's sort key parent*(n+1) + label passes 2**31 from n = 46 341 on
    parents = _grown_parents("grid-invpow2", 60_000)
    assert parents.dtype == np.int32
    assert int(parents.max()) * len(parents) > 2**31
    _check_against_reference(parents, 6)
    kids = _kids(parents)
    results = []
    for par in (parents, parents.astype(np.int64)):
        labels, shapes = shape_labels(par, kids, 6)
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


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_check_parents_names_the_first_bad_vertex_of_a_later_block(dtype):
    # a path, parents[v] = v - 1, checked in blocks of 2**16 from vertex 2
    parents = np.arange(-1, 2**17 + 10, dtype=dtype)
    parents[:2] = 0
    check_parents(parents)
    parents[2**17 + 3] = 0  # in the third block
    with pytest.raises(ArgumentError, match=f"vertex {2**17 + 3} has invalid parent 0$"):
        check_parents(parents)
    parents[2**16 + 5] = 2**16 + 5  # in the second block
    with pytest.raises(ArgumentError, match=f"vertex {2**16 + 5} has invalid parent {2**16 + 5}$"):
        check_parents(parents)


def test_check_parents_refuses_2_to_the_31_vertices():
    # a zero-stride view: 2**31 + 1 entries that take no memory
    parents = np.broadcast_to(np.int32(1), (2**31 + 1,))
    # the counts are of the wrong length: the parents are refused before they are read
    for check in (check_parents, lambda p: shape_labels(p, np.zeros(2, dtype=np.int32), 6)):
        with pytest.raises(ArgumentError, match=r"2\*\*31"):
            check(parents)


def test_labelling_and_censuses_stay_under_13_bytes_per_vertex():
    # the child counts and the int32 labels, plus one block's temporaries of rounds 0 and 1, which at
    # n = 2e5 outweigh round 2's sort key and owner arrays (12.2 B measured)
    parents = _grown_parents("grid-invpow2", 200_000)
    trace = trace_from_parents(parents)
    gc.collect()  # empties the interpreter's free lists, so the reading does not depend on the tests before it
    tracemalloc.start()
    try:
        labels, shapes = shape_labels(parents, trace.child_counts(), 6)
        extended_fringe_law(FringeCensus.from_labels(labels, shapes, 6).counts, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (len(parents) - 1) <= 12.9, peak / (len(parents) - 1)


def test_censuses_reject_bad_cap():
    trace = trace_from_parents([0, 0, 1, 1])
    for census in (fringe_census, extended_fringe_census):
        for cap in (0, 3.0):
            with pytest.raises(ArgumentError, match="cap must be an integer >= 1"):
                census(trace, cap=cap)


def test_harness_labels_each_replicate_once(monkeypatch, tmp_path):
    calls = []

    def counting(parents, kids, cap):
        calls.append(len(parents) - 1)
        return shape_labels(parents, kids, cap)

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


@pytest.mark.parametrize("replicates", [1, 3])
def test_harness_frees_the_snapshots_before_the_census(monkeypatch, tmp_path, replicates):
    held, freed = [], []

    def growing(config, seeds):
        traces = grow(config, seeds)
        held.append(weakref.ref(traces[0].snapshots.base))  # grow's snapshot matrix
        return traces

    def labelling(parents, kids, cap):
        freed.append(held[-1]() is None)
        return shape_labels(parents, kids, cap)

    monkeypatch.setattr(harness, "grow", growing)
    monkeypatch.setattr(harness, "shape_labels", labelling)
    cfg = GrowthConfig(AFF, Uniform01Delay(beta=0.5), 500, seed=3)
    plan = ExperimentPlan(config=cfg, replicates=replicates, statistics=("degree", "fringe"), outdir=str(tmp_path))
    harness.run(plan)
    assert freed == [True] * replicates


def test_bytes_per_vertex_bench_measures_this_tree(tmp_path):
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
    got = bench.driver.measure(bench.CHILD, str(root / "src"), 2000, bench.SEED, "traced")
    stages = [f"{stage}{unit}" for stage in bench.STAGES for unit in ("_s", "_traced_b_per_vertex")]
    rss = [f"{at}_rss_{unit}" for at in ("import", "grow", "peak") for unit in ("mb", "b_per_vertex")]
    assert sorted(got) == sorted(stages + rss + ["parents_sha256", "census_sha256", "artifact_sha256"])
    assert got["parents_sha256"] == hashlib.sha256(trace.parents.astype("<i8").tobytes()).hexdigest()
    assert got["census_sha256"] == hashlib.sha256(json.dumps(counts).encode()).hexdigest()
    # the write stage's artifacts are those of the one-replicate plan of the same config
    harness.run(ExperimentPlan(config=config, statistics=("degree", "fringe"), outdir=str(tmp_path)))
    digest = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert got["artifact_sha256"] == digest.hexdigest()
    assert got["write_s"] > 0
