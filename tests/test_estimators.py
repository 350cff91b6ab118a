"""Empirical statistics read off traces, and the delay-decay diagnostics."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delaytree import estimators
from delaytree.canonical import shape_labels, tally, tally_rows
from delaytree.errors import ArgumentError
from delaytree.estimators import (
    DegreeHist,
    RootTrajectory,
    degree_counts,
    degree_hist,
    delay_condition_scan,
    extended_fringe_census,
    fringe_census,
    geometric_grid,
    half_decade_grid,
    leaf_clt_value,
    root_trajectory,
    root_trajectories,
)
from delaytree.growth import grow, parent_rows, trace_from_parents
from delaytree.kernels import (
    AffineKernel,
    ConstantDelay,
    GrowthConfig,
    InversePowerDelay,
    QuantileTableDelay,
    Uniform01Delay,
    ZeroDelay,
)
from delaytree.theory import extended_fringe_law

AFF = AffineKernel(0.0)

PATH4 = trace_from_parents([0, 0, 1, 2, 3])
STAR4 = trace_from_parents([0, 0, 1, 1, 1])


# ---------------------------------------------------------------------------
# degree histogram
# ---------------------------------------------------------------------------


def test_degree_hist_hand_trees():
    h = degree_hist(PATH4)
    assert h.count(1) == 2 and h.count(2) == 2 and h.count(3) == 0
    assert h.max_degree() == 2
    assert (h.counts / h.n).sum() == pytest.approx(1.0)
    s = degree_hist(STAR4)
    assert s.count(1) == 3 and s.count(3) == 1
    assert s.max_degree() == 3
    with pytest.raises(ArgumentError):
        h.count(-1)


def test_degree_sum_closes_on_grown_trees():
    tr = grow(GrowthConfig(AFF, Uniform01Delay(beta=0.5), 3000, seed=17))
    h = degree_hist(tr)
    ks = np.arange(len(h.counts))
    assert int((ks * h.counts).sum()) == 2 * (tr.n - 1)
    assert int(h.counts.sum()) == tr.n


def test_degree_hist_stays_under_9_bytes_per_vertex():
    # the int32 child counts; tally casts its index through NumPy's bounded buffer, not a copy
    tr = grow(GrowthConfig(AFF, InversePowerDelay(2.0, beta=0.5), 200_000, seed=5))
    tracemalloc.start()
    try:
        h = degree_hist(tr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert int(h.counts.sum()) == tr.n
    assert peak / tr.n <= 9, peak / tr.n


# ---------------------------------------------------------------------------
# fringe censuses
# ---------------------------------------------------------------------------


def test_fringe_census_path():
    c = fringe_census(PATH4, cap=6)
    assert c.counts == {"()": 1, "(())": 1, "((()))": 1, "(((())))": 1}
    assert c.truncated == 0
    capped = fringe_census(PATH4, cap=2)
    assert capped.counts == {"()": 1, "(())": 1}
    assert capped.truncated == 2
    assert capped.truncated / capped.n == pytest.approx(0.5)
    assert capped.counts["(())"] / capped.n == pytest.approx(0.25)
    assert capped.counts.get("((()))", 0) / capped.n == 0.0


def test_singleton_count_identity():
    # leaves of the tree match singleton fringes except when the whole
    # tree is a path from the root: then the root itself has degree 1
    # but its fringe is everything
    for tr in (PATH4, STAR4):
        c = fringe_census(tr, cap=6)
        n1 = degree_hist(tr).count(1)
        root_kids = int((tr.parents[2:] == 1).sum())
        assert c.counts.get("()", 0) == n1 - (1 if root_kids == 1 else 0)
    rng_traces = [
        grow(GrowthConfig(AFF, Uniform01Delay(beta=0.5), 500, seed=s)) for s in (1, 2, 3)
    ]
    for tr in rng_traces:
        c = fringe_census(tr, cap=500)
        n1 = degree_hist(tr).count(1)
        root_kids = int((tr.parents[2:] == 1).sum())
        assert c.counts.get("()", 0) == n1 - (1 if root_kids == 1 else 0)


def test_extended_census_star():
    pairs = extended_fringe_law(fringe_census(STAR4, cap=4).counts, 1)
    assert pairs == {("()", "(()()())"): 3}
    assert STAR4.n - 1 - sum(pairs.values()) == 0  # no vertex with a truncated parent
    assert pairs[("()", "(()()())")] / STAR4.n == pytest.approx(0.75)
    assert sum(c for (child, _), c in pairs.items() if child == "()") == 3
    tight = extended_fringe_law(fringe_census(STAR4, cap=3).counts, 1)
    assert tight == {}
    assert STAR4.n - 1 - sum(tight.values()) == 3  # parent shape no longer fits the cap
    assert extended_fringe_census(STAR4, cap=4) == pairs  # the one-tree form of the map


def test_extended_census_matches_pair_freqs_on_grown_tree():
    tr = grow(GrowthConfig(AFF, ZeroDelay(beta=0.5), 4000, seed=23))
    fc = fringe_census(tr, cap=4)
    pairs = extended_fringe_law(fc.counts, 1)
    # the child marginal of the pair counts never exceeds the child's own count
    for code, cnt in fc.counts.items():
        assert sum(c for (child, _), c in pairs.items() if child == code) <= cnt
    # a non-root vertex is paired exactly when its parent's fringe fits the cap
    labels, _ = shape_labels(tr.parents, tr.child_counts(), 4)
    assert sum(pairs.values()) == int(np.count_nonzero(labels[tr.parents[2:]] >= 0))


# ---------------------------------------------------------------------------
# leaf CLT statistic
# ---------------------------------------------------------------------------


def test_leaf_clt_statistic_values():
    for s in range(6):
        tr = grow(GrowthConfig(AFF, Uniform01Delay(beta=0.3), 900, seed=s))
        n1 = degree_hist(tr).count(1)
        assert leaf_clt_value(n1, 900, 2.0 / 3.0) == pytest.approx(np.sqrt(900) * (n1 / 900 - 2.0 / 3.0))


# ---------------------------------------------------------------------------
# root trajectory
# ---------------------------------------------------------------------------


def test_geometric_grid():
    np.testing.assert_array_equal(geometric_grid(10), [2, 3, 4, 6, 8, 10])
    g = geometric_grid(100_000)
    assert g[-1] == 100_000
    assert np.all(np.diff(g) > 0)
    np.testing.assert_array_equal(geometric_grid(2), [2])
    with pytest.raises(ArgumentError):
        geometric_grid(1)


def test_half_decade_grid():
    assert half_decade_grid(100, 1e6) == [100, 316, 1000, 3162, 10000, 31623, 100000, 316228, 1000000]
    # the ends are kept even off the half-decade points
    assert half_decade_grid(150, 20_000) == [150, 316, 1000, 3162, 10000, 20000]
    assert half_decade_grid(2, 3) == [2, 3]
    for lo, hi in ((1, 10), (10, 10), (50, 20), (2.5, 40), (100, 40.5), (100, float("inf"))):
        with pytest.raises(ArgumentError):
            half_decade_grid(lo, hi)


def test_root_trajectory_star():
    star = trace_from_parents([0, 0] + [1] * 19)  # root with 19 children
    traj = root_trajectory(star, grid=[1, 4, 9, 16, 20])
    np.testing.assert_array_equal(traj.ns, [1, 4, 9, 16, 20])
    np.testing.assert_allclose(traj.values, [1, 4, 9, 16, 20])


def test_root_trajectory_validation():
    with pytest.raises(ArgumentError):
        root_trajectory(PATH4, grid=[3, 2])
    with pytest.raises(ArgumentError):
        root_trajectory(PATH4, grid=[1, 99])
    with pytest.raises(ArgumentError):
        RootTrajectory(ns=np.array([2, 4]), values=np.array([5.0, 3.0]))  # the root cannot shrink
    with pytest.raises(ArgumentError):
        RootTrajectory(ns=np.array([2, 4]), values=np.array([[1.0, 2.0], [3.0, 2.0]]))  # nor in any row of a batch


# ---------------------------------------------------------------------------
# batches of trees
# ---------------------------------------------------------------------------


def _reference_hist(parents):
    """Graph-degree histogram of one tree, counted on its own."""
    n = len(parents) - 1
    gdeg = np.bincount(parents[2:], minlength=n + 1)[1:]
    gdeg[1:] += 1
    return np.bincount(gdeg)


def _reference_kids(parents):
    """Children of every vertex of one tree, counted vertex by vertex."""
    kids = [0] * len(parents)
    for v in range(2, len(parents)):
        kids[parents[v]] += 1
    return kids


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 60).flatmap(lambda n: st.tuples(*[st.integers(1, v - 1) for v in range(2, n + 1)])))
@example(())  # n = 1, a lone root
@example((1,))  # n = 2
def test_child_counts_match_a_per_vertex_count(up):
    parents = [0, 0, *up]
    kids = trace_from_parents(parents).child_counts()
    assert kids.dtype == np.int32
    assert kids.tolist() == _reference_kids(parents)


def test_child_counts_of_a_tree_longer_than_numpys_index_buffer():
    n = 50_000  # add.at casts the index 8192 entries at a time
    rng = np.random.default_rng(7)
    parents = np.zeros(n + 1, dtype=np.int32)
    parents[2:] = np.floor(rng.random(n - 1) * np.arange(1, n)).astype(np.int32) + 1  # 1 <= parents[v] < v
    kids = trace_from_parents(parents).child_counts()
    assert kids.tolist() == _reference_kids(parents.tolist())


def test_tally_makes_no_intp_copy_of_its_index():
    index = np.arange(1_000_000, dtype=np.int32) % 1000
    index[0] = -1  # a negative index counts from the end
    tracemalloc.start()
    try:
        counts = tally(index, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.dtype == np.int32
    assert counts.tolist() == [999] + [1000] * 998 + [1001]
    assert peak / len(index) <= 0.5, peak / len(index)  # an intp copy would take 8 B per entry


def _reference_root_values(parents, ns):
    """1 + the root's children born by each n_j, searched on one tree."""
    births = np.flatnonzero(np.asarray(parents[2:]) == 1) + 2
    return 1.0 + np.searchsorted(births, ns, side="right")


@st.composite
def _one_size_batches(draw):
    n = draw(st.integers(1, 60))
    rows = draw(st.integers(1, 5))
    return [[0, 0] + [draw(st.integers(1, v - 1)) for v in range(2, n + 1)] for _ in range(rows)]


@settings(max_examples=100, deadline=None)
@given(_one_size_batches(), st.data())
def test_batch_estimators_match_one_tree_at_a_time(batch, data):
    traces = [trace_from_parents(p) for p in batch]
    n = traces[0].n
    rows = parent_rows(traces)  # one parent matrix for the batch's child counts and root trajectories
    kids = tally_rows(rows, n + 1)  # one tally for the batch, one for its degrees
    counts = degree_counts(kids)
    assert kids.dtype == np.int32 and counts.dtype == np.int64
    refs = [_reference_hist(trace.parents) for trace in traces]
    assert counts.shape == (len(traces), max(map(len, refs)))  # up to the batch's largest degree
    for trace, row, counted, ref in zip(traces, kids, counts, refs):
        assert row.tolist() == trace.child_counts().tolist() == _reference_kids(trace.parents)
        hist = DegreeHist.from_children(trace.child_counts())
        assert len(hist.counts) == len(ref)  # each tree stops at its own largest degree
        np.testing.assert_array_equal(hist.counts, ref)
        assert hist.n == n
        np.testing.assert_array_equal(counted[: len(ref)], ref)
        assert not counted[len(ref) :].any()
    grid = sorted(data.draw(st.sets(st.integers(1, n), min_size=1)))
    batch_root = root_trajectories(rows, grid=grid)  # one (trees x grid) object
    assert batch_root.values.shape == (len(traces), len(grid))
    np.testing.assert_array_equal(batch_root.ns, grid)
    for r, trace in enumerate(traces):
        one = root_trajectory(trace, grid=grid)
        np.testing.assert_array_equal(one.ns, grid)
        np.testing.assert_array_equal(batch_root.values[r], one.values)
        np.testing.assert_array_equal(one.values, _reference_root_values(trace.parents, grid))


def test_batch_rows_keep_their_own_histogram_length_and_default_grid():
    star = trace_from_parents([0, 0, 1, 1, 1])  # largest degree 3
    hists = [degree_hist(t) for t in (star, PATH4, star)]
    assert [len(h.counts) for h in hists] == [4, 3, 4]
    assert [h.max_degree() for h in hists] == [3, 2, 3]
    trajs = root_trajectories(parent_rows([PATH4, star]))
    np.testing.assert_array_equal(trajs.ns, geometric_grid(4))
    np.testing.assert_array_equal(trajs.values, [[2.0, 2.0, 2.0], [2.0, 3.0, 4.0]])


def test_batch_estimators_reject_bad_batches():
    with pytest.raises(ArgumentError):
        parent_rows([PATH4, trace_from_parents([0, 0, 1])])
    with pytest.raises(ArgumentError):
        parent_rows([])
    with pytest.raises(ArgumentError):
        root_trajectories([])
    with pytest.raises(ArgumentError):
        root_trajectories(PATH4.parents[2:])  # one row, not a matrix
    rows = parent_rows([PATH4, STAR4])
    with pytest.raises(ArgumentError):
        root_trajectories(rows, grid=[3, 2])
    with pytest.raises(ArgumentError):
        root_trajectories(rows, grid=[1, 99])


# ---------------------------------------------------------------------------
# delay-decay scan
# ---------------------------------------------------------------------------


def test_scan_zero_delay_trivial():
    scan = delay_condition_scan(ZeroDelay(beta=0.5), [100, 1000, 10_000])
    assert scan.verdict == "satisfied"
    np.testing.assert_array_equal(scan.e_values, 0.0)
    np.testing.assert_array_equal(scan.lemma_values, 0.0)


def test_scan_constant_delay_slab_value():
    # c=1, beta=1/2, n=100: the delay always lands in the slab with
    # floor 90, so e_100 = 10 * 1/90 exactly
    scan = delay_condition_scan(ConstantDelay(c=1.0, beta=0.5), [100, 10_000])
    assert scan.e_values[0] == pytest.approx(1.0 / 9.0, rel=1e-12)
    assert scan.e_values[1] == pytest.approx(100.0 / 9900.0, rel=1e-12)
    assert scan.verdict == "satisfied"


def test_scan_uniform01_decreasing():
    scan = delay_condition_scan(Uniform01Delay(beta=0.5), [100, 316, 1000, 3162, 10_000])
    assert np.all(np.diff(scan.e_values) < 0)
    assert scan.verdict == "satisfied"


def test_scan_qtable_uniform_matches_uniform01():
    # a quantile table that IS uniform(0,1) lands on the uniform slab values
    grid = [100, 500, 2000, 10_000]
    table = delay_condition_scan(QuantileTableDelay(us=(0.0, 1.0), qs=(0.0, 1.0), beta=0.5), grid)
    exact = delay_condition_scan(Uniform01Delay(beta=0.5), grid)
    np.testing.assert_allclose(table.e_values, exact.e_values, rtol=0.0, atol=1e-12)
    assert table.verdict == exact.verdict == "satisfied"


@pytest.mark.parametrize("c", [1.0, 2.5])
def test_scan_qtable_flat_matches_constant(c):
    # a flat table is an atom at c; at n = 100 and 400 (n^beta = 10, 20) the
    # atom sits exactly on a slab edge b, and the slab (a, b] holds it
    grid = [100, 400, 1000, 10_000]
    table = delay_condition_scan(QuantileTableDelay(us=(0.0, 1.0), qs=(c, c), beta=0.5), grid)
    exact = delay_condition_scan(ConstantDelay(c=c, beta=0.5), grid)
    np.testing.assert_allclose(table.e_values, exact.e_values, rtol=0.0, atol=1e-12)
    assert table.e_values[0] == pytest.approx(10.0 * c / (100.0 - 10.0 * c), rel=1e-12)


def test_scan_qtable_atom_and_gap_matches_midpoint_sum():
    # a ramp, an atom of mass 0.25 at 1 (a slab edge at n = 100), a gap (1, 2)
    # and a second ramp, against a midpoint sum of the e_n integrand over u
    delay = QuantileTableDelay(us=(0.0, 0.25, 0.5, 0.5, 1.0), qs=(0.0, 1.0, 1.0, 2.0, 3.0), beta=0.5)
    grid = [100, 500, 2000]
    scan = delay_condition_scan(delay, grid)
    m = 1 << 20
    xi = np.interp((np.arange(m) + 0.5) / m, delay.us, delay.qs)
    for n, got in zip(grid, scan.e_values):
        nb = n**0.5
        floor = np.floor(n - nb * xi)
        want = np.mean(np.where(floor >= 1.0, nb * xi / np.maximum(floor, 1.0), 0.0))
        assert got == pytest.approx(want, rel=1e-7), n


def test_scan_sums_its_slabs_in_bounded_blocks(monkeypatch):
    # n = 1e6 is one default block; 2^14-slab blocks give the same sums in bounded memory
    n = 1_000_000
    delays = (
        Uniform01Delay(beta=0.5),
        InversePowerDelay(2.0, beta=0.5),
        QuantileTableDelay(us=(0.0, 0.5, 1.0), qs=(0.0, 1.0, 30.0), beta=0.5),
    )
    whole = [estimators._e_n_exact(delay, n) for delay in delays]
    monkeypatch.setattr(estimators, "_SCAN_BLOCK", 1 << 14)
    tracemalloc.start()
    try:
        blocked = [estimators._e_n_exact(delay, n) for delay in delays]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_allclose(blocked, whole, rtol=1e-12, atol=0.0)
    assert peak < 8 << 20, peak


# delay_condition_scan on half_decade_grid(100, 1e6) as float.hex: (e_values, lemma_values).  These bytes reach
# delay_scan.csv and check-delay's output.  _lemma_values calls x_survival one point at a time, with scalars:
# NumPy's array power differs from the scalar pow by an ulp in a few percent of values
SCAN_PIN = {
    "invpow:1": (
        (
            "0x1.7af02f740ddfep-1", "0x1.07e72fca7bfaep-1", "0x1.614e452ce7889p-2", "0x1.ccb1dc697b0e6p-3",
            "0x1.2691a028abb7fp-3", "0x1.732a878cb07c1p-4", "0x1.ce3e2ed44a2b9p-5", "0x1.1d1d7c1e572aap-5",
            "0x1.5cf889679ded7p-6",
        ),
        (
            "0x1.db22cc60e8cd5p-3", "0x1.4c587d1858d75p-3", "0x1.bfb4b25e60360p-4", "0x1.259545cdf4904p-4",
            "0x1.7948a99e1adc2p-5", "0x1.dd56dd8e99f90p-6", "0x1.2a3fb9dc2b0d3p-6", "0x1.70fa180978ba1p-7",
            "0x1.c4b4fd44c54eap-8",
        ),
    ),
    "invpow:2": (
        (
            "0x1.df3245d30c409p-1", "0x1.b784384ae7e45p-1", "0x1.838c7d03b1775p-1", "0x1.4d038aadf0424p-1",
            "0x1.18eb1a94bb82dp-1", "0x1.d373a3e46dec2p-2", "0x1.80c5607873affp-2", "0x1.3a00dc0b4dd1bp-2",
            "0x1.fce73e7743fcfp-3",
        ),
        (
            "0x1.7727f20a0daabp-2", "0x1.5e2bacebeae26p-2", "0x1.3aaa3e8002378p-2", "0x1.132dac2cc43dfp-2",
            "0x1.d79951a9fd1e4p-3", "0x1.8dd687f4daf0dp-3", "0x1.4b7b15364214bp-3", "0x1.116e8f7149d5fp-3",
            "0x1.bf5ecd3c1f1ebp-4",
        ),
    ),
    "const:1": (
        (
            "0x1.c71c71c71c71dp-4", "0x1.e8abf6e443e9ap-5", "0x1.0b9e1796c66b1p-5", "0x1.28b6ffbe639aap-6",
            "0x1.4afd6a052bf5ap-7", "0x1.729ef105d668dp-8", "0x1.9fcddd35d1584p-9", "0x1.d2ff1c6ef7bfcp-10",
            "0x1.06680a4010668p-10",
        ),
        ("0x0.0p+0",) * 9,
    ),
    "qtable": (
        (
            "0x1.ae23dcbb7431ap-3", "0x1.abb1f1c0aba81p-4", "0x1.c43ecd7a26bcdp-5", "0x1.ec81c5d0a175ap-6",
            "0x1.1020c7b08570ep-6", "0x1.2f1d8c6eebaf1p-7", "0x1.531549dba6ab2p-8", "0x1.7c377b7ba7c96p-9",
            "0x1.aae76627f1b11p-10",
        ),
        ("0x0.0p+0",) * 9,
    ),
}
SCAN_DELAYS = {
    "invpow:1": InversePowerDelay(1.0, beta=0.5),
    "invpow:2": InversePowerDelay(2.0, beta=0.5),
    "const:1": ConstantDelay(1.0, beta=0.5),
    # a ramp, an atom of mass 1/4 at 1, a gap (1, 2) and a second ramp
    "qtable": QuantileTableDelay(us=(0.0, 0.25, 0.5, 0.5, 1.0), qs=(0.0, 1.0, 1.0, 2.0, 3.0), beta=0.5),
}


@pytest.mark.parametrize("name", SCAN_PIN)
def test_delay_scan_values_are_pinned(name):
    scan = delay_condition_scan(SCAN_DELAYS[name], half_decade_grid(100, 1_000_000))
    e_values, lemma_values = SCAN_PIN[name]
    assert [float(e).hex() for e in scan.e_values] == list(e_values)
    assert [float(v).hex() for v in scan.lemma_values] == list(lemma_values)



def test_lemma_values_take_one_scalar_survival_per_point():
    # the half-decade grid above happens to round alike either way; at n = 107, 108, 116, ... an array
    # power over the grid would move the last bit of check-delay's lemma column
    delay = InversePowerDelay(2.0, beta=0.5)
    ns = np.arange(100, 300)
    want = [n * math.log(n) * (delay.x_survival(n - 1.0) - delay.x_survival(n)) for n in ns.tolist()]
    assert estimators._lemma_values(delay, ns).tolist() == want

def test_scan_heavy_tail_inconclusive_on_short_grids():
    # U**-2 decays like n^(-1/4): over two decades that is well short of
    # the halving the verdict demands, and the scan must say so rather
    # than claim satisfaction
    scan = delay_condition_scan(InversePowerDelay(p=2.0, beta=0.5), [100, 1000, 10_000])
    assert scan.verdict == "inconclusive"
    assert np.all(np.diff(scan.e_values) < 0)  # it IS decreasing, just slowly


@pytest.mark.parametrize(
    "call",
    [
        lambda: delay_condition_scan(Uniform01Delay(beta=0.5), [2, 3.5, 10.9]),
        lambda: root_trajectories(parent_rows([STAR4]), grid=[2.5, 3.7]),
        lambda: geometric_grid(10.5),
        lambda: root_trajectories(parent_rows([STAR4]), grid=[]),
        lambda: root_trajectories(parent_rows([STAR4]), grid=[[2, 3], [3, 4]]),
    ],
    ids=["scan-fractional-sizes", "root-fractional-grid", "geometric-fractional-end", "root-empty-grid", "root-2d-grid"],
)
def test_time_grids_must_be_integers(call):
    # each was once truncated to integers, or failed with an IndexError or ValueError
    with pytest.raises(ArgumentError):
        call()


def test_scan_input_validation():
    with pytest.raises(ArgumentError):
        delay_condition_scan(ZeroDelay(beta=0.5), [100])
    with pytest.raises(ArgumentError):
        delay_condition_scan(ZeroDelay(beta=0.5), [100, 50])

