"""Empirical statistics read off traces, and the delay-decay diagnostics."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaytree import estimators
from delaytree.canonical import shape_labels
from delaytree.errors import ArgumentError
from delaytree.estimators import (
    RootTrajectory,
    degree_hist,
    degree_hists,
    delay_condition_scan,
    extended_fringe_census,
    fringe_census,
    geometric_grid,
    half_decade_grid,
    leaf_clt_value,
    root_trajectory,
    root_trajectories,
)
from delaytree.growth import grow, trace_from_parents
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
    # a sorted int32 copy of the parents, then two int64 arrays over the vertices with children
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
    labels, _ = shape_labels(tr.parents, 4)
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
    traj = root_trajectory(star, theta=0.5, grid=[1, 4, 9, 16, 20])
    np.testing.assert_allclose(traj.values, [1, 4, 9, 16, 20])
    np.testing.assert_allclose(traj.over_ntheta, [1.0, 2.0, 3.0, 4.0, 20 / np.sqrt(20)])
    assert traj.over_truncated_mean is None
    with_ex = root_trajectory(star, theta=0.5, grid=[4, 16], ex_x=[2.0, 8.0])
    np.testing.assert_allclose(with_ex.over_truncated_mean, [2.0, 2.0])


def test_root_trajectory_validation():
    with pytest.raises(ArgumentError):
        root_trajectory(PATH4, theta=0.5, grid=[3, 2])
    with pytest.raises(ArgumentError):
        root_trajectory(PATH4, theta=0.5, grid=[1, 99])
    with pytest.raises(ArgumentError):
        root_trajectory(PATH4, theta=0.5, grid=[2, 4], ex_x=[1.0])
    with pytest.raises(ArgumentError):
        RootTrajectory(
            ns=np.array([2, 4]),
            values=np.array([5.0, 3.0]),  # the root cannot shrink
            theta=0.5,
            over_ntheta=np.array([1.0, 1.0]),
            over_truncated_mean=None,
        )


# ---------------------------------------------------------------------------
# batches of trees
# ---------------------------------------------------------------------------


def _reference_hist(parents):
    """Graph-degree histogram of one tree, counted on its own."""
    n = len(parents) - 1
    gdeg = np.bincount(parents[2:], minlength=n + 1)[1:]
    gdeg[1:] += 1
    return np.bincount(gdeg)


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
    for trace, hist in zip(traces, degree_hists(traces)):
        ref = _reference_hist(trace.parents)
        assert len(hist.counts) == len(ref)  # each row stops at its own largest degree
        np.testing.assert_array_equal(hist.counts, ref)
        assert hist.n == n
    grid = sorted(data.draw(st.sets(st.integers(1, n), min_size=1)))
    ex = data.draw(st.none() | st.lists(st.floats(0.5, 100.0), min_size=len(grid), max_size=len(grid)))
    theta = data.draw(st.sampled_from((0.0, 0.5, 0.77)))
    for trace, traj in zip(traces, root_trajectories(traces, theta, grid=grid, ex_x=ex)):
        values = _reference_root_values(trace.parents, grid)
        np.testing.assert_array_equal(traj.ns, grid)
        np.testing.assert_array_equal(traj.values, values)
        np.testing.assert_array_equal(traj.over_ntheta, values / np.asarray(grid, dtype=np.float64) ** theta)
        if ex is None:
            assert traj.over_truncated_mean is None
        else:
            np.testing.assert_array_equal(traj.over_truncated_mean, values / np.asarray(ex))
        assert traj.theta == theta


def test_batch_rows_keep_their_own_histogram_length_and_default_grid():
    star = trace_from_parents([0, 0, 1, 1, 1])  # largest degree 3
    hists = degree_hists([star, PATH4, star])
    assert [len(h.counts) for h in hists] == [4, 3, 4]
    assert [h.max_degree() for h in hists] == [degree_hist(t).max_degree() for t in (star, PATH4, star)]
    trajs = root_trajectories([PATH4, star], theta=0.5)
    for traj in trajs:
        np.testing.assert_array_equal(traj.ns, geometric_grid(4))
    np.testing.assert_array_equal(trajs[0].values, [2.0, 2.0, 2.0])
    np.testing.assert_array_equal(trajs[1].values, [2.0, 3.0, 4.0])


def test_batch_estimators_reject_bad_batches():
    with pytest.raises(ArgumentError):
        degree_hists([PATH4, trace_from_parents([0, 0, 1, 1])])  # sizes 4 and 3
    with pytest.raises(ArgumentError):
        degree_hists([])
    with pytest.raises(ArgumentError):
        root_trajectories([PATH4, trace_from_parents([0, 0, 1])], theta=0.5)
    with pytest.raises(ArgumentError):
        root_trajectories([PATH4, STAR4], theta=0.5, grid=[3, 2])
    with pytest.raises(ArgumentError):
        root_trajectories([PATH4, STAR4], theta=0.5, grid=[1, 99])
    with pytest.raises(ArgumentError):
        root_trajectories([PATH4, STAR4], theta=0.5, grid=[2, 4], ex_x=[1.0])


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


def test_scan_heavy_tail_inconclusive_on_short_grids():
    # U**-2 decays like n^(-1/4): over two decades that is well short of
    # the halving the verdict demands, and the scan must say so rather
    # than claim satisfaction
    scan = delay_condition_scan(InversePowerDelay(p=2.0, beta=0.5), [100, 1000, 10_000])
    assert scan.verdict == "inconclusive"
    assert np.all(np.diff(scan.e_values) < 0)  # it IS decreasing, just slowly


def test_scan_input_validation():
    with pytest.raises(ArgumentError):
        delay_condition_scan(ZeroDelay(beta=0.5), [100])
    with pytest.raises(ArgumentError):
        delay_condition_scan(ZeroDelay(beta=0.5), [100, 50])

