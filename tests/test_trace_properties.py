"""Property tests of the parent-array trace: degree views, Psi, sampler laws."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaytree import growth
from delaytree.growth import (
    attachment_distribution,
    deg_at,
    grow,
    psi_recomputed,
    thinning_distribution,
    trace_from_parents,
    weight_degree,
)
from delaytree.kernels import (
    AffineKernel,
    ConstantDelay,
    GrowthConfig,
    InversePowerDelay,
    ParetoDelay,
    QuantileTableDelay,
    TabulatedKernel,
    Uniform01Delay,
    UniformKernel,
    ZeroDelay,
    snapshot_times,
)


@st.composite
def _parent_arrays(draw):
    n = draw(st.integers(1, 80))
    return [0, 0] + [draw(st.integers(1, v - 1)) for v in range(2, n + 1)]


@settings(max_examples=60, deadline=None)
@given(_parent_arrays())
def test_degree_views_match_a_birth_by_birth_count(parents):
    tr = trace_from_parents(parents)
    n = tr.n
    children = [0] * (n + 1)
    for m in range(1, n + 1):
        if m >= 2:
            children[parents[m]] += 1
        for v in range(1, n + 1):
            assert deg_at(tr, v, m) == (1 + children[v] if v <= m else 0)
            if v <= m:
                expected = max(children[v], 1) if v == 1 else children[v] + 1
                assert weight_degree(tr, v, m) == expected


@settings(max_examples=60, deadline=None)
@given(_parent_arrays(), st.floats(0.0, 5.0))
def test_psi_is_the_affine_closed_form(parents, alpha):
    tr, kernel = trace_from_parents(parents), AffineKernel(alpha)
    for m in range(2, tr.n + 1):
        assert np.isclose(psi_recomputed(tr, m, kernel), 2.0 * (m - 1) + alpha * m, rtol=1e-12, atol=0.0)
    assert psi_recomputed(tr, 1, kernel) == 1.0 + alpha


KERNELS = (
    UniformKernel(),
    AffineKernel(0.0),
    AffineKernel(1.3),
    TabulatedKernel((1.0, 1.4, 1.7, 2.0), tail=("pow", 0.5), f_star=1.0, monotone=True),
    TabulatedKernel((1.0, 2.0, 1.5, 1.2), tail=("const",), f_star=1.0),
)
# ---------------------------------------------------------------------------
# Edge sampler: the block resolver against the per-arrival scalar draw
# ---------------------------------------------------------------------------


def _scalar_edge_draw(parents, m, slope, alpha, branch, pick):
    """One endpoint-list draw over Python scalars, arrival by arrival."""
    if m == 1:
        return 1
    top = 2 * (m - 1)
    if branch * (slope * top + m * alpha) < m * alpha:
        return min(int(pick * m), m - 1) + 1
    e = min(int(pick * top), top - 1)
    k = e // 2 + 2
    return k if e & 1 else int(parents[k])


class _Tape:
    """Stands in for a Generator: ``random(size)`` or ``random(out=row)`` hands out the next values of a list."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None, out=None):
        size = len(out) if out is not None else size
        got, self.values = np.array(self.values[:size]), self.values[size:]
        if out is None:
            return got
        out[:] = got
        return out


# (slope, alpha) of the edge kernels: uniform-like, proportional, affine
LINEAR_BOUNDS = ((0.0, 1.0), (0.0, 2.5), (1.0, 0.0), (1.0, 1.3))
_UNIFORMS = st.one_of(st.sampled_from((0.0, 0.5, 1.0 - 2.0**-53)), st.floats(0.0, 1.0, exclude_max=True))


@st.composite
def _edge_histories(draw, n=None, bound=None):
    n = draw(st.integers(3, 70)) if n is None else n
    ms = [draw(st.one_of(st.just(1), st.just(k - 1), st.integers(1, k - 1))) for k in range(3, n + 1)]
    slope, alpha = draw(st.sampled_from(LINEAR_BOUNDS)) if bound is None else bound
    draws = 2 * len(ms) if slope and alpha > 0.0 else len(ms)
    return n, ms, slope, alpha, draw(st.lists(_UNIFORMS, min_size=draws, max_size=draws))


@st.composite
def _edge_batches(draw):
    """One to three histories of one tree size and one kernel, to grow as rows of one array."""
    first = draw(_edge_histories())
    n, _, slope, alpha, _ = first
    return [first, *draw(st.lists(_edge_histories(n, (slope, alpha)), max_size=2))]


# a 7-arrival block makes copy chains cross many column blocks; a 210-arrival
# block holds all three rows of any batch, so chains run within a row band
@settings(max_examples=200, deadline=None)
@given(_edge_batches(), st.sampled_from((7, 210)))
def test_block_resolver_matches_the_per_arrival_loop(batch, block):
    n, _, slope, alpha, _ = batch[0]
    expected = np.zeros((len(batch), n + 1), dtype=np.int64)
    expected[:, 2] = 1
    for row, (_, ms, _, _, uniforms) in zip(expected, batch):
        steps = len(ms)
        branch = uniforms[:steps] if len(uniforms) > steps else [0.0] * steps
        for k, m, b, u in zip(range(3, n + 1), ms, branch, uniforms[-steps:]):
            row[k] = _scalar_edge_draw(row, m, slope, alpha, b, u)

    parents = np.zeros_like(expected)
    parents[:, 2] = 1
    kernel = mock.Mock(linear_bound=lambda: (slope, alpha))
    tapes = [_Tape(uniforms) for *_, uniforms in batch]
    ms = np.array([ms for _, ms, *_ in batch], dtype=np.int64)
    with mock.patch.object(growth, "_EDGE_BLOCK", block):
        growth._loop_edge(parents, kernel, ms, tapes)
    assert all(tape.values == [] for tape in tapes)
    np.testing.assert_array_equal(parents, expected)


# one of each delay kind
ALL_DELAYS = (
    ZeroDelay(beta=0.5),
    ConstantDelay(c=3.0, beta=0.3),
    Uniform01Delay(beta=0.5),
    InversePowerDelay(2.0, beta=0.5),
    ParetoDelay(tail_index=1.5, scale=2.0, beta=0.4),
    QuantileTableDelay(us=(0.0, 0.5, 1.0), qs=(0.0, 1.0, 30.0), beta=0.5),
)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(KERNELS),
    st.sampled_from(ALL_DELAYS),
    st.integers(3, 150),
    st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=9),
)
def test_batch_growth_matches_growth_seed_by_seed(kernel, delay, n, seeds):
    # the uniform and affine kernels take the edge sampler, the tabulated ones rejection
    config = GrowthConfig(kernel, delay, n, seed=0)
    # with 64-arrival blocks, trees below n = 35 share blocks as rows; larger ones split into columns
    with mock.patch.object(growth, "_EDGE_BLOCK", 64):
        batch = grow(config, seeds)
        single = [grow(replace(config, seed=s)) for s in seeds]
    assert len(batch) == len(seeds)
    for got, want in zip(batch, single):
        for name in ("parents", "snapshots"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        assert (got.n, got.retries) == (want.n, want.retries)


@pytest.mark.parametrize("kernel", (KERNELS[2], KERNELS[3]), ids=("edge", "rejection"))
@pytest.mark.parametrize("delay", ALL_DELAYS, ids=lambda delay: delay.kind)
def test_snapshots_come_from_the_first_draws(kernel, delay):
    # each tree's generator first draws its n - 2 delays, which set the snapshots
    n, seeds = 150, (0, 7, 2**64 - 1)
    for seed, trace in zip(seeds, grow(GrowthConfig(kernel, delay, n), seeds)):
        delays = delay.sample_many(np.random.default_rng(seed), n - 2)
        np.testing.assert_array_equal(trace.snapshots[3:], snapshot_times(np.arange(2, n), delays, delay.beta))


@settings(max_examples=100, deadline=None)
@given(_parent_arrays(), st.sampled_from((0.0, 0.7)), st.integers(0, 2**32 - 1), st.data())
def test_single_affine_draw_matches_the_scalar_draw(parents, alpha, seed, data):
    # a frozen tree: with base past n every arrival draws from final parents only
    tr = trace_from_parents(parents)
    m = data.draw(st.integers(1, tr.n))
    rng = np.random.default_rng(seed)
    branch, picks = rng.random(64) if alpha > 0.0 else np.zeros(64), rng.random(64)
    got = growth._resolve_edge(tr.parents, tr.n + 1, np.full(64, m), 1.0, alpha, branch, picks)
    expected = [_scalar_edge_draw(tr.parents, m, 1.0, alpha, b, u) for b, u in zip(branch, picks)]
    np.testing.assert_array_equal(got, expected)
    # the thinning draws propose by the same rule; accept = 0.0 takes every proposal
    view = _frozen_view(tr.parents)
    triples = iter([(b, u, 0.0) for b, u in zip(branch, picks)])
    kernel = AffineKernel(alpha)
    evaluate = kernel.evaluate
    thinned = [growth._draw_thinning(tr.parents.tolist(), view, m, 1.0, alpha, evaluate, triples) for _ in picks]
    assert thinned == [(v, 0) for v in expected]
    columns = mock.Mock(random=lambda shape: np.stack([branch, picks, np.zeros(64)]))
    waved = growth._thin_wave(tr.parents, view, np.full(64, m), 1.0, alpha, kernel, columns, iter(()))
    np.testing.assert_array_equal(waved[0], expected)
    assert waved[1] == 0


# ---------------------------------------------------------------------------
# The degree view: counts, searches of the sorted key and sibling walks
# ---------------------------------------------------------------------------


def _frozen_view(parents):
    view = growth._DegreeView(len(parents))
    view.extend(parents, 2, len(parents))
    view.rebuild(parents, len(parents))
    return view


def _check_degree_view(parents, ratio, batch) -> set:
    """Grow a degree view arrival by arrival and query it at every P, m < P and v <= m.

    ``batch(first, p)`` says how far past ``first`` to add with one
    ``extend``; the rest of the arrivals below P go in one ``add`` at a
    time.  Returns the branches the queries took.
    """
    parents = np.asarray(parents, dtype=np.int64)
    n = len(parents) - 1
    want = [growth._weight_degrees(parents, m) for m in range(1, n + 1)]
    view = growth._DegreeView(n + 1)
    first, branches = 2, set()
    with mock.patch.object(growth, "_REBUILD", ratio):
        for p in range(3, n + 2):
            upto = batch(first, p)
            view.extend(parents, first, upto)
            for k in range(upto, p):
                view.add(k, int(parents[k]))
            first = p
            view.refresh(parents, p)
            ms = np.concatenate([np.full(m, m) for m in range(1, p)])
            vs = np.concatenate([np.arange(1, m + 1) for m in range(1, p)])
            np.testing.assert_array_equal(view.degrees(vs, ms), np.concatenate(want[: p - 1]))
            for m in range(2, p):
                assert [view.children(v, m) + (v != 1) for v in range(1, m + 1)] == want[m - 1].tolist()
            late = view.last[vs] > ms
            branches |= {"count"} if (~late).any() else set()
            branches |= {"search"} if (late & (ms < view.frozen)).any() else set()
            branches |= {"walk"} if (late & (ms >= view.frozen)).any() else set()
    return branches


@settings(max_examples=60, deadline=None)
@given(_parent_arrays(), st.sampled_from((1, 2, 10**9)), st.data())
def test_degree_view_matches_the_snapshot_degrees(parents, ratio, data):
    # ratio 1 rebuilds the sorted key at every P, 2 is the default, 10**9 never rebuilds it
    _check_degree_view(parents, ratio, lambda first, p: data.draw(st.integers(first, p)))


def test_degree_view_takes_every_branch():
    # a star: every late query is the root's, answered by a search or a walk
    star = [0, 0] + [1] * 39
    assert _check_degree_view(star, 2, lambda first, p: first) == {"count", "search", "walk"}
    assert _check_degree_view(star, 10**9, lambda first, p: p) == {"count", "walk"}
    assert _check_degree_view(star, 1, lambda first, p: (first + p) // 2) == {"count", "search"}


# ---------------------------------------------------------------------------
# The affine envelope and the thinning law, on random kernels
# ---------------------------------------------------------------------------


@st.composite
def _tabulated_kernels(draw):
    values = draw(st.lists(st.floats(0.1, 10.0), min_size=1, max_size=6))
    tail = draw(st.one_of(st.just(("const",)), st.tuples(st.just("pow"), st.floats(0.05, 0.95))))
    return TabulatedKernel(tuple(values), tail=tail, f_star=min(values))


@settings(max_examples=200, deadline=None)
@given(_tabulated_kernels())
def test_linear_bound_is_a_touching_envelope(kernel):
    a, b = kernel.linear_bound()
    assert a >= 0.0 and b >= 0.0
    ks = np.arange(1, 10_001)
    envelope = a * ks + b
    gap = envelope - kernel.evaluate_array(ks)
    tol = 1e-12 * np.maximum(envelope, 1.0)
    assert np.all(gap >= -tol), gap.min()
    assert np.any(gap <= tol), gap.min()  # it touches f, so no smaller b would do


@settings(max_examples=100, deadline=None)
@given(_parent_arrays(), st.one_of(st.sampled_from(KERNELS), _tabulated_kernels()))
def test_thinning_law_is_the_attachment_law(parents, kernel):
    tr = trace_from_parents(parents)
    for m in range(1, tr.n + 1):
        np.testing.assert_allclose(
            thinning_distribution(tr, m, kernel), attachment_distribution(tr, m, kernel), rtol=0.0, atol=1e-12
        )
