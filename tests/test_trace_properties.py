"""Property tests of the parent-array trace: degree views, Psi, sampler laws."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delaytree import growth
from delaytree.growth import (
    _weight_degrees,
    attachment_distribution,
    deg_at,
    grow,
    thinning_distribution,
    trace_from_parents,
)
from delaytree.kernels import (
    AffineKernel,
    AttachmentKernel,
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
                assert _weight_degrees(tr.parents, m)[v - 1] == expected


@settings(max_examples=60, deadline=None)
@given(_parent_arrays(), st.floats(0.0, 5.0))
def test_psi_is_the_affine_closed_form(parents, alpha):
    tr, kernel = trace_from_parents(parents), AffineKernel(alpha)
    psi = [kernel.evaluate_array(_weight_degrees(tr.parents, m)).sum() for m in range(1, tr.n + 1)]
    for m in range(2, tr.n + 1):
        assert np.isclose(psi[m - 1], 2.0 * (m - 1) + alpha * m, rtol=1e-12, atol=0.0)
    assert psi[0] == 1.0 + alpha


KERNELS = (
    UniformKernel(),
    AffineKernel(0.0),
    AffineKernel(1.3),
    TabulatedKernel((1.0, 1.4, 1.7, 2.0), tail=("pow", 0.5), f_star=1.0, monotone=True),
    TabulatedKernel((1.0, 2.0, 1.5, 1.2), tail=("const",), f_star=1.0),
)


@st.composite
def _tabulated_kernels(draw):
    values = draw(st.lists(st.floats(0.1, 10.0), min_size=1, max_size=6))
    tail = draw(st.one_of(st.just(("const",)), st.tuples(st.just("pow"), st.floats(0.05, 0.95))))
    return TabulatedKernel(tuple(values), tail=tail, f_star=min(values))


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
    """Stands in for a Generator: ``random(size)`` or ``random(out=row)`` hands out the next values of a list.

    ``ahead(count)`` is a tape over the same list from ``count`` values
    further on, as ``growth._ahead`` is a generator ahead of its own;
    ``reads[i]`` counts the times value i was handed out, by any tape.
    """

    def __init__(self, values, at=0, reads=None):
        self.values, self.at = list(values), at
        self.reads = [0] * len(self.values) if reads is None else reads

    def random(self, size=None, out=None):
        size = len(out) if out is not None else size
        assert self.at + size <= len(self.values), "read past the end of the tape"
        got = np.array(self.values[self.at : self.at + size])
        for i in range(self.at, self.at + size):
            self.reads[i] += 1
        self.at += size
        if out is None:
            return got
        out[:] = got
        return out

    def ahead(self, count):
        return _Tape(self.values, self.at + count, self.reads)


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
    # at beta = 0 arrival k reads snapshot floor(k - 1 - xi), so the delay k - 1 - m sets m;
    # each tape holds its row's delays and then its uniforms
    delay = mock.Mock(beta=0.0, sample_many=lambda tape, size: tape.random(size))
    tapes = [_Tape([k - 1.0 - m for k, m in zip(range(3, n + 1), ms)] + uniforms) for _, ms, _, _, uniforms in batch]
    snaps = np.zeros((len(batch), n - 2), dtype=np.int32)
    with mock.patch.multiple(growth, _EDGE_BLOCK=block, _ahead=_Tape.ahead):
        growth._snapshots(snaps, delay, tapes)
        growth._loop_edge(parents, kernel, snaps, tapes)
    assert all(tape.reads == [1] * len(tape.values) for tape in tapes)  # every value drawn, and once
    np.testing.assert_array_equal(snaps, [ms for _, ms, *_ in batch])
    np.testing.assert_array_equal(parents, expected)


# ---------------------------------------------------------------------------
# Rejection sampler: thinning blocks against the per-arrival loop
# ---------------------------------------------------------------------------


def _reference_thinning(n, ms, kernel, rng):
    """Thinning parents and rejected proposals of arrivals 3..n, drawn one arrival at a time.

    The uniforms come from ``rng`` laid out as the sampler lays them out:
    each block of arrivals draws ``rng.random((rows, width, size))``, arrival
    i of the block owns column i slot by slot, and an arrival past its
    budget draws ``rng.random((rows, width))`` chunks.  Without a branch row
    the branch is 0.  Degrees are counted from the parents themselves.
    """
    slope, alpha = kernel.linear_bound()
    rows = 3 if slope and alpha else 2
    parents = [0, 0, 1] + [0] * (n - 2)
    retries = accepted = 0
    k = 3
    while k <= n:
        size = min(growth._block_size(k), n + 1 - k)
        width = growth._budget(retries, retries + accepted, size)
        budget = rng.random((rows, width, size))
        for i in range(size):
            m = ms[k + i - 3]
            if m == 1:
                parents[k + i] = 1
                continue
            accepted += 1
            slots = list(budget[:, :, i].T)
            while True:
                if not slots:
                    slots = list(rng.random((rows, width)).T)
                *branch, pick, u = slots.pop(0)
                v = _scalar_edge_draw(parents, m, slope, alpha, branch[0] if branch else 0.0, pick)
                d = parents[2 : m + 1].count(v) + (v != 1)
                if u * (slope * d + alpha) < kernel.evaluate(d):
                    parents[k + i] = v
                    break
                retries += 1
        k += size
    return parents, retries


@st.composite
def _thinning_histories(draw):
    n = draw(st.integers(3, 60))
    ms = [draw(st.one_of(st.just(1), st.just(k - 1), st.integers(1, k - 1))) for k in range(3, n + 1)]
    return n, ms


# a table whose acceptance swings with the degree: one guessed child more or less flips many draws
SWINGING = TabulatedKernel((0.2, 5.0, 0.2), tail=("const",), f_star=0.2)


# blocks of up to 3 or 7 arrivals cross each other's snapshots; a budget of
# one or two triples sends rejections to the overflow chunks
@settings(max_examples=150, deadline=None)
@given(
    _thinning_histories(),
    st.one_of(st.sampled_from((*KERNELS, SWINGING)), _tabulated_kernels()),
    st.integers(0, 2**32 - 1),
    st.sampled_from((3, 7)),
    st.sampled_from((1, 2, 32)),
)
# an arrival that rejects its first proposal reads a second vertex, which gains a guessed child
@example((14, [2, 1, 1, 1, 1, 1, 1, 1, 1, 11, 12, 1]), SWINGING, 197, 3, 2)
# arrivals 3..6 are one-arrival blocks (P < 8), and their four rejections overflow a one-triple budget
@example((6, [2, 2, 3, 4]), SWINGING, 0, 3, 1)
def test_thinning_blocks_match_the_per_arrival_loop(history, kernel, seed, block, budget):
    n, ms = history
    parents = np.zeros(n + 1, dtype=np.int32)
    parents[2] = 1
    rng, tape = np.random.default_rng(seed), np.random.default_rng(seed)
    with mock.patch.multiple(growth, _BLOCK_MAX=block, _BUDGET_MAX=budget):
        expected, rejected = _reference_thinning(n, ms, kernel, tape)
        retries = growth._loop_rejection(parents, kernel, np.array(ms, dtype=np.int32), rng)
    assert parents.tolist() == expected
    assert retries == rejected
    assert rng.bit_generator.state == tape.bit_generator.state  # the same uniforms were drawn


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


LAYOUTS = ("bands of 2 rows", "bands of 3 rows", "column blocks", "rows of one block", "rows of a block and one")


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(KERNELS[:3]),
    st.sampled_from(ALL_DELAYS[:4]),
    st.integers(4, 120),
    st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=7),
    st.sampled_from(LAYOUTS),
    st.data(),
)
# at the tile boundary, under affine alpha = 1.3: a row of exactly one block is one tile, and a row of
# one arrival more is two, its picks drawn through _ahead
@example(KERNELS[2], ALL_DELAYS[2], 66, [0, 7, 2**64 - 1], "rows of one block", None)
@example(KERNELS[2], ALL_DELAYS[2], 66, [0, 7, 2**64 - 1], "rows of a block and one", None)
@example(KERNELS[2], ALL_DELAYS[3], 4, [5, 6], "rows of a block and one", None)
def test_band_draws_read_each_stream_at_its_offset(kernel, delay, n, seeds, layout, data):
    # a band draws its rows' streams when it starts; a row split into column blocks draws its
    # delays block by block and then its picks from a generator ahead of its branch uniforms.
    # Either way each tree equals the tree grown alone in one block; affine alpha = 1.3 draws
    # branch uniforms, zero and const delays draw no uniforms
    config = GrowthConfig(kernel, delay, n, seed=0)
    steps = n - 2
    blocks = {
        "bands of 2 rows": 2 * steps,
        "bands of 3 rows": 3 * steps,
        "rows of one block": steps,
        "rows of a block and one": steps - 1,
    }
    block = blocks.get(layout) or data.draw(st.integers(1, steps - 1), label="block")
    alone = [grow(replace(config, seed=s)) for s in seeds]
    assert steps <= growth._EDGE_BLOCK
    with mock.patch.object(growth, "_EDGE_BLOCK", block):
        batch = grow(config, seeds)
    for got, want in zip(batch, alone):
        np.testing.assert_array_equal(got.parents, want.parents)
        np.testing.assert_array_equal(got.snapshots, want.snapshots)


@pytest.mark.parametrize("kernel", (KERNELS[2], KERNELS[3]), ids=("edge", "rejection"))
@pytest.mark.parametrize("delay", ALL_DELAYS, ids=("zero", "constant", "uniform01", "invpow", "pareto", "qtable"))
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
    # the thinning draws propose by the same rule; accept = 0.0 takes every proposal, so a
    # block of one budget slot per draw suffices: without the constant term it holds no branch uniforms
    view = _frozen_view(tr.parents)
    budget = np.stack([branch, picks, np.zeros(64)] if alpha > 0.0 else [picks, np.zeros(64)])[:, None, :]
    out = np.empty(64, dtype=np.int64)
    kernel = AffineKernel(alpha)
    assert growth._thin_block(tr.parents, view, tr.n + 1, out, np.full(64, m), growth._Acceptance(kernel), budget, None) == 0
    np.testing.assert_array_equal(out, expected)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(((1.0, 0.0), (1.0, 1.3), (0.4, 0.9))),
    st.integers(1, 3),
    st.lists(st.integers(1, 12), max_size=4),
    st.integers(0, 2**32 - 1),
)
def test_frozen_reads_resolve_as_the_general_path(bound, rows, ms_row, seed):
    # base = len(parents) takes the one-gather return; the same trees padded past base take the
    # general path, whose copies all read below base.  Both are the scalar draws, in rows or in one row
    slope, alpha = bound
    rng = np.random.default_rng(seed)
    n, ms_row = 12, [1, *ms_row]
    stack = np.zeros((rows, n + 1), dtype=np.int32)
    for row in stack:
        row[2:] = [rng.integers(1, v) for v in range(2, n + 1)]
    padded = np.concatenate([stack, np.zeros((rows, len(ms_row)), dtype=np.int32)], axis=1)
    ms = np.array([ms_row] * rows)
    picks = rng.random(ms.shape)
    branch = rng.random(ms.shape) if slope and alpha else np.zeros(ms.shape)
    want = [
        [_scalar_edge_draw(tree, m, slope, alpha, b, p) for m, b, p in zip(ms_row, bs, ps)]
        for tree, bs, ps in zip(stack, branch, picks)
    ]
    mixed = slope and alpha  # else the draws take no branch
    for got in (
        growth._resolve_edge(stack, n + 1, ms, slope, alpha, branch if mixed else None, picks),
        growth._resolve_edge(padded, n + 1, ms, slope, alpha, branch if mixed else None, picks),
    ):
        np.testing.assert_array_equal(got, want)
    for got in (
        growth._resolve_edge(stack[0], n + 1, ms[0], slope, alpha, branch[0] if mixed else None, picks[0]),
        growth._resolve_edge(padded[0], n + 1, ms[0], slope, alpha, branch[0] if mixed else None, picks[0]),
    ):
        np.testing.assert_array_equal(got, want[0])


class _ScalarKernel(AttachmentKernel):
    """A kernel with only a scalar ``evaluate``: f(k) = 1 + 1/k, under the envelope 0*k + 2."""

    def evaluate(self, k: int) -> float:
        self._check_degree(k)
        return 1.0 + 1.0 / k

    def linear_bound(self) -> tuple[float, float]:
        return (0.0, 2.0)


@pytest.mark.parametrize(
    "kernel",
    (
        UniformKernel(),
        AffineKernel(1.3),
        TabulatedKernel((1.0, 2.0, 1.5, 1.2), tail=("const",), f_star=1.0),
        TabulatedKernel((1.0, 1.4, 1.7, 2.0), tail=("pow", 0.5), f_star=1.0, monotone=True),
        _ScalarKernel(),
    ),
    ids=("uniform", "affine", "tabulated-const", "tabulated-pow", "scalar-evaluate"),
)
def test_table_acceptance_is_the_direct_test(kernel):
    # the tables start at the first call's largest degree and double twice more
    acceptance, (slope, offset) = growth._Acceptance(kernel), kernel.linear_bound()
    rng = np.random.default_rng(5)
    for top in (6, 40, 3000):
        d = rng.integers(1, top + 1, 5000)
        u = rng.random(5000)
        np.testing.assert_array_equal(acceptance(d, u), u * (slope * d + offset) < kernel.evaluate_array(d))
        assert len(acceptance.env) > top


@pytest.mark.parametrize(
    "kernel, delay",
    ((KERNELS[3], InversePowerDelay(1.0, beta=0.5)), (KERNELS[4], Uniform01Delay(beta=0.5))),
    ids=("tabulated-pow", "tabulated-bumpy"),
)
def test_thinning_blocks_leave_every_mark_unset(monkeypatch, kernel, delay):
    # the readers take a vertex's mark as its first change of the round: stale marks would pend wrongly
    calls, thin_block = [], growth._thin_block

    def spy(parents, view, *args):
        got = thin_block(parents, view, *args)
        calls.append(bool((view.mark == growth._NEVER).all()))
        return got

    monkeypatch.setattr(growth, "_thin_block", spy)
    grow(GrowthConfig(kernel, delay, 3000, seed=4))
    assert len(calls) > 20 and all(calls)


@pytest.mark.parametrize("seed, largest", ((1, 12), (2, 16), (3, 14)))
def test_thinning_looks_up_no_degree_past_the_tree(monkeypatch, seed, largest):
    # an arrival not drawn yet is a child of no vertex: counted as one, the unknown guess would
    # read a degree near the block's size, and the acceptance tables would grow to it
    top, accept = [0], growth._Acceptance.__call__

    def spy(self, d, u):
        top[0] = max(top[0], int(d.max()))
        return accept(self, d, u)

    monkeypatch.setattr(growth._Acceptance, "__call__", spy)
    tr = grow(GrowthConfig(KERNELS[4], Uniform01Delay(beta=0.5), 20_000, seed=seed))
    kids = tr.child_counts()
    assert max(kids[1], kids[2:].max() + 1) == largest
    assert top[0] <= largest


# ---------------------------------------------------------------------------
# The degree view: counts, and searches of its sorted runs
# ---------------------------------------------------------------------------


def _frozen_view(parents):
    view = growth._DegreeView(len(parents))
    view.extend(parents, 2, len(parents))
    return view


def _check_degree_view(parents, batch) -> tuple[set, int]:
    """Grow a degree view arrival by arrival and query it at every P, m < P and v <= m.

    ``batch(first, p)`` says how far past ``first`` to add with one
    ``extend``; the rest of the arrivals below P go in a second one.
    Returns the branches the queries took and the most sorted runs the
    view held while it answered a late query by searches.
    """
    parents = np.asarray(parents, dtype=np.int64)
    n = len(parents) - 1
    want = [growth._weight_degrees(parents, m) for m in range(1, n + 1)]
    view = growth._DegreeView(n + 1)
    first, branches, runs = 2, set(), 0
    for p in range(3, n + 2):
        upto = batch(first, p)
        view.extend(parents, first, upto)
        view.extend(parents, upto, p)
        first = p
        ms = np.concatenate([np.full(m, m) for m in range(1, p)])
        vs = np.concatenate([np.arange(1, m + 1) for m in range(1, p)])
        np.testing.assert_array_equal(view.degrees(vs, ms), np.concatenate(want[: p - 1]))
        late = view.last[vs] > ms
        branches |= {"count"} if (~late).any() else set()
        if late.any():
            branches.add("search")
            runs = max(runs, len(view.bounds) - 1)
    return branches, runs


@settings(max_examples=60, deadline=None)
@given(_parent_arrays(), st.data())
def test_degree_view_matches_the_snapshot_degrees(parents, data):
    _check_degree_view(parents, lambda first, p: data.draw(st.integers(first, p)))


def test_degree_view_takes_every_branch():
    # a star: every late query is the root's, answered by searches of every run; one arrival
    # per run, merged as a binary counter, leaves five runs after 31 arrivals
    star = [0, 0] + [1] * 39
    branches, runs = _check_degree_view(star, lambda first, p: first)
    assert branches == {"count", "search"} and runs >= 2


# ---------------------------------------------------------------------------
# The affine envelope and the thinning law, on random kernels
# ---------------------------------------------------------------------------


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
