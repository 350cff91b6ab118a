"""The growth engine: trace invariants, degree views, exact sampler laws."""

import tracemalloc

import numpy as np
import pytest

from delaytree import growth
from delaytree.cli import PRESETS
from delaytree.configio import build_config, parse_config_text
from delaytree.errors import ArgumentError
from delaytree.growth import (
    _weight_degrees,
    attachment_distribution,
    deg_at,
    grow,
    sample_parent_rejection,
    thinning_distribution,
    trace_from_parents,
)
from delaytree.kernels import (
    AffineKernel,
    ConstantDelay,
    GrowthConfig,
    InversePowerDelay,
    TabulatedKernel,
    Uniform01Delay,
    UniformKernel,
    ZeroDelay,
)

AFF = AffineKernel(0.0)


def _cfg(n=400, seed=3, delay=None, kernel=AFF, **kw):
    return GrowthConfig(kernel, delay or Uniform01Delay(beta=0.5), n, seed=seed, **kw)


def test_grow_is_deterministic_in_the_seed():
    a = grow(_cfg(seed=13))
    b = grow(_cfg(seed=13))
    c = grow(_cfg(seed=14))
    np.testing.assert_array_equal(a.parents, b.parents)
    assert not np.array_equal(a.parents, c.parents)


@pytest.mark.parametrize("bad", [-1, 2**64])
def test_grow_checks_every_seed_of_a_batch(bad):
    with pytest.raises(ArgumentError, match="seed"):
        grow(_cfg(n=50), [0, 7, bad])


def test_structural_invariants():
    tr = grow(_cfg(n=600, seed=1))
    n = tr.n
    assert tr.parents[2] == 1  # second vertex has nowhere else to go
    for v in range(2, n + 1):
        assert 1 <= tr.parents[v] < v
        assert tr.parents[v] <= tr.snapshots[v] or v == 2
    for v in range(3, n + 1):
        assert 1 <= tr.snapshots[v] <= v - 1
    # every edge appears once: degree sum closes
    degs = np.bincount(tr.parents[2:], minlength=n + 1)[1:]
    degs[1:] += 1
    assert degs.sum() == 2 * (n - 1)


def test_zero_delay_sees_the_present():
    tr = grow(_cfg(n=200, seed=5, delay=ZeroDelay(beta=0.5)))
    np.testing.assert_array_equal(tr.snapshots[3:], np.arange(2, 200))


def test_huge_constant_delay_gives_a_star():
    # snapshot clamps to 1 every step, so everyone can only see the root
    tr = grow(_cfg(n=80, seed=2, delay=ConstantDelay(c=1e9, beta=0.5)))
    assert np.all(tr.parents[2:] == 1)
    assert np.all(tr.snapshots[3:] == 1)


def test_psi_closed_form_affine():
    for alpha in (0.0, 1.5):
        kern = AffineKernel(alpha)
        tr = grow(_cfg(n=300, seed=8, kernel=kern))
        psi = [kern.evaluate_array(_weight_degrees(tr.parents, m)).sum() for m in range(1, 301)]
        m = np.arange(2, 301)
        np.testing.assert_allclose(psi[1:], 2.0 * (m - 1) + alpha * m, rtol=1e-12)
        assert psi[0] == 1.0 + alpha


def test_degree_views():
    # root(1) with children 2, 3; 3 has child 4; 4 has child 5
    tr = trace_from_parents([0, 0, 1, 1, 3, 4])
    assert deg_at(tr, 1, 1) == 1
    assert deg_at(tr, 1, 2) == 2
    assert deg_at(tr, 1, 5) == 3  # 1 + two children
    assert deg_at(tr, 4, 3) == 0  # not born yet
    assert deg_at(tr, 4, 4) == 1
    assert deg_at(tr, 4, 5) == 2
    # attachment weights use the graph degree, clamped at the root
    assert _weight_degrees(tr.parents, 1).tolist() == [1]
    # the root has two children and no parent edge, 3 a parent edge and one child
    assert _weight_degrees(tr.parents, 5).tolist() == [2, 1, 2, 2, 1]


@pytest.mark.parametrize("m", (0, 6, 2.5, np.float64(3.0), "3"), ids=("zero", "past-n", "float", "np-float", "str"))
def test_snapshot_entry_points_take_integer_times_in_1_to_n(m):
    # on a 5-vertex tree, a snapshot outside 1..5 or not an integer is refused at every entry point
    tr = trace_from_parents([0, 0, 1, 1, 3, 4])
    kern = TabulatedKernel(values=(1.0, 2.0, 1.5), tail=("const",), f_star=1.0)
    calls = (
        lambda: deg_at(tr, 1, m),
        lambda: attachment_distribution(tr, m, kern),
        lambda: thinning_distribution(tr, m, kern),
        lambda: sample_parent_rejection(tr, m, kern, np.random.default_rng(0), 1),
    )
    for call in calls:
        with pytest.raises(ArgumentError, match="snapshot time"):
            call()
    # deg_at's vertex follows the same rule
    with pytest.raises(ArgumentError, match="vertex must be an integer in 1..5"):
        deg_at(tr, m, 5)
    # NumPy integers are integers, and so is a bool
    np.testing.assert_array_equal(attachment_distribution(tr, np.int64(5), kern), attachment_distribution(tr, 5, kern))
    assert deg_at(tr, 1, np.int32(5)) == deg_at(tr, True, 5) == 3
    assert deg_at(tr, np.int64(4), 5) == 2


@pytest.mark.parametrize("size", (-1, 2.0, None))
def test_rejection_draw_takes_a_count_of_draws(size):
    tr = trace_from_parents([0, 0, 1, 1, 3, 4])
    with pytest.raises(ArgumentError, match="size"):
        sample_parent_rejection(tr, 3, AFF, np.random.default_rng(0), size)
    got, rejected = sample_parent_rejection(tr, 3, AFF, np.random.default_rng(0), 0)
    assert (got.tolist(), rejected) == ([], 0)


def test_distributions_sum_to_one_and_respect_snapshot():
    tr = grow(_cfg(n=64, seed=21))
    for m in (1, 2, 5, 33, 64):
        p = attachment_distribution(tr, m, AFF)
        assert len(p) == m
        assert p.sum() == pytest.approx(1.0)
        assert np.all(p > 0)


def test_edge_trick_matches_oracle_on_grown_trees():
    for alpha in (0.0, 0.7):
        kern = AffineKernel(alpha)
        tr = grow(_cfg(n=150, seed=4, kernel=kern))
        for m in (2, 3, 50, 149):
            oracle = attachment_distribution(tr, m, kern)
            np.testing.assert_allclose(thinning_distribution(tr, m, kern), oracle, atol=1e-13)


def test_rejection_law_for_tabulated_kernel():
    kern = TabulatedKernel(values=(1.0, 1.6, 1.9, 2.0), tail=("const",), f_star=1.0, monotone=True)
    tr = grow(_cfg(n=90, seed=6, kernel=kern))
    assert tr.retries >= 0
    for m in (2, 10, 45, 90):
        np.testing.assert_allclose(
            thinning_distribution(tr, m, kern),
            attachment_distribution(tr, m, kern),
            atol=1e-13,
        )


def test_samplers_draw_from_the_exact_law():
    # empirical check on one fixed snapshot, both strategies
    from scipy import stats

    kern = AffineKernel(0.5)
    draws = 40_000
    tr = grow(_cfg(n=40, seed=30, kernel=kern))
    probs = attachment_distribution(tr, 40, kern)
    for sampler in ("edge", "rejection"):
        rng = np.random.default_rng(99)
        if sampler == "edge":
            branch, picks = rng.random(draws), rng.random(draws)
            got = growth._resolve_edge(tr.parents, tr.n + 1, np.full(draws, 40), 1.0, kern.alpha, branch, picks)
        else:
            got, _ = sample_parent_rejection(tr, 40, kern, rng, draws)
        counts = np.bincount(got, minlength=41)[1:]
        res = stats.chisquare(counts, probs * draws)
        assert res.pvalue > 1e-3, (sampler, res)


def test_rejection_draw_thins_toward_an_earlier_snapshot():
    # at m < n the draw must read snapshot degrees; the envelope's slack above f gets rejected
    from scipy import stats

    kern = TabulatedKernel(values=(1.0, 1.6, 1.9, 2.0), tail=("const",), f_star=1.0, monotone=True)
    tr = grow(_cfg(n=60, seed=31, kernel=kern))
    m, draws = 20, 40_000
    got, rejected = sample_parent_rejection(tr, m, kern, np.random.default_rng(7), draws)
    counts = np.bincount(got, minlength=m + 1)[1:]
    res = stats.chisquare(counts, attachment_distribution(tr, m, kern) * draws)
    assert res.pvalue > 1e-3, res
    assert rejected > 0


def test_rejection_draw_needs_no_monotone_kernel():
    # a table that falls after its peak and a tail below it: thinning is exact anyway
    from scipy import stats

    kern = TabulatedKernel(values=(1.0, 2.0, 1.5), tail=("const",), f_star=1.0)
    tr = grow(_cfg(n=30, seed=2, kernel=kern))
    m, draws = 10, 40_000
    got, _ = sample_parent_rejection(tr, m, kern, np.random.default_rng(0), draws)
    counts = np.bincount(got, minlength=m + 1)[1:]
    res = stats.chisquare(counts, attachment_distribution(tr, m, kern) * draws)
    assert res.pvalue > 1e-3, res
    with pytest.raises(ArgumentError):
        sample_parent_rejection(tr, tr.n + 1, kern, np.random.default_rng(0), 1)


@pytest.mark.parametrize("budget", (growth._BUDGET_MAX, 1), ids=("budget", "overflow"))
def test_thinning_blocks_draw_the_model_law(monkeypatch, budget):
    # n = 8 under const:1 has snapshots 1,1,2,2,3,4: blocks {3..6} and {7, 8}, drawn in NumPy rounds;
    # a budget of one triple per arrival sends every first rejection to the overflow draws
    import itertools

    from scipy import stats

    monkeypatch.setattr(growth, "_block_size", lambda first: 4)
    monkeypatch.setattr(growth, "_BUDGET_MAX", budget)
    blocks, thin_block = [], growth._thin_block

    def spy(parents, view, base, out, ms, *args):
        blocks.append(len(ms))
        return thin_block(parents, view, base, out, ms, *args)

    monkeypatch.setattr(growth, "_thin_block", spy)
    kern = TabulatedKernel(values=(1.0, 2.0, 1.5, 1.2), tail=("const",), f_star=1.0)
    ms = (1, 1, 2, 2, 3, 4)
    law = {}
    for history in itertools.product(*[range(1, m + 1) for m in ms]):
        tr = trace_from_parents([0, 0, 1, *history])
        law[history] = np.prod([attachment_distribution(tr, m, kern)[v - 1] for m, v in zip(ms, history)])
    reps, seen, retries = 2000, dict.fromkeys(law, 0), 0
    for seed in range(reps):
        tr = grow(_cfg(n=8, seed=seed, delay=ConstantDelay(1.0, beta=0.5), kernel=kern))
        seen[tuple(tr.parents[3:].tolist())] += 1
        retries += tr.retries
    assert tuple(tr.snapshots[3:].tolist()) == ms and blocks == [4, 2] * reps
    assert retries > 0
    res = stats.chisquare(list(seen.values()), [reps * law[h] for h in seen])
    assert res.pvalue > 1e-3, res


def test_tight_envelope_keeps_rejections_rare():
    # the tabulated-growth rejection plan: a loose envelope (1, 2) rejects about 2 proposals per arrival
    kern = TabulatedKernel((1.0, 1.4, 1.7, 2.0), tail=("pow", 0.5), f_star=1.0, monotone=True)
    tr = grow(_cfg(n=20_000, seed=1, delay=InversePowerDelay(1.0, beta=0.5), kernel=kern))
    assert tr.retries / (tr.n - 2) <= 0.3, tr.retries


def test_trace_from_parents_matches_engine_bookkeeping():
    tr = grow(_cfg(n=70, seed=44, delay=ZeroDelay(beta=0.5)))
    rebuilt = trace_from_parents(tr.parents)
    assert rebuilt.n == tr.n
    np.testing.assert_array_equal(rebuilt.parents, tr.parents)
    assert rebuilt.parents is not tr.parents  # a copy, not a view of the grown tree
    # hand-built and grown trees share one representation, whatever the input dtype
    for given in (tr.parents, tr.parents.astype(np.int64), tr.parents.tolist()):
        rebuilt = trace_from_parents(given)
        assert rebuilt.parents.dtype == rebuilt.snapshots.dtype == np.int32
        np.testing.assert_array_equal(rebuilt.parents, tr.parents)


def test_trace_from_parents_rejects_bad_input():
    with pytest.raises(ArgumentError):
        trace_from_parents([0, 0, 2])  # parent from the future
    with pytest.raises(ArgumentError):
        trace_from_parents([0])
    with pytest.raises(ArgumentError):
        trace_from_parents([0, 0, 1, 5])


def test_grow_memory_is_linear_with_a_small_constant():
    # memory linear in n with a small constant: growth keeps its temporaries per block
    entries = parse_config_text(PRESETS["grid-invpow2"])
    entries["n_final"] = "200000"
    cfg, _ = build_config(entries)
    tracemalloc.start()
    try:
        grow(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the int32 tree (8 B) and the float64 delays with their draw's temporaries
    assert peak / cfg.n_final <= 32, peak / cfg.n_final


@pytest.mark.parametrize("n, seeds", [(200_000, None), (2000, list(range(8)))], ids=["one-tree", "batch-of-8"])
def test_grown_trees_keep_8_bytes_per_vertex(n, seeds):
    # a tree keeps its parents and snapshots, two int32 per vertex; its delays are dropped
    entries = parse_config_text(PRESETS["grid-invpow2"])
    entries["n_final"] = str(n)
    cfg, _ = build_config(entries)
    tracemalloc.start()
    try:
        trees = grow(cfg, seeds)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    vertices = n if seeds is None else n * len(trees)
    assert kept / vertices <= 9, kept / vertices
    for tree in [trees] if seeds is None else trees:
        assert tree.parents.dtype == tree.snapshots.dtype == np.int32


def test_uniform_kernel_growth_smoke():
    tr = grow(_cfg(n=500, seed=12, kernel=UniformKernel()))
    # uniform attachment: root degree grows like log n, far below sqrt(n)
    assert deg_at(tr, 1, 500) < 30
