"""Attachment kernels, delay laws, snapshot clamping, config validation."""

import math

import numpy as np
import pytest
from scipy import integrate

from delaytree.errors import ArgumentError
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

NAN, INF = float("nan"), float("inf")


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def test_uniform_kernel_is_flat():
    k = UniformKernel()
    assert k.evaluate(1) == 1.0
    assert k.evaluate(37) == 1.0
    np.testing.assert_array_equal(k.evaluate_array(np.arange(1, 9)), np.ones(8))
    assert k.sup_value() == 1.0
    a, b = k.linear_bound()
    assert a == 0.0 and b >= 1.0


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
def test_affine_kernel_values(alpha):
    k = AffineKernel(alpha)
    assert k.evaluate(1) == 1.0 + alpha
    assert k.evaluate(5) == 5.0 + alpha
    assert k.f_star == 1.0 + alpha
    got = k.evaluate_array(np.array([1, 2, 3]))
    np.testing.assert_allclose(got, np.array([1, 2, 3]) + alpha)


def test_affine_kernel_rejects_bad_alpha():
    with pytest.raises(ArgumentError):
        AffineKernel(-0.5)
    with pytest.raises(ArgumentError):
        AffineKernel(float("nan"))
    AffineKernel(0.0)


def test_degree_must_be_positive():
    with pytest.raises(ArgumentError):
        UniformKernel().evaluate(0)
    with pytest.raises(ArgumentError):
        AffineKernel(1.0).evaluate(-3)


def test_tabulated_kernel_const_tail():
    k = TabulatedKernel(values=(1.0, 2.0, 2.0), tail=("const",), f_star=1.0, monotone=True)
    assert k.evaluate(2) == 2.0
    assert k.evaluate(50) == 2.0  # tail holds the last value
    assert k.sup_value() == 2.0
    np.testing.assert_allclose(k.evaluate_array(np.array([1, 3, 9])), [1.0, 2.0, 2.0])


def test_tabulated_kernel_pow_tail():
    k = TabulatedKernel(values=(1.0, 1.5), tail=("pow", 0.5), f_star=1.0, monotone=True)
    assert k.evaluate(2) == 1.5
    assert k.evaluate(9) == pytest.approx(3.0)
    assert k.sup_value() is None  # unbounded tail
    slope, intercept = k.linear_bound()
    ks = np.arange(1, 40)
    assert np.all(k.evaluate_array(ks) <= slope * ks + intercept + 1e-12)


def test_tabulated_kernel_validation():
    # flags are contracts, not hints: they must be explicit and consistent
    with pytest.raises(ArgumentError):
        TabulatedKernel(values=(1.0, 2.0), tail=("const",))
    with pytest.raises(ArgumentError):
        TabulatedKernel(values=(2.0, 1.0), tail=("const",), f_star=1.0, monotone=True)
    with pytest.raises(ArgumentError):
        TabulatedKernel(values=(1.0, -2.0), tail=("const",), f_star=1.0, monotone=False)
    with pytest.raises(ArgumentError):
        TabulatedKernel(values=(1.0,), tail=("pow", 1.5), f_star=1.0, monotone=False)
    with pytest.raises(ArgumentError):
        TabulatedKernel(values=(1.0, 2.0), tail=("const",), f_star=3.0, monotone=True)
    with pytest.raises(ArgumentError):
        # tail k**0.5 dips below the table top at k = len+1 -> not monotone
        TabulatedKernel(values=(1.0, 4.0), tail=("pow", 0.5), f_star=1.0, monotone=True)
    # a malformed tail rule is refused at the boundary, not by an IndexError or TypeError
    for tail in ((), None, ("pow", "0.5"), ("const", 99)):
        with pytest.raises(ArgumentError, match="tail rule"):
            TabulatedKernel(values=(1.0, 2.0), tail=tail, f_star=1.0)


# ---------------------------------------------------------------------------
# snapshot clock
# ---------------------------------------------------------------------------


def snapshot_time(n: int, xi: float, beta: float) -> int:
    """Scalar reference for snapshot_times: max(floor(n - n**beta * xi), 1)."""
    assert n >= 1 and xi >= 0.0 and 0.0 <= beta < 1.0
    return max(math.floor(n - float(n) ** beta * xi), 1)


def test_snapshot_time_basic():
    cases = [
        (100, 0.0, 0.5, 100),
        (100, 2.5, 0.5, 75),  # 100 - 10*2.5
        (100, 1e9, 0.5, 1),  # clamped at the root era
        (7, 0.3, 0.0, 6),  # beta=0: floor(7 - 0.3)
    ]
    for n, xi, beta, want in cases:
        assert snapshot_time(n, xi, beta) == want
        assert snapshot_times(np.array([n]), np.array([xi]), beta).tolist() == [want]


def test_snapshot_time_vectorized_matches_scalar():
    rng = np.random.default_rng(5)
    ns = rng.integers(2, 10_000, size=300)
    xis = rng.exponential(3.0, size=300)
    beta = 0.4
    got = snapshot_times(ns, xis, beta)
    want = np.array([snapshot_time(int(n), float(x), beta) for n, x in zip(ns, xis)])
    np.testing.assert_array_equal(got, want)
    assert got.min() >= 1


def test_snapshot_times_write_into_an_integer_array():
    # with out, float64 delays serve as scratch space; integer delays are converted first
    ns = np.arange(2, 302)
    for xis in (np.random.default_rng(5).exponential(3.0, size=300), np.arange(300) % 7):
        want = [snapshot_time(int(n), float(x), 0.4) for n, x in zip(ns, xis)]
        out = np.zeros(300, dtype=np.int32)
        assert snapshot_times(ns, xis.copy(), 0.4, out=out) is out
        assert out.tolist() == want


# ---------------------------------------------------------------------------
# delay laws
# ---------------------------------------------------------------------------


def _partial_mean_by_quadrature(delay, a, b):
    # E[xi; a < xi <= b] = int_a^b S + a S(a) - b S(b) for continuous laws
    val, _ = integrate.quad(delay.survival, a, b, limit=200)
    return val + a * delay.survival(a) - b * delay.survival(b)


@pytest.mark.parametrize(
    "delay",
    [
        Uniform01Delay(beta=0.5),
        InversePowerDelay(p=1.0, beta=0.5),
        InversePowerDelay(p=2.0, beta=0.5),
        InversePowerDelay(p=3.0, beta=0.3),
        ParetoDelay(tail_index=2.5, scale=1.0, beta=0.5),
        ParetoDelay(tail_index=1.0, scale=2.0, beta=0.5),
        QuantileTableDelay(us=(0.0, 0.5, 1.0), qs=(0.0, 1.0, 3.0), beta=0.5),
    ],
)
def test_partial_mean_matches_quadrature(delay):
    edges = [(0.0, 0.5), (0.5, 1.0), (0.9, 4.0), (1.0, 7.5), (3.0, 50.0)]
    a = np.array([e[0] for e in edges])
    b = np.array([e[1] for e in edges])
    pm = delay.partial_mean(a, b)
    assert pm is not None
    for i, (lo, hi) in enumerate(edges):
        want = _partial_mean_by_quadrature(delay, lo, hi)
        assert pm[i] == pytest.approx(want, abs=1e-8), (delay, lo, hi)


@pytest.mark.parametrize(
    "delay",
    [
        ZeroDelay(beta=0.5),
        ConstantDelay(c=1.5, beta=0.5),
        Uniform01Delay(beta=0.5),
        InversePowerDelay(p=2.0, beta=0.5),
        ParetoDelay(tail_index=1.5, scale=2.0, beta=0.4),
        QuantileTableDelay(us=(0.0, 0.25, 0.5, 0.5, 1.0), qs=(0.0, 1.0, 1.0, 2.0, 3.0), beta=0.5),
    ],
    ids=("zero", "constant", "uniform01", "invpow", "pareto", "qtable"),
)
def test_survival_takes_arrays(delay):
    xs = np.array([[-1.0, 0.0, 0.5, 1.0], [1.5, 2.0, 3.0, 40.0]])
    got = delay.survival(xs)
    assert got.shape == xs.shape
    np.testing.assert_allclose(got, [[delay.survival(x) for x in row] for row in xs.tolist()], rtol=1e-15, atol=0.0)
    grid = delay.survival(np.linspace(-1.0, 50.0, 2001))
    assert grid[0] == 1.0 and np.all(np.diff(grid) <= 0.0) and grid[-1] >= 0.0


def test_pareto_is_an_inverse_power_law_with_a_scale():
    d = ParetoDelay(tail_index=1.5, scale=2.0, beta=0.4)
    assert d == InversePowerDelay(p=1 / 1.5, beta=0.4, scale=2.0)
    assert d.survival(8.0) == pytest.approx((2.0 / 8.0) ** 1.5, rel=1e-15) and d.survival(2.0) == 1.0
    assert d.x_tail_index() == pytest.approx(1.5 * 0.6)
    xs = d.sample_many(np.random.default_rng(4), 10_000)
    assert xs.min() >= 2.0
    assert (xs > 8.0).mean() == pytest.approx(0.125, abs=0.01)
    with pytest.raises(ArgumentError, match="scale"):
        InversePowerDelay(p=1.0, scale=0.0)


def test_zero_delay():
    d = ZeroDelay(beta=0.5)
    assert d == ConstantDelay(c=0.0, beta=0.5)
    assert d.survival(0.0) == 0.0
    assert d.survival(-1.0) == 1.0
    np.testing.assert_array_equal(d.sample_many(np.random.default_rng(0), 5), np.zeros(5))
    assert d.ex_x_truncated(1e6) == 0.0


def test_constant_delay():
    d = ConstantDelay(c=1.5, beta=0.5)
    assert d.survival(1.0) == 1.0
    assert d.survival(1.5) == 0.0
    pm = d.partial_mean(np.array([0.0, 1.4, 1.5]), np.array([1.0, 2.0, 9.0]))
    np.testing.assert_allclose(pm, [0.0, 1.5, 0.0])  # mass sits at 1.5 exactly


def test_uniform01_delay():
    d = Uniform01Delay(beta=0.5)
    assert d.survival(0.25) == 0.75
    assert d.survival(2.0) == 0.0
    xs = d.sample_many(np.random.default_rng(1), 20_000)
    assert 0.0 <= xs.min() and xs.max() <= 1.0
    assert abs(xs.mean() - 0.5) < 0.01


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_inverse_power_delay_tail(p):
    # xi = U**-p: survival x**(-1/p) on [1, inf)
    d = InversePowerDelay(p=p, beta=0.5)
    assert d.survival(0.5) == 1.0
    assert d.survival(16.0) == pytest.approx(16.0 ** (-1.0 / p))
    xs = d.sample_many(np.random.default_rng(2), 10_000)
    assert xs.min() >= 1.0
    emp = (xs > 4.0).mean()
    assert emp == pytest.approx(4.0 ** (-1.0 / p), abs=0.02)


def test_inverse_power_x_scale():
    # X = xi**(1/(1-beta)); for p=2, beta=1/2 the X-tail exponent is 1/4
    d = InversePowerDelay(p=2.0, beta=0.5)
    assert d.x_of_xi(3.0) == pytest.approx(9.0)
    assert d.x_survival(81.0) == pytest.approx(81.0 ** -0.25)
    assert d.x_tail_index() == pytest.approx(0.25)
    assert not d.x_power_moment_finite(0.5)
    assert d.x_power_moment_finite(0.2)
    # E[min(X, n)] = (4/3) n^(3/4) - 1/3 for this family
    assert d.ex_x_truncated(16.0) == pytest.approx(31.0 / 3.0)
    want, _ = integrate.quad(lambda x: min(1.0, d.x_survival(x)), 0.0, 16.0)
    assert d.ex_x_truncated(16.0) == pytest.approx(want, rel=1e-9)


class _Midpoints:
    """A stand-in generator whose uniforms are the midpoints (i + 1/2) / size of [0, 1]."""

    def random(self, size):
        return (np.arange(size) + 0.5) / size


def _ex_x_truncated_by_midpoints(delay, n, points=2_000_000):
    # E[min(X, n)] = int_0^1 min(Q(u)**(1/(1-beta)), n) du for the quantile
    # function Q of xi, which each family's inverse-transform sampler applies
    # to its uniforms; the midpoints are symmetric, so 1 - U reads them too
    xs = delay.sample_many(_Midpoints(), points)
    return float(np.minimum(xs ** (1.0 / (1.0 - delay.beta)), n).mean())


def test_ex_x_truncated_against_quadrature_more_families():
    for d in [
        Uniform01Delay(beta=0.5),
        InversePowerDelay(p=1.0, beta=0.5),
        ParetoDelay(tail_index=2.0, scale=1.0, beta=0.4),
    ]:
        n = 50.0
        want, _ = integrate.quad(lambda x: d.x_survival(x), 0.0, n, limit=300)
        assert d.ex_x_truncated(n) == pytest.approx(want, rel=1e-6), d
    # every branch of every family against a midpoint sum over the quantile
    atom_and_gap = QuantileTableDelay(us=(0.0, 0.25, 0.5, 0.5, 1.0), qs=(0.0, 1.0, 1.0, 2.0, 3.0), beta=0.5)
    for d, n in [
        (ZeroDelay(beta=0.5), 10.0),
        (ConstantDelay(c=1.5, beta=0.5), 2.0),
        (ConstantDelay(c=1.5, beta=0.5), 10.0),
        (Uniform01Delay(beta=0.5), 0.5),
        (Uniform01Delay(beta=0.3), 0.2),
        (InversePowerDelay(p=0.5, beta=0.5), 40.0),  # gamma = 1
        (InversePowerDelay(p=1.0, beta=0.5, scale=4.0), 3.0),  # n below x0 = 16
        (InversePowerDelay(p=1.0, beta=0.5, scale=4.0), 100.0),
        (atom_and_gap, 5.0),
        (atom_and_gap, 50.0),
        (QuantileTableDelay(us=(0.0, 0.5, 1.0), qs=(0.0, 1.0, 3.0), beta=0.4), 2.0),
    ]:
        assert d.ex_x_truncated(n) == pytest.approx(_ex_x_truncated_by_midpoints(d, n), rel=1e-8), (d, n)


def test_quantile_table_delay():
    d = QuantileTableDelay(us=(0.0, 0.5, 1.0), qs=(0.0, 1.0, 3.0), beta=0.5)
    assert d.survival(1.0) == pytest.approx(0.5)
    # E[xi; xi <= 1] = int_0^0.5 2u du; E[xi; 1 < xi <= 3] = int_0.5^1 (4u - 1) du
    np.testing.assert_allclose(d.partial_mean(np.array([0.0, 1.0]), np.array([1.0, 3.0])), [0.25, 1.0])
    xs = d.sample_many(np.random.default_rng(3), 40_000)
    assert xs.max() <= 3.0
    assert abs((xs <= 1.0).mean() - 0.5) < 0.01


def test_quantile_table_validation():
    with pytest.raises(ArgumentError):
        QuantileTableDelay(us=(0.0, 1.0), qs=(1.0,), beta=0.5)
    with pytest.raises(ArgumentError):
        QuantileTableDelay(us=(0.0, 0.4), qs=(0.0, 1.0), beta=0.5)  # must reach u=1
    with pytest.raises(ArgumentError):
        QuantileTableDelay(us=(0.0, 1.0), qs=(1.0, 0.0), beta=0.5)  # decreasing q


def test_quantile_table_atom_and_gap_partial_mean():
    # a ramp 0..1 over u in [0, 0.25], an atom of mass 0.25 at 1, a gap (1, 2),
    # then a ramp 2..3 over u in [0.5, 1]
    d = QuantileTableDelay(us=(0.0, 0.25, 0.5, 0.5, 1.0), qs=(0.0, 1.0, 1.0, 2.0, 3.0), beta=0.5)
    a = np.array([-1.0, 0.0, 0.5, 1.0, 1.2, 0.0, 2.5, 0.0])
    b = np.array([0.0, 1.0, 1.0, 2.0, 1.8, 9.0, 3.0, 0.999])
    # G(x) = E[xi; xi <= x] is x^2/8 below the atom, 0.375 from 1 to 2, and 1.625 from 3 on
    want = [0.0, 0.375, 0.375 - 0.03125, 0.0, 0.0, 1.625, 1.625 - 0.9375, 0.125 * 0.999**2]
    np.testing.assert_allclose(d.partial_mean(a, b), want, rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize(
    "make",
    [
        lambda: ParetoDelay(tail_index=NAN, beta=0.5),
        lambda: ParetoDelay(tail_index=INF, beta=0.5),
        lambda: ParetoDelay(tail_index=2.0, scale=NAN, beta=0.5),
        lambda: ParetoDelay(tail_index=2.0, scale=INF, beta=0.5),
        lambda: QuantileTableDelay(us=(0.0, NAN, 1.0), qs=(0.0, 1.0, 2.0), beta=0.5),
        lambda: QuantileTableDelay(us=(0.0, 1.0), qs=(0.0, NAN), beta=0.5),
        lambda: QuantileTableDelay(us=(0.0, 1.0), qs=(0.0, INF), beta=0.5),
        lambda: TabulatedKernel(values=(1.0, 2.0), f_star=NAN),
    ],
    ids=[
        "pareto-tail_index-nan",
        "pareto-tail_index-inf",
        "pareto-scale-nan",
        "pareto-scale-inf",
        "qtable-us-nan",
        "qtable-qs-nan",
        "qtable-qs-inf",
        "tabulated-f_star-nan",
    ],
)
def test_non_finite_parameters_rejected(make):
    with pytest.raises(ArgumentError):
        make()


def test_beta_range_enforced():
    # the lookback exponent lives in [0, 1): beta = 1 would erase the
    # n - n^beta xi margin entirely
    with pytest.raises(ArgumentError):
        Uniform01Delay(beta=1.0)
    with pytest.raises(ArgumentError):
        InversePowerDelay(p=2.0, beta=-0.1)
    Uniform01Delay(beta=0.0)


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------


def test_growth_config_validation():
    kern = AffineKernel(0.0)
    delay = ZeroDelay(beta=0.5)
    with pytest.raises(ArgumentError):
        GrowthConfig(kern, delay, n_final=1)
    with pytest.raises(ArgumentError):
        GrowthConfig(kern, delay, n_final=10, seed=-1)
    with pytest.raises(ArgumentError):
        GrowthConfig(kern, delay, n_final=10, fringe_cap=0)


def test_sampler_resolution():
    delay = ZeroDelay(beta=0.5)
    tab = TabulatedKernel(values=(1.0, 2.0), tail=("const",), f_star=1.0, monotone=True)
    bumpy = TabulatedKernel(values=(2.0, 1.0, 3.0), tail=("const",), f_star=1.0, monotone=False)
    assert GrowthConfig(AffineKernel(1.0), delay, 10).resolve_sampler() == "edge"
    assert GrowthConfig(UniformKernel(), delay, 10).resolve_sampler() == "edge"
    assert GrowthConfig(tab, delay, 10).resolve_sampler() == "rejection"
    assert GrowthConfig(bumpy, delay, 10).resolve_sampler() == "rejection"
