"""Attachment kernels, lookback-delay laws, and growth configuration.

The tree model grown here adds one vertex per time step.  The newcomer at
time n+1 draws a delay xi, looks at the *snapshot* of the tree as it was at
time m = max(floor(n - n**beta * xi), 1), and picks its parent among the m
vertices alive in that snapshot with probability proportional to
f(degree in the snapshot), where f is the attachment kernel.

This module owns the two ingredient families (kernels f and delay laws xi),
the snapshot-time arithmetic, and the immutable run configuration.  All
kernel and delay objects are frozen dataclasses: they are hashable, safe to
share across threads/processes, and usable as cache keys.

Degree bookkeeping convention used throughout the package: a vertex's
weight-relevant degree is its graph degree (child count, plus one for the
edge to its own parent; the root has no parent edge).  At time 1 the lone
root is assigned degree 1 by convention; this only ever affects the
normaliser Psi(1), never a sampling decision, because the time-1 snapshot
has a single vertex.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate

from .canonical import MAX_VERTICES
from .errors import ArgumentError, check_count

__all__ = [
    "AttachmentKernel",
    "UniformKernel",
    "AffineKernel",
    "TabulatedKernel",
    "DelayLaw",
    "ZeroDelay",
    "ConstantDelay",
    "Uniform01Delay",
    "InversePowerDelay",
    "ParetoDelay",
    "QuantileTableDelay",
    "GrowthConfig",
    "check_count",
    "check_seed",
    "snapshot_slabs",
    "snapshot_times",
]


# ---------------------------------------------------------------------------
# Attachment kernels
# ---------------------------------------------------------------------------


class AttachmentKernel:
    """Weight function f on degrees k = 1, 2, ...

    Subclasses must guarantee f(k) > 0 and at-most-linear growth
    f(k) <= a*k + b; the pair (a, b) is exposed through ``linear_bound``.
    It is the one envelope of the package: the series truncation in
    :mod:`delaytree.theory` certifies against it, and the rejection sampler
    in :mod:`delaytree.growth` proposes from it, so a >= 0 and b >= 0.
    """

    kind: str = "abstract"

    def evaluate(self, k: int) -> float:
        raise NotImplementedError

    def evaluate_array(self, ks: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`evaluate` over an integer degree array."""
        return np.array([self.evaluate(int(k)) for k in np.asarray(ks).ravel()])

    def linear_bound(self) -> tuple[float, float]:
        """(a, b) with f(k) <= a*k + b for every k >= 1."""
        raise NotImplementedError

    def sup_value(self) -> float | None:
        """Finite supremum of f if the kernel is bounded, else None."""
        return None

    def _check_degree(self, k: int) -> None:
        if k < 1:
            raise ArgumentError(f"kernel argument must be a degree >= 1, got {k}")


@dataclass(frozen=True)
class UniformKernel(AttachmentKernel):
    """f(k) = 1: every visible vertex is equally attractive."""

    kind: str = field(default="uniform", init=False)
    f_star: float = field(default=1.0, init=False)
    monotone: bool = field(default=True, init=False)

    def evaluate(self, k: int) -> float:
        self._check_degree(k)
        return 1.0

    def evaluate_array(self, ks: np.ndarray) -> np.ndarray:
        return np.ones(np.asarray(ks).shape)

    def linear_bound(self) -> tuple[float, float]:
        return (0.0, 1.0)

    def sup_value(self) -> float | None:
        return 1.0


@dataclass(frozen=True)
class AffineKernel(AttachmentKernel):
    """f(k) = k + alpha with alpha >= 0 (alpha = 0 is pure proportional)."""

    alpha: float
    kind: str = field(default="affine", init=False)
    monotone: bool = field(default=True, init=False)

    def __post_init__(self) -> None:
        if not (self.alpha >= 0.0) or not math.isfinite(self.alpha):
            raise ArgumentError(f"affine offset must be finite and >= 0, got {self.alpha}")

    @property
    def f_star(self) -> float:
        return 1.0 + self.alpha

    def evaluate(self, k: int) -> float:
        self._check_degree(k)
        return float(k) + self.alpha

    def evaluate_array(self, ks: np.ndarray) -> np.ndarray:
        return np.asarray(ks, dtype=np.float64) + self.alpha

    def linear_bound(self) -> tuple[float, float]:
        return (1.0, self.alpha)


@dataclass(frozen=True)
class TabulatedKernel(AttachmentKernel):
    """Explicit table f(1..K) continued by a tail rule beyond the table.

    tail is either ``("const",)`` -- f(k) = values[-1] for k > K -- or
    ``("pow", a)`` with 0 < a < 1 -- f(k) = k**a for k > K.  The minimum
    value ``f_star`` and the ``monotone`` flag must be supplied explicitly
    and are validated against the table, never inferred.  ``monotone`` is
    metadata only: every sampler is exact for every table.
    """

    values: tuple[float, ...]
    tail: tuple = ("const",)
    f_star: float = 0.0
    monotone: bool = False
    kind: str = field(default="tabulated", init=False)

    def __post_init__(self) -> None:
        if not self.values:
            raise ArgumentError("tabulated kernel needs at least one value")
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if any(v <= 0.0 or not math.isfinite(v) for v in vals):
            raise ArgumentError("tabulated kernel values must be positive and finite")
        if not isinstance(self.tail, tuple) or self.tail != ("const",) and self.tail[:1] != ("pow",):
            raise ArgumentError(f"unknown tail rule {self.tail!r}")
        if self.tail[0] == "pow":
            if len(self.tail) != 2 or not isinstance(self.tail[1], numbers.Real) or not 0.0 < self.tail[1] < 1.0:
                raise ArgumentError(f"power tail rule needs exponent a with 0 < a < 1, got {self.tail!r}")
        if not (0.0 < self.f_star < math.inf):
            raise ArgumentError(f"explicit finite f_star > 0 is required, got {self.f_star}")
        if self.f_star > min(vals) + 1e-12:
            raise ArgumentError("declared f_star exceeds the table minimum")
        if self.monotone:
            if any(b < a for a, b in zip(vals, vals[1:])):
                raise ArgumentError("monotone flag set but table values decrease")
            k_next = len(vals) + 1
            if self.evaluate(k_next) < vals[-1] - 1e-12:
                raise ArgumentError("monotone flag set but tail rule drops below the table")
        # f(k) at index k for k = 1..K (index 0 holds f(K)), read by evaluate_array
        object.__setattr__(self, "_table", np.array(vals[-1:] + vals, dtype=np.float64))
        object.__setattr__(self, "_envelope", self._tightest_envelope())

    def evaluate(self, k: int) -> float:
        self._check_degree(k)
        if k <= len(self.values):
            return self.values[k - 1]
        if self.tail[0] == "const":
            return self.values[-1]
        return float(k) ** self.tail[1]

    def evaluate_array(self, ks: np.ndarray) -> np.ndarray:
        ks = np.asarray(ks)
        if ks.dtype.kind not in "iu":
            ks = ks.astype(np.int64)
        out = self._table.take(ks, mode="clip")
        if self.tail[0] == "pow":
            over = ks > len(self.values)
            if over.any():
                out[over] = ks[over].astype(np.float64) ** self.tail[1]
        return out

    def linear_bound(self) -> tuple[float, float]:
        """The tightest certified envelope, computed once at construction."""
        return self._envelope

    def _tightest_envelope(self) -> tuple[float, float]:
        """The tightest certified envelope: (a, b) minimising 2a + b with b >= 0.

        b(a) = sup over k >= 1 of f(k) - a*k.  An envelope's mean weight per
        snapshot vertex (mean degree 2) is 2a + b(a), convex in a and least
        at the largest chord slope from (1, f(1)) to a later point; a is
        capped at sup f(k)/k, where b reaches 0, so that the endpoint
        proposal stays a mixture.  Every supremum involved is attained at a
        table point, at K + 1, or on a pow tail at the chord's integer
        maximiser, so b is exact.
        """
        pts = [(k, self.evaluate(k)) for k in range(1, len(self.values) + 2)]
        if self.tail[0] == "pow":
            k = self._tail_chord_argmax()
            pts.append((k, self.evaluate(k)))
        f1 = self.values[0]
        slope = max((fk - f1) / (k - 1) for k, fk in pts[1:])
        slope = max(0.0, min(slope, max(fk / k for k, fk in pts)))
        return (slope, max(0.0, *(fk - slope * k for k, fk in pts)))  # 0.0 absorbs rounding

    def _tail_chord_argmax(self) -> int:
        """Integer k > K maximising the chord slope (k**p - f(1)) / (k - 1).

        On reals the slope rises then falls (its derivative's numerator is
        decreasing), peaking below (f(1)/(1-p))**(1/p); so "the next slope
        is no larger" is monotone in k and bisection finds its first k.  The
        search stops at e**700, far beyond any degree a tree can reach.
        """
        p, f1 = self.tail[1], self.values[0]

        def falls(k: int) -> bool:
            return ((k + 1) ** p - f1) / k <= (k**p - f1) / (k - 1)

        lo = len(self.values) + 1
        hi = max(lo, math.ceil(math.exp(min(math.log(f1 / (1.0 - p)) / p, 700.0))))
        while lo < hi:
            mid = (lo + hi) // 2
            if falls(mid):
                hi = mid
            else:
                lo = mid + 1
        return lo

    def sup_value(self) -> float | None:
        if self.tail[0] == "const":
            return max(self.values)
        return None


# ---------------------------------------------------------------------------
# Snapshot times
# ---------------------------------------------------------------------------


def snapshot_times(ns: np.ndarray, delays: np.ndarray, beta: float, out=None) -> np.ndarray:
    """max(floor(n - n**beta * xi), 1): the snapshots the arrivals at times n+1 consult.

    The product is formed in double precision, and the clamp at 1 comes
    before the integer cast, which then floors.  The snapshots are int64,
    or are written into ``out``, an integer array of the broadcast shape;
    ``delays`` must then have that shape, and a float64 ``delays`` is
    overwritten as scratch space.
    """
    if not (0.0 <= beta < 1.0):
        raise ArgumentError(f"lookback exponent must lie in [0, 1), got {beta}")
    ns = np.asarray(ns, dtype=np.float64)
    if out is None:
        raw = np.asarray(ns**beta * np.asarray(delays, dtype=np.float64))
        out = np.empty(raw.shape, dtype=np.int64)
    else:
        raw = np.asarray(delays, dtype=np.float64)
        np.multiply(raw, ns**beta, out=raw)
    np.subtract(ns, raw, out=raw)
    np.maximum(raw, 1.0, out=raw)
    np.copyto(out, raw, casting="unsafe")  # truncation is floor at 1 and above
    return out


def snapshot_slabs(t: int, js: np.ndarray, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """The delay slabs (a, b] on which floor(t - t**beta * xi) = j, for each j of the float array ``js``.

    a = (t - j - 1) / t**beta and b = (t - j) / t**beta, with t**beta a scalar power.
    """
    tb = float(t) ** beta
    return (t - js - 1.0) / tb, (t - js) / tb


# ---------------------------------------------------------------------------
# Delay laws
# ---------------------------------------------------------------------------


class DelayLaw:
    """Law of the nonnegative delay xi, bundled with the lookback exponent.

    beta lives on the delay law because the rescaled variable
    X = xi**(1/(1-beta)) -- the horizon over which an arrival can reach back
    to time 1 -- is a joint property of the pair, and every tail diagnostic
    below is really about X.
    """

    kind: str = "abstract"
    beta: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.beta < 1.0):
            raise ArgumentError(f"lookback exponent must lie in [0, 1), got {self.beta}")

    # --- sampling -------------------------------------------------------
    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError

    # --- distribution ---------------------------------------------------
    def survival(self, x: np.ndarray) -> np.ndarray:
        """P(xi > x), elementwise over an array (a scalar x gives a 0-d result)."""
        raise NotImplementedError

    def partial_mean(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact E[xi; a < xi <= b], elementwise over interval arrays.

        Every family has this in closed form.  It is the workhorse of the
        delay-condition scan, which decomposes an expectation over the floor
        function into O(n) such slabs.
        """
        raise NotImplementedError

    def bounded_support(self) -> float | None:
        """Supremum of the support if finite, else None."""
        return None

    # --- the rescaled horizon X = xi**(1/(1-beta)) ----------------------
    def x_of_xi(self, xi: float) -> float:
        return float(xi) ** (1.0 / (1.0 - self.beta))

    def x_survival(self, x: float) -> float:
        """P(X > x) for the rescaled horizon."""
        if x < 0.0:
            return 1.0
        return self.survival(x ** (1.0 - self.beta))

    def x_tail_index(self) -> float | None:
        """gamma with P(X > x) ~ C * x**(-gamma); None when X is bounded."""
        return None

    def x_power_moment_finite(self, q: float) -> bool:
        """Whether E[X**q] < infinity (boundary cases count as infinite)."""
        gamma = self.x_tail_index()
        return gamma is None or gamma > q

    def ex_x_truncated(self, n: float) -> float:
        """E[min(X, n)], exact per family (quadrature for table laws)."""
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantDelay(DelayLaw):
    """xi = c deterministically; c = 0 is the classical model (:func:`ZeroDelay`)."""

    c: float
    beta: float = 0.5
    kind: str = field(default="constant", init=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.c < 0.0 or not math.isfinite(self.c):
            raise ArgumentError(f"constant delay must be finite and >= 0, got {self.c}")

    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.c)

    def survival(self, x: np.ndarray) -> np.ndarray:
        return np.where(np.asarray(x) < self.c, 1.0, 0.0)

    def partial_mean(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        return np.where((a < self.c) & (self.c <= b), self.c, 0.0)

    def bounded_support(self) -> float | None:
        return self.c

    def ex_x_truncated(self, n: float) -> float:
        return min(self.x_of_xi(self.c), float(n))


def ZeroDelay(beta: float = 0.5) -> ConstantDelay:
    """xi = 0, the snapshot is always the current tree (classical model): the constant law at c = 0."""
    return ConstantDelay(c=0.0, beta=beta)


@dataclass(frozen=True)
class Uniform01Delay(DelayLaw):
    """xi ~ Uniform(0, 1)."""

    beta: float = 0.5
    kind: str = field(default="uniform01", init=False)

    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.random(size)

    def survival(self, x: np.ndarray) -> np.ndarray:
        return np.clip(1.0 - np.asarray(x, dtype=np.float64), 0.0, 1.0)

    def partial_mean(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        lo = np.clip(np.asarray(a, dtype=np.float64), 0.0, 1.0)
        hi = np.clip(np.asarray(b, dtype=np.float64), 0.0, 1.0)
        return 0.5 * (hi * hi - lo * lo)

    def bounded_support(self) -> float | None:
        return 1.0

    def ex_x_truncated(self, n: float) -> float:
        # X = U**(1/(1-beta)) <= 1, so the truncation never binds for n >= 1
        r = 1.0 / (1.0 - self.beta)
        if n >= 1.0:
            return 1.0 / (r + 1.0)
        # E[min(X, n)] = n*P(X > n) + E[X; X <= n], with X <= n iff U <= n**(1/r)
        u0 = n ** (1.0 / r)
        return n * (1.0 - u0) + u0 ** (r + 1.0) / (r + 1.0)


@dataclass(frozen=True)
class InversePowerDelay(DelayLaw):
    """xi = scale * U**(-p) for U ~ Uniform(0,1): the Pareto law P(xi > x) = (x/scale)**(-1/p), x >= scale.

    Every formula is written in xi/scale, so the default scale 1 adds no
    rounding.  The rescaled horizon X = xi**(1/(1-beta)) has tail index
    gamma = (1-beta)/p, which is what separates the light- and heavy-delay
    regimes for the root's degree.
    """

    p: float
    beta: float = 0.5
    scale: float = 1.0
    kind: str = field(default="invpow", init=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.p < math.inf:
            raise ArgumentError(f"inverse-power exponent must be finite and > 0, got {self.p}")
        if not 0.0 < self.scale < math.inf:
            raise ArgumentError(f"inverse-power scale must be finite and > 0, got {self.scale}")

    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        # 1 - U lies in (0, 1], avoiding a zero base under the negative power
        xs = (1.0 - rng.random(size)) ** (-self.p)
        xs *= self.scale
        return xs

    def survival(self, x: np.ndarray) -> np.ndarray:
        r = np.asarray(x, dtype=np.float64) / self.scale
        return np.where(r <= 1.0, 1.0, np.maximum(r, 1.0) ** (-1.0 / self.p))

    def partial_mean(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        lo = np.maximum(np.asarray(a, dtype=np.float64) / self.scale, 1.0)
        hi = np.maximum(np.asarray(b, dtype=np.float64) / self.scale, 1.0)
        if abs(self.p - 1.0) < 1e-12:
            return self.scale * np.log(hi / lo)
        expo = (self.p - 1.0) / self.p
        return self.scale * (hi**expo - lo**expo) / (self.p - 1.0)

    def x_tail_index(self) -> float | None:
        return (1.0 - self.beta) / self.p

    def ex_x_truncated(self, n: float) -> float:
        # X / x0 = (xi/scale)**(1/(1-beta)) has P(X/x0 > y) = y**(-gamma) for y >= 1
        gamma = self.x_tail_index()
        x0 = self.x_of_xi(self.scale)
        y = n / x0
        if y <= 1.0:
            return float(n)
        if abs(gamma - 1.0) < 1e-12:
            return x0 * (1.0 + math.log(y))
        return x0 * (1.0 + (y ** (1.0 - gamma) - 1.0) / (1.0 - gamma))


def ParetoDelay(tail_index: float, scale: float = 1.0, beta: float = 0.5) -> InversePowerDelay:
    """The Pareto law P(xi > x) = (scale/x)**tail_index, x >= scale: the inverse-power law with p = 1/tail_index."""
    if not 0.0 < tail_index < math.inf:
        raise ArgumentError(f"pareto delay needs a finite tail_index > 0, got {tail_index}")
    return InversePowerDelay(p=1.0 / tail_index, beta=beta, scale=scale)


@dataclass(frozen=True)
class QuantileTableDelay(DelayLaw):
    """Empirical delay law given as (u, q) quantile knots.

    Sampling is inverse-transform with linear interpolation between knots.
    The first knot must sit at u = 0 and the last at u = 1, so the law is
    fully specified and has bounded support q(1).
    """

    us: tuple[float, ...]
    qs: tuple[float, ...]
    beta: float = 0.5
    kind: str = field(default="qtable", init=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        us = tuple(float(u) for u in self.us)
        qs = tuple(float(q) for q in self.qs)
        object.__setattr__(self, "us", us)
        object.__setattr__(self, "qs", qs)
        if len(us) != len(qs) or len(us) < 2:
            raise ArgumentError("quantile table needs matching u/q lists with >= 2 knots")
        if not all(map(math.isfinite, us + qs)):
            raise ArgumentError("quantile table knots must be finite")
        if us[0] != 0.0 or us[-1] != 1.0:
            raise ArgumentError("quantile table must cover u = 0 .. 1")
        if any(b < a for a, b in zip(us, us[1:])):
            raise ArgumentError("quantile table u-knots must be non-decreasing")
        if any(q < 0.0 for q in qs) or any(b < a for a, b in zip(qs, qs[1:])):
            raise ArgumentError("quantile table q-knots must be non-negative and non-decreasing")

    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.interp(rng.random(size), self.us, self.qs)

    def partial_mean(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._mean_below(b) - self._mean_below(a)

    def _mean_below(self, x: np.ndarray) -> np.ndarray:
        """G(x) = E[xi; xi <= x]: the knot segments wholly at or below x, plus part of the next.

        On segment i the quantile runs linearly from q_i to q_i + dq_i over a
        u-width w_i, and xi <= x on its first fraction t, which contributes
        w_i t (q_i + dq_i t / 2).  A flat segment is an atom at q_i and counts
        whole once x >= q_i; a zero-width segment is a gap and counts nothing.
        A zero-width sentinel after the last knot serves x >= q(1).
        """
        qs = np.array(self.qs)
        w = np.append(np.diff(self.us), 0.0)
        dq = np.append(np.diff(qs), 0.0)
        whole = np.concatenate(([0.0], np.cumsum(w * (qs + 0.5 * dq))[:-1]))
        x = np.asarray(x, dtype=np.float64)
        k = np.searchsorted(qs[1:], x, side="right")  # segments wholly at or below x
        # x < q_{k+1}, so a flat segment k lies above x and takes t = 0
        t = np.clip((x - qs[k]) / np.where(dq[k] > 0.0, dq[k], np.inf), 0.0, 1.0)
        return whole[k] + w[k] * t * (qs[k] + 0.5 * dq[k] * t)

    def survival(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        inside = 1.0 - np.interp(x, self.qs, self.us)
        return np.where(x < self.qs[0], 1.0, np.where(x >= self.qs[-1], 0.0, inside))

    def bounded_support(self) -> float | None:
        return self.qs[-1]

    def ex_x_truncated(self, n: float) -> float:
        r = 1.0 / (1.0 - self.beta)

        def integrand(u: float) -> float:
            return min(float(np.interp(u, self.us, self.qs)) ** r, float(n))

        val, _ = integrate.quad(integrand, 0.0, 1.0, points=list(self.us), limit=200, epsrel=1e-9)
        return val


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------


def check_seed(seed: int) -> int:
    """``seed`` as an int; ArgumentError unless it is an integer that fits in an unsigned 64-bit integer."""
    if not isinstance(seed, numbers.Integral) or not (0 <= seed < 2**64):
        raise ArgumentError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
    return int(seed)


@dataclass(frozen=True)
class GrowthConfig:
    """Everything a single growth run depends on.

    The kernel picks the parent sampler (:meth:`resolve_sampler`): "edge",
    the endpoint-list trick, for uniform and affine kernels, and
    "rejection", which thins an endpoint proposal from the kernel's affine
    envelope, for every other kernel.
    """

    kernel: AttachmentKernel
    delay: DelayLaw
    n_final: int
    seed: int = 0
    fringe_cap: int = 6

    def __post_init__(self) -> None:
        # NumPy integers are kept as Python ints
        n_final = check_count("n_final", self.n_final, 2)
        if n_final > MAX_VERTICES:
            raise ArgumentError(f"n_final must be below 2**31 (vertex ids are int32), got {n_final}")
        object.__setattr__(self, "n_final", n_final)
        object.__setattr__(self, "seed", check_seed(self.seed))
        object.__setattr__(self, "fringe_cap", check_count("fringe_cap", self.fringe_cap, 1))

    @property
    def beta(self) -> float:
        return self.delay.beta

    def resolve_sampler(self) -> str:
        """The sampler the kernel picks: "edge" or "rejection"."""
        return "edge" if self.kernel.kind in ("uniform", "affine") else "rejection"
