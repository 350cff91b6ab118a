"""Property tests of the parent-array trace: degree views, Psi, export/load."""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from delaytree.growth import (
    deg_at,
    export_trace,
    grow,
    load_trace,
    psi_recomputed,
    trace_from_parents,
    weight_degree,
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


@st.composite
def _parent_arrays(draw):
    n = draw(st.integers(1, 80))
    return [0, 0] + [draw(st.integers(1, v - 1)) for v in range(2, n + 1)]


@settings(max_examples=60, deadline=None)
@given(_parent_arrays())
def test_degree_views_match_a_birth_by_birth_count(parents):
    tr = trace_from_parents(parents, AffineKernel(0.0))
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
    tr = trace_from_parents(parents, AffineKernel(alpha))
    for m in range(2, tr.n + 1):
        assert np.isclose(psi_recomputed(tr, m), 2.0 * (m - 1) + alpha * m, rtol=1e-12, atol=0.0)
    assert psi_recomputed(tr, 1) == 1.0 + alpha


KERNELS = (
    UniformKernel(),
    AffineKernel(0.0),
    AffineKernel(1.3),
    TabulatedKernel((1.0, 1.4, 1.7, 2.0), tail=("pow", 0.5), f_star=1.0, monotone=True),
    TabulatedKernel((1.0, 2.0, 1.5, 1.2), tail=("const",), f_star=1.0),
)
DELAYS = (
    ZeroDelay(beta=0.5),
    Uniform01Delay(beta=0.5),
    InversePowerDelay(2.0, beta=0.5),
    ConstantDelay(c=3.0, beta=0.3),
)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(KERNELS),
    st.sampled_from(DELAYS),
    st.integers(2, 120),
    st.integers(0, 2**64 - 1),
)
def test_export_load_roundtrip_on_grown_traces(kernel, delay, n, seed):
    tr = grow(GrowthConfig(kernel, delay, n, seed=seed))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.txt")
        export_trace(tr, path, config_hash="beef")
        blob = load_trace(path)
    np.testing.assert_array_equal(blob["parents"], tr.parents)
    np.testing.assert_array_equal(blob["snapshots"], tr.snapshots)
    np.testing.assert_array_equal(blob["xis"], tr.xis)
    assert blob["header"] == {"config_hash": "beef", "n": str(n)}
