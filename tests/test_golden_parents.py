"""Golden digests of grown trees: both samplers reproduce their parents bit for bit.

The digests are SHA-256 over ``grow(cfg).parents`` as little-endian int64,
next to the rejected proposals ``retries``.  A sampler change that alters a
single parent, or the order in which random numbers are drawn, fails here;
a change that keeps the law but not the draws needs an exactness argument
and new digests (see ROADMAP, "Correctness and robustness").

The edge configs use n > 2 * _EDGE_BLOCK + 3, so the tree spans at least
three growth blocks and copy pointers cross block boundaries.  Every
rejection config draws its first arrivals one at a time and the rest in
NumPy thinning blocks; the largest passes 2**17 vertices, where the
thinning's (vertex, birth) keys no longer fit in 32 bits.
"""

import hashlib

import numpy as np
import pytest

from delaytree import growth
from delaytree.growth import grow
from delaytree.kernels import (
    AffineKernel,
    GrowthConfig,
    InversePowerDelay,
    TabulatedKernel,
    Uniform01Delay,
    UniformKernel,
    ZeroDelay,
)

N_EDGE = 140_000

KERNELS = {"uniform": UniformKernel(), "affine0": AffineKernel(0.0), "affine1.3": AffineKernel(1.3)}
DELAYS = {
    "zero": ZeroDelay(beta=0.5),
    "uniform01": Uniform01Delay(beta=0.5),
    "invpow2": InversePowerDelay(2.0, beta=0.5),
}

EDGE_GOLDEN = {
    ("uniform", "zero", 1): ("bf20cbe43384e66b170fb37cbdc07c72e807b8e63b30cde875fc1d96a71a0696", 0),
    ("uniform", "zero", 2): ("9f35486eada5e8578a06f232e1e8d3c79e4c1064a131736bec795d8bf13bc9e3", 0),
    ("uniform", "uniform01", 1): ("cc538e9e0110898ee52e176fce1a0255322412c900278c25ba7e4c57334df90e", 0),
    ("uniform", "uniform01", 2): ("936a1b8e9a696b9da4d8df5e777700e5ae0788ddc95264d67b39a21b6dd86355", 0),
    ("uniform", "invpow2", 1): ("22200ea9f0c20e42ecbd4d64573baea449fb9a555f8e095db017b243f435cbb2", 0),
    ("uniform", "invpow2", 2): ("6de03c12a09257804e2c5abecb65206dfad646a58ce0b1df54c7f9ca4f354b0a", 0),
    ("affine0", "zero", 1): ("f385cd1fc96e517a8ba7bfc53cbb9443e20e71f01ca57e9ada00a2f9a54466d5", 0),
    ("affine0", "zero", 2): ("680c28a83b7b9d605a532cf370177080e4291d0dce523da543b6795ab48dd8d6", 0),
    ("affine0", "uniform01", 1): ("3b9a35a9420397a33ac659d78d9e6fc3c14fb703a87c19d3206ac243dc4a46d9", 0),
    ("affine0", "uniform01", 2): ("a8a2745e7f8e40b4efa9132061cbf1af20c03f7f849acd607776b606de54f499", 0),
    ("affine0", "invpow2", 1): ("f320239c439e6203389cad09549a424964397f5c6073307603a1ee9d58b3f4c5", 0),
    ("affine0", "invpow2", 2): ("cfd70d75626a52faa9db1b7660e0f2e461ae43cc2b19452faa2003c0f2be79fa", 0),
    ("affine1.3", "zero", 1): ("293640c279b3c870bbf7912ad29f06fd9b44cf519a629da94db627fb02bb5f46", 0),
    ("affine1.3", "zero", 2): ("0cab551ddb376cc9280373f990bd0ad6b4a6192feb8ea784f71dc668fe102c6e", 0),
    ("affine1.3", "uniform01", 1): ("d5f009eeca135810e0b6a4224b317dad56a5d496dc2621bb8d1d41ca41f597bc", 0),
    ("affine1.3", "uniform01", 2): ("97b40af22933c73f91ab6a33c772369aa0114e8f11b7d078529a3d407b599dda", 0),
    ("affine1.3", "invpow2", 1): ("0c4987bd15231ffc49100e752553fbc3139d3d17b0cef12cfcabb5d3f3b87159", 0),
    ("affine1.3", "invpow2", 2): ("8411d62299c20fc4bbb1d83ca46142023c031584b7c5b6336b0ef57da59daa49", 0),
}


def _digest(parents) -> str:
    return hashlib.sha256(np.ascontiguousarray(parents, dtype="<i8").tobytes()).hexdigest()


def test_edge_configs_span_three_blocks():
    assert N_EDGE > 2 * growth._EDGE_BLOCK + 3


@pytest.mark.parametrize("key", sorted(EDGE_GOLDEN))
def test_edge_sampler_parents_are_golden(key):
    kernel, delay, seed = key
    tr = grow(GrowthConfig(KERNELS[kernel], DELAYS[delay], N_EDGE, seed=seed))
    assert (_digest(tr.parents), tr.retries) == EDGE_GOLDEN[key]


def test_rejection_sampler_parents_are_golden():
    # under uniform01, 4430 of the 4998 arrivals resolve in 10 NumPy blocks, the rest one at a time
    kern = TabulatedKernel((1.0, 1.4, 1.7, 2.0), tail=("pow", 0.5), f_star=1.0, monotone=True)
    tr = grow(GrowthConfig(kern, DELAYS["uniform01"], 5000, seed=1))
    assert (_digest(tr.parents), tr.retries) == (
        "f68f530d580846874ffaaba3344b395d19157cf55f746be79694ad4f1d173e6f",
        304,
    )


def test_rejection_blocks_parents_are_golden():
    # under invpow:1, 19 430 of the 19 998 arrivals resolve in 16 NumPy blocks
    kern = TabulatedKernel((1.0, 1.4, 1.7, 2.0), tail=("pow", 0.5), f_star=1.0, monotone=True)
    tr = grow(GrowthConfig(kern, InversePowerDelay(1.0, beta=0.5), 20_000, seed=1))
    assert (_digest(tr.parents), tr.retries) == (
        "ea1dad7ecd80c537c9447e798ab124c2d27ff7264b3f38b18d69ac2183e0ee76",
        1316,
    )


def test_large_rejection_tree_parents_are_golden():
    # the tabulated-growth benchmark's rejection config at n = 3e5: a vertex id shifted or multiplied
    # into a key past 2**31 must be widened first, or the searches miscount degrees and the tree changes
    kern = TabulatedKernel((1.0, 1.4, 1.7, 2.0), tail=("pow", 0.5), f_star=1.0, monotone=True)
    tr = grow(GrowthConfig(kern, InversePowerDelay(1.0, beta=0.5), 300_000, seed=1))
    assert (_digest(tr.parents), tr.retries) == (
        "d0402e88c8dda6a43d050f55148405edaa92abb97484ac305eee1e5971990cd6",
        18540,
    )


def test_bumpy_rejection_tree_parents_are_golden():
    # the tabulated-growth benchmark's second kernel: its table rises and falls, so about 37% of the
    # proposals are rejected (6% under the pow-tail table above), which pins the repair and overflow paths
    kern = TabulatedKernel((1.0, 2.0, 1.5, 1.2), tail=("const",), f_star=1.0)
    tr = grow(GrowthConfig(kern, DELAYS["uniform01"], 20_000, seed=1))
    assert (_digest(tr.parents), tr.retries) == (
        "6e38ba5181f8503379da692227ea1631a257ab854be267fc7415ce3040ceeac0",
        11735,
    )
