"""Plain-text run configuration: parse, render, hash."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaytree.configio import (
    build_config,
    config_hash,
    parse_config_text,
    render_config,
)
from delaytree.errors import ArgumentError
from delaytree.growth import grow
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
)

BASIC = """
# comment lines and blanks are fine
kernel.kind = affine
kernel.alpha = 0.5

delay.kind = uniform01
beta = 0.5
n_final = 1000
seed = 3
replicates = 2
"""


def test_parse_and_build():
    cfg, reps = build_config(parse_config_text(BASIC))
    assert cfg == GrowthConfig(AffineKernel(0.5), Uniform01Delay(beta=0.5), 1000, seed=3)
    assert reps == 2


def test_defaults_fill_in():
    cfg, reps = build_config(
        parse_config_text("kernel.kind = uniform\ndelay.kind = zero\nbeta = 0.5\nn_final = 50")
    )
    assert cfg.seed == 0
    assert cfg.fringe_cap == 6
    assert reps == 1


def test_unknown_key_points_at_the_line():
    text = "kernel.kind = affine\nkernel.alpha = 0\nwibble = 3\n"
    with pytest.raises(ArgumentError) as exc:
        parse_config_text(text)
    assert "wibble" in str(exc.value)
    assert "3" in str(exc.value)  # line number


def test_build_refuses_a_key_it_does_not_read():
    entries = parse_config_text(BASIC)
    entries["delay.beta"] = "0.9"  # the key is beta; were it ignored, beta would stay 0.5
    with pytest.raises(ArgumentError, match="unknown config key 'delay.beta'"):
        build_config(entries)


def test_duplicate_key_rejected():
    with pytest.raises(ArgumentError) as exc:
        parse_config_text("beta = 0.5\nbeta = 0.4\n")
    assert "beta" in str(exc.value)


def test_malformed_line_rejected():
    with pytest.raises(ArgumentError):
        parse_config_text("kernel.kind affine\n")


def test_bad_values_rejected():
    base = "delay.kind = zero\nbeta = 0.5\nn_final = 100\n"
    with pytest.raises(ArgumentError):
        build_config(parse_config_text(base + "kernel.kind = affine\nkernel.alpha = soup\n"))
    with pytest.raises(ArgumentError):
        build_config(parse_config_text(base + "kernel.kind = hyperbolic\n"))
    with pytest.raises(ArgumentError):
        build_config(
            parse_config_text("kernel.kind = uniform\ndelay.kind = warp\nbeta = 0.5\nn_final = 9\n")
        )


@pytest.mark.parametrize(
    "config",
    [
        GrowthConfig(AffineKernel(0.5), InversePowerDelay(p=2.0, beta=0.5), 5000, seed=11, fringe_cap=5),
        GrowthConfig(
            TabulatedKernel(values=(1.0, 1.5), tail=("pow", 0.5), f_star=1.0, monotone=True),
            QuantileTableDelay(us=(0.0, 0.5, 1.0), qs=(0.0, 1.0, 3.0), beta=0.4),
            100,
        ),
    ],
)
def test_render_parse_roundtrip(config):
    text = render_config(config, replicates=4)
    rebuilt, reps = build_config(parse_config_text(text))
    assert rebuilt == config
    assert reps == 4
    # canonical render: a second pass reproduces the exact same text
    assert render_config(rebuilt, replicates=4) == text


POSITIVE = st.floats(1e-3, 1e3)
UNIT_OPEN = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def kernels(draw):
    kind = draw(st.sampled_from(("uniform", "affine", "tabulated")))
    if kind == "uniform":
        return UniformKernel()
    if kind == "affine":
        return AffineKernel(draw(st.floats(0.0, 50.0)))
    values = draw(st.lists(POSITIVE, min_size=1, max_size=6))
    tail = draw(st.one_of(st.just(("const",)), st.tuples(st.just("pow"), UNIT_OPEN)))
    f_star = min(values) * draw(st.floats(0.01, 1.0))
    if draw(st.booleans()):
        values = sorted(values)
        # a power tail may still drop below a sorted table; then the flag is off
        try:
            return TabulatedKernel(tuple(values), tail, f_star, monotone=True)
        except ArgumentError:
            pass
    return TabulatedKernel(tuple(values), tail, f_star, monotone=False)


@st.composite
def delays(draw):
    beta = draw(st.floats(0.0, 1.0, exclude_max=True))
    kind = draw(st.sampled_from(("zero", "constant", "uniform01", "invpow", "pareto", "qtable")))
    if kind == "zero":
        return ZeroDelay(beta=beta)
    if kind == "constant":
        return ConstantDelay(c=draw(st.floats(0.0, 1e6)), beta=beta)
    if kind == "uniform01":
        return Uniform01Delay(beta=beta)
    if kind == "invpow":
        return InversePowerDelay(p=draw(st.floats(0.01, 20.0)), beta=beta, scale=draw(st.just(1.0) | POSITIVE))
    if kind == "pareto":
        return ParetoDelay(tail_index=draw(st.floats(0.01, 20.0)), scale=draw(POSITIVE), beta=beta)
    inner = draw(st.lists(st.floats(0.0, 1.0), max_size=5))
    us = [0.0] + sorted(inner) + [1.0]
    qs = sorted(draw(st.lists(st.floats(0.0, 1e4), min_size=len(us), max_size=len(us))))
    return QuantileTableDelay(us=tuple(us), qs=tuple(qs), beta=beta)


@st.composite
def configs(draw):
    config = GrowthConfig(
        kernel=draw(kernels()),
        delay=draw(delays()),
        n_final=draw(st.integers(2, 10**9)),
        seed=draw(st.integers(0, 2**64 - 1)),
        fringe_cap=draw(st.integers(1, 12)),
    )
    return config, draw(st.integers(1, 10**6))


@settings(max_examples=200, deadline=None)
@given(case=configs())
def test_render_parse_roundtrip_random_configs(case):
    config, replicates = case
    text = render_config(config, replicates)
    rebuilt, reps = build_config(parse_config_text(text))
    assert rebuilt == config
    assert reps == replicates
    assert render_config(rebuilt, replicates) == text


def test_config_hash_keys_on_content():
    a = GrowthConfig(AffineKernel(0.0), Uniform01Delay(beta=0.5), 1000, seed=1)
    b = GrowthConfig(AffineKernel(0.0), Uniform01Delay(beta=0.5), 1000, seed=2)
    assert config_hash(a) != config_hash(b)
    assert config_hash(a) == config_hash(a)
    assert len(config_hash(a)) == 16
    assert config_hash(a, replicates=2) != config_hash(a, replicates=3)


def test_load_config_from_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(BASIC)
    cfg, reps = build_config(parse_config_text(p.read_text()))
    assert cfg.n_final == 1000 and reps == 2


def test_pareto_is_a_spelling_of_invpow():
    # tail_index g and scale s name the law of s * U**(-1/g): the trees, the config and its echo are invpow's
    base = "kernel.kind = affine\nbeta = 0.4\nn_final = 3000\nseed = 5\n"
    pareto, _ = build_config(parse_config_text(base + "delay.kind = pareto\ndelay.tail_index = 1.5\ndelay.scale = 2\n"))
    invpow, _ = build_config(parse_config_text(base + f"delay.kind = invpow\ndelay.p = {1 / 1.5!r}\ndelay.scale = 2\n"))
    assert pareto == invpow == GrowthConfig(AffineKernel(0.0), InversePowerDelay(1 / 1.5, 0.4, scale=2.0), 3000, seed=5)
    echo = render_config(pareto)
    assert "delay.kind = invpow\n" in echo and "delay.scale = 2.0\n" in echo and "pareto" not in echo
    refed, _ = build_config(parse_config_text(echo))
    trees = [grow(config).parents for config in (pareto, invpow, refed)]
    assert all(np.array_equal(trees[0], tree) for tree in trees[1:])
    # scale 1 is the default, and is not spelled
    assert "delay.scale" not in render_config(GrowthConfig(AffineKernel(0.0), ParetoDelay(2.0), 10))
    with pytest.raises(ArgumentError, match="tail_index"):
        build_config(parse_config_text(base + "delay.kind = pareto\ndelay.tail_index = 0\n"))
