"""Plain-text run configuration: parse, render, hash.

The format is one `key = value` per line with dotted keys, `#` comments,
and no sections.  Rendering is canonical (fixed key order, normalized
value spelling), so the SHA-256 of the rendered text identifies a run
configuration; every CLI invocation echoes that rendering next to its
outputs, and re-feeding the echo reproduces the run bit for bit.

Unknown keys are rejected rather than ignored: a typo in a tolerance knob
should fail loudly, not silently run with defaults.
"""

from __future__ import annotations

import hashlib

from .errors import ArgumentError
from .kernels import (
    AffineKernel,
    AttachmentKernel,
    ConstantDelay,
    DelayLaw,
    GrowthConfig,
    InversePowerDelay,
    ParetoDelay,
    QuantileTableDelay,
    TabulatedKernel,
    Uniform01Delay,
    UniformKernel,
    ZeroDelay,
    check_count,
)

__all__ = [
    "parse_config_text",
    "build_config",
    "render_config",
    "config_hash",
    "delay_from_entries",
    "int_from_entries",
    "kernel_from_entries",
]

_KNOWN_KEYS = {
    "kernel.kind",
    "kernel.alpha",
    "kernel.table",
    "kernel.tail",
    "kernel.f_star",
    "kernel.monotone",
    "delay.kind",
    "delay.c",
    "delay.p",
    "delay.tail_index",
    "delay.scale",
    "delay.us",
    "delay.qs",
    "beta",
    "n_final",
    "seed",
    "fringe_cap",
    "replicates",
}


def parse_config_text(text: str) -> dict:
    entries: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ArgumentError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ArgumentError(f"config line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ArgumentError(f"config line {lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def _get(entries: dict, key: str, default=None, required: bool = False) -> str:
    if key in entries:
        return entries[key]
    if required:
        raise ArgumentError(f"config is missing required key {key!r}")
    return default


def _floats(csv: str) -> tuple:
    try:
        return tuple(float(tok) for tok in csv.split(",") if tok.strip() != "")
    except ValueError as ex:
        raise ArgumentError(f"bad number list {csv!r}") from ex


def _float(token: str, key: str) -> float:
    try:
        return float(token)
    except (TypeError, ValueError) as ex:
        raise ArgumentError(f"{key} must be a number, got {token!r}") from ex


def _int(token: str, key: str) -> int:
    try:
        return int(token)
    except (TypeError, ValueError) as ex:
        raise ArgumentError(f"{key} must be an integer, got {token!r}") from ex


def _bool(token: str) -> bool:
    t = token.strip().lower()
    if t in ("true", "yes", "1"):
        return True
    if t in ("false", "no", "0"):
        return False
    raise ArgumentError(f"expected a boolean, got {token!r}")


def kernel_from_entries(entries: dict) -> AttachmentKernel:
    kind = _get(entries, "kernel.kind", default="affine")
    if kind == "uniform":
        return UniformKernel()
    if kind == "affine":
        return AffineKernel(alpha=_float(_get(entries, "kernel.alpha", default="0"), "kernel.alpha"))
    if kind == "tabulated":
        table = _floats(_get(entries, "kernel.table", required=True))
        tail_spec = _get(entries, "kernel.tail", default="const")
        if tail_spec == "const":
            tail: tuple = ("const",)
        elif tail_spec.startswith("pow:"):
            tail = ("pow", _float(tail_spec.split(":", 1)[1], "kernel.tail"))
        else:
            raise ArgumentError(f"kernel.tail must be 'const' or 'pow:<a>', got {tail_spec!r}")
        return TabulatedKernel(
            values=table,
            tail=tail,
            f_star=_float(_get(entries, "kernel.f_star", default=str(min(table))), "kernel.f_star"),
            monotone=_bool(_get(entries, "kernel.monotone", default="false")),
        )
    raise ArgumentError(f"unknown kernel.kind {kind!r}")


def delay_from_entries(entries: dict) -> DelayLaw:
    """The delay law of ``delay.*`` entries, carrying the lookback exponent ``beta``."""
    kind = _get(entries, "delay.kind", default="zero")
    beta = _float(_get(entries, "beta", default="0.5"), "beta")
    if kind == "zero":
        return ZeroDelay(beta=beta)
    if kind == "constant":
        return ConstantDelay(c=_float(_get(entries, "delay.c", default="1"), "delay.c"), beta=beta)
    if kind == "uniform01":
        return Uniform01Delay(beta=beta)
    if kind in ("invpow", "pareto"):
        scale = _float(_get(entries, "delay.scale", default="1"), "delay.scale")
        if kind == "pareto":  # a spelling of invpow: its echo reads invpow
            tail_index = _float(_get(entries, "delay.tail_index", required=True), "delay.tail_index")
            return ParetoDelay(tail_index=tail_index, scale=scale, beta=beta)
        return InversePowerDelay(p=_float(_get(entries, "delay.p", required=True), "delay.p"), beta=beta, scale=scale)
    if kind == "qtable":
        return QuantileTableDelay(
            us=_floats(_get(entries, "delay.us", required=True)),
            qs=_floats(_get(entries, "delay.qs", required=True)),
            beta=beta,
        )
    raise ArgumentError(f"unknown delay.kind {kind!r}")


_INT_DEFAULTS = {"seed": "0", "fringe_cap": "6", "replicates": "1"}


def int_from_entries(entries: dict, key: str) -> int:
    """The integer setting ``key``; n_final has no default."""
    default = _INT_DEFAULTS.get(key)
    return _int(_get(entries, key, default=default, required=default is None), key)


def build_config(entries: dict) -> tuple[GrowthConfig, int]:
    """(GrowthConfig, replicate count) from parsed entries; a key no config reads is refused."""
    for key in entries:
        if key not in _KNOWN_KEYS:
            raise ArgumentError(f"unknown config key {key!r}")
    config = GrowthConfig(
        kernel=kernel_from_entries(entries),
        delay=delay_from_entries(entries),
        n_final=int_from_entries(entries, "n_final"),
        seed=int_from_entries(entries, "seed"),
        fringe_cap=int_from_entries(entries, "fringe_cap"),
    )
    replicates = int_from_entries(entries, "replicates")
    check_count("replicates", replicates, 1)
    return config, replicates


def _num(x: float) -> str:
    return repr(float(x))


def render_config(config: GrowthConfig, replicates: int = 1) -> str:
    """Canonical text form; parse(render(c)) == c."""
    k = config.kernel
    lines = ["# simulation configuration", f"kernel.kind = {k.kind}"]
    if k.kind == "affine":
        lines.append(f"kernel.alpha = {_num(k.alpha)}")
    elif k.kind == "tabulated":
        lines.append("kernel.table = " + ",".join(_num(v) for v in k.values))
        tail = "const" if k.tail[0] == "const" else f"pow:{_num(k.tail[1])}"
        lines.append(f"kernel.tail = {tail}")
        lines.append(f"kernel.f_star = {_num(k.f_star)}")
        lines.append(f"kernel.monotone = {'true' if k.monotone else 'false'}")
    d = config.delay
    lines.append(f"delay.kind = {d.kind}")
    if d.kind == "constant":
        lines.append(f"delay.c = {_num(d.c)}")
    elif d.kind == "invpow":
        lines.append(f"delay.p = {_num(d.p)}")
        if d.scale != 1.0:
            lines.append(f"delay.scale = {_num(d.scale)}")
    elif d.kind == "qtable":
        lines.append("delay.us = " + ",".join(_num(u) for u in d.us))
        lines.append("delay.qs = " + ",".join(_num(q) for q in d.qs))
    lines.extend(
        [
            f"beta = {_num(config.beta)}",
            f"n_final = {config.n_final}",
            f"seed = {config.seed}",
            f"fringe_cap = {config.fringe_cap}",
            f"replicates = {replicates}",
        ]
    )
    return "\n".join(lines) + "\n"


def config_hash(config: GrowthConfig, replicates: int = 1) -> str:
    return hashlib.sha256(render_config(config, replicates).encode("utf-8")).hexdigest()[:16]
