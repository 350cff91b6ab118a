"""The benchmark's workloads: each one turns a seed into a list of plan steps.

Why each workload exists, and which layers it exercises or bypasses, is
written down in README.md next to this file.  Every delaytree function is
looked up at call time (``harness.run``, ``cli.main``), so a traced run
sees the wrapped name and an untraced run the original.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
from dataclasses import dataclass
from typing import Callable

NAMES = ("pa-census-1m", "tabulated-growth", "replicate-sweep")


def plan_seed(bench_seed: int, workload: str, plan: int) -> int:
    """64-bit plan seed derived from the benchmark seed; stable across runs."""
    digest = hashlib.sha256(f"{workload}/{plan}/{bench_seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class Step:
    """One plan: ``call()`` runs it and returns its verdict (True = ok)."""

    label: str
    call: Callable[[], bool]
    outdir: str
    replicates: int
    n: int
    statistics: tuple


def _scaled(value: int, scale: float, floor: int) -> int:
    return max(int(round(value * scale)), floor)


def _pa_census(seed: int, outroot: str, scale: float) -> list[Step]:
    from delaytree import harness
    from delaytree.cli import PRESETS
    from delaytree.configio import build_config, parse_config_text

    entries = parse_config_text(PRESETS["grid-invpow2"])
    entries["n_final"] = str(_scaled(1_000_000, scale, 100))
    entries["replicates"] = "1"
    entries["seed"] = str(plan_seed(seed, "pa-census-1m", 0))
    config, replicates = build_config(entries)
    plan = harness.ExperimentPlan(
        config=config,
        replicates=replicates,
        statistics=("degree", "fringe"),
        outdir=os.path.join(outroot, "pa"),
    )
    return [
        Step(
            "pa",
            lambda: harness.run(plan).ok,
            plan.outdir,
            plan.replicates,
            config.n_final,
            plan.statistics,
        )
    ]


def _tabulated(seed: int, outroot: str, scale: float) -> list[Step]:
    from delaytree import harness
    from delaytree.kernels import (
        GrowthConfig,
        InversePowerDelay,
        TabulatedKernel,
        Uniform01Delay,
    )

    configs = {
        # monotone table with a power tail: the rejection sampler
        "rejection": GrowthConfig(
            kernel=TabulatedKernel(
                values=(1.0, 1.4, 1.7, 2.0), tail=("pow", 0.5), f_star=1.0, monotone=True
            ),
            delay=InversePowerDelay(p=1.0, beta=0.5),
            n_final=_scaled(300_000, scale, 100),
            seed=plan_seed(seed, "tabulated-growth", 0),
        ),
        # non-monotone table: the O(n^2) scan sampler
        "scan": GrowthConfig(
            kernel=TabulatedKernel(values=(1.0, 2.0, 1.5, 1.2), tail=("const",), f_star=1.0),
            delay=Uniform01Delay(beta=0.5),
            n_final=_scaled(20_000, scale, 100),
            seed=plan_seed(seed, "tabulated-growth", 1),
        ),
    }
    steps = []
    for label, config in configs.items():
        plan = harness.ExperimentPlan(
            config=config, statistics=("degree",), outdir=os.path.join(outroot, label)
        )
        steps.append(
            Step(
                label,
                lambda plan=plan: harness.run(plan).ok,
                plan.outdir,
                plan.replicates,
                config.n_final,
                plan.statistics,
            )
        )
    return steps


def _replicate_sweep(seed: int, outroot: str, scale: float) -> list[Step]:
    from delaytree import cli

    n = _scaled(2000, scale, 50)
    replicates = _scaled(1500, scale, 4)
    outdir = os.path.join(outroot, "sweep")
    argv = [
        "simulate",
        "--preset", "grid-uniform01",
        "--set", f"n_final={n}",
        "--set", f"replicates={replicates}",
        "--set", f"seed={plan_seed(seed, 'replicate-sweep', 0)}",
        "--stats", "degree,root,clt,delay-scan",
        "--out", outdir,
    ]

    def call() -> bool:
        # the check lines cli prints are not part of the measurement
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv) == 0

    return [Step("sweep", call, outdir, replicates, n, ("degree", "root", "clt", "delay-scan"))]


_BUILDERS = {
    "pa-census-1m": _pa_census,
    "tabulated-growth": _tabulated,
    "replicate-sweep": _replicate_sweep,
}


def prepare(workload: str, seed: int, outroot: str, scale: float = 1.0) -> list[Step]:
    """Config and plan construction for one execution of ``workload``."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {NAMES}")
    return _BUILDERS[workload](seed, outroot, scale)
