"""Command-line front end.

Subcommands: simulate, theory, fringe, rootdeg, clt, check-delay, compare.
Exit codes: 0 success (all tolerances met), 1 tolerance failure, 2 usage
error.  Every run that writes outputs also writes a canonical config echo
whose SHA-256 prefix names the run; re-feeding the echo file reproduces
the outputs byte for byte.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import theory
from .configio import (
    build_config,
    config_hash,
    delay_from_spec,
    kernel_from_entries,
    parse_config_text,
)
from .errors import ArgumentError, DelayTreeError
from .estimators import delay_condition_scan
from .harness import ExperimentPlan, run

__all__ = ["main", "PRESETS"]


def _preset(delay_lines: str) -> str:
    return (
        "kernel.kind = affine\n"
        "kernel.alpha = 0.0\n"
        + delay_lines
        + "beta = 0.5\n"
        "n_final = 50000\n"
        "seed = 0\n"
        "replicates = 20\n"
    )


# The four delay regimes of the headline simulation grid: no delay,
# uniform delay, and the two inverse-power delays with tails on either
# side of the root-degree phase boundary.
PRESETS = {
    "grid-zero": _preset("delay.kind = zero\n"),
    "grid-uniform01": _preset("delay.kind = uniform01\n"),
    "grid-invpow1": _preset("delay.kind = invpow\ndelay.p = 1.0\n"),
    "grid-invpow2": _preset("delay.kind = invpow\ndelay.p = 2.0\n"),
}


def _load_entries(args) -> dict:
    if getattr(args, "preset", None):
        text = PRESETS[args.preset]
    elif getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        raise ArgumentError("provide --config FILE or --preset NAME")
    entries = parse_config_text(text)
    for override in getattr(args, "set", []) or []:
        if "=" not in override:
            raise ArgumentError(f"--set expects KEY=VALUE, got {override!r}")
        key, value = (s.strip() for s in override.split("=", 1))
        probe = parse_config_text(f"{key} = {value}")  # validates the key
        entries.update(probe)
    return entries


def _kernel_from_args(args):
    entries = {"kernel.kind": args.kernel}
    if args.kernel == "affine":
        entries["kernel.alpha"] = str(args.alpha)
    elif args.kernel == "tabulated":
        if not args.table:
            raise ArgumentError("tabulated kernel needs --table v1,v2,...")
        entries["kernel.table"] = args.table
        entries["kernel.tail"] = args.tail
        entries["kernel.monotone"] = "true" if args.monotone else "false"
    return kernel_from_entries(entries)


def _delay_from_cli(spec: str, beta: float):
    name, _, arg = spec.partition(":")
    entries = {}
    if name in ("const", "constant"):
        entries["delay.c"] = arg or "1"
        name = "constant"
    elif name == "invpow":
        if not arg:
            raise ArgumentError("invpow delay needs an exponent: invpow:p")
        entries["delay.p"] = arg
    elif name == "pareto":
        parts = (arg or "").split(",")
        if not parts[0]:
            raise ArgumentError("pareto delay needs a tail index: pareto:g[,scale]")
        entries["delay.tail_index"] = parts[0]
        if len(parts) > 1:
            entries["delay.scale"] = parts[1]
    elif name not in ("zero", "uniform01"):
        raise ArgumentError(f"unknown delay spec {spec!r}")
    return delay_from_spec(name, entries, beta)


def _parse_ngrid(text: str) -> list:
    try:
        lo_s, hi_s = text.split("..")
        lo, hi = float(lo_s), float(hi_s)
    except ValueError as ex:
        raise ArgumentError(f"--ngrid expects LO..HI, got {text!r}") from ex
    if not (2.0 <= lo < hi):
        raise ArgumentError("--ngrid needs 2 <= LO < HI")
    grid = []
    e = math.floor(2.0 * math.log10(lo))
    while True:
        v = int(round(10.0 ** (e / 2.0)))
        if v >= lo:
            break
        e += 1
    while (v := int(round(10.0 ** (e / 2.0)))) <= hi:
        if not grid or v > grid[-1]:
            grid.append(v)
        e += 1
    if not grid or grid[0] > int(lo):
        grid.insert(0, int(lo))
    if grid[-1] < int(hi):
        grid.append(int(hi))
    return grid


def _plan_from_args(args, statistics: tuple, tolerances: dict | None = None) -> ExperimentPlan:
    entries = _load_entries(args)
    config, replicates = build_config(entries)
    return ExperimentPlan(
        config=config,
        replicates=replicates,
        statistics=statistics,
        tolerances=tolerances or {},
        outdir=args.out,
        workers=getattr(args, "workers", 1),
    )


def _print_checks(summary) -> None:
    for name, check in summary.checks.items():
        parts = [f"[{name}]"]
        for key, val in check.items():
            if key in ("ok", "informational"):
                continue
            if isinstance(val, float):
                parts.append(f"{key}={val:.6g}")
            else:
                parts.append(f"{key}={val}")
        parts.append("ok" if check["ok"] else "FAIL")
        print(" ".join(parts))
    print(f"config_hash={summary.payload['config_hash']}")


def _tol_overrides(pairs) -> dict:
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise ArgumentError(f"--tol expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        out[key.strip()] = float(value)
    return out


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    """simulate, and compare, which also prints a closing PASS/FAIL line."""
    stats = tuple(s.strip() for s in args.stats.split(",") if s.strip())
    plan = _plan_from_args(args, stats, _tol_overrides(args.tol))
    summary = run(plan)
    _print_checks(summary)
    if args.command == "compare":
        print("PASS" if summary.ok else "FAIL")
    return 0 if summary.ok else 1


def _cmd_theory(args) -> int:
    kernel = _kernel_from_args(args)
    result = theory.solve_malthusian(kernel)
    lam = result.lambda_star
    p = theory.degree_law(kernel, lam, max(args.kmax, 1))
    print(f"lambda_star={lam:g}")
    print(f"p_1={p[0]:.6f}")
    for k in range(2, args.kmax + 1):
        print(f"p_{k}={p[k - 1]:.6f}")
    return 0


def _cmd_fringe(args) -> int:
    kernel = _kernel_from_args(args)
    lam = theory.solve_malthusian(kernel).lambda_star
    table = theory.fringe_recursion(args.cap, kernel, lam)
    print(f"lambda_star={lam:g}")
    for code in sorted(table.probs, key=lambda c: (c.count("("), c)):
        print(f"{code} {table.probs[code]:.10f}")
    print(f"total_mass={table.total_mass():.10f}")
    return 0


def _cmd_rootdeg(args) -> int:
    plan = _plan_from_args(args, ("root",))
    summary = run(plan)
    r = summary.statistics["root"]
    consts = theory.root_degree_constants(
        plan.config.kernel.alpha, plan.config.beta, plan.config.delay
    )
    print(f"regime={consts.regime} theta={consts.theta:g}")
    for j, nj in enumerate(r["ns"]):
        print(f"n={int(nj)} mean_M_over_ntheta={r['mean_over_ntheta'][j]:.6f}")
    drift = r["last_octave_drift"]
    print(f"median_last_octave_drift={float(np.median(drift)):.6f}")
    return 0


def _cmd_clt(args) -> int:
    plan = _plan_from_args(args, ("clt",), _tol_overrides(args.tol))
    summary = run(plan)
    c = summary.statistics["clt"]
    print(f"replicates={plan.replicates} n={plan.config.n_final}")
    print(f"mean_s={c['mean']:.6f}")
    print(f"variance={c['variance']:.6f} sigma1_sq={c['sigma1_sq']:.6f}")
    _print_checks(summary)
    return 0 if summary.ok else 1


def _cmd_check_delay(args) -> int:
    delay = _delay_from_cli(args.delay, args.beta)
    grid = _parse_ngrid(args.ngrid)
    scan = delay_condition_scan(delay, grid, seed=args.seed)
    print("n,e_n,stderr,lemma")
    for i in range(len(scan.ns)):
        print(
            f"{int(scan.ns[i])},{scan.e_values[i]:.8g},"
            f"{scan.stderrs[i]:.3g},{scan.lemma_values[i]:.8g}"
        )
    print(f"method={scan.method}")
    print(f"verdict={scan.verdict}")
    return 0 if scan.verdict == "satisfied" else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_config_args(sp) -> None:
    sp.add_argument("--config", help="path to a key = value config file")
    sp.add_argument("--preset", choices=sorted(PRESETS), help="named built-in config")
    sp.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
    sp.add_argument("--out", default=None, help="directory for CSV/JSON outputs")
    sp.add_argument("--workers", type=int, default=1, help="replicate worker processes")


def _add_simulate_args(sp) -> None:
    _add_config_args(sp)
    sp.add_argument("--stats", default="degree,fringe")
    sp.add_argument("--tol", action="append", metavar="KEY=VALUE")
    sp.set_defaults(func=_cmd_simulate)


def _add_kernel_args(sp) -> None:
    sp.add_argument("--kernel", choices=("uniform", "affine", "tabulated"), default="affine")
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--table", help="comma-separated f(1..K) for tabulated kernels")
    sp.add_argument("--tail", default="const", help="tabulated tail rule: const or pow:<a>")
    sp.add_argument("--monotone", action="store_true", help="declare the table monotone")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delaytree",
        description="Simulate delayed-snapshot preferential attachment trees "
        "and compare them with their analytic limits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="grow replicates and aggregate statistics")
    _add_simulate_args(sp)

    sp = sub.add_parser("theory", help="print analytic constants for a kernel")
    _add_kernel_args(sp)
    sp.add_argument("--kmax", type=int, default=1)
    sp.set_defaults(func=_cmd_theory)

    sp = sub.add_parser("fringe", help="print the limit fringe table")
    _add_kernel_args(sp)
    sp.add_argument("--cap", type=int, default=5)
    sp.set_defaults(func=_cmd_fringe)

    sp = sub.add_parser("rootdeg", help="root-degree trajectories across replicates")
    _add_config_args(sp)
    sp.set_defaults(func=_cmd_rootdeg)

    sp = sub.add_parser("clt", help="leaf-count CLT statistic across replicates")
    _add_config_args(sp)
    sp.add_argument("--tol", action="append", metavar="KEY=VALUE")
    sp.set_defaults(func=_cmd_clt)

    sp = sub.add_parser("check-delay", help="delay-condition decay table and verdict")
    sp.add_argument("--delay", required=True, help="zero | const:c | uniform01 | invpow:p | pareto:g[,scale]")
    sp.add_argument("--beta", type=float, default=0.5)
    sp.add_argument("--ngrid", default="1e2..1e6", help="LO..HI, half-decade steps")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_check_delay)

    sp = sub.add_parser("compare", help="run statistics and verdict against tolerances")
    _add_simulate_args(sp)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return int(ex.code or 0)
    try:
        return args.func(args)
    except (DelayTreeError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
