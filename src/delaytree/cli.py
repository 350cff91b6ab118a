"""Command-line front end.

Subcommands:

* ``simulate`` grows replicates, checks them against the exact oracles and
  ends with a PASS/FAIL line; ``--out`` writes the run's artifacts.
* ``theory`` prints the Malthusian parameter and the degree law of the
  config's kernel.
* ``fringe`` prints the limit fringe table up to ``fringe_cap`` vertices.
* ``check-delay`` prints the delay-condition decay table and verdict of the
  config's delay law.

Every subcommand reads the model from one config: ``--config FILE`` or
``--preset NAME``, patched by ``--set KEY=VALUE``; with neither it starts
from no entries and the configio defaults apply.  Exit codes: 0 success
(all tolerances met, or a "satisfied" delay verdict), 1 tolerance failure or
any other verdict, 2 usage error.  Every run that writes outputs also writes
a canonical config echo whose SHA-256 prefix names the run; re-feeding the
echo file reproduces the outputs byte for byte, and passing it to an oracle
subcommand prints the oracles the run was checked against.
"""

from __future__ import annotations

import argparse
import sys

from . import theory
from .configio import (
    build_config,
    delay_from_entries,
    int_from_entries,
    kernel_from_entries,
    parse_config_text,
)
from .errors import ArgumentError, DelayTreeError
from .estimators import delay_condition_scan, half_decade_grid
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
    if args.preset and args.config:
        raise ArgumentError("give --config or --preset, not both")
    if args.preset:
        entries = parse_config_text(PRESETS[args.preset])
    elif args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            entries = parse_config_text(fh.read())
    else:
        entries = {}
    for override in args.set or []:
        if "=" not in override:
            raise ArgumentError(f"--set expects KEY=VALUE, got {override!r}")
        key, value = (s.strip() for s in override.split("=", 1))
        entries.update(parse_config_text(f"{key} = {value}"))  # validates the key
    return entries


def _tol_overrides(pairs) -> dict:
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise ArgumentError(f"--tol expects KEY=VALUE, got {item!r}")
        key, value = (s.strip() for s in item.split("=", 1))
        try:
            out[key] = float(value)
        except ValueError:
            raise ArgumentError(f"--tol {key} must be a number, got {value!r}") from None
    return out


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    stats = tuple(s.strip() for s in args.stats.split(",") if s.strip())
    tolerances = _tol_overrides(args.tol)
    config, replicates = build_config(_load_entries(args))
    plan = ExperimentPlan(
        config=config,
        replicates=replicates,
        statistics=stats,
        tolerances=tolerances,
        outdir=args.out,
        workers=args.workers,
    )
    summary = run(plan)
    for name, check in summary.checks.items():
        parts = [f"[{name}]"]
        for key, val in check.items():
            if key not in ("ok", "informational"):
                parts.append(f"{key}={val:.6g}" if isinstance(val, float) else f"{key}={val}")
        parts.append("ok" if check["ok"] else "FAIL")
        print(" ".join(parts))
    print(f"config_hash={summary.payload['config_hash']}")
    print("PASS" if summary.ok else "FAIL")
    return 0 if summary.ok else 1


def _cmd_theory(args) -> int:
    if args.kmax < 1:
        raise ArgumentError(f"--kmax must be >= 1, got {args.kmax}")
    kernel = kernel_from_entries(_load_entries(args))
    lam = theory.solve_malthusian(kernel).lambda_star
    p = theory.degree_law(kernel, lam, args.kmax)
    print(f"lambda_star={lam:g}")
    for k in range(1, args.kmax + 1):
        print(f"p_{k}={p[k - 1]:.6f}")
    return 0


def _cmd_fringe(args) -> int:
    entries = _load_entries(args)
    kernel = kernel_from_entries(entries)
    lam = theory.solve_malthusian(kernel).lambda_star
    table = theory.fringe_recursion(int_from_entries(entries, "fringe_cap"), kernel, lam)
    print(f"lambda_star={lam:g}")
    for code in sorted(table.probs, key=lambda c: (c.count("("), c)):
        print(f"{code} {table.probs[code]:.10f}")
    print(f"total_mass={table.total_mass():.10f}")
    return 0


def _cmd_check_delay(args) -> int:
    delay = delay_from_entries(_load_entries(args))
    try:
        lo, hi = (float(t) for t in args.ngrid.split(".."))
    except ValueError:
        raise ArgumentError(f"--ngrid expects LO..HI, got {args.ngrid!r}") from None
    scan = delay_condition_scan(delay, half_decade_grid(lo, hi))
    print("n,e_n,lemma")
    for n, e, lemma in zip(scan.ns, scan.e_values, scan.lemma_values):
        print(f"{int(n)},{e:.8g},{lemma:.8g}")
    print(f"verdict={scan.verdict}")
    return 0 if scan.verdict == "satisfied" else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _subcommand(sub, name: str, func, help: str):
    sp = sub.add_parser(name, help=help)
    sp.add_argument("--config", help="path to a key = value config file")
    sp.add_argument("--preset", choices=sorted(PRESETS), help="named built-in config")
    sp.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
    sp.set_defaults(func=func)
    return sp


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delaytree",
        description="Simulate delayed-snapshot preferential attachment trees "
        "and compare them with their analytic limits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = _subcommand(sub, "simulate", _cmd_simulate, "grow replicates and check them against the oracles")
    sp.add_argument("--out", default=None, help="directory for CSV/JSON outputs")
    sp.add_argument("--workers", type=int, default=1, help="replicate worker processes")
    sp.add_argument("--stats", default="degree,fringe")
    sp.add_argument("--tol", action="append", metavar="KEY=VALUE")

    sp = _subcommand(sub, "theory", _cmd_theory, "print analytic constants for the kernel")
    sp.add_argument("--kmax", type=int, default=1)

    _subcommand(sub, "fringe", _cmd_fringe, "print the limit fringe table up to fringe_cap")

    sp = _subcommand(sub, "check-delay", _cmd_check_delay, "delay-condition decay table and verdict")
    sp.add_argument("--ngrid", default="1e2..1e6", help="LO..HI, half-decade steps")

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
