"""One execution of one workload, in a fresh process started by run.py.

Modes:
  setup   import delaytree and build the plans, then stop (set-up probe)
  plain   run the plans untraced: wall time, peak RSS, gate, digests
  traced  run them with spans at every layer boundary
  alloc   run them with spans that record tracemalloc peaks; run.py starts
          this mode at ``--scale 0.1`` because tracemalloc slows the
          per-vertex Python loops about twentyfold

The result is one JSON object written to ``--result``.  Set-up time is
measured against ``--spawned``, the CLOCK_MONOTONIC reading (what
``time.perf_counter`` uses on Linux) the parent took just before starting
this process.  In the setup and plain modes a ``Speedometer`` probes the
host speed throughout, and every time is also reported at the reference
host speed (``ref_*``); traced and alloc executions run without it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, HERE)
from speedometer import Speedometer  # noqa: E402


def _import_delaytree():
    sys.path.insert(0, SRC)
    import delaytree

    where = os.path.dirname(os.path.abspath(delaytree.__file__))
    if where != os.path.join(SRC, "delaytree"):
        raise SystemExit(f"delaytree imported from {where}, not from {SRC}")


def execute(
    workload: str, seed: int, mode: str, outroot: str, scale: float = 1.0, meter=None
) -> dict:
    """Run one execution in this process and return its result record.

    With a running ``meter`` (a ``speedometer.Speedometer``) each plan also
    gets ``work_s``, its wall time without the probes, and ``ref_wall_s``.
    """
    import gate
    import workloads

    _import_delaytree()
    steps = workloads.prepare(workload, seed, outroot, scale)
    first_call = time.perf_counter()
    result = {
        "workload": workload,
        "seed": seed,
        "mode": mode,
        "scale": scale,
        "first_call": first_call,
    }
    if mode == "setup":
        return result

    tracer = None
    if mode in ("traced", "alloc"):
        from layers import ALLOC_SPANS
        from tracer import Tracer

        tracer = Tracer(alloc_spans=ALLOC_SPANS if mode == "alloc" else ())
    plans = []
    with tracer or contextlib.nullcontext():
        for i, step in enumerate(steps):
            if tracer is not None:
                tracer.begin_plan(f"{workload}/{i}")
            t0 = time.perf_counter()
            ok = step.call()
            t1 = time.perf_counter()
            plan = {"label": step.label, "ok": bool(ok), "wall_s": t1 - t0}
            if meter is not None:
                plan["work_s"], plan["ref_wall_s"] = meter.at_reference_speed(t0, t1)
            plans.append(plan)

    failed = 0
    digests = []
    artifact_bytes = 0
    for step, plan in zip(steps, plans):
        problems = gate.check_plan(step.outdir, plan["ok"], step.replicates, step.n, step.statistics)
        if scale != 1.0:
            # the tolerances are sized for the full workload; a scaled-down
            # execution is held to the exact invariants only
            problems = [p for p in problems if not p.startswith("verdict:")]
        plan["problems"] = problems
        failed += bool(problems)
        digest, size = gate.artifact_digest(step.outdir)
        digests.append(digest)
        artifact_bytes += size
    result.update(
        plans=plans,
        wall_s=sum(p["wall_s"] for p in plans),
        attempted=len(plans),
        failed=failed,
        artifact_digest=hashlib.sha256("".join(digests).encode()).hexdigest(),
        artifact_bytes=artifact_bytes,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if meter is not None:
        # the meter's table is resident from before the first plan to exit,
        # so it adds exactly its size to the peak
        result["peak_rss_mb"] -= meter.table_mb
        result["work_s"] = sum(p["work_s"] for p in plans)
        result["ref_wall_s"] = sum(p["ref_wall_s"] for p in plans)
    if tracer is not None:
        import layers

        result["missing_boundaries"] = tracer.missing
        if mode == "traced":
            result["layers"] = layers.timing_metrics(tracer.spans)
            result["layers"]["harness.artifact_bytes"] = artifact_bytes
            result["parents_digest"] = layers.parents_digest(tracer.spans)
        else:
            result["layers"] = layers.alloc_metrics(tracer.spans)
        result["spans"] = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "id": s.tag}
            for s in tracer.spans
        ]
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "plain", "traced", "alloc"), required=True)
    ap.add_argument("--outdir", required=True, help="scratch directory for the plans' artifacts")
    ap.add_argument("--result", required=True, help="where to write the result JSON")
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--scale", type=float, default=1.0, help="multiplies vertex and replicate counts")
    args = ap.parse_args(argv)
    meter = Speedometer() if args.mode in ("setup", "plain") else None
    try:
        with meter or contextlib.nullcontext():
            result = execute(args.workload, args.seed, args.mode, args.outdir, args.scale, meter)
    finally:
        shutil.rmtree(args.outdir, ignore_errors=True)
    result["setup_s"] = result["first_call"] - args.spawned
    if meter is not None:
        _, result["ref_setup_s"] = meter.at_reference_speed(args.spawned, result["first_call"])
        result["speed_probes"] = len(meter.durations)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
