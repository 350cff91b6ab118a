"""delaytree benchmark: one workload, closed loop, one client, workers=1.

    python3 perfbench/run.py --workload pa-census-1m --seed 1 --seconds 20 --trace 0

Each execution of the workload runs in a fresh worker process (worker.py),
one after another, until ``--seconds`` have passed.  The end-to-end times
are reported at the reference host speed (speedometer.py); the raw wall
times are printed next to them.  With ``--trace 0`` the
end-to-end metrics are measured untraced; with ``--trace 1`` untraced and
traced executions alternate, one tracemalloc execution follows, and the
per-layer metrics are reported.  Human-readable lines come first; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit status is 0 only when every execution ran.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)
from layers import UNITS as LAYER_UNITS  # noqa: E402
from tracer import high_percentile  # noqa: E402
from workloads import NAMES  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_PROBES = 5  # extra set-up-only processes per run, so setup_s has a median
MIN_EXECUTIONS = 3  # a run measures for --seconds, and at least this many executions
ALLOC_SCALE = 0.1  # vertex and replicate counts of the tracemalloc execution
TIME_LIMIT_S = 170.0  # the whole run, every worker included
# single-threaded numerics: the benchmark is one client on a 2-core machine
WORKER_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class WorkerFailed(RuntimeError):
    pass


class Runner:
    def __init__(self, workload: str, seed: int, scratch: str):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.started = time.perf_counter()
        self.count = 0

    def remaining(self) -> float:
        return TIME_LIMIT_S - (time.perf_counter() - self.started)

    def spawn(self, mode: str, scale: float = 1.0) -> dict:
        self.count += 1
        tag = f"{mode}-{self.count}"
        result_path = os.path.join(self.scratch, tag + ".json")
        spawned = time.perf_counter()
        cmd = [
            sys.executable, WORKER,
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--mode", mode,
            "--outdir", os.path.join(self.scratch, tag),
            "--result", result_path,
            "--spawned", repr(spawned),
            "--scale", repr(scale),
        ]
        try:
            proc = subprocess.run(
                cmd,
                cwd=ROOT,
                env={**os.environ, **WORKER_ENV},
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=max(self.remaining(), 1.0),
            )
        except subprocess.TimeoutExpired as ex:
            raise WorkerFailed(f"{tag} did not finish within the run's time limit") from ex
        if proc.returncode != 0:
            raise WorkerFailed(f"{tag} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh)

    def loop(self, modes, seconds: float, minimum: int = 1) -> list[dict]:
        """Closed loop: the next round starts when the previous one ends."""
        results = []
        t0 = time.perf_counter()
        last = 0.0
        while len(results) < minimum * len(modes) or (
            time.perf_counter() - t0 < seconds and self.remaining() > 1.5 * last + 5.0
        ):
            t_round = time.perf_counter()
            results.extend(self.spawn(m) for m in modes)
            last = time.perf_counter() - t_round
        return results


def _describe(name: str, values, unit: str) -> str:
    q = statistics.quantiles(values, n=4) if len(values) >= 2 else [values[0]] * 3
    hi = high_percentile(values)
    hi_text = f"p{hi[0]:g}={hi[1]:.6g}" if hi else "p_hi=n/a (no percentile has 10 samples beyond)"
    return (
        f"{name:<13} median={statistics.median(values):.6g} {unit}  "
        f"q1={q[0]:.6g} q3={q[2]:.6g}  {hi_text}  samples={len(values)}"
    )


def _verdict(execs: list[dict]) -> tuple[bool, int, int, list[str]]:
    attempted = sum(r["attempted"] for r in execs)
    failed = sum(r["failed"] for r in execs)
    notes = [
        f"{r['mode']} {p['label']}: {problem}"
        for r in execs
        for p in r["plans"]
        for problem in p["problems"]
    ]
    digests = {r["artifact_digest"] for r in execs if r["scale"] == 1.0}
    if len(digests) > 1:
        notes.append(f"artifact digests differ between executions of one seed: {sorted(digests)}")
    return failed == 0 and len(digests) == 1, attempted, failed, notes


def run_plain(runner: Runner, seconds: float) -> dict:
    probes = [runner.spawn("setup") for _ in range(SETUP_PROBES)]
    execs = runner.loop(("plain",), seconds, MIN_EXECUTIONS)
    samples = {
        "wall_s": [r["ref_wall_s"] for r in execs],
        "setup_s": [r["ref_setup_s"] for r in probes + execs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in execs],
    }
    correct, attempted, failed, notes = _verdict(execs)
    for name, unit in END_TO_END.items():
        print(_describe(name, samples[name], unit))
    for label in [p["label"] for p in execs[0]["plans"]]:
        walls = [p["ref_wall_s"] for r in execs for p in r["plans"] if p["label"] == label]
        print(_describe(f"  {label}", walls, "s"))
    print(_describe("raw wall_s", [r["wall_s"] for r in execs], "s"))
    print(_describe("raw setup_s", [r["setup_s"] for r in probes + execs], "s"))
    probes_per_s = [r["speed_probes"] / (r["wall_s"] + r["setup_s"]) for r in execs]
    print(_describe("speed_probes", probes_per_s, "1/s"))
    print(f"failed_share  {failed}/{attempted} = {failed / attempted:.6g} plans failing the gate")
    print(f"artifact_sha256 {execs[0]['artifact_digest']}")
    for note in notes:
        print(f"FAIL {note}")
    metrics = {
        name: {"value": statistics.median(samples[name]), "unit": unit}
        for name, unit in END_TO_END.items()
    }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_traced(runner: Runner, seconds: float) -> dict:
    execs = runner.loop(("plain", "traced"), seconds)
    execs.append(runner.spawn("alloc", ALLOC_SCALE))
    plain = [r for r in execs if r["mode"] == "plain"]
    traced = [r for r in execs if r["mode"] == "traced"]
    alloc = [r for r in execs if r["mode"] == "alloc"]
    values = {}
    for name in LAYER_UNITS:
        source = alloc if name.endswith("peak_alloc_mb") else traced
        found = [r["layers"][name] for r in source if name in r["layers"]]
        values[name] = statistics.median(found) if found else 0.0
    untraced_wall = statistics.median(r["work_s"] for r in plain)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    values["trace.overhead_share"] = (traced_wall - untraced_wall) / untraced_wall

    correct, attempted, failed, notes = _verdict(execs)
    parents = {r["parents_digest"] for r in traced}
    if len(parents) > 1:
        correct = False
        notes.append(f"parents digests differ between executions of one seed: {sorted(parents)}")
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{runner.workload}-seed{runner.seed}.jsonl")
    with open(spans_path, "w", encoding="utf-8") as fh:
        for k, r in enumerate(execs):
            for s in r.get("spans", []):
                fh.write(json.dumps({"execution": k, "mode": r["mode"], **s}) + "\n")
    for name, unit in LAYER_UNITS.items():
        print(f"{name:<54} {values[name]:.6g} {unit}")
    print(f"executions    untraced={len(plain)} traced={len(traced)} alloc={len(alloc)}")
    print(f"artifact_sha256 {execs[0]['artifact_digest']}")
    print(f"parents_sha256 {sorted(parents)[0]}")
    missing = sorted({m for r in traced + alloc for m in r.get("missing_boundaries", [])})
    print(f"missing_boundaries {missing or 'none'}")
    print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
    for note in notes:
        print(f"FAIL {note}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "delaytree", "__init__.py")):
        print(f"error: no delaytree sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    scratch = os.path.join(OUT, f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    runner = Runner(args.workload, args.seed, scratch)
    print(
        f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} loop=closed clients=1 workers=1"
    )
    try:
        report = (run_traced if args.trace else run_plain)(runner, args.seconds)
    except WorkerFailed as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
