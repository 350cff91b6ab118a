"""Per-layer metrics computed from the spans of one traced execution.

Every metric is always emitted: a boundary that was never called (or no
longer exists) reads zero.  Units and the end-to-end metric each one should
move are listed in README.md.
"""

from __future__ import annotations

import hashlib
import statistics

import numpy as np

from tracer import high_percentile, outermost_total, self_times

US, MS, MB = 1e6, 1e3, 1.0 / (1 << 20)

SAMPLERS = ("edge", "rejection", "scan")
LAYERS = ("kernels", "growth", "canonical", "estimators", "theory", "harness", "cli")
ORACLES = ("theory.fringe_recursion", "theory.extended_fringe_law", "theory.degree_law")
ALLOC_SPANS = ("growth.grow", "canonical.subtree_codes", "estimators.fringe_census")

# name -> unit, in the order they are reported
UNITS = {
    "kernels.sample_many.us_per_vertex": "us/vertex",
    "kernels.snapshot_times.us_per_vertex": "us/vertex",
    **{f"growth.grow.{s}.self_us_per_vertex": "us/vertex" for s in SAMPLERS},
    "growth.grow.calls": "count",
    "growth.grow.call_ms.p50": "ms",
    "growth.grow.call_ms.p_hi": "ms",
    "growth.grow.call_ms.p_hi_pct": "%",
    **{f"{name}.peak_alloc_mb": "MB" for name in ALLOC_SPANS},
    "growth.retries_per_arrival": "1/arrival",
    "growth.acceptance_rate": "ratio",
    "growth.m1_share": "ratio",
    "growth.lag.p50": "vertices",
    "growth.lag.p99": "vertices",
    "canonical.subtree_codes.calls_per_replicate": "count",
    "canonical.subtree_codes.us_per_vertex": "us/vertex",
    "estimators.fringe_census.self_us_per_vertex": "us/vertex",
    "estimators.extended_fringe_census.self_us_per_vertex": "us/vertex",
    "estimators.fringe_census.truncated_share": "ratio",
    "estimators.degree_hist.us_per_vertex": "us/vertex",
    "estimators.root_trajectory.us_per_call": "us/call",
    "estimators.delay_condition_scan.ms": "ms",
    "theory.solve_malthusian.ms": "ms",
    "theory.oracles.ms": "ms",
    "theory.root_degree_constants.calls": "count",
    "harness.run.self_ms": "ms",
    "harness.artifact_bytes": "bytes",
    "cli.main.self_ms": "ms",
    **{f"layer.{layer}.self_ms": "ms" for layer in LAYERS},
    "trace.overhead_share": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _named(spans, name):
    return [i for i, s in enumerate(spans) if s.name == name]


def timing_metrics(spans) -> dict:
    """Metrics of the timed pass (everything but allocation and overhead)."""
    selfs = self_times(spans)
    dur = [s.end - s.start for s in spans]
    grows = [spans[i] for i in _named(spans, "growth.grow")]
    grown = sum(g.info["n"] for g in grows)
    out = {}

    def total(name):
        return outermost_total(spans, (name,))

    def self_total(name):
        return sum(selfs[i] for i in _named(spans, name))

    out["kernels.sample_many.us_per_vertex"] = _ratio(total("kernels.sample_many") * US, grown)
    out["kernels.snapshot_times.us_per_vertex"] = _ratio(
        total("kernels.snapshot_times") * US, grown
    )
    for sampler in SAMPLERS:
        idx = [i for i in _named(spans, "growth.grow") if spans[i].info["sampler"] == sampler]
        out[f"growth.grow.{sampler}.self_us_per_vertex"] = _ratio(
            sum(selfs[i] for i in idx) * US, sum(spans[i].info["n"] for i in idx)
        )

    call_ms = [dur[i] * MS for i in _named(spans, "growth.grow")]
    out["growth.grow.calls"] = len(call_ms)
    out["growth.grow.call_ms.p50"] = statistics.median(call_ms) if call_ms else 0.0
    hi = high_percentile(call_ms)
    out["growth.grow.call_ms.p_hi"] = hi[1] if hi else 0.0
    out["growth.grow.call_ms.p_hi_pct"] = hi[0] if hi else 0.0

    arrivals = sum(max(g.info["n"] - 2, 0) for g in grows)
    retries = sum(g.info["retries"] for g in grows)
    snaps = [g.info["snapshots"][3 : g.info["n"] + 1] for g in grows if g.info["snapshots"] is not None]
    ms = np.concatenate(snaps) if snaps else np.zeros(0, dtype=np.int64)
    # vertex k consulted snapshot m while k-1 vertices existed
    lag = np.concatenate(
        [np.arange(2, len(s) + 2) - s for s in snaps]
    ) if snaps else np.zeros(0, dtype=np.int64)
    proposals_accepted = int(np.count_nonzero(ms > 1))
    out["growth.retries_per_arrival"] = _ratio(retries, arrivals)
    out["growth.acceptance_rate"] = _ratio(proposals_accepted, proposals_accepted + retries)
    out["growth.m1_share"] = _ratio(int(np.count_nonzero(ms == 1)), len(ms))
    out["growth.lag.p50"] = float(np.percentile(lag, 50, method="lower")) if len(lag) else 0.0
    out["growth.lag.p99"] = float(np.percentile(lag, 99, method="lower")) if len(lag) else 0.0

    codes = _named(spans, "canonical.subtree_codes")
    out["canonical.subtree_codes.calls_per_replicate"] = _ratio(len(codes), len(grows))
    out["canonical.subtree_codes.us_per_vertex"] = _ratio(
        sum(dur[i] for i in codes) * US, sum(spans[i].info["n"] for i in codes)
    )
    for name in ("estimators.fringe_census", "estimators.extended_fringe_census"):
        idx = _named(spans, name)
        out[f"{name}.self_us_per_vertex"] = _ratio(
            sum(selfs[i] for i in idx) * US, sum(spans[i].info["n"] for i in idx)
        )
    fringe = [spans[i].info for i in _named(spans, "estimators.fringe_census")]
    out["estimators.fringe_census.truncated_share"] = _ratio(
        sum(f["truncated"] for f in fringe), sum(f["n"] for f in fringe)
    )
    hist = _named(spans, "estimators.degree_hist")
    out["estimators.degree_hist.us_per_vertex"] = _ratio(
        sum(dur[i] for i in hist) * US, sum(spans[i].info["n"] for i in hist)
    )
    roots = _named(spans, "estimators.root_trajectory")
    out["estimators.root_trajectory.us_per_call"] = _ratio(sum(dur[i] for i in roots) * US, len(roots))
    out["estimators.delay_condition_scan.ms"] = total("estimators.delay_condition_scan") * MS
    out["theory.solve_malthusian.ms"] = total("theory.solve_malthusian") * MS
    out["theory.oracles.ms"] = outermost_total(spans, ORACLES) * MS
    out["theory.root_degree_constants.calls"] = len(_named(spans, "theory.root_degree_constants"))
    out["harness.run.self_ms"] = self_total("harness.run") * MS
    out["cli.main.self_ms"] = self_total("cli.main") * MS
    for layer in LAYERS:
        out[f"layer.{layer}.self_ms"] = (
            sum(t for s, t in zip(spans, selfs) if s.name.split(".", 1)[0] == layer) * MS
        )
    return out


def alloc_metrics(spans) -> dict:
    """Largest per-call peak allocation of each allocation-tracked span."""
    return {
        f"{name}.peak_alloc_mb": max(
            (s.peak_bytes for s in spans if s.name == name), default=0
        )
        * MB
        for name in ALLOC_SPANS
    }


def parents_digest(spans) -> str:
    """SHA-256 of every grown ``parents`` array, in call order."""
    h = hashlib.sha256()
    for s in spans:
        if s.name == "growth.grow" and s.info.get("parents") is not None:
            parents = np.ascontiguousarray(s.info["parents"][: s.info["n"] + 1], dtype="<i8")
            h.update(parents.tobytes())
    return h.hexdigest()
