"""Replicated experiment orchestration.

A plan bundles a growth configuration with a replicate count, a statistic
selection, and tolerances.  Replicates get decorrelated seeds through a
fixed splitmix64 mix of (base seed, replicate index) and are grown in
batches of consecutive replicates, as many as one edge block of ``grow``
holds (optionally a batch per worker process).  Each replicate still draws
from its own generator, so its tree does not depend on the batching, and
records fold into aggregates in ascending replicate order regardless of
completion order -- so a rerun of the same plan is byte-identical, and so
is a rerun under any worker count.

Wall-clock time is kept on the in-memory summary only and never
serialized; every serialized byte is a pure function of the plan.
"""

from __future__ import annotations

import json
import numbers
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import estimators as est
from . import theory
from .canonical import shape_labels
from .configio import config_hash, render_config
from .errors import ArgumentError
from .growth import batch_size, grow
from .kernels import GrowthConfig, check_count

__all__ = [
    "ExperimentPlan",
    "RunSummary",
    "run",
    "tv_distance",
    "replicate_seed",
    "splitmix64",
]

_STATISTICS = ("degree", "fringe", "root", "clt", "delay-scan")

_DEFAULT_TOLERANCES = {
    "degree_tv": 0.02,
    "fringe_abs": 0.02,
    "pair_abs": 0.02,
    "clt_var_rel": 0.25,
}

# the largest degree the pooled degree table compares with the exact law
_KMAX = 200

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One scramble round of the splitmix64 generator (public constants)."""
    x &= _MASK64
    z = (x + _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def replicate_seed(base_seed: int, r: int) -> int:
    """Derived seed for replicate r: splitmix64(base + (r+1) * gamma)."""
    return splitmix64((base_seed + (r + 1) * _GAMMA) & _MASK64)


@dataclass(frozen=True)
class ExperimentPlan:
    config: GrowthConfig
    replicates: int = 1
    statistics: tuple = ("degree",)
    tolerances: dict = field(default_factory=dict)
    outdir: str | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "replicates", check_count("replicates", self.replicates, 1))
        object.__setattr__(self, "workers", check_count("workers", self.workers, 1))
        stats = tuple(self.statistics)
        object.__setattr__(self, "statistics", stats)
        if not stats:
            raise ArgumentError("select at least one statistic")
        for s in stats:
            if s not in _STATISTICS:
                raise ArgumentError(f"unknown statistic {s!r}; choose from {_STATISTICS}")
        unknown = set(self.tolerances) - set(_DEFAULT_TOLERANCES)
        if unknown:
            raise ArgumentError(f"unknown tolerance keys: {sorted(unknown)}")
        for key, value in self.tolerances.items():
            if not isinstance(value, numbers.Real) or not (0.0 <= value < float("inf")):
                raise ArgumentError(f"tolerance {key} must be a finite number >= 0, got {value!r}")
        if ("clt" in stats or "root" in stats) and self.config.kernel.kind != "affine":
            raise ArgumentError(
                "clt/root statistics rely on affine-kernel constants; use an affine kernel"
            )
        if "clt" in stats and self.replicates < 2:
            raise ArgumentError("clt statistic needs at least 2 replicates")

    def resolved_tolerances(self) -> dict:
        out = dict(_DEFAULT_TOLERANCES)
        out.update(self.tolerances)
        return out


@dataclass(frozen=True)
class RunSummary:
    payload: dict  # everything that gets serialized
    ok: bool
    wall_time: float  # in-memory only, deliberately not serialized

    @property
    def statistics(self) -> dict:
        return self.payload["statistics"]

    @property
    def checks(self) -> dict:
        return self.payload["checks"]


# ---------------------------------------------------------------------------
# Total variation
# ---------------------------------------------------------------------------


def tv_distance(empirical, theory_probs) -> float:
    """Half-L1 over the compared support, plus the lumped remainder gap.

    empirical may be a DegreeHist (compared on degrees 1..len(theory)) or
    a plain probability vector aligned with theory_probs.
    """
    if isinstance(empirical, est.DegreeHist):
        th = np.asarray(theory_probs, dtype=np.float64)
        emp = np.zeros(len(th))
        upto = min(len(th) + 1, len(empirical.counts))
        emp[: upto - 1] = empirical.counts[1:upto]
        emp = emp / empirical.n
    else:
        emp = np.asarray(empirical, dtype=np.float64)
        th = np.asarray(theory_probs, dtype=np.float64)
        if emp.shape != th.shape:
            raise ArgumentError("probability vectors must share a support")
    rem_gap = abs((1.0 - emp.sum()) - (1.0 - th.sum()))
    return 0.5 * (float(np.abs(emp - th).sum()) + rem_gap)


# ---------------------------------------------------------------------------
# Replicate execution
# ---------------------------------------------------------------------------


def _replicate_records(args) -> list:
    """Raw statistics of a batch of replicates, one record each (picklable, order-agnostic).

    The batch's trees are grown by one ``grow`` call, and their degree
    histograms and root trajectories computed one batch at a time.
    ``root`` is the plan's (theta, time grid, E[min(X, n_j)] on the grid or
    None outside the heavy regime), or None without "root".
    """
    config, stats, root, reps = args
    traces = grow(config, [replicate_seed(config.seed, r) for r in reps])
    hists = est.degree_hists(traces)
    trajs = [None] * len(traces)
    if "root" in stats:
        theta, grid, ex = root
        trajs = est.root_trajectories(traces, theta, grid=grid, ex_x=ex)
    records = []
    for r, trace, hist, traj in zip(reps, traces, hists, trajs):
        rec: dict = {"replicate": r, "retries": trace.retries}
        if "degree" in stats:
            rec["degree_counts"] = hist.counts
        if "fringe" in stats:
            cap = config.fringe_cap
            labels, codes = shape_labels(trace.parents, cap)
            census = est.FringeCensus.from_labels(labels, codes, cap)
            rec["fringe_counts"] = census.counts
            rec["fringe_truncated"] = census.truncated
        if traj is not None:
            rec["root_ns"] = traj.ns
            rec["root_values"] = traj.values
            rec["root_over_ntheta"] = traj.over_ntheta
            rec["root_over_ex"] = traj.over_truncated_mean
        if "clt" in stats:
            rec["n1"] = hist.count(1)
        records.append(rec)
    return records


def _collect_records(plan: ExperimentPlan) -> list:
    config = plan.config
    root = None
    if "root" in plan.statistics:
        # once per plan: every replicate shares the grid and its growth scales
        consts = theory.root_degree_constants(config.kernel.alpha, config.beta, config.delay)
        grid = est.geometric_grid(config.n_final)
        ex = None
        if consts.regime == "heavy":
            ex = np.array([consts.ex_x_truncated(float(m)) for m in grid])
        root = (consts.theta, grid, ex)
    # consecutive batches of replicates, each grown as rows of one edge block
    size = batch_size(config.n_final)
    jobs = [
        (config, plan.statistics, root, range(lo, min(lo + size, plan.replicates)))
        for lo in range(0, plan.replicates, size)
    ]
    if plan.workers == 1 or len(jobs) == 1:
        batches = map(_replicate_records, jobs)
    else:
        with ProcessPoolExecutor(max_workers=plan.workers) as pool:
            batches = list(pool.map(_replicate_records, jobs, chunksize=1))
    return [rec for batch in batches for rec in batch]


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _aggregate_degree(plan: ExperimentPlan, records: list, lam: float) -> tuple[dict, dict]:
    config = plan.config
    maxlen = max(len(r["degree_counts"]) for r in records)
    pooled = np.zeros(maxlen, dtype=np.int64)
    for r in records:
        c = r["degree_counts"]
        pooled[: len(c)] += c
    total = plan.replicates * config.n_final
    kmax = min(_KMAX, maxlen - 1)
    p_theory = theory.degree_law(config.kernel, lam, max(kmax, 1))
    emp = pooled[1 : kmax + 1] / total
    tv = tv_distance(emp, p_theory[:kmax])
    tol = plan.resolved_tolerances()["degree_tv"]
    stat = {
        "pooled_counts": pooled,
        "kmax": kmax,
        "p_theory": p_theory,
        "tv": tv,
        "leaf_fraction": float(pooled[1] / total) if maxlen > 1 else 0.0,
    }
    check = {"tv": tv, "tolerance": tol, "ok": bool(tv <= tol)}
    return stat, check


def _aggregate_fringe(plan: ExperimentPlan, records: list, lam: float) -> tuple[dict, dict]:
    config = plan.config
    counts: dict = {}
    truncated = 0
    for r in records:
        for code, c in r["fringe_counts"].items():
            counts[code] = counts.get(code, 0) + c
        truncated += r["fringe_truncated"]
    total = plan.replicates * config.n_final
    table = theory.fringe_recursion(config.fringe_cap, config.kernel, lam)
    # one map turns the limit law into the pair law and the pooled counts into pair counts
    chain = theory.extended_fringe_law(table.probs, 1)
    pair_counts = theory.extended_fringe_law(counts, 1)
    pair_truncated = plan.replicates * (config.n_final - 1) - sum(pair_counts.values())
    gaps = {
        code: abs(counts.get(code, 0) / total - p) for code, p in table.probs.items()
    }
    pair_gaps = {
        pair: abs(pair_counts.get(pair, 0) / total - mass)
        for pair, mass in chain.items()
        if mass >= 0.01
    }
    tols = plan.resolved_tolerances()
    max_gap = max(gaps.values())
    max_pair_gap = max(pair_gaps.values()) if pair_gaps else 0.0
    stat = {
        "counts": counts,
        "pair_counts": pair_counts,
        "truncated": truncated,
        "pair_truncated": pair_truncated,
        "theory": dict(table.probs),
        "pair_theory": chain,
        "max_abs_gap": max_gap,
        "max_pair_abs_gap": max_pair_gap,
        "total_vertices": total,
    }
    check = {
        "max_abs_gap": max_gap,
        "tolerance": tols["fringe_abs"],
        "max_pair_abs_gap": max_pair_gap,
        "pair_tolerance": tols["pair_abs"],
        "ok": bool(max_gap <= tols["fringe_abs"] and max_pair_gap <= tols["pair_abs"]),
    }
    return stat, check


def _aggregate_root(plan: ExperimentPlan, records: list) -> tuple[dict, dict]:
    ns = records[0]["root_ns"]
    values = np.stack([r["root_values"] for r in records])
    over_ntheta = np.stack([r["root_over_ntheta"] for r in records])
    over_ex = None
    if records[0]["root_over_ex"] is not None:
        over_ex = np.stack([r["root_over_ex"] for r in records])
    # relative drift of the normalized trajectory over the last grid octave
    if over_ntheta.shape[1] >= 2:
        drift = np.abs(over_ntheta[:, -1] - over_ntheta[:, -2]) / np.maximum(
            over_ntheta[:, -2], 1e-300
        )
    else:
        drift = np.zeros(over_ntheta.shape[0])
    stat = {
        "ns": ns,
        "values": values,
        "over_ntheta": over_ntheta,
        "over_ex": over_ex,
        "mean_over_ntheta": over_ntheta.mean(axis=0),
        "last_octave_drift": drift,
    }
    return stat, {"ok": True, "informational": True}


def _aggregate_clt(plan: ExperimentPlan, records: list) -> tuple[dict, dict]:
    config = plan.config
    alpha = config.kernel.alpha
    consts = theory.clt_constants(alpha)
    n = config.n_final
    s = np.array(
        [est.leaf_clt_value(r["n1"], n, consts.p1) for r in records], dtype=np.float64
    )
    var = float(s.var(ddof=1))
    rel = abs(var - consts.sigma1_sq) / consts.sigma1_sq
    tol = plan.resolved_tolerances()["clt_var_rel"]
    stat = {
        "s_values": s,
        "mean": float(s.mean()),
        "variance": var,
        "sigma1_sq": consts.sigma1_sq,
        "p1": consts.p1,
    }
    check = {"variance_rel_err": rel, "tolerance": tol, "ok": bool(rel <= tol)}
    return stat, check


def _aggregate_scan(plan: ExperimentPlan) -> tuple[dict, dict]:
    grid = est.half_decade_grid(100, max(10_000, min(plan.config.n_final, 1_000_000)))
    scan = est.delay_condition_scan(plan.config.delay, grid)
    stat = {
        "ns": scan.ns,
        "e_values": scan.e_values,
        "lemma_values": scan.lemma_values,
        "verdict": scan.verdict,
    }
    return stat, {"verdict": scan.verdict, "ok": bool(scan.verdict == "satisfied")}


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


# Every file is written in pieces of at most _CHUNK list items or CSV rows,
# never built whole in memory.
_CHUNK = 4096


def _json_key(key) -> str:
    if isinstance(key, tuple):
        return "|".join(str(k) for k in key)
    return str(key)


def _json_pieces(obj, pad: str = ""):
    """Text of ``json.dumps(obj, sort_keys=True, indent=2)``, in pieces.

    Dict keys are spelled by ``_json_key``, NumPy arrays become lists and
    NumPy scalars Python numbers.  A list of plain ints and floats is
    spelled a chunk at a time by one ``repr`` map (NaN and the infinities
    renamed as ``json`` spells them); every other scalar by ``json.dumps``.
    """
    if isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        inner = pad + "  "
        lead = "{\n"
        for key, value in sorted({_json_key(k): v for k, v in obj.items()}.items()):
            yield f"{lead}{inner}{json.dumps(key)}: "
            yield from _json_pieces(value, inner)
            lead = ",\n"
        yield f"\n{pad}}}"
        return
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            yield "[]"
            return
        inner = pad + "  "
        sep = ",\n" + inner
        yield "[\n" + inner
        if set(map(type, obj)) <= {int, float}:
            for start in range(0, len(obj), _CHUNK):
                text = sep.join(map(repr, obj[start : start + _CHUNK]))
                yield (sep if start else "") + text.replace("nan", "NaN").replace("inf", "Infinity")
        else:
            for i, value in enumerate(obj):
                if i:
                    yield sep
                yield from _json_pieces(value, inner)
        yield f"\n{pad}]"
        return
    if isinstance(obj, np.integer):
        obj = int(obj)
    elif isinstance(obj, np.floating):
        obj = float(obj)
    yield json.dumps(obj)


def _open(path: str):
    return open(path, "w", encoding="utf-8", newline="\n")


def _write_csv(path: str, header: str, *columns) -> None:
    """CSV of equal-length columns (arrays, lists or ranges), _CHUNK rows at a time.

    A cell is ``str`` of the column's Python value, which for a float is
    its shortest round-trip spelling (``str(float) == repr(float)``).
    """
    with _open(path) as fh:
        fh.write(header + "\n")
        for start in range(0, len(columns[0]), _CHUNK):
            parts = [c[start : start + _CHUNK] for c in columns]
            cells = [map(str, p.tolist() if isinstance(p, np.ndarray) else p) for p in parts]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _write_outputs(plan: ExperimentPlan, payload: dict, stats: dict) -> None:
    outdir = plan.outdir
    os.makedirs(outdir, exist_ok=True)
    with _open(os.path.join(outdir, "config_echo.txt")) as fh:
        fh.write(render_config(plan.config, plan.replicates))
    with _open(os.path.join(outdir, "summary.json")) as fh:
        fh.writelines(_json_pieces(payload))
        fh.write("\n")
    n = plan.config.n_final
    if "degree" in stats:
        d = stats["degree"]
        kmax = d["kmax"]
        _write_csv(
            os.path.join(outdir, "degree_hist.csv"),
            "n,k,count,p_theory",
            [n] * kmax,
            range(1, kmax + 1),
            d["pooled_counts"][1 : kmax + 1],
            d["p_theory"][:kmax],
        )
    if "fringe" in stats:
        f = stats["fringe"]
        codes = sorted(set(f["counts"]) | set(f["theory"]))
        _write_csv(
            os.path.join(outdir, "fringe.csv"),
            "n,code,count,prob_theory",
            [n] * len(codes),
            codes,
            [f["counts"].get(code, 0) for code in codes],
            [float(f["theory"].get(code, 0.0)) for code in codes],
        )
    if "root" in stats:
        r = stats["root"]
        reps, width = r["values"].shape
        over_ex = r["over_ex"] if r["over_ex"] is not None else np.full((reps, width), np.nan)
        _write_csv(
            os.path.join(outdir, "root.csv"),
            "replicate,n_j,M,M_over_ntheta,M_over_EXn",
            np.repeat(np.arange(reps), width),
            np.tile(r["ns"], reps),
            r["values"].ravel(),
            r["over_ntheta"].ravel(),
            over_ex.ravel(),
        )
    if "clt" in stats:
        s = stats["clt"]["s_values"]
        _write_csv(os.path.join(outdir, "clt.csv"), "replicate,s_r", range(len(s)), s)
    if "delay-scan" in stats:
        sc = stats["delay-scan"]
        _write_csv(
            os.path.join(outdir, "delay_scan.csv"),
            "n,e_n,verdict",
            sc["ns"],
            sc["e_values"],
            [sc["verdict"]] * len(sc["ns"]),
        )


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------


def run(plan: ExperimentPlan) -> RunSummary:
    t0 = time.perf_counter()
    config = plan.config
    needs_growth = any(s != "delay-scan" for s in plan.statistics)
    records = _collect_records(plan) if needs_growth else []

    lam = None
    if "degree" in plan.statistics or "fringe" in plan.statistics:
        lam = theory.solve_malthusian(config.kernel).lambda_star

    stats: dict = {}
    checks: dict = {}
    if "degree" in plan.statistics:
        stats["degree"], checks["degree"] = _aggregate_degree(plan, records, lam)
    if "fringe" in plan.statistics:
        stats["fringe"], checks["fringe"] = _aggregate_fringe(plan, records, lam)
    if "root" in plan.statistics:
        stats["root"], checks["root"] = _aggregate_root(plan, records)
    if "clt" in plan.statistics:
        stats["clt"], checks["clt"] = _aggregate_clt(plan, records)
    if "delay-scan" in plan.statistics:
        stats["delay-scan"], checks["delay-scan"] = _aggregate_scan(plan)

    retries = [r["retries"] for r in records] or [0]
    ok = all(c["ok"] for c in checks.values())
    payload = {
        "config_hash": config_hash(config, plan.replicates),
        "config_echo": render_config(config, plan.replicates),
        "replicates": plan.replicates,
        "statistics": stats,
        "checks": checks,
        "tolerances": plan.resolved_tolerances(),
        "ok": ok,
        "retry_total": int(sum(retries)),
        "retry_mean": float(sum(retries) / len(retries)),
    }
    if plan.outdir is not None:
        _write_outputs(plan, payload, stats)
    return RunSummary(payload=payload, ok=ok, wall_time=time.perf_counter() - t0)
