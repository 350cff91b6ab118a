"""Replicated experiment orchestration.

A plan bundles a growth configuration with a replicate count, a statistic
selection, and tolerances.  Replicates get decorrelated seeds through a
fixed splitmix64 mix of (base seed, replicate index) and are run in jobs
of consecutive replicates, ``growth.batch_size`` of them: as many trees as
a fixed width of several edge blocks holds (optionally a job per worker
process).  A job grows its trees by one ``grow`` call and takes each
per-replicate step once over the job's matrices: its seeds, its child and
degree counts and its root trajectories.  Each replicate still draws from
its own generator, so its tree does not depend on the jobs, and records
fold into aggregates in ascending replicate order regardless of
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
from .canonical import shape_labels, tally_rows
from .configio import config_hash, render_config
from .errors import ArgumentError
from .growth import batch_size, grow, parent_rows
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
    """One scramble round of the splitmix64 generator (public constants).

    ``x`` is an int or a uint64 array, whose arithmetic wraps as the mask does.
    """
    x &= _MASK64
    z = (x + _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def replicate_seed(base_seed: int, r: int) -> int:
    """Derived seed for replicate r: splitmix64(base + (r+1) * gamma); r may be a uint64 array."""
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

    empirical is a probability vector aligned with theory_probs.
    """
    emp = np.asarray(empirical, dtype=np.float64)
    th = np.asarray(theory_probs, dtype=np.float64)
    if emp.shape != th.shape:
        raise ArgumentError("probability vectors must share a support")
    rem_gap = abs((1.0 - emp.sum()) - (1.0 - th.sum()))
    return 0.5 * (float(np.abs(emp - th).sum()) + rem_gap)


# ---------------------------------------------------------------------------
# Replicate execution
# ---------------------------------------------------------------------------


def _batch_records(args) -> dict:
    """Raw statistics of a job of replicates, one row or item each, in replicate order (picklable).

    The job's seeds are derived as one array and its trees grown by one
    ``grow`` call, of which only the parents and retries are kept: the
    snapshots are freed before any statistic runs.  The parents are copied
    once, as one matrix of rows, which the child counts (one tally) and the
    root trajectories read; the degrees are another tally, and each tree's
    shape labelling reads its row of the child counts.
    ``grid`` is the plan's root time grid, or None without "root".
    """
    config, stats, grid, reps = args
    traces = grow(config, replicate_seed(config.seed, np.arange(reps.start, reps.stop, dtype=np.uint64)))
    trees, retries = [trace.parents for trace in traces], [trace.retries for trace in traces]
    rows = parent_rows(traces)
    del traces  # the last hold on grow's snapshot matrix
    kids = tally_rows(rows, rows.shape[1] + 2)
    batch: dict = {"retries": retries, "degree_counts": est.degree_counts(kids)}
    if "fringe" in stats:
        cap = config.fringe_cap
        batch["fringe"] = []
        for parents, row in zip(trees, kids):
            labels, codes = shape_labels(parents, row, cap)
            batch["fringe"].append(est.FringeCensus.from_labels(labels, codes, cap))
    if "root" in stats:
        batch["root"] = est.root_trajectories(rows, grid=grid)
    return batch


def _collect_batches(plan: ExperimentPlan) -> list:
    config = plan.config
    # once per plan: every replicate shares the root's time grid
    grid = est.geometric_grid(config.n_final) if "root" in plan.statistics else None
    # jobs of consecutive replicates, each grown by one call as rows of several edge blocks
    size = batch_size(config.n_final)
    jobs = [
        (config, plan.statistics, grid, range(lo, min(lo + size, plan.replicates)))
        for lo in range(0, plan.replicates, size)
    ]
    if plan.workers == 1 or len(jobs) == 1:
        return list(map(_batch_records, jobs))
    with ProcessPoolExecutor(max_workers=plan.workers) as pool:
        return list(pool.map(_batch_records, jobs, chunksize=1))


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _aggregate_degree(plan: ExperimentPlan, batches: list, lam: float) -> tuple[dict, dict]:
    config = plan.config
    maxlen = max(b["degree_counts"].shape[1] for b in batches)
    pooled = np.zeros(maxlen, dtype=np.int64)
    for b in batches:
        c = b["degree_counts"]
        pooled[: c.shape[1]] += c.sum(axis=0)
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


def _aggregate_fringe(plan: ExperimentPlan, batches: list, lam: float) -> tuple[dict, dict]:
    config = plan.config
    counts: dict = {}
    truncated = 0
    for census in [census for b in batches for census in b["fringe"]]:
        for code, c in census.counts.items():
            counts[code] = counts.get(code, 0) + c
        truncated += census.truncated
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


def _aggregate_root(plan: ExperimentPlan, batches: list) -> tuple[dict, dict]:
    config = plan.config
    consts = theory.root_degree_constants(config.kernel.alpha, config.delay)
    ns = batches[0]["root"].ns
    values = np.concatenate([b["root"].values for b in batches])
    # the counts' growth scales, once per plan over the whole (replicates x grid) matrix
    over_ntheta = values / ns.astype(np.float64) ** consts.theta
    over_ex = None
    if consts.regime == "heavy":
        over_ex = values / np.array([config.delay.ex_x_truncated(float(m)) for m in ns])
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


def _aggregate_clt(plan: ExperimentPlan, batches: list) -> tuple[dict, dict]:
    config = plan.config
    alpha = config.kernel.alpha
    consts = theory.clt_constants(alpha)
    n = config.n_final
    # n >= 2, so every tree has a degree-1 column: its leaves
    s = est.leaf_clt_value(np.concatenate([b["degree_counts"][:, 1] for b in batches]), n, consts.p1)
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

# _spellings numbers entries by searching their distinct numbers when there are
# at most one per this many entries: a degree table's few counts, most of them
# 0, are searched; a plan's 31 500 root values, 200 distinct, are sorted
_SEARCHED = 256

# how json spells the floats that repr spells nan, inf and -inf
_JSON_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _is_numbers(obj) -> bool:
    """True for an int or float ndarray: one written through :func:`_spellings`."""
    return isinstance(obj, np.ndarray) and obj.dtype.kind in "iuf"


def _spellings(arr: np.ndarray, names: dict) -> tuple[np.ndarray, np.ndarray]:
    """``(table, index)`` with ``table[index]`` the spellings of ``arr``'s entries.

    Each distinct number is spelled once, by ``repr`` of its Python value
    and then ``names``.  Floats are told apart by their bits, so -0.0 and
    0.0 keep their own spellings.  The distinct numbers are the runs of one
    ``np.sort`` of a 1-D view.  When they are few, at most one per
    _SEARCHED entries (a degree table, mostly zeros), each entry is numbered
    by ``np.searchsorted`` among them; otherwise, where searching is slower,
    an argsort of the view hands each entry its run's number, counted in
    ``index``'s type.  ``index`` has ``arr``'s shape and the narrowest
    unsigned type that holds it, so the indexes of a CSV's columns, alive
    together, stay small.
    """
    flat = arr.reshape(-1)
    bits = flat.view(f"i{flat.itemsize}") if flat.dtype.kind == "f" else flat
    keys = np.sort(bits)
    runs = np.ones(len(keys), dtype=bool)  # True at the first entry of each run of equal keys
    np.not_equal(keys[1:], keys[:-1], out=runs[1:])
    keys = keys[runs]
    narrow = np.min_scalar_type(len(keys))
    if len(keys) * _SEARCHED <= len(bits):
        index = np.searchsorted(keys, bits).astype(narrow)
    else:
        ranks = np.cumsum(runs, dtype=narrow)  # in sorted order, each entry's run, from 1
        ranks -= 1
        index = np.empty(len(bits), dtype=narrow)
        index[bits.argsort()] = ranks
    table = [names.get(s, s) for s in map(repr, keys.view(flat.dtype).tolist())]
    return np.array(table, dtype=object), index.reshape(arr.shape)


def _json_key(key) -> str:
    if isinstance(key, tuple):
        return "|".join(str(k) for k in key)
    return str(key)


def _json_list(table: np.ndarray, index: np.ndarray, pad: str):
    """JSON list text of ``table[index]``, nested along ``index``'s axes, _CHUNK numbers a piece.

    A 2-D index whose rows fit a chunk is written as many whole rows a
    piece as a chunk holds, by one join; longer rows are split.
    """
    if not len(index):
        yield "[]"
        return
    inner = pad + "  "
    sep = ",\n" + inner
    yield "[\n" + inner
    if index.ndim == 1:
        for start in range(0, len(index), _CHUNK):
            yield (sep if start else "") + sep.join(table[index[start : start + _CHUNK]].tolist())
    elif index.ndim == 2 and 0 < index.shape[1] <= _CHUNK:
        step = _CHUNK // index.shape[1]
        head, cell, tail = f"[\n{inner}  ", f",\n{inner}  ", f"\n{inner}]"
        for start in range(0, len(index), step):
            rows = table[index[start : start + step]].tolist()
            yield (sep if start else "") + sep.join([head + cell.join(row) + tail for row in rows])
    else:
        for i, row in enumerate(index):
            if i:
                yield sep
            yield from _json_list(table, row, inner)
    yield f"\n{pad}]"


def _json_pieces(obj, pad: str = "", spelled=None):
    """Text of ``json.dumps(obj, sort_keys=True, indent=2)``, in pieces.

    Dict keys are spelled by ``_json_key``, NumPy arrays become lists and
    NumPy scalars Python numbers.  An int or float array is spelled from
    its table of distinct numbers (:func:`_spellings`), with NaN and the
    infinities named as ``json`` names them; every other scalar is spelled
    by ``json.dumps``.  ``spelled`` maps the ``id`` of an array that is
    spelled already, by ``repr`` alone, to its ``(table, index)`` pair.
    """
    if isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        inner = pad + "  "
        lead = "{\n"
        for key, value in sorted({_json_key(k): v for k, v in obj.items()}.items()):
            yield f"{lead}{inner}{json.dumps(key)}: "
            yield from _json_pieces(value, inner, spelled)
            lead = ",\n"
        yield f"\n{pad}}}"
        return
    if _is_numbers(obj) and obj.ndim:
        if spelled and id(obj) in spelled:
            table, index = spelled[id(obj)]
            table = np.array([_JSON_NAMES.get(s, s) for s in table.tolist()], dtype=object)
        else:
            table, index = _spellings(obj, _JSON_NAMES)
        yield from _json_list(table, index, pad)
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
        for i, value in enumerate(obj):
            if i:
                yield sep
            yield from _json_pieces(value, inner, spelled)
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
    its shortest round-trip spelling (``str(float) == repr(float)``); an
    int or float array's cells come from its table of distinct numbers.  A
    column may also come spelled already, as a :func:`_spellings` pair
    ``(table, index)``.
    """
    cells = [c if isinstance(c, tuple) else _spellings(c, {}) if _is_numbers(c) else (None, c) for c in columns]
    with _open(path) as fh:
        fh.write(header + "\n")
        for start in range(0, len(cells[0][1]), _CHUNK):
            rows = slice(start, start + _CHUNK)
            parts = [map(str, c[rows]) if t is None else t[c[rows]].tolist() for t, c in cells]
            fh.write("\n".join(map(",".join, zip(*parts))) + "\n")


def _write_outputs(plan: ExperimentPlan, payload: dict, stats: dict) -> None:
    outdir = plan.outdir
    os.makedirs(outdir, exist_ok=True)
    with _open(os.path.join(outdir, "config_echo.txt")) as fh:
        fh.write(render_config(plan.config, plan.replicates))
    # summary.json holds the root matrices that root.csv writes raveled: spell each once for both
    root = stats.get("root", {})
    spelled = {
        key: _spellings(root[key], {}) for key in ("values", "over_ntheta", "over_ex") if root.get(key) is not None
    }
    with _open(os.path.join(outdir, "summary.json")) as fh:
        fh.writelines(_json_pieces(payload, spelled={id(root[key]): pair for key, pair in spelled.items()}))
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
        reps, width = root["values"].shape
        # replicate, n_j and a missing M_over_EXn repeat a few distinct values:
        # spell those once and expand only their narrow indexes
        table, index = _spellings(np.arange(reps), {})
        replicate = (table, np.repeat(index, width))
        table, index = _spellings(np.asarray(root["ns"]), {})
        n_j = (table, np.tile(index, reps))
        if "over_ex" not in spelled:
            table, index = _spellings(np.array([np.nan]), {})
            spelled["over_ex"] = (table, np.broadcast_to(index, reps * width))
        _write_csv(
            os.path.join(outdir, "root.csv"),
            "replicate,n_j,M,M_over_ntheta,M_over_EXn",
            replicate,
            n_j,
            *((table, index.reshape(-1)) for table, index in map(spelled.get, ("values", "over_ntheta", "over_ex"))),
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
    batches = _collect_batches(plan) if needs_growth else []

    lam = None
    if "degree" in plan.statistics or "fringe" in plan.statistics:
        lam = theory.solve_malthusian(config.kernel).lambda_star

    stats: dict = {}
    checks: dict = {}
    if "degree" in plan.statistics:
        stats["degree"], checks["degree"] = _aggregate_degree(plan, batches, lam)
    if "fringe" in plan.statistics:
        stats["fringe"], checks["fringe"] = _aggregate_fringe(plan, batches, lam)
    if "root" in plan.statistics:
        stats["root"], checks["root"] = _aggregate_root(plan, batches)
    if "clt" in plan.statistics:
        stats["clt"], checks["clt"] = _aggregate_clt(plan, batches)
    if "delay-scan" in plan.statistics:
        stats["delay-scan"], checks["delay-scan"] = _aggregate_scan(plan)

    retries = [r for b in batches for r in b["retries"]] or [0]
    del batches  # the raw records end here, before the artifacts are written
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
