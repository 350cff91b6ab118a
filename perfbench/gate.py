"""Correctness gate and determinism digests for one plan's artifacts.

The gate holds only invariants that a correct simulator meets on every
seed: the verdict, exact degree and census identities on the serialized
statistics, and a complete artifact set.  Tolerance-style checks belong to
the verdict itself (``RunSummary.ok``), which the gate requires as well.
"""

from __future__ import annotations

import hashlib
import json
import os

ALWAYS = ("config_echo.txt", "summary.json")
PER_STATISTIC = {
    "degree": "degree_hist.csv",
    "fringe": "fringe.csv",
    "root": "root.csv",
    "clt": "clt.csv",
    "delay-scan": "delay_scan.csv",
}


def expected_artifacts(statistics) -> set[str]:
    return set(ALWAYS) | {PER_STATISTIC[s] for s in statistics}


def check_summary(summary: dict, replicates: int, n: int, statistics) -> list[str]:
    """Problems with the exact invariants of a serialized summary."""
    problems = []
    stats = summary.get("statistics", {})
    if summary.get("replicates") != replicates:
        problems.append(f"replicates: {summary.get('replicates')} != {replicates}")
    if "degree" in statistics:
        counts = stats.get("degree", {}).get("pooled_counts", [])
        total = sum(counts)
        if total != replicates * n:
            problems.append(f"degree: counts sum to {total}, want R*n = {replicates * n}")
        edges = sum(k * c for k, c in enumerate(counts))
        if edges != 2 * replicates * (n - 1):
            problems.append(
                f"degree: sum k*N_k = {edges}, want 2R(n-1) = {2 * replicates * (n - 1)}"
            )
    if "fringe" in statistics:
        f = stats.get("fringe", {})
        fringe = sum(f.get("counts", {}).values()) + f.get("truncated", -1)
        if fringe != replicates * n:
            problems.append(f"fringe: counts + truncated = {fringe}, want R*n = {replicates * n}")
        pairs = sum(f.get("pair_counts", {}).values()) + f.get("pair_truncated", -1)
        if pairs != replicates * (n - 1):
            problems.append(
                f"pairs: counts + truncated = {pairs}, want R*(n-1) = {replicates * (n - 1)}"
            )
    return problems


def check_plan(outdir: str, ok: bool, replicates: int, n: int, statistics) -> list[str]:
    """Every reason the plan fails the gate; empty when it passes.

    A failed verdict is reported with the prefix ``verdict:`` so callers
    running below the sizes the tolerances assume can tell it apart.
    """
    problems = [] if ok else ["verdict: the run's own checks failed"]
    present = set(os.listdir(outdir)) if os.path.isdir(outdir) else set()
    missing = expected_artifacts(statistics) - present
    if missing:
        problems.append(f"artifacts: missing {sorted(missing)}")
    if "summary.json" in present:
        with open(os.path.join(outdir, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        problems.extend(check_summary(summary, replicates, n, statistics))
    return problems


def artifact_digest(outdir: str) -> tuple[str, int]:
    """SHA-256 over the artifact set (names and bytes, sorted) and its size."""
    h = hashlib.sha256()
    size = 0
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            data = fh.read()
        size += len(data)
        h.update(name.encode() + b"\0" + str(len(data)).encode() + b"\0" + data)
    return h.hexdigest(), size
