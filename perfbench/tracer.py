"""Outside-in spans around the public functions of each delaytree layer.

The tracer replaces a function at the name its caller resolves (for
example ``delaytree.harness.grow``, which is what ``harness.run`` calls)
with a wrapper that records one span per call, and puts the original back
when the trace ends.  ``src/`` is never edited.  A boundary that no longer
exists is skipped and simply reads zero calls, so the trace survives
refactors that merge or rename functions.

Spans are kept in memory and written out by the caller at
the end of the run.  Nothing in the program waits on a queue or a lock, so
a span's self time (its duration minus the part covered by child spans) is
busy time in that layer.
"""

from __future__ import annotations

import importlib
import math
import time
import tracemalloc
from dataclasses import dataclass, field

# (module, attribute path, span name).  The module is the *caller's* module
# wherever the callee is imported by name, so the patch is what the caller
# actually resolves.
BOUNDARIES = (
    ("delaytree.cli", "main", "cli.main"),
    ("delaytree.cli", "run", "harness.run"),
    ("delaytree.harness", "run", "harness.run"),
    ("delaytree.harness", "grow", "growth.grow"),
    ("delaytree.growth", "snapshot_times", "kernels.snapshot_times"),
    ("delaytree.estimators", "subtree_codes", "canonical.subtree_codes"),
    ("delaytree.estimators", "degree_hist", "estimators.degree_hist"),
    ("delaytree.estimators", "fringe_census", "estimators.fringe_census"),
    ("delaytree.estimators", "extended_fringe_census", "estimators.extended_fringe_census"),
    ("delaytree.estimators", "root_trajectory", "estimators.root_trajectory"),
    ("delaytree.estimators", "delay_condition_scan", "estimators.delay_condition_scan"),
    ("delaytree.theory", "solve_malthusian", "theory.solve_malthusian"),
    ("delaytree.theory", "degree_law", "theory.degree_law"),
    ("delaytree.theory", "fringe_recursion", "theory.fringe_recursion"),
    ("delaytree.theory", "extended_fringe_law", "theory.extended_fringe_law"),
    ("delaytree.theory", "root_degree_constants", "theory.root_degree_constants"),
)

# Delay draws are a method; every delay law class that defines its own
# ``sample_many`` is wrapped under this one span name.
SAMPLE_MANY = ("delaytree.kernels", "DelayLaw", "sample_many", "kernels.sample_many")


def _grow_probe(args, kwargs, result) -> dict:
    config = args[0] if args else kwargs["config"]
    # references only: the arrays are summarised after the run, outside
    # every span, so probing adds O(1) work to the caller's self time
    return {
        "n": int(config.n_final),
        "sampler": config.resolve_sampler(),
        "retries": int(getattr(result, "retries", 0)),
        "snapshots": getattr(result, "snapshots", None),
        "parents": getattr(result, "parents", None),
    }


def _vertices_of_trace(args, kwargs, result) -> dict:
    trace = args[0] if args else kwargs["trace"]
    return {"n": int(trace.n)}


def _subtree_probe(args, kwargs, result) -> dict:
    parents = args[0] if args else kwargs["parents"]
    return {"n": len(parents) - 1}


def _census_probe(args, kwargs, result) -> dict:
    return {"n": int(result.n), "truncated": int(result.truncated)}


PROBES = {
    "growth.grow": _grow_probe,
    "canonical.subtree_codes": _subtree_probe,
    "estimators.degree_hist": _vertices_of_trace,
    "estimators.fringe_census": _census_probe,
    "estimators.extended_fringe_census": _census_probe,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    # "<workload>/<plan>/<replicate>", the replicate being the index of the
    # plan's most recent grow call (aggregation spans carry the last one)
    tag: str
    info: dict = field(default_factory=dict)
    peak_bytes: int = 0  # allocation pass only


class Tracer:
    """Records spans at the wrapped boundaries while installed.

    With ``alloc_spans`` the first ``alloc_calls`` calls of each named span
    also record their peak allocation: ``tracemalloc`` runs only inside
    those calls, and the pass is run separately so that its overhead stays
    out of the timings.
    """

    def __init__(self, alloc_spans=(), alloc_calls: int = 3, boundaries=BOUNDARIES,
                 sample_many=SAMPLE_MANY):
        self.boundaries = boundaries
        self.sample_many = sample_many
        self.spans: list[Span] = []
        self.installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.context = ""
        self._replicate = -1
        self._stack: list[int] = []
        # allocation pass: calls of each named span still to be measured
        self._alloc_left = {name: alloc_calls for name in alloc_spans}
        self._alloc_root: int | None = None
        self._open_peak: dict[int, int] = {}
        self._open_base: dict[int, int] = {}

    # -- context ---------------------------------------------------------
    def begin_plan(self, label: str) -> None:
        self.context = label
        self._replicate = -1

    # -- install / restore ----------------------------------------------
    def install(self) -> None:
        for module_name, attr, name in self.boundaries:
            self._patch(module_name, attr, name)
        module_name, base_name, method, name = self.sample_many
        try:
            module = importlib.import_module(module_name)
            base = getattr(module, base_name)
        except (ImportError, AttributeError):
            self.missing.append(f"{module_name}.{base_name}.{method}")
            return
        for obj in vars(module).values():
            if isinstance(obj, type) and issubclass(obj, base) and method in vars(obj):
                self._patch_obj(obj, method, name)

    def restore(self) -> None:
        while self.installed:
            owner, attr, original = self.installed.pop()
            setattr(owner, attr, original)
        if self._alloc_root is not None:
            tracemalloc.stop()
            self._alloc_root = None

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _patch(self, module_name: str, attr: str, name: str) -> None:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(f"{module_name}.{attr}")
            return
        if not callable(getattr(owner, attr, None)):
            self.missing.append(f"{module_name}.{attr}")
            return
        self._patch_obj(owner, attr, name)

    def _patch_obj(self, owner, attr: str, name: str) -> None:
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self.installed.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name))

    # -- recording -------------------------------------------------------
    def _wrap(self, fn, name: str):
        probe = PROBES.get(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if probe is not None:
                tracer.spans[idx].info = probe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _fold_peak(self) -> None:
        """Credit the peak since the last reset to every measured open span."""
        _, peak = tracemalloc.get_traced_memory()
        for i, seen in self._open_peak.items():
            if peak > seen:
                self._open_peak[i] = peak
        tracemalloc.reset_peak()

    def _open(self, name: str) -> int:
        if name == "growth.grow":
            self._replicate += 1
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        tag = f"{self.context}/{max(self._replicate, 0)}"
        if self._alloc_left.get(name, 0) > 0:
            self._alloc_left[name] -= 1
            if self._alloc_root is None:
                tracemalloc.start()
                self._alloc_root = idx
        if self._alloc_root is not None:
            self._fold_peak()
            current, _ = tracemalloc.get_traced_memory()
            self._open_base[idx] = current
            self._open_peak[idx] = current
        self._stack.append(idx)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, tag))
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if idx in self._open_peak:
            self._fold_peak()
            span.peak_bytes = self._open_peak.pop(idx) - self._open_base.pop(idx)
            if idx == self._alloc_root:
                tracemalloc.stop()
                self._alloc_root = None


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def children_of(spans) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            kids[s.parent].append(i)
    return kids


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        elif b > cur_hi:
            cur_hi = b
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    kids = children_of(spans)
    out = []
    for i, s in enumerate(spans):
        child_iv = [(spans[c].start, spans[c].end) for c in kids[i]]
        out.append((s.end - s.start) - covered(child_iv, s.start, s.end))
    return out


def outermost_total(spans, names) -> float:
    """Summed duration of spans named in ``names`` not nested in another of them."""
    names = set(names)
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        nested = False
        while p >= 0:
            if spans[p].name in names:
                nested = True
                break
            p = spans[p].parent
        if not nested:
            total += s.end - s.start
    return total


HI_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def high_percentile(values, min_beyond: int = 10):
    """(level, value, samples) for the highest listed percentile with at
    least ``min_beyond`` samples above it, or None when there are too few.

    The value is the nearest-rank order statistic, so it is always one of
    the measured samples.
    """
    xs = sorted(values)
    n = len(xs)
    for level in HI_PERCENTILES:
        rank = max(math.ceil(round(level * n / 100.0, 9)), 1)  # 1-based
        if n - rank >= min_beyond:
            return level, xs[rank - 1], n
    return None
