import json
import os
import types

import pytest

import layers
import run
from tracer import Span, Tracer, high_percentile, outermost_total, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _span(name, start, end, parent=-1, **info):
    return Span(name, start, end, parent, "w/0/0", info)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("harness.run", 0.0, 10.0),
        _span("growth.grow", 1.0, 4.0, 0),
        _span("kernels.sample_many", 1.5, 2.0, 1),
        _span("estimators.fringe_census", 5.0, 9.0, 0),
        _span("canonical.subtree_codes", 5.5, 8.0, 3),
        # overlaps its sibling and runs past the parent's end: only the
        # covered part inside the parent counts, and only once
        _span("canonical.subtree_codes", 7.0, 9.5, 3),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.5, 0.5, 0.5, 2.5, 2.5])


def test_outermost_total_does_not_double_count_nested_spans():
    spans = [
        _span("theory.fringe_recursion", 0.0, 3.0),
        _span("theory.degree_law", 1.0, 2.0, 0),
        _span("theory.degree_law", 4.0, 4.5),
    ]
    assert outermost_total(spans, layers.ORACLES) == pytest.approx(3.5)


@pytest.mark.parametrize(
    "n, expected",
    [
        (10, None),
        (11, None),
        (20, (50.0, 10, 20)),
        (100, (90.0, 90, 100)),
        (1000, (99.0, 990, 1000)),
        (1500, (99.0, 1485, 1500)),
        (20000, (99.9, 19980, 20000)),
    ],
)
def test_high_percentile_keeps_ten_samples_beyond(n, expected):
    values = list(range(n, 0, -1))  # order of input must not matter
    assert high_percentile(values) == expected
    if expected:
        level, value, samples = expected
        assert sum(v > value for v in values) >= 10


def _fake_module():
    mod = types.ModuleType("perfbench_fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    def boom():
        raise RuntimeError("boom")

    mod.inner, mod.outer, mod.boom = inner, outer, boom
    return mod


def test_tracer_records_nesting_restores_and_skips_missing(monkeypatch):
    mod = _fake_module()
    monkeypatch.setitem(__import__("sys").modules, mod.__name__, mod)
    originals = (mod.inner, mod.outer, mod.boom)
    boundaries = (
        (mod.__name__, "outer", "harness.run"),
        (mod.__name__, "inner", "growth.inner"),
        (mod.__name__, "boom", "cli.boom"),
        (mod.__name__, "merged_away", "estimators.gone"),
        ("perfbench_no_such_module", "f", "theory.gone"),
    )
    with Tracer(boundaries=boundaries, sample_many=("perfbench_no_such_module", "X", "m", "k")) as t:
        assert mod.outer(1) == 4
        with pytest.raises(RuntimeError):
            mod.boom()
    assert (mod.inner, mod.outer, mod.boom) == originals
    assert [s.name for s in t.spans] == ["harness.run", "growth.inner", "cli.boom"]
    assert [s.parent for s in t.spans] == [-1, 0, -1]
    assert all(s.end >= s.start for s in t.spans)
    assert len(t.missing) == 3


def test_missing_boundaries_read_zero():
    values = layers.timing_metrics([])
    assert set(values) | set(layers.alloc_metrics([])) | {
        "harness.artifact_bytes",
        "trace.overhead_share",
    } == set(layers.UNITS)
    assert all(v == 0 for v in values.values())


def test_benchmark_json_lists_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.UNITS
    assert [w["name"] for w in bench["workloads"]] == list(run.NAMES)
