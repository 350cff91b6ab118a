import json
import os

import pytest

import gate
import worker


@pytest.fixture(scope="module")
def census_plan(tmp_path_factory):
    """A tiny pa-census-1m plan's artifacts, kept on disk."""
    import workloads

    worker._import_delaytree()
    outroot = str(tmp_path_factory.mktemp("census"))
    (step,) = workloads.prepare("pa-census-1m", 5, outroot, scale=0.002)
    ok = step.call()
    return step, ok


def _problems(step, ok):
    found = gate.check_plan(step.outdir, ok, step.replicates, step.n, step.statistics)
    return [p for p in found if not p.startswith("verdict:")]


def _rewrite(path, edit):
    with open(path, encoding="utf-8") as fh:
        summary = json.load(fh)
    edit(summary)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)


def test_clean_plan_passes(census_plan):
    step, ok = census_plan
    assert _problems(step, ok) == []


@pytest.mark.parametrize(
    "edit, expect",
    [
        (lambda s: s["statistics"]["degree"]["pooled_counts"].__setitem__(1, 0), "degree"),
        (lambda s: s["statistics"]["degree"]["pooled_counts"].append(1), "degree"),
        (lambda s: s["statistics"]["fringe"].__setitem__("truncated", 0), "fringe"),
        (lambda s: s["statistics"]["fringe"]["pair_counts"].popitem(), "pairs"),
        (lambda s: s.__setitem__("replicates", 2), "replicates"),
    ],
)
def test_corrupted_summary_is_flagged(census_plan, tmp_path, edit, expect):
    step, ok = census_plan
    copy = tmp_path / "copy"
    copy.mkdir()
    for name in os.listdir(step.outdir):
        (copy / name).write_bytes(open(os.path.join(step.outdir, name), "rb").read())
    _rewrite(copy / "summary.json", edit)
    problems = gate.check_plan(str(copy), ok, step.replicates, step.n, step.statistics)
    assert any(p.startswith(expect) for p in problems), problems


def test_missing_artifact_and_failed_verdict_are_flagged(census_plan, tmp_path):
    step, _ = census_plan
    problems = gate.check_plan(str(tmp_path), False, step.replicates, step.n, step.statistics)
    assert problems[0].startswith("verdict:")
    assert any(p.startswith("artifacts:") and "fringe.csv" in p for p in problems)
