"""Golden digests of every artifact file: the writer reproduces its bytes exactly.

Two small plans cover both root-degree regimes and every artifact.  The
``grid-uniform01`` plan is in the ``l2`` regime, so ``root.csv`` carries a
``nan`` column and ``summary.json`` a ``null`` ``over_ex``; it also writes
``clt.csv`` and ``delay_scan.csv``.  The ``grid-invpow2`` plan is in the
heavy regime (finite ``M_over_EXn``) and writes ``fringe.csv`` with its
code strings and the tuple-keyed pair counts in ``summary.json``.  The
``grid-zero`` plan grows the classical model, the constant delay at c = 0,
whose echo spells it ``delay.kind = zero``.

The digests are SHA-256 over each file's bytes.  A change to the numbers,
their spelling, key order, indentation or line endings fails here.
"""

import hashlib
import os

import pytest

from delaytree import harness
from delaytree.cli import PRESETS
from delaytree.configio import build_config, parse_config_text

PLANS = {
    "uniform01": ("grid-uniform01", ("degree", "root", "clt", "delay-scan"), 1500, 5),
    "invpow2": ("grid-invpow2", ("degree", "fringe", "root"), 3000, 3),
    "zero": ("grid-zero", ("degree", "fringe", "root"), 3000, 3),
}

GOLDEN = {
    "uniform01": {
        "clt.csv": "50417bf7f5b0d57a29bbcac5d521cb8681bc4653b4aa67b9eefb5f95f842068c",
        "config_echo.txt": "68cfc271c3a42df0172740311f786083edfa435705110207d5c65d699d1b22c1",
        "degree_hist.csv": "1ac01296ca951aad57dc575dd3c3382abfeb5cd4c28f3ba0ea10edde5bb9aa74",
        "delay_scan.csv": "3d80a4fe9f0b6f1052038b1d7f5a5837879641b4ec57bce635a25fc71d54f0e1",
        "root.csv": "8dfe5653acf0d8888afbaca2f010abc3aa6b8ccee119c38b0c716070f79bfebf",
        "summary.json": "291f7ded7e648697078b9793ca89a919e8ea6840f5eec4a4841d5173d72bcf5f",
    },
    "invpow2": {
        "config_echo.txt": "1405d019b004569ac62c300f5b5ae9e1249e1d6b83f00e2d082d1da50d8b042f",
        "degree_hist.csv": "8855d905c7cc4456fc0fa522d25833ec29beaddb41eba9cb3a9381f13b3450c3",
        "fringe.csv": "754a507c7284e47f0ae7effa6f3d6bb1c4cd8194b336a10a22c828fb96487996",
        "root.csv": "f2f132eaa9a3238b19d1a7f137e063e00edaf24bf2153ac1851757c19be9feb4",
        "summary.json": "d995c67603f35ece430e1f3486d669a6887fce0e36950277af531322d2768fd0",
    },
    "zero": {
        "config_echo.txt": "ecd85603f38e8b09904ff409ffe00e5bc0cdfc00255ee6a6648cb02e56f4946e",
        "degree_hist.csv": "437113baf54458bdad9cb9e674bd3a08efdbc40d58f59d05a24628cb5cc31249",
        "fringe.csv": "fbf2f23666c0798c431afdba6bf6af8f94116b5b091af796c158d8d1312769d1",
        "root.csv": "ffe6f8fb8d864df20bd07fd3bd7ba03ec7bffb81a2fd6c91a2af17cbda08b891",
        "summary.json": "bf5064d4f9e6e569bda941e0bfc5e25f345b62ab9bfa136e223e53ea74e9fdda",
    },
}


@pytest.mark.parametrize("name", sorted(PLANS))
def test_artifacts_match_golden_digests(name, tmp_path):
    preset, stats, n, reps = PLANS[name]
    entries = parse_config_text(PRESETS[preset])
    entries.update(n_final=str(n), replicates=str(reps), seed="7")
    config, replicates = build_config(entries)
    outdir = tmp_path / name
    harness.run(
        harness.ExperimentPlan(
            config=config, replicates=replicates, statistics=stats, outdir=str(outdir)
        )
    )
    got = {
        f: hashlib.sha256((outdir / f).read_bytes()).hexdigest() for f in sorted(os.listdir(outdir))
    }
    assert got == GOLDEN[name]
