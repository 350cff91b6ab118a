"""What the ``bench/`` scripts share: source trees measured in fresh processes, taking turns.

Each script compares the source trees named by ``--tree LABEL=SRC``, a
directory holding the ``delaytree`` package; give it twice to compare two
versions on the same machine.  One measurement is one fresh Python
process (:func:`measure`) running :data:`PRELUDE` and then the script's
``CHILD`` program, with SRC first on ``sys.path``, ``PYTHONPATH`` dropped
and NumPy single-threaded; the child prints one JSON object as its last
line of output.  The trees take turns run by run (:func:`alternate`), in
reverse order every other run, so that host drift and the cost of running
first hit them alike.  Rows record medians and, under ``quartiles``, the
first and third quartiles of the numbers each median was taken of, so a
move can be told from the host's run-to-run spread.
The JSON document, with a record of the host, goes to standard output
(:func:`write`), progress to standard error.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys

# one client on a small machine: keep NumPy single-threaded
ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# runs before every CHILD: SRC (argv[1]) goes first on sys.path, leaving argv[1:] to the child's own arguments
PRELUDE = r"""
import hashlib, json, os, sys
sys.path.insert(0, sys.argv.pop(1))
from delaytree.cli import PRESETS
from delaytree.configio import build_config, parse_config_text

def preset_config(name, entries):
    merged = parse_config_text(PRESETS[name])
    merged.update(entries)  # config keys to their text, set over the preset
    return build_config(merged)[0]

def parents_sha256(trace):
    return hashlib.sha256(trace.parents.astype("<i8").tobytes()).hexdigest()

def artifact_sha256(outdir):
    digest = hashlib.sha256()
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()
"""


def trees(doc: str, argv=None) -> dict:
    """``{label: src}`` from the ``--tree LABEL=SRC`` options in ``argv``."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("--tree", action="append", required=True, metavar="LABEL=SRC")
    return dict(t.split("=", 1) for t in ap.parse_args(argv).tree)


def measure(child: str, src: str, *args) -> dict:
    """The JSON object printed last by one fresh process running ``child`` on the tree ``src``."""
    env = dict(os.environ, **ENV)
    env.pop("PYTHONPATH", None)
    out = subprocess.run(
        [sys.executable, "-c", PRELUDE + child, os.path.abspath(src), *map(str, args)],
        check=True, capture_output=True, text=True, env=env,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def alternate(cases: dict, runs: int, run, describe) -> dict:
    """``{label: [run(case, 0), run(case, 1), ...]}`` over ``cases``, the cases taking turns.

    Run i measures every case once, in reverse order when i is odd; each
    result is logged to standard error as its label and ``describe(result)``.
    """
    got: dict = {label: [] for label in cases}
    for i in range(runs):
        for label in list(cases)[:: -1 if i % 2 else 1]:
            result = run(cases[label], i)
            got[label].append(result)
            print(f"{label} {describe(result)}", file=sys.stderr)
    return got


def median(values, digits: int = 4) -> float:
    return round(statistics.median(values), digits)


def quartiles(values, digits: int = 4) -> list:
    """``[q1, q3]`` of ``values`` by the inclusive method, so both lie within their range."""
    values = list(values)
    if len(values) == 1:
        return [round(values[0], digits)] * 2
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, digits), round(q3, digits)]


def spread(got: list, keys) -> dict:
    """``{key: [q1, q3]}`` of each of ``keys`` over the results ``got``."""
    return {key: quartiles(g[key] for g in got) for key in keys}


def distinct(got: list, key: str) -> list:
    """The values of ``key`` over the results ``got``, each once, sorted: one digest when they agree."""
    return sorted({g[key] for g in got})


def write(benchmark: str, script: str, **fields) -> int:
    """Write the JSON document of ``fields`` after the benchmark, its script and the host to standard output."""
    host = {
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
    }
    doc = {"benchmark": benchmark, "script": script, "host": host, **fields}
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    return 0
