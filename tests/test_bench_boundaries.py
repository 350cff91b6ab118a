"""Every name the benchmark's tracer wraps still exists in the package.

``perfbench/tracer.py`` patches each ``(module, attribute)`` of its
``BOUNDARIES`` and silently skips one that is gone, so a refactor that
drops a wrapped name would otherwise show only in the benchmark's own
tests.  The tracer is read from its file; nothing under ``perfbench/`` is
written.
"""

import importlib
import importlib.util
import sys
from pathlib import Path


def _tracer(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave no cache beside the file
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def test_every_tracer_boundary_resolves_to_a_callable(monkeypatch):
    tracer = _tracer(monkeypatch)
    assert tracer.BOUNDARIES
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracer.BOUNDARIES
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
    module, base, method, _ = tracer.SAMPLE_MANY
    assert callable(getattr(getattr(importlib.import_module(module), base), method))
