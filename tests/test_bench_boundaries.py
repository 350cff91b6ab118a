"""Every name the benchmark's tracer wraps still exists in the package.

``perfbench/tracer.py`` patches each ``(module, attribute)`` of its
``BOUNDARIES`` and silently skips one that is gone, so a refactor that
drops a wrapped name would otherwise show only in the benchmark's own
tests.  The tracer is read from its file; nothing under ``perfbench/`` is
written.
"""

import importlib


def test_every_tracer_boundary_resolves_to_a_callable(perfbench):
    tracer = perfbench("tracer")
    assert tracer.BOUNDARIES
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracer.BOUNDARIES
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
    module, base, method, _ = tracer.SAMPLE_MANY
    assert callable(getattr(getattr(importlib.import_module(module), base), method))
