"""The benchmark's ``perfbench/`` modules, read from their files, for the tests that check them.

A test takes the loader as the ``perfbench`` fixture, and a test with a
``workload`` argument runs once per benchmark workload.  Tests do not
import from this module: when ``perfbench/tests`` runs in the same session,
its own ``conftest`` module may hold the name.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_perfbench(name):
    """``perfbench/<name>.py`` loaded from its file, with no bytecode cache written beside it."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.modules[spec.name] = module  # its dataclasses look the module up
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="session")
def perfbench():
    return load_perfbench


def pytest_generate_tests(metafunc):
    if "workload" in metafunc.fixturenames:
        metafunc.parametrize("workload", load_perfbench("workloads").NAMES)
