"""Loaded before pytest collects any test module.

natmu pins one BLAS thread (see ``src/natmu/__init__.py``) only if it is
imported before numpy, because BLAS reads its thread variables once, when
numpy first loads. Importing natmu here makes that hold in the test process
whatever order the modules are collected in, so every test trains at natmu's
default thread count. ``src`` goes on the path first, as in
``natbench/tests/conftest.py``, so the suite also runs without an install.
"""

import sys
import tracemalloc
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent / "src"))

import natmu  # noqa: E402, F401


@pytest.fixture
def traced_peak():
    """`traced_peak(fn)` calls `fn` and returns its result and the peak
    bytes allocated while it ran (numpy's array buffers included), less
    those still held when it began."""
    def measure(fn):
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            result = fn()
            return result, tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
    return measure
