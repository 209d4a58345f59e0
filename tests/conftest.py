"""Shared test settings.

Property tests run under a fixed ``hypothesis`` profile: derandomized, so
every run draws the same examples; no per-example deadline, since timings
on a shared machine vary; and a bounded example count, so they fit the
suite's time budget.
"""

import functools
import importlib.util
import sys
from pathlib import Path

from hypothesis import settings

settings.register_profile(
    "srp", derandomize=True, deadline=None, max_examples=60, database=None
)
settings.load_profile("srp")


@functools.cache
def load_bench_workloads():
    """The benchmark's config generators (``bench/workloads.py``), read only."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module
