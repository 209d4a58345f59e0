"""Shared test settings.

Property tests run under a fixed ``hypothesis`` profile: derandomized, so
every run draws the same examples; no per-example deadline, since timings
on a shared machine vary; and a bounded example count, so they fit the
suite's time budget.
"""

from hypothesis import settings

settings.register_profile(
    "srp", derandomize=True, deadline=None, max_examples=60, database=None
)
settings.load_profile("srp")
