"""The repository's pytest configuration, run on a probe in a fresh interpreter."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_stop_the_session(tmp_path):
    # Hypothesis imports libcst to write the failing example's patch, and
    # libcst's deprecated mypy_extensions.TypedDict must not turn into an
    # INTERNALERROR under error::DeprecationWarning: the other test still runs
    (tmp_path / "test_probe.py").write_text(PROBE)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.stdout.strip().splitlines()[-1].startswith("1 failed, 1 passed")
