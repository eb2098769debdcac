"""The repository's pytest configuration keeps a session going past a
failing Hypothesis test."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TWO_TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(max_examples=5, database=None)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    assert True
'''


def test_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    """Warnings are errors, and Hypothesis's failure report must not turn
    into one: the session reports the failure and runs the next test."""
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
