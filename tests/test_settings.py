"""The pytest settings in ``pyproject.toml`` keep a failing test readable."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 10
"""


def test_failing_hypothesis_test_shows_its_example(tmp_path):
    # every warning is an error, and hypothesis's failure report raises one
    # (a deprecation in a module it imports); left an error, it ended the
    # session in INTERNALERROR before the falsifying example was shown
    (tmp_path / "test_fails.py").write_text(FAILING)
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
            "-p", "no:cacheprovider", "test_fails.py",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "Falsifying example: test_fails(" in run.stdout
    assert "1 failed" in run.stdout
    assert run.returncode == 1
