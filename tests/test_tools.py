"""The benchmark trajectory tool's argument parsing and statistics, loaded
by path: no git command and no benchmark run."""

from __future__ import annotations

import argparse
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).parents[1] / "tools" / "bench_trajectory.py"
_spec = importlib.util.spec_from_file_location("bench_trajectory", _PATH)
bench_trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_trajectory)


@pytest.mark.parametrize("text, want", [("tables", ("tables", 3)), ("enumerate:10", ("enumerate", 10))])
def test_workload_spec(text, want):
    assert bench_trajectory.workload_spec(text) == want


@pytest.mark.parametrize("text", ["sorting", "tables:x", "tables:2"])
def test_bad_workload_spec_is_refused(text):
    with pytest.raises(argparse.ArgumentTypeError):
        bench_trajectory.workload_spec(text)


def test_summary():
    assert bench_trajectory.summary([1, 2, 3, 4, 5]) == {"median": 3, "iqr": 2}
