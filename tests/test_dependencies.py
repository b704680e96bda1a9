"""The package runs on the standard library alone."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_leaves_sympy_out():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = "import gwcurves, sys; assert 'sympy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
