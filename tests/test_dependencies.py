"""The package runs on the standard library alone, and a fresh interpreter
loads only the modules its command runs."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: The names ``gwcurves`` re-exports, by the module that defines each.
EXPORTS = {
    "betapoly": ["BetaPolynomial", "beta_symbol", "format_poly"],
    "expr": ["ExprError", "parse_expression", "parse_gw"],
    "gw": [
        "H", "ONE", "ZERO", "DomainError", "GWElement", "InternalInvariantError", "form",
        "format_gw", "gw_equal", "square_class", "trace_form",
    ],
    "polygon": ["LatticePolygon", "p2", "polygon", "preset"],
    "tropical": [
        "Cell", "Enumeration", "InternalInvariantError", "MarkedSubdivision",
        "complete_path", "count_invariants", "curve_mult", "enumerate_curves",
        "enumerate_paths", "vertex_mult",
    ],
    "wallcross": [
        "InvariantTable", "SurfaceChain", "base_invariant", "build_tables", "chain_from",
        "kontsevich_nd", "quartic_chain", "wall_cross_step",
    ],
}

#: What a command that neither enumerates nor builds tables must not load.
ENUMERATION = ["gwcurves.tropical", "gwcurves.wallcross", "gwcurves.svgout", "concurrent.futures"]
#: What no command loads: ``dataclasses`` (which imports ``inspect``, ``ast``,
#: ``dis`` and ``tokenize``), ``inspect``, and ``logging``, which only ``-v``
#: loads.
UNUSED = ["dataclasses", "inspect", "logging"]
#: The calculator's modules: ``gw-eval`` and ``gw-equal`` load both, ``table``
#: and ``oracle`` load ``betapoly`` through ``wallcross``.
CALCULATOR = ["gwcurves.expr", "gwcurves.betapoly"]

#: What a command loads only for a written fraction: ``fractions``, which
#: imports ``decimal``.
FRACTIONS = ["fractions", "decimal"]

def fresh(code: str, **env: str) -> str:
    """Run ``code`` in a new interpreter with only ``src`` on the path and
    ``env`` added to the environment; its stdout."""
    env = {**os.environ, "PYTHONPATH": str(SRC), **env}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, timeout=60, stdout=subprocess.PIPE, text=True
    )
    return run.stdout


def run_cli_then_check_absent(args: list[str], absent: list[str], **env: str) -> str:
    return fresh(
        "import runpy, sys\n"
        f"sys.argv = ['gwcurves', *{args!r}]\n"
        "try:\n"
        "    runpy.run_module('gwcurves.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        f"loaded = [m for m in {absent!r} if m in sys.modules]\n"
        "assert not loaded, loaded\n",
        **env,
    )


def test_import_leaves_sympy_out():
    fresh("import gwcurves, sys; assert 'sympy' not in sys.modules")


def test_import_leaves_the_enumeration_out():
    fresh(f"import gwcurves, sys; loaded = [m for m in {ENUMERATION!r} if m in sys.modules]; assert not loaded, loaded")


@pytest.mark.parametrize(
    "args", [["gw-eval", "<2>"], ["gw-equal", "tr(-1;1)", "h"]], ids=["gw-eval", "gw-equal"]
)
def test_calculator_leaves_the_enumeration_out(args):
    run_cli_then_check_absent(args, ENUMERATION)


@pytest.mark.parametrize(
    "args, absent",
    [
        (["gw-eval", "<2>"], UNUSED),
        (["gw-equal", "tr(-1;1)", "h"], UNUSED),
        (["invariant", "--polygon", "p2:3"], UNUSED + CALCULATOR),
        (["tropical", "--polygon", "p2:3"], UNUSED + CALCULATOR),
        (["table", "--chain", "p2:3"], UNUSED),
    ],
    ids=["gw-eval", "gw-equal", "invariant", "tropical", "table"],
)
def test_command_loads_only_what_it_runs(args, absent):
    run_cli_then_check_absent(args, absent)


@pytest.mark.parametrize(
    "args",
    [
        ["invariant", "--polygon", "p2:3"],
        ["tropical", "--polygon", "p2:3"],
        ["table", "--chain", "p2:3"],
        ["oracle", "--kontsevich", "4"],
        ["gw-eval", "<6>*<10>"],
    ],
    ids=["invariant", "tropical", "table", "oracle", "gw-eval"],
)
def test_fractions_load_only_for_a_written_fraction(args):
    run_cli_then_check_absent(args, FRACTIONS)


def test_written_fraction_still_reduces():
    # in a fresh interpreter, where no test has imported fractions already
    assert run_cli_then_check_absent(["gw-eval", "<8/9>"], []) == "<2>\n"


def test_verbose_logs_in_a_fresh_interpreter():
    # logging is imported for -v alone; the caplog tests cannot show that
    # the lines still reach stderr, as pytest has imported logging already
    run = subprocess.run(
        [sys.executable, "-m", "gwcurves.cli", "-v", "invariant", "--polygon", "p2:3"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
        timeout=60,
        capture_output=True,
        text=True,
    )
    assert run.stdout == "2h + 8*<1>  N=12  W=8\n"
    assert run.stderr == (
        "INFO:gwcurves.tropical:conv{(0,0), (3,0), (0,3)}: dropped 6 completions (boundary-weight=6)\n"
        "INFO:gwcurves.tropical:conv{(0,0), (3,0), (0,3)}: completed 8 paths with 30 summary and 19 count memo entries\n"
    )


def test_serial_invariant_leaves_the_pool_out():
    run_cli_then_check_absent(["invariant", "--polygon", "p2:3"], ["concurrent.futures"])


def test_enumeration_runs_in_one_process():
    # jobs is accepted and ignored: no pool is started, nor its modules loaded
    fresh(
        "import sys\n"
        "from gwcurves import enumerate_curves, p2\n"
        "assert len(enumerate_curves(p2(3), jobs=2).curves) == 9\n"
        "loaded = [m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )


def test_threads_variable_is_ignored():
    # GWCURVES_THREADS no longer starts a pool: a CLI call enumerates in one process
    out = run_cli_then_check_absent(
        ["invariant", "--polygon", "p2:3"], ["concurrent.futures"], GWCURVES_THREADS="2"
    )
    assert out == "2h + 8*<1>  N=12  W=8\n"


def test_every_export_is_its_module_object():
    fresh(
        "import gwcurves, importlib\n"
        f"exports = {EXPORTS!r}\n"
        "got = {n: getattr(gwcurves, n) for names in exports.values() for n in names}\n"
        "for module, names in exports.items():\n"
        "    home = importlib.import_module('gwcurves.' + module)\n"
        "    for n in names:\n"
        "        assert got[n] is getattr(home, n), (module, n)\n"
        "        assert n in dir(gwcurves), n\n"
        "try:\n"
        "    gwcurves.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('unknown name resolved')\n"
    )


def test_polygon_stays_the_function_after_a_submodule_import():
    fresh(
        "import gwcurves.tropical, gwcurves.wallcross, sys\n"
        "from gwcurves import enumerate_curves, polygon, preset\n"
        "assert polygon is sys.modules['gwcurves.polygon'].polygon\n"
        "assert gwcurves.polygon is polygon\n"
    )
