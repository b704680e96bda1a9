"""End-to-end command-line behaviour and output schemas."""

from __future__ import annotations

import errno
import gc
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwcurves.cli import main
from gwcurves.expr import ExprError, parse_expression
from gwcurves.gw import DomainError, form, format_gw

from oracles import uncancelled_gw_equal
from test_expr import expressions


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_fresh(tmp_path, command, vertices, timeout=1.0):
    """``command`` on a polygon file, in a fresh interpreter that a hang
    fails after ``timeout`` seconds instead of stalling the suite."""
    name = tmp_path / "poly.json"
    name.write_text(json.dumps({"vertices": vertices}))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    flag = "--chain" if command == "table" else "--polygon"
    return subprocess.run(
        [sys.executable, "-m", "gwcurves.cli", command, flag, str(name)],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


#: Two primes whose product, 82 bits, is beyond the factoring effort bound.
P, Q = 1000000000039, 3000000000013


class TestGwEval:
    def test_canonical(self, capsys):
        code, out, _ = run(capsys, "gw-eval", "2h + 8*<1>")
        assert code == 0
        assert out.strip() == "2h + 8*<1>"

    def test_trace(self, capsys):
        code, out, _ = run(capsys, "gw-eval", "tr(-1; 1)")
        assert (code, out.strip()) == (0, "<2> + <-2>")

    def test_product_of_large_primes(self, capsys):
        # the class of <P>*<Q> is P*Q by gcd, with no factoring
        code, out, _ = run(capsys, "gw-eval", f"<{P}> * <{Q}>")
        assert (code, out) == (0, "<3000000000130000000000507>\n")

    def test_json_schema_constant(self, capsys):
        code, out, _ = run(capsys, "gw-eval", "h + <6> - <6>", "--json")
        data = json.loads(out)
        assert data["pretty"] == "h"
        assert data["terms"] == [{"class": -1, "coeff": 1}, {"class": 1, "coeff": 1}]

    def test_json_schema_poly(self, capsys):
        code, out, _ = run(capsys, "gw-eval", "b2", "--json")
        data = json.loads(out)
        assert data["monomials"] == [
            {"indices": [2], "value": {"terms": [{"class": 1, "coeff": 1}]}}
        ]

    def test_unicode(self, capsys):
        code, out, _ = run(capsys, "gw-eval", "2h + 8*<1> + b1", "--unicode")
        assert out.strip() == "2h + 8·⟨1⟩ + β₁"

    def test_syntax_error_is_usage(self, capsys):
        code, _, err = run(capsys, "gw-eval", "<oops>")
        assert code == 2
        assert "position" in err
        # an integer is ASCII digits: str.isdigit() also takes superscripts
        # and the digits of other scripts
        for expr, message in [
            ("<\u00b2>", "expected an integer (at position 1)"),
            ("<\u0663>", "expected an integer (at position 1)"),
            ("3\u00b2*h", "expected a factor (at position 1)"),
        ]:
            assert run(capsys, "gw-eval", expr) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("expr, pos", [("2*", 2), ("2*+<3>", 2), ("2 * - <3>", 4)])
    def test_star_needs_a_factor(self, capsys, expr, pos):
        # a coefficient's "*" is followed by a factor, as a factor's is
        assert run(capsys, "gw-eval", expr) == (2, "", f"error: expected a factor (at position {pos})\n")

    def test_constant_product(self, capsys):
        assert run(capsys, "gw-eval", "3*<2> * <8/9> - h") == (0, "2*<1> - <-1>\n", "")

    @pytest.mark.parametrize(
        "expr, pos", [(f"<1> * <{P * Q}>", 6), (f"tr({P * Q}; 1)", 0), (f"h + <{P * Q}>", 4)]
    )
    def test_factoring_error_has_a_position(self, capsys, expr, pos):
        # the position is the start of the factor whose class cannot be found
        code, out, err = run(capsys, "gw-eval", expr)
        assert (code, out) == (2, "")
        assert err == f"error: cannot factor a 82-bit integer within the effort bound (at position {pos})\n"

    @pytest.mark.parametrize("expr, c", [("tr(4; 1)", "4"), ("tr(9/4; 3)", "9/4"), ("tr(1; 5)", "1")])
    def test_square_c_is_named_as_given(self, capsys, expr, c):
        # the message names c, not its class 1
        assert run(capsys, "gw-eval", expr) == (
            2,
            "",
            f"error: {c} is a square, so it does not define a quadratic extension (at position 0)\n",
        )

    def test_readme_factoring_examples(self, capsys):
        # each `gwcurves ...` line of the README's factoring block, checked
        # against the `# ...` line under it: stdout, or the error and exit 2
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = next(b for b in readme.split("```sh\n")[1:] if "cannot factor" in b)
        lines = block.split("```")[0].splitlines()
        assert len(lines) >= 2 and len(lines) % 2 == 0
        for command, comment in zip(lines[::2], lines[1::2]):
            argv = shlex.split(command)
            assert argv[0] == "gwcurves" and comment.startswith("# "), command
            want = comment[2:]
            if want.endswith("(exit 2)"):
                assert run(capsys, *argv[1:]) == (2, "", want[: -len("(exit 2)")].rstrip() + "\n")
            else:
                assert run(capsys, *argv[1:]) == (0, want + "\n", "")

    @pytest.mark.parametrize("template, pos", [("<{}>", 1), ("tr({}; 1)", 3)])
    def test_overlong_literal_is_usage(self, capsys, template, pos):
        t0 = perf_counter()
        code, _, err = run(capsys, "gw-eval", template.format("7" * 5000))
        assert code == 2
        assert err == f"error: integer literal of 5000 digits is too long (at position {pos})\n"
        assert perf_counter() - t0 < 1.0

    @pytest.mark.parametrize(
        "mode", [[], ["--unicode"], ["--json"]], ids=["plain", "unicode", "json"]
    )
    @pytest.mark.parametrize(
        "expr, digits",
        [
            ("{n} + {n}", 4301),
            ("{n}*b1 + {n}*b1", 4301),
            ("*".join(["h"] * 15000), 4516),  # 2**14999 h
        ],
        ids=["constant", "b-coefficient", "h-power"],
    )
    def test_overlong_result_is_usage(self, capsys, expr, digits, mode):
        # 2 * (a 4300-digit literal) is one digit past what Python prints
        t0 = perf_counter()
        code, out, err = run(capsys, "gw-eval", expr.format(n="7" * 4300), *mode)
        assert (code, out) == (2, "")
        assert err == (
            f"error: result has a {digits}-digit number; Python prints at most 4300 digits\n"
        )
        assert perf_counter() - t0 < 1.0

    def test_long_symbol_sum_is_linear(self, capsys):
        # a sum is built once from its terms: re-adding a running sum per term is quadratic
        expr = " + ".join(f"b{i}" for i in range(1, 4001))
        t0 = perf_counter()
        code, out, _ = run(capsys, "gw-eval", expr)
        assert perf_counter() - t0 < 1.0
        assert (code, out) == (0, expr + "\n")

    def test_long_symbol_product_is_linear(self, capsys):
        # a term's symbols make one monomial: rebuilding it at every * is quadratic
        expr = "*".join(f"b{i}" for i in range(1, 16001))
        t0 = perf_counter()
        code, out, _ = run(capsys, "gw-eval", expr)
        assert perf_counter() - t0 < 1.0
        assert (code, out) == (0, expr + "\n")

    def test_long_class_sum(self, capsys):
        code, out, _ = run(capsys, "gw-eval", "+".join(f"<{i}>" for i in range(1, 4001)))
        assert (code, out) == (0, format_gw(form(*range(1, 4001))) + "\n")


class TestGwEqual:
    def test_equal(self, capsys):
        assert run(capsys, "gw-equal", "tr(-1;1)", "h")[0] == 0

    def test_not_equal(self, capsys):
        code, out, _ = run(capsys, "gw-equal", "<1>", "<2>")
        assert code == 1
        assert "not equal" in out

    def test_rejects_symbols(self, capsys):
        assert run(capsys, "gw-equal", "b1", "h")[0] == 2

    def test_cancelled_symbols_are_constant(self, capsys):
        # symbols that cancel leave a constant: equal, and zero in gw-eval
        assert run(capsys, "gw-equal", "b1 - b1", "0") == (0, "equal\n", "")
        assert run(capsys, "gw-eval", "--json", "b1 - b1") == (0, '{"pretty":"0","terms":[]}\n', "")
        assert run(capsys, "gw-eval", "--unicode", "b1*b2 + <3> - b2*b1") == (0, "⟨3⟩\n", "")
        code, out, err = run(capsys, "gw-equal", "b1", "0")
        assert (code, out, err) == (2, "", "error: gw-equal compares constants; got formal b symbols\n")

    def test_equal_products_need_no_factoring(self, capsys):
        # <P*Q> on both sides, or <P*Q> + <-P*Q> against h, cancels before
        # any Hasse place is sought
        code, out, err = run(capsys, "gw-equal", f"<{P}> * <{Q}>", f"<{P}> * <{Q}>")
        assert (code, out, err) == (0, "equal\n", "")
        code, out, err = run(capsys, "gw-equal", f"<{P}> * <{Q}> + <-{P}> * <{Q}>", "h")
        assert (code, out, err) == (0, "equal\n", "")

    def test_hasse_places_of_an_unshared_product_still_factor(self, capsys):
        # 2<P*Q> against 2<1>: the odd places of the Hasse check are the primes of P*Q
        code, out, err = run(capsys, "gw-equal", f"2<{P}> * <{Q}>", "2")
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot factor a 82-bit integer") and err.count("\n") == 1


class TestGwEqualProperty:
    """``gw-equal`` on two calculator texts through ``main``, in-process."""

    @settings(deadline=None, max_examples=150)
    @given(expressions(), st.data())
    def test_exit_status_and_verdict(self, e1, data):
        e2 = data.draw(expressions() | st.just(e1))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["gw-equal", e1, e2])
        try:
            q1, q2 = (parse_expression(e).constant_value() for e in (e1, e2))
        except (ExprError, DomainError):  # a bad text, or a formal b symbol
            assert (code, out.getvalue()) == (2, "")
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        else:
            want = (0, "equal\n", "") if uncancelled_gw_equal(q1, q2) else (1, "not equal\n", "")
            assert (code, out.getvalue(), err.getvalue()) == want


class TestInvariant:
    def test_conic(self, capsys):
        code, out, _ = run(capsys, "invariant", "--polygon", "bl2f1")
        assert (code, out.strip()) == (0, "<1>  N=1  W=1")

    def test_cubic(self, capsys):
        code, out, _ = run(capsys, "invariant", "--polygon", "p2:3")
        assert (code, out.strip()) == (0, "2h + 8*<1>  N=12  W=8")

    def test_budget_guard(self, capsys):
        code, _, err = run(capsys, "invariant", "--polygon", "p2:6")
        assert code == 2
        assert "budget" in err

    @pytest.mark.parametrize("command", ["invariant", "tropical"])
    @pytest.mark.parametrize(
        "vertices, budget",
        [(None, 299999), ([[0, 0], [10**9, 0], [0, 10**9]], 3 * 10**9 - 1)],
        ids=["p2:100000", "json-1e9"],
    )
    def test_huge_budget_refused_before_any_scan(self, capsys, tmp_path, command, vertices, budget):
        name = "p2:100000"
        if vertices is not None:
            name = str(tmp_path / "poly.json")
            Path(name).write_text(json.dumps({"vertices": vertices}))
        t0 = perf_counter()
        code, out, err = run(capsys, command, "--polygon", name)
        assert (code, out) == (2, "")
        assert err == (
            f"error: point budget {budget} exceeds limit 14 (raise with --max-budget)\n"
        )
        assert perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("command", ["invariant", "tropical", "table"])
    def test_many_candidate_paths_refused_before_any_scan(self, capsys, tmp_path, command):
        # budget 4, but 1 004 lattice points: C(1002, 3) candidate paths
        name = str(tmp_path / "poly.json")
        Path(name).write_text(json.dumps({"vertices": [[0, 0], [1, 0], [1000, 2001]]}))
        t0 = perf_counter()
        code, out, err = run(capsys, command, "--chain" if command == "table" else "--polygon", name)
        assert (code, out) == (2, "")
        assert err == (
            "error: 167167000 candidate lattice paths exceed limit 27132, "
            "the count of p2:5 (raise with --max-budget)\n"
        )
        assert perf_counter() - t0 < 1.0

    @pytest.mark.parametrize(
        "vertices", [[[0, 0], [1, 0], [10**8, 1]], [[0, 0], [1, 10**8], [0, 1]]], ids=["wide", "tall"]
    )
    def test_thin_polygon_scans_its_few_rows(self, tmp_path, vertices):
        # unimodular and 10^8 long: its bounding box has 2 * 10^8 points
        proc = run_fresh(tmp_path, "invariant", vertices)
        assert (proc.returncode, proc.stdout) == (0, "<1>  N=1  W=1\n")

    @pytest.mark.parametrize("command", ["invariant", "tropical", "table"])
    def test_polygon_wide_both_ways_refused_before_any_scan(self, tmp_path, command):
        # unimodular (consecutive Fibonacci numbers), but 63 245 987 rows either way
        vertices = [[0, 0], [63245986, 39088169], [102334155, 63245986]]
        proc = run_fresh(tmp_path, command, vertices)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: polygon spans 63245987 rows on its shorter side, more than 10000\n"

    def test_large_budget_limit_is_cheap(self, capsys):
        # the candidate cap of p2:333333333 is never computed in full
        t0 = perf_counter()
        code, out, _ = run(capsys, "invariant", "--polygon", "p2:3", "--max-budget", str(10**9))
        assert (code, out.strip()) == (0, "2h + 8*<1>  N=12  W=8")
        assert perf_counter() - t0 < 1.0

    def test_unknown_polygon(self, capsys):
        assert run(capsys, "invariant", "--polygon", "nope")[0] == 2

    @pytest.mark.parametrize(
        "name, message",
        [
            ("p2:0", "degree must be positive"),
            ("p2:x", "bad degree in 'p2:x'"),
            # a degree is ASCII digits: int() also reads "_" (which "-"
            # becomes) and the digits of other scripts
            ("p2:1-1", "bad degree in 'p2:1-1'"),
            ("p2:0_3", "bad degree in 'p2:0_3'"),
            ("p2:\u0663", "bad degree in 'p2:\u0663'"),
        ],
    )
    def test_bad_degree_names_the_degree(self, capsys, name, message):
        assert run(capsys, "invariant", "--polygon", name) == (2, "", f"error: {message}\n")

    def test_overlong_degree_is_usage(self, capsys):
        # longer than int() reads: it used to escape as a ValueError traceback
        name = "p2:" + "7" * 5000
        assert run(capsys, "invariant", "--polygon", name) == (2, "", f"error: bad degree in {name!r}\n")

    @pytest.mark.parametrize("bad", [2.7, True])
    def test_non_integer_polygon_file(self, capsys, tmp_path, bad):
        ppath = tmp_path / "poly.json"
        ppath.write_text(json.dumps({"vertices": [[0, 0], [bad, 0], [0, 2]]}))
        code, out, err = run(capsys, "invariant", "--polygon", str(ppath))
        assert (code, out) == (2, "")
        assert "integer coordinates" in err

    @pytest.mark.parametrize("data", [[[0, 0], [1, 0], [0, 1]], {"vertices": 5}])
    def test_malformed_polygon_file(self, capsys, tmp_path, data):
        ppath = tmp_path / "poly.json"
        ppath.write_text(json.dumps(data))
        code, out, err = run(capsys, "invariant", "--polygon", str(ppath))
        assert (code, out) == (2, "")
        assert "cannot read polygon" in err

    @pytest.mark.parametrize("command, flag", [("invariant", "--polygon"), ("table", "--chain")])
    def test_deeply_nested_polygon_file(self, capsys, tmp_path, command, flag):
        # the JSON decoder recurses per level: this used to end in a
        # RecursionError traceback with exit 1, the "not equal" code
        ppath = tmp_path / "poly.json"
        ppath.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run(capsys, command, flag, str(ppath))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read polygon from {ppath}: ")


class TestTropical:
    def test_summary_and_files(self, capsys, tmp_path):
        jpath = tmp_path / "curves.json"
        spath = tmp_path / "curves.svg"
        code, out, _ = run(
            capsys,
            "tropical",
            "--polygon",
            "blf1",
            "--list-curves",
            "--json",
            str(jpath),
            "--svg",
            str(spath),
        )
        assert code == 0
        assert "motivic: 2h + 8*<1>  N=12  W=8" in out
        assert "dropped completions:" in out
        assert out.count("curve ") == 9
        data = json.loads(jpath.read_text())
        assert data["complex"] == 12 and data["welschinger"] == 8
        assert len(data["curves"]) == 9
        for curve in data["curves"]:
            assert {"path", "cells", "motivic", "complex", "welschinger"} <= set(curve)
        svg = spath.read_text()
        assert svg.startswith("<?xml") and "<svg" in svg and "polygon" in svg

    def test_polygon_from_file(self, capsys, tmp_path):
        ppath = tmp_path / "poly.json"
        ppath.write_text(json.dumps({"vertices": [[0, 0], [2, 0], [0, 2]]}))
        code, out, _ = run(capsys, "tropical", "--polygon", str(ppath))
        assert code == 0
        assert "N=1" in out

    def test_square_json_pinned(self, capsys, tmp_path):
        # the lambda-extremes of the 3x3 square are ends of horizontal edges
        ppath, jpath = tmp_path / "square.json", tmp_path / "out.json"
        ppath.write_text(json.dumps({"vertices": [[0, 0], [3, 0], [3, 3], [0, 3]]}))
        assert run(capsys, "tropical", "--polygon", str(ppath), "--json", str(jpath))[0] == 0
        assert hashlib.sha256(jpath.read_bytes()).hexdigest() == (
            "e0327ff97e11a44e09c9a5e485dd95fbe7055b839cddf0995881ac0a755f3a23"
        )

    @pytest.mark.parametrize("flag", ["--json", "--svg"])
    def test_unwritable_output_is_refused_before_enumerating(self, capsys, tmp_path, monkeypatch, flag):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("enumerated before checking the output path")

        monkeypatch.setattr("gwcurves.tropical.enumerate_curves", no_enumeration)
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "tropical", "--polygon", "p2:3", flag, str(target))
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {target}: no directory {target.parent}\n"

    @pytest.mark.parametrize("flag", ["--json", "--svg"])
    @pytest.mark.parametrize("name", ["dir", ""])
    def test_directory_output_is_refused_before_enumerating(self, capsys, tmp_path, monkeypatch, flag, name):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("enumerated before checking the output path")

        monkeypatch.setattr("gwcurves.tropical.enumerate_curves", no_enumeration)
        target = str(tmp_path) if name == "dir" else name
        code, out, err = run(capsys, "tropical", "--polygon", "p2:3", flag, target)
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write ") and err.count("\n") == 1

    @pytest.mark.parametrize("spelling", ["same", "dotted", "absolute"])
    def test_json_and_svg_to_one_file_is_refused_before_enumerating(
        self, capsys, tmp_path, monkeypatch, spelling
    ):
        # the SVG, written second, would overwrite the JSON
        def no_enumeration(*args, **kwargs):
            raise AssertionError("enumerated before checking the output paths")

        monkeypatch.setattr("gwcurves.tropical.enumerate_curves", no_enumeration)
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path)
        svg = {"same": "out.json", "dotted": "sub/../out.json", "absolute": str(tmp_path / "out.json")}
        argv = ["tropical", "--polygon", "p2:3", "--json", "out.json", "--svg", svg[spelling]]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: --json and --svg name the same file: out.json\n"
        assert not (tmp_path / "out.json").exists()

    def test_failed_write_is_usage(self, capsys, tmp_path):
        # the directory exists, but the target is a directory itself
        code, _, err = run(capsys, "tropical", "--polygon", "bl2f1", "--json", str(tmp_path))
        assert code == 2
        assert err.startswith(f"error: cannot write {tmp_path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--json", "--svg"])
    def test_empty_output_name_is_refused(self, capsys, flag):
        code, _, err = run(capsys, "tropical", "--polygon", "p2:3", flag, "")
        assert code == 2
        assert err.startswith("error: cannot write ") and err.count("\n") == 1

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("fails", [False, True], ids=["written", "write-fails"])
    def test_json_is_written_with_the_collector_paused(
        self, capsys, tmp_path, monkeypatch, gc_state, enabled, fails
    ):
        from gwcurves import cli

        seen = []
        enumeration_json = cli._enumeration_json

        def spy(enum, inv):
            seen.append(gc.isenabled())
            return enumeration_json(enum, inv)

        def full(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(cli, "_enumeration_json", spy)
        if fails:
            monkeypatch.setattr(Path, "write_text", full)
        (gc.enable if enabled else gc.disable)()
        out = tmp_path / "out.json"
        code, _, err = run(capsys, "tropical", "--polygon", "p2:3", "--json", str(out))
        assert seen == [False]
        assert gc.isenabled() == enabled
        if fails:
            assert (code, err) == (2, f"error: cannot write {out}: {os.strerror(errno.ENOSPC)}\n")
        else:
            assert code == 0 and json.loads(out.read_text())["complex"] == 12

    def test_json_is_byte_stable(self, capsys, tmp_path):
        p1, p2_ = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "tropical", "--polygon", "p2:3", "--json", str(p1))
        run(capsys, "tropical", "--polygon", "p2:3", "--json", str(p2_))
        assert p1.read_bytes() == p2_.read_bytes()


class TestTable:
    def test_markdown_default(self, capsys):
        code, out, _ = run(capsys, "table", "--chain", "blf1")
        assert code == 0
        assert "| 1 | 2h + 6·⟨1⟩ + β₁ |" in out

    def test_signature_ladder(self, capsys):
        code, out, _ = run(capsys, "table", "--chain", "blf1", "--signature", "neg")
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert lines[0].endswith(": 8 6 4 2")
        assert lines[1].endswith(": 1 1 1")

    def test_specialize(self, capsys):
        code, out, _ = run(capsys, "table", "--chain", "blf1", "--specialize=-1,-1")
        assert code == 0
        # row s=2 is 2h + 4<1> + b1 + b2 with both symbols sent to <2> + <-2>
        assert "(s=2): 2h + 4*<1> + 2*<2> + 2*<-2>" in out

    @pytest.mark.parametrize(
        "chain, values, message",
        [
            ("p2:3", "5,-1,2,7,9,11", "--specialize gives 6 values, but the chain's first table, conv{(0,0), (3,0), (0,3)}, has s_max = 4"),
            ("blf1,bl2f1", "1,2,3,4", "--specialize gives 4 values, but the chain's first table, conv{(0,0), (2,0), (2,2), (0,2)}, has s_max = 3"),
            # an invalid chain reports its own error first
            ("blf1,p2:4", "1,2,3,4", "chain must end with an interior-point-free polygon"),
        ],
    )
    def test_specialize_refuses_values_no_level_uses(self, capsys, chain, values, message):
        code, out, err = run(capsys, "table", "--chain", chain, f"--specialize={values}")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_specialize_at_s_max_is_accepted(self, capsys):
        code, out, _ = run(capsys, "table", "--chain", "p2:3", "--specialize=5,-1,2,7")
        assert code == 0
        assert out.splitlines()[0].startswith("conv{(0,0), (3,0), (0,3)} (s=4): ")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "table", "--chain", "bl2f1", "--json")
        data = json.loads(out)
        assert len(data["tables"]) == 1
        assert len(data["tables"][0]["rows"]) == 3

    @pytest.mark.parametrize("spelling", ["p2:04", "p2: 4", "file"])
    def test_quartic_in_any_spelling_gives_the_quartic_table(self, capsys, tmp_path, spelling):
        # other spellings once got a chop of their raw coordinates and a wrong ladder
        if spelling == "file":
            spelling = str(tmp_path / "poly.json")
            Path(spelling).write_text(json.dumps({"vertices": [[0, 4], [0, 0], [4, 0]]}))
        want = run(capsys, "table", "--chain", "p2:4")
        assert want[0] == 0
        assert run(capsys, "table", "--chain", spelling) == want

    def test_explicit_chain_list(self, capsys):
        code, out, _ = run(capsys, "table", "--chain", "blf1,bl2f1")
        assert code == 0

    @pytest.mark.parametrize("chain", ["", ",", " , "])
    def test_empty_chain_is_usage(self, capsys, chain):
        code, out, err = run(capsys, "table", "--chain", chain)
        assert (code, out) == (2, "")
        assert err == f"error: --chain {chain!r} names no polygon\n"

    @pytest.mark.parametrize("chain", ["p2:100000", "blf1,p2:100000"])
    def test_huge_chain_refused_before_building(self, capsys, chain):
        t0 = perf_counter()
        code, out, err = run(capsys, "table", "--chain", chain)
        assert (code, out) == (2, "")
        assert err.startswith("error: point budget 299999 exceeds limit 14")
        assert perf_counter() - t0 < 1.0

    @pytest.mark.parametrize(
        "flags",
        [["--json", "--signature", "neg"], ["--json", "--specialize=1"], ["--signature", "pos", "--specialize=1"]],
    )
    def test_output_flags_are_exclusive(self, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--chain", "bl2f1", *flags])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_unsupported_chain_explains_refusal(self, capsys):
        # p2:5's third level is a depth-2 chop at the corner (0,4) of determinant 2
        code, out, err = run(capsys, "table", "--chain", "p2:5")
        assert (code, out, err) == (
            2,
            "",
            "error: a chain step must remove exactly one interior point: conv{(0,4), (2,0), (5,0), (0,5)} "
            "has 4 interior points and conv{(0,4), (4,0), (5,0), (0,5)} has 0\n",
        )

    @pytest.mark.parametrize(
        "chain, files, message",
        [
            (
                # a triangle of p2:3's chops' budget and area, not a chop
                "p2:3,FILES",
                [[[0, 0], [5, 0], [0, 1]]],
                "conv{(0,0), (5,0), (0,1)} is not a depth-2 corner chop of conv{(0,0), (3,0), (0,3)}",
            ),
            # one interior point fewer, but the budget drops by 3: not a chop
            ("p2:3,bl2f1", [], "conv{(0,0), (2,0), (0,2)} is not a depth-2 corner chop of conv{(0,0), (3,0), (0,3)}"),
            ("p2:4,p2:3", [], "chain must end with an interior-point-free polygon"),
            (
                # a depth-2 chop at the corner (2,4), of determinant 3: the budget drops by 2, from 5 to 3
                "FILES",
                [[[0, 0], [1, 0], [4, 2], [2, 4]], [[0, 0], [1, 0], [4, 2]]],
                "a chain step must remove exactly one interior point: conv{(0,0), (1,0), (4,2), (2,4)} has 5 "
                "interior points and conv{(0,0), (1,0), (4,2)} has 0",
            ),
        ],
        ids=["not-a-chop", "budget-drop", "interior-at-the-end", "singular-corner"],
    )
    def test_explicit_list_refusal(self, capsys, tmp_path, chain, files, message):
        code, out, err = run(capsys, "table", "--chain", chain.replace("FILES", polygon_files(tmp_path, *files)))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_no_chop_available(self, capsys, tmp_path):
        # three interior points, but no corner has two edges of length >= 2
        code, out, err = run(capsys, "table", "--chain", polygon_files(tmp_path, [[0, 0], [3, 1], [1, 3]]))
        assert (code, out, err) == (2, "", "error: no depth-2 chop available on conv{(0,0), (3,1), (1,3)}\n")


def polygon_files(tmp_path, *vertex_lists):
    """Each vertex list written as a polygon file, the names joined by
    commas as ``--chain`` takes them."""
    names = []
    for k, vertices in enumerate(vertex_lists):
        name = tmp_path / f"chain{k}.json"
        name.write_text(json.dumps({"vertices": vertices}))
        names.append(str(name))
    return ",".join(names)


#: An image of p2:4, its mirror image and an image of f1_4_2e, on which the
#: first depth-2 chop of the raw coordinates, in cycle order, lands at a point
#: of an exceptional curve, and the first's chain by that chop written out.
P2_4_IMAGE = [[0, 0], [4, 0], [4, 4]]
P2_4_MIRROR = [[0, 0], [0, 4], [4, 4]]
F1_IMAGE = [[-22, 14], [-16, 10], [0, 0], [-12, 8]]
P2_4_IMAGE_CHAIN = [P2_4_IMAGE, [[2, 0], [4, 0], [4, 4], [2, 2]], [[2, 2], [4, 0], [4, 4]], [[2, 2], [4, 2], [4, 4]]]
chain_defect = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="the chain rule ignores curve classes (ROADMAP item 2): a defective list exits 0",
)


class TestChainDefect:
    """The chain defect: tables of an image of a preset must have the
    preset's signature rows, and its defective chain must be refused.  A
    single polygon is chained on its normal form, so its images agree; an
    explicit list is still checked by steps alone, each a depth-2 chop that
    removes one interior point, and exits 0.  Class polygons that are no
    image of a preset still get rows that leave their class."""

    @pytest.mark.parametrize(
        "vertices, first_row",
        [(P2_4_IMAGE, "240 144 80 40 16 0"), (P2_4_MIRROR, "240 144 80 40 16 0"), (F1_IMAGE, "48 32 20 12 8")],
        ids=["p2:4-image", "p2:4-mirror", "f1_4_2e-image"],
    )
    def test_image_has_the_preset_signatures(self, capsys, tmp_path, vertices, first_row):
        code, out, _ = run(capsys, "table", "--chain", polygon_files(tmp_path, vertices), "--signature", "neg")
        assert code == 0
        assert out.splitlines()[0].split(": ")[1] == first_row

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="the chain rule ignores curve classes (ROADMAP item 2): the first chop leaves the class",
    )
    @pytest.mark.parametrize(
        "vertices, first_row",
        [
            # (4; 1, 0, 0), whose point of multiplicity 1 is a point condition: p2:4's ladder
            ([[2, 1], [5, 4], [5, 5], [2, 5]], "240 144 80 40 16 0"),
            # (6; 4, 1, 0): the ladder of (6; 4, 0, 0), conv{(4,0), (6,0), (0,6), (0,4)}
            ([[0, 0], [5, 0], [5, 1], [4, 2], [0, 2]], "1280 768 448 256 144 80 48"),
        ],
        ids=["4;1,0,0", "6;4,1,0"],
    )
    def test_class_polygon_has_its_class_signatures(self, capsys, tmp_path, vertices, first_row):
        # the first prints 240 144 72 16 -32 -80 today, the second 1280 776 388 68 -216 -480 -724
        code, out, _ = run(capsys, "table", "--chain", polygon_files(tmp_path, vertices), "--signature", "neg")
        assert code == 0
        assert out.splitlines()[0].split(": ")[1] == first_row

    @chain_defect
    def test_defective_list_is_refused(self, capsys, tmp_path):
        code, out, err = run(capsys, "table", "--chain", polygon_files(tmp_path, *P2_4_IMAGE_CHAIN))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


class TestOracle:
    def test_kontsevich(self, capsys):
        code, out, _ = run(capsys, "oracle", "--kontsevich", "4")
        assert (code, out.strip()) == (0, "620")

    def test_small_degrees(self, capsys):
        got = [run(capsys, "oracle", "--kontsevich", str(d))[1] for d in range(1, 6)]
        assert got == ["1\n", "1\n", "12\n", "620\n", "87304\n"]

    def test_degree_bound_is_the_print_limit(self, capsys, monkeypatch):
        from gwcurves import wallcross

        top = wallcross.KONTSEVICH_MAX_DEGREE
        counts = wallcross._kontsevich_counts(top + 1)
        assert counts[top] < 10**4300 <= counts[top + 1]
        # the CLI prints the computed count at the bound instead of recomputing it
        monkeypatch.setattr(wallcross, "_kontsevich_counts", lambda d: counts[: d + 1])
        code, out, err = run(capsys, "oracle", "--kontsevich", str(top))
        assert (code, out, err) == (0, f"{counts[top]}\n", "")
        for d in (top + 1, 10**6):
            code, out, err = run(capsys, "oracle", "--kontsevich", str(d))
            assert (code, out) == (2, "")
            assert err == (
                f"error: degree must be <= {top}: the count for degree "
                f"{top + 1} already has more than 4300 digits\n"
            )

    def test_lowered_digit_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run(capsys, "oracle", "--kontsevich", "150")
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, out) == (2, "")
        assert err.startswith("error: result has a ") and err.count("\n") == 1


class TestIntegerOptions:
    """``--specialize`` items, ``--kontsevich`` and ``--max-budget`` take
    ASCII digits after an optional minus sign, as ``p2:<d>`` does: ``int``
    also takes ``_``, ``+``, spaces and the digits of other scripts."""

    @pytest.mark.parametrize(
        "argv, bad",
        [
            (["table", "--chain", "blf1", "--specialize=\u0663,1"], "\u0663"),
            (["table", "--chain", "blf1", "--specialize=1,1_0"], "1_0"),
            (["table", "--chain", "blf1", "--specialize=+1"], "+1"),
            (["oracle", "--kontsevich", "\u0663"], "\u0663"),
            (["oracle", "--kontsevich", "1_0"], "1_0"),
            (["oracle", "--kontsevich", "\u00b3"], "\u00b3"),
            (["invariant", "--polygon", "p2:3", "--max-budget", "\u0661\u0664"], "\u0661\u0664"),
            (["tropical", "--polygon", "p2:3", "--max-budget", "1_4"], "1_4"),
            (["table", "--chain", "p2:3", "--max-budget", " 14"], " 14"),
            # a blank item before a value would shift the later values down one symbol
            (["table", "--chain", "p2:3", "--specialize=5,,2"], ""),
            (["table", "--chain", "p2:3", "--specialize=,5"], ""),
        ],
    )
    def test_ascii_digits_only(self, capsys, argv, bad):
        option = argv[-1].split("=")[0] if "=" in argv[-1] else argv[-2]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [f"gwcurves {argv[0]}: error: argument {option}: not an integer: {bad!r}"]

    @pytest.mark.parametrize("option", ["--kontsevich", "--max-budget", "--specialize"])
    def test_overlong_integer(self, capsys, option):
        argv = {
            "--kontsevich": ["oracle", "--kontsevich"],
            "--max-budget": ["invariant", "--polygon", "p2:3", "--max-budget"],
            "--specialize": ["table", "--chain", "blf1", "--specialize"],
        }[option]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "-" + "7" * 5000])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.splitlines()[-1].endswith(f"argument {option}: integer literal of 5000 digits is too long")

    def test_ascii_values_are_read(self, capsys):
        assert run(capsys, "oracle", "--kontsevich", "3") == (0, "12\n", "")
        spaced = run(capsys, "table", "--chain", "blf1", "--specialize=3, 10,", "--max-budget", "014")
        assert spaced == run(capsys, "table", "--chain", "blf1", "--specialize=3,10")
        assert spaced[0] == 0 and "(s=2): " in spaced[1]


class TestLeadingDashValues:
    """A value that begins with ``-`` answers as its spaced or ``=`` spelling
    does, where argparse alone reads it as an unknown option and exits 2."""

    @pytest.mark.parametrize(
        "argv, spelled, want",
        [
            (["gw-eval", "-<2>"], ["gw-eval", " -<2>"], (0, "-<2>\n")),
            (["gw-eval", "-h+<2>"], ["gw-eval", " -h+<2>"], (0, "-h + <2>\n")),
            (["gw-eval", "-<2>", "--unicode"], ["gw-eval", "--unicode", " -<2>"], (0, "-⟨2⟩\n")),
            (["gw-equal", "-<2>", "<-2>"], ["gw-equal", " -<2>", "<-2>"], (1, "not equal\n")),
            (["gw-equal", "-<1>", "-h+<-1>"], ["gw-equal", " -<1>", " -h+<-1>"], (0, "equal\n")),
            (
                ["table", "--chain", "blf1", "--specialize", "-1,-1"],
                ["table", "--chain", "blf1", "--specialize=-1,-1"],
                (0, "(s=2): 2h + 4*<1> + 2*<2> + 2*<-2>\n"),
            ),
            # -h is the text -<1> - <-1> unless it is its subcommand's only argument
            (["gw-equal", "-h", "<1>"], ["gw-equal", " -h", "<1>"], (1, "not equal\n")),
            (["gw-equal", "<1>", "-h"], ["gw-equal", "<1>", " -h"], (1, "not equal\n")),
            (["gw-equal", "-h", "-h"], ["gw-equal", " -h", " -h"], (0, "equal\n")),
            (["gw-eval", "-h", "--unicode"], ["gw-eval", " -h", "--unicode"], (0, "-h\n")),
        ],
    )
    def test_answers_as_spelled_with_a_space(self, capsys, argv, spelled, want):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == run(capsys, *spelled)
        assert (code, err) == (want[0], "") and want[1] in out

    @pytest.mark.parametrize("argv", [["-h"], ["gw-eval", "-h"], ["gw-equal", "--help"], ["-vh"]])
    def test_help_alone_still_prints_help(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, err) == (0, "")
        assert out.startswith("usage: gwcurves")

    def test_h_after_the_one_text_is_a_second_text(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gw-eval", "<2>", "-h"])
        assert exc.value.code == 2
        assert "unrecognized arguments: -h" in capsys.readouterr().err

    def test_unknown_option_is_still_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gw-eval", "<2>", "--frobnicate"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --frobnicate" in capsys.readouterr().err


class TestRuntime:
    def test_closed_pipe_is_quiet(self):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first line is written
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "gwcurves.cli", "table", "--chain", "p2:4"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (0, b"")

    def test_internal_error_exit_code(self, capsys, monkeypatch):
        from gwcurves.tropical import InternalInvariantError

        def boom(*args, **kwargs):
            raise InternalInvariantError("forced")

        monkeypatch.setattr("gwcurves.tropical.count_invariants", boom)
        code, _, err = run(capsys, "invariant", "--polygon", "bl2f1")
        assert code == 3
        assert "invariant violation" in err
