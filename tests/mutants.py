#!/usr/bin/env python3
"""Mutants the tests must catch, and a runner that checks that they do.

    python tests/mutants.py [NAME ...]

Each mutant is one edit of one file: a text that must occur there exactly
once, its replacement, and the test files that should catch the change.  For
each mutant (every one when no NAME is given) the runner copies ``src``,
``tests``, ``pyproject.toml`` and ``README.md`` (which ``test_cli.py`` reads)
into a temporary directory, applies the edit there and runs

    python -m pytest -x -q -m 'not slow' -p no:cacheprovider FILES

with ``PYTHONDONTWRITEBYTECODE=1`` under a time bound of ``TIMEOUT`` seconds.
A mutant is caught when a test fails and survived when all pass; a run that
times out or cannot collect its tests is neither, and is reported as it
ended.  The unmutated copy runs the union of the files first, and must pass.

Exit status: 0 when every mutant is caught, 1 when one is not, 2 for a
mutant whose text does not occur exactly once or an unmutated copy that
fails.  Only the standard library is used; pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml", "README.md")
TIMEOUT = 600


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]


WALLCROSS, GW = "src/gwcurves/wallcross.py", "src/gwcurves/gw.py"
POLYGON, TROPICAL = "src/gwcurves/polygon.py", "src/gwcurves/tropical.py"
SVGOUT = "src/gwcurves/svgout.py"
CHAIN_TESTS = ("tests/test_wallcross.py", "tests/test_cli.py")
NORMAL_FORM_TESTS = ("tests/test_polygon.py",)
TROPICAL_TESTS = ("tests/test_tropical.py",)

MUTANTS = [
    # each chain step removes exactly one interior point
    Mutant("chain-interior-rule", WALLCROSS, "if b.interior_count() != a.interior_count() - 1:", "if False:", CHAIN_TESTS),
    # each chain step is a depth-2 corner chop, up to normal form
    Mutant(
        "chain-normal-form-chop",
        WALLCROSS,
        "if normal_form(b)[0] not in {normal_form(c)[0] for c in _depth2_chops(a)}:",
        "if False:",
        CHAIN_TESTS,
    ),
    # below p2:4 come the presets, whose coordinates the golden table digests pin
    Mutant("chain-quartic-case", WALLCROSS, 'if form == preset("p2:4") else', "if False else", ("tests/test_golden.py",)),
    # gw_equal: each <c> + <-c> is cancelled as one h, unfactored
    Mutant(
        "gw-equal-pairing",
        GW,
        "k, e = _split_h(e, [c for c, _ in e.terms if c > 0])",
        "k, e = 0, e",
        ("tests/test_gw.py", "tests/test_cli.py"),
    ),
    # gw_equal: the discriminant of e is that of m*h, (-1)**m
    Mutant("gw-equal-discriminant", GW, "e.discriminant() != (-1) ** m", "e.discriminant() != 1", ("tests/test_gw.py",)),
    # gw_equal: e has signature 0
    Mutant("gw-equal-signature", GW, "if e.signature() or e.discriminant()", "if e.discriminant()", ("tests/test_gw.py",)),
    # gw_equal: e has Hasse invariant +1 at each odd place dividing one of its classes
    Mutant("gw-equal-hasse", GW, "return all(e.hasse_invariant(p) == 1 for p in places)", "return True", ("tests/test_gw.py",)),
    # normal_form: the least tuple over the cycle and its mirror
    Mutant("normal-form-mirror", POLYGON, "for s in (1, -1):", "for s in (1,):", NORMAL_FORM_TESTS),
    # normal_form: the incoming edge sheared to (a, b) with 0 <= a < b
    Mutant("normal-form-shear", POLYGON, "k = (u * fx + v * fy) // (s * (p * fy - q * fx))", "k = 0", NORMAL_FORM_TESTS),
    # normal_form: the least image, not the greatest
    Mutant("normal-form-min", POLYGON, "if best is None or image < best[0]:", "if best is None or image > best[0]:", NORMAL_FORM_TESTS),
    # normal_form: the origin of the map is the start vertex of the least image
    Mutant("normal-form-origin", POLYGON, "best = (image, m, o)", "best = (image, m, vs[0])", NORMAL_FORM_TESTS),
    # chain_from: m^-1 = det(m) adj(m), det(m) = -1 under a mirror
    Mutant("chain-map-back-det", WALLCROSS, "e = a * d - b * c", "e = 1", CHAIN_TESTS),
    # chain_from: an image of p2:4 is known by its normal form, not its coordinates
    Mutant(
        "chain-quartic-test",
        WALLCROSS,
        'if form == preset("p2:4") else',
        'if polys[-1] == preset("p2:4") else',
        CHAIN_TESTS,
    ),
    # validate_subdivision: a side on no polygon edge needs two cells
    Mutant(
        "validate-single-cell",
        TROPICAL,
        'raise InternalInvariantError(f"interior edge {side} has a single cell")',
        "pass",
        TROPICAL_TESTS,
    ),
    # the Hilbert symbol at 2: both valuation terms
    Mutant(
        "hilbert-2-valuation",
        GW,
        "e += al * ((w * w - 1) // 8) + bl * ((u * u - 1) // 8)",
        "e += bl * ((u * u - 1) // 8)",
        ("tests/test_gw.py",),
    ),
    # the Hilbert symbol at an odd prime: (-1/p) when both valuations are odd
    Mutant("hilbert-odd-minus-one", GW, "sym = _jacobi(-1, p) if al * bl % 2 else 1", "sym = 1", ("tests/test_gw.py",)),
    # hasse_invariant: a class of weight n pairs with itself comb(n, 2) times
    Mutant("hasse-self-pairs", GW, "if comb(n, 2) % 2:", "if False:", ("tests/test_gw.py",)),
    # _count_path: a whole path is the product over every piece with area, one step long too
    Mutant("count-split-at-arc", TROPICAL, "if area:", "if j - start > 1:", TROPICAL_TESTS),
    # _count_path: a parallelogram whose reflected point is on the arc cuts the rest into pieces
    Mutant("count-cut", TROPICAL, "if len(pts) == 4 and pot[rest[i]] is not None:", "if False:", TROPICAL_TESTS),
    # _count_path: a peel at vertex i changes the turn at i - 1, where the child's scan starts
    Mutant(
        "count-peel-hint",
        TROPICAL,
        "_count_path(comp, side, rest, area - a2, i - 1 or 1)",
        "_count_path(comp, side, rest, area - a2, i)",
        TROPICAL_TESTS,
    ),
    # _count_doomed: each side reads the potentials of its own arc
    Mutant(
        "count-doomed-left-arc",
        TROPICAL,
        "left_pot, right_pot, right_counts = comp.arc[1], comp.arc[-1]",
        "left_pot, right_pot, right_counts = comp.arc[-1], comp.arc[-1]",
        TROPICAL_TESTS,
    ),
    # enumerate_curves: no sort of all the curves follows the sort of each path's
    Mutant("keep-path-sort", TROPICAL, "pairs.sort(key=itemgetter(0))", "pass", TROPICAL_TESTS),
    # enumerate_curves: a kept pair's cells are its left summary's and its right summary's
    Mutant(
        "kept-pair-side",
        TROPICAL,
        "sorted(side_keys[id(left)] + side_keys[id(right)])",
        "sorted(side_keys[id(left)] + side_keys[id(left)])",
        TROPICAL_TESTS,
    ),
    # _shape_mult: the odd class of an all-odd triangle carries (-1)^I
    Mutant("vertex-mult-sign", TROPICAL, "sign = -1 if _pick_interior", "sign = 1 if _pick_interior", TROPICAL_TESTS),
    # _shape_mult: the odd class of an all-odd triangle is the product of all three edge lengths
    Mutant("vertex-mult-odd-class", TROPICAL, "form(sign * l1 * l2 * l3)", "form(sign * l1 * l2)", TROPICAL_TESTS),
    # wall_cross_step: N(s+1) = N(s) + (b - 2<1>) * N_blowup(s)
    Mutant(
        "wall-cross-sum",
        WALLCROSS,
        "return n_surface + n_blowup.mul_step(next_index)",
        "return n_surface - n_blowup.mul_step(next_index)",
        CHAIN_TESTS,
    ),
    # wall_cross_step: a symbol already in use is refused, not only a later one
    Mutant(
        "wall-cross-index-order",
        WALLCROSS,
        "if used and max(used) >= next_index:",
        "if used and max(used) > next_index:",
        CHAIN_TESTS,
    ),
    # base_invariant: the memo is keyed by the normal form, which fixes N and W; the budget does not
    Mutant("base-memo-key", WALLCROSS, "self.form = normal_form(poly)[0]", "self.form = poly.point_budget()", CHAIN_TESTS),
    # base counts that depend on where a level lies, or on which way round it is: images must catch both
    Mutant(
        "base-count-coordinates",
        WALLCROSS,
        "return count_invariants(level.poly).canonical",
        "c = count_invariants(level.poly).canonical; return 2 * c if min(level.poly.vertices)[0] < 0 else c",
        CHAIN_TESTS,
    ),
    Mutant(
        "base-count-orientation",
        WALLCROSS,
        "return count_invariants(level.poly).canonical",
        "(a, b), (c, d) = normal_form(level.poly)[1]; n = count_invariants(level.poly).canonical; "
        "return 2 * n if a * d < b * c else n",
        CHAIN_TESTS,
    ),
    # _pair_reason: a component with no triangle is a line, even when another has one
    Mutant(
        "pair-reason-line-component",
        TROPICAL,
        'return "disconnected" if all(components.values()) else "line-component"',
        'return "disconnected" if any(components.values()) else "line-component"',
        TROPICAL_TESTS,
    ),
    # _pair_reason: a glued pair has T = B - 2 triangles, which an even slip or a heavy pair breaks
    Mutant("pair-light-identity", TROPICAL, "if left.triangles + right.triangles != rays - 2:", "if False:", TROPICAL_TESTS),
    # _pair_loop: a kept pair's product is memoized by both factors' ids, and summed once per curve
    Mutant("product-memo-key", TROPICAL, "key = id(a), id(cr.motivic)", "key = id(a), 0", TROPICAL_TESTS),
    Mutant("product-curve-count", TROPICAL, "hit[3] += 1", "hit[3] = 1", TROPICAL_TESTS),
    # _cell_fill: a triangle with a rank-one summand is one of odd rank, since h has rank 2
    Mutant("svg-fill-parity", SVGOUT, ".rank() % 2", ".rank() % 4", ("tests/test_cli.py",)),
]


def copy_tree(into: Path) -> None:
    for name in COPIED:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, into / name, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        else:
            shutil.copy2(ROOT / name, into / name)


def run_tests(root: Path, tests) -> tuple[str, str]:
    """How pytest ended on ``tests`` in the copy at ``root``, and the first failure it names."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(root / "src"))
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-m", "not slow", "-p", "no:cacheprovider", *tests]
    try:
        proc = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return f"timed out after {TIMEOUT} s", ""
    failed = next((line for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))), "")
    return {0: "passed", 1: "failed"}.get(proc.returncode, f"pytest exited {proc.returncode}"), failed


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"no mutant named {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    for m in chosen:
        found = (ROOT / m.file).read_text().count(m.old)
        if found != 1:
            print(f"{m.name}: {m.old!r} occurs {found} times in {m.file}", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory(prefix="gwcurves-mutants-") as tmp:
        root = Path(tmp)
        copy_tree(root)
        status, failed = run_tests(root, sorted({t for m in chosen for t in m.tests}))
        if status != "passed":
            print(f"the unmutated copy {status}: {failed}", file=sys.stderr)
            return 2
        missed = 0
        for m in chosen:
            path = root / m.file
            text = path.read_text()
            path.write_text(text.replace(m.old, m.new))
            status, failed = run_tests(root, m.tests)
            path.write_text(text)
            verdict = {"failed": "caught", "passed": "survived"}.get(status, status)
            missed += verdict != "caught"
            print(f"{m.name}: {verdict}" + (f" ({failed})" if failed else ""), flush=True)
    print(f"{len(chosen) - missed} of {len(chosen)} mutants caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
