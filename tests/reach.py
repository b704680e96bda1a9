"""Which functions of ``gwcurves`` no console command reaches, and why each stays.

    PYTHONPATH=src python tests/reach.py

Imports ``gwcurves.cli`` and runs a fixed list of ``gwcurves`` commands in
this interpreter through ``cli.main``, all under ``sys.settrace``: every
subcommand and flag, and one refusal of each kind.  Then prints each
function defined in the package's modules whose code no command entered, as
``module:line qualname: reason``, and a last line with their count.  Each
such function must have a reason in ``REASONS`` to stay in ``src``;
otherwise it is a candidate for deletion, or for a command that should
reach it.

Exits 1, printing the command, if a command's exit code is not the one
listed: then the audit would measure a broken command.  Also exits 1 if an
unreached function has no reason, or a reason names a function that a
command now reaches or that is gone.  The file has no ``test_`` prefix, so
pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
import tempfile
from importlib.util import find_spec
from inspect import CO_NEWLOCALS
from pathlib import Path

PACKAGE = Path(find_spec("gwcurves").origin).parent

#: (exit code, argv); FILE:NAME is the polygon file NAME, OUT:NAME a fresh path.
COMMANDS = [
    (0, ["gw-eval", "<6>*<10>"]),
    (0, ["gw-eval", "<1000000000039> * <3000000000013>"]),
    (0, ["gw-eval", "--json", "2*<3> + h"]),
    (0, ["gw-eval", "--unicode", "tr(5; 1, 2) + b1"]),
    (0, ["gw-eval", "--json", "b1 + <2>"]),
    (0, ["gw-eval", "-h+<2>"]),
    (0, ["gw-equal", "tr(-1;1)", "h"]),
    (1, ["gw-equal", "<1>+<5>", "<2>+<10>"]),
    (0, ["-v", "tropical", "--polygon", "p2:3", "--list-curves", "--json", "OUT:t.json", "--svg", "OUT:t.svg"]),
    (0, ["tropical", "--polygon", "FILE:cubic"]),
    (0, ["invariant", "--polygon", "p2:4"]),
    (0, ["invariant", "--polygon", "p2:3", "--max-budget", "8"]),
    (0, ["table", "--chain", "p2:4"]),
    (0, ["table", "--chain", "p2:3", "--json"]),
    (0, ["table", "--chain", "p2:3", "--specialize=5,-1,2"]),
    (0, ["table", "--chain", "p2:4", "--signature", "neg"]),
    (0, ["table", "--chain", "p2:3", "--signature", "pos", "--max-budget", "8"]),
    (0, ["table", "--chain", "FILE:quartic_image"]),
    (0, ["table", "--chain", "blf1,bl2f1"]),
    (0, ["oracle", "--kontsevich", "4"]),
    (0, ["-h"]),
    (0, ["gw-eval", "-h"]),
    # refusals: argparse, then one of each kind the handlers raise
    (2, ["oracle", "--kontsevich", "٣"]),
    (2, ["table", "--chain", "bl2f1", "--json", "--signature", "neg"]),
    (2, ["gw-eval", "2*"]),
    (2, ["gw-eval", "<0>"]),
    (2, ["gw-eval", "<3000000000000000000000000000000059890000000000000000000000000000038407>"]),
    (2, ["gw-equal", "b1", "<1>"]),
    (2, ["invariant", "--polygon", "p2:0"]),
    (2, ["invariant", "--polygon", "nowhere"]),
    (2, ["invariant", "--polygon", "FILE:garbled"]),
    (2, ["invariant", "--polygon", "p2:5", "--max-budget", "10"]),
    (2, ["invariant", "--polygon", "FILE:wide"]),
    (2, ["invariant", "--polygon", "FILE:many_paths"]),
    (2, ["tropical", "--polygon", "p2:2", "--json", "OUT:"]),
    (2, ["tropical", "--polygon", "p2:2", "--json", "OUT:same", "--svg", "OUT:same"]),
    (2, ["table", "--chain", ","]),
    (2, ["table", "--chain", "p2:3", "--specialize=1,2,3,4,5"]),
    (2, ["table", "--chain", "p2:5"]),
    (2, ["table", "--chain", "FILE:nochop"]),
    (2, ["table", "--chain", "p2:3,bl2f1"]),
    (2, ["oracle", "--kontsevich", "0"]),
]

PERFBENCH = "perfbench calls it (ROADMAP item 18)"
REFERENCE = "perfbench's reference enumeration calls it (ROADMAP item 18)"
PROTOCOL = "Python protocol method"
LAZY = "lazy-export hook"
API = "documented API with a test"

#: Why each function that no command reaches stays in ``src``, by ``module:qualname``.
REASONS = {
    "__init__:__getattr__": LAZY,
    "__init__:__dir__": LAZY,
    "betapoly:BetaPolynomial.from_dict": API,
    "betapoly:BetaPolynomial.coeff": "perfbench calls it through constant_value (ROADMAP item 18)",
    "betapoly:BetaPolynomial.constant_value": PERFBENCH,
    "betapoly:BetaPolynomial.equivalent": PERFBENCH,
    "betapoly:BetaPolynomial.__str__": PROTOCOL,
    "expr:parse_expression": PERFBENCH,
    "expr:parse_gw": API,
    "gw:_Frozen.__repr__": PROTOCOL,
    "gw:_Frozen.__reduce__": PROTOCOL,
    "gw:_Frozen.__setattr__": PROTOCOL,
    "gw:_Frozen.__delattr__": PROTOCOL,
    "gw:GWElement.from_dict": PERFBENCH,
    "gw:GWElement.__reduce__": PROTOCOL,
    "gw:GWElement.__str__": PROTOCOL,
    "gw:GWElement.hasse_invariant": "public spelling of the Hilbert symbol that README names, form(a, b).hasse_invariant(place)",
    "gw:_hilbert_int": "hasse_invariant's symbols at the real place and 2, where gw_equal needs none",
    "tropical:Cell.area2": REFERENCE,
    "tropical:Cell.sides": PERFBENCH,
    "tropical:MarkedSubdivision.triangles": REFERENCE,
    "tropical:curve_mult": PERFBENCH,
    "tropical:enumerate_paths": PERFBENCH,
    "tropical:_Completer.at": "error-message path: the points of a failed internal check",
    "tropical:complete_path": PERFBENCH,
    "tropical:complete_path.<locals>.rec": REFERENCE,
    "tropical:validate_subdivision": PERFBENCH,
    "wallcross:quartic_chain": PERFBENCH,
}

POLYGONS = {
    "cubic": [[10, 10], [13, 10], [10, 13]],
    "quartic_image": [[0, 0], [4, 0], [4, 4]],
    "wide": [[0, 0], [63245986, 39088169], [102334155, 63245986]],
    "many_paths": [[0, 0], [1, 0], [1000, 2001]],
    "nochop": [[0, 0], [3, 1], [1, 3]],
}


def functions() -> dict[tuple[str, int, str], tuple[str, int, str]]:
    """Every function of the package, keyed as its code objects are, with its
    module, line and qualified name; class bodies and comprehensions are left out.
    The qualified name is built from the nesting, as Python 3.10 code has no ``co_qualname``."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [(compile(path.read_text(), str(path), "exec"), "")]
        while stack:
            code, qualname = stack.pop()
            function = code.co_flags & CO_NEWLOCALS
            prefix = f"{qualname}.<locals>." if function else f"{qualname}." if qualname else ""
            stack.extend((c, prefix + c.co_name) for c in code.co_consts if hasattr(c, "co_code"))
            if function and not code.co_name.startswith("<"):
                found[key(code)] = path.stem, code.co_firstlineno, qualname
    return found


def key(code) -> tuple[str, int, str]:
    return code.co_filename, code.co_firstlineno, code.co_name


def argv_in(tmp: Path, argv: list[str]) -> list[str]:
    out = []
    for arg in argv:
        kind, _, name = arg.partition(":")
        if kind == "FILE":
            path = tmp / f"{name}.json"
            if not path.exists():
                path.write_text("{not json" if name == "garbled" else json.dumps({"vertices": POLYGONS[name]}))
            arg = str(path)
        elif kind == "OUT":
            arg = str(tmp / name)
        out.append(arg)
    return out


def run(main, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


def reached_codes() -> set:
    seen = set()

    def tracer(frame, event, arg):
        seen.add(key(frame.f_code))  # called on "call" events only, as no local tracer is returned

    def traced(call):
        sys.settrace(tracer)
        try:
            return call()
        finally:
            sys.settrace(None)

    # every command imports the package, so what its import calls is reached
    main = traced(lambda: importlib.import_module("gwcurves.cli")).main
    with tempfile.TemporaryDirectory() as tmp:
        for want, argv in COMMANDS:
            code = traced(lambda: run(main, argv_in(Path(tmp), argv)))
            if code != want:
                sys.exit(f"gwcurves {' '.join(argv)} exited {code}, not {want}")
    return seen


if __name__ == "__main__":
    every = functions()
    seen = reached_codes()
    unreached = sorted(where for k, where in every.items() if k not in seen)
    for module, line, name in unreached:
        print(f"{module}:{line} {name}: {REASONS.get(f'{module}:{name}', 'no reason')}")
    print(f"{len(unreached)} of {len(every)} functions reached by no command")
    names = {f"{module}:{name}" for module, _, name in unreached}
    defined = {f"{module}:{name}" for module, _, name in every.values()}
    faults = [f"{name} is reached by no command and has no reason" for name in sorted(names - REASONS.keys())]
    faults += [
        f"{name} has a reason but is {'reached by a command' if name in defined else 'gone'}"
        for name in sorted(REASONS.keys() - names)
    ]
    for fault in faults:
        print(fault, file=sys.stderr)
    sys.exit(1 if faults else 0)
