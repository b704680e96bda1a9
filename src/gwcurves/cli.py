"""Command-line surface.

Subcommands:

    gw-eval "<expr>" [--json] [--unicode]      canonical form of an expression
    gw-equal "<e1>" "<e2>"                     exit 0 iff equal in GW(Q)
    tropical --polygon NAME|FILE [...]         enumerate curves, JSON/SVG out
    invariant --polygon NAME|FILE              motivic count with N and W
    table --chain NAME[,NAME...]               wall-crossing invariant tables
    oracle --kontsevich D                      classical rational plane count

Exit codes: 0 success (or equal), 1 not equal, 2 usage error, 3 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import os
import sys
from math import comb
from pathlib import Path

from .gw import DomainError, ExprError, GWElement, InternalInvariantError, _check_printable, format_gw, gw_equal, read_int
from .polygon import LatticePolygon, _span, preset, preset_names

# Each handler imports what only it runs: expr and betapoly for the
# calculator, tropical, wallcross and svgout for the enumeration and the
# tables, json for a polygon file or --json, and main imports logging for -v.

DEFAULT_BUDGET_LIMIT = 14
#: the most rows a point scan runs through, along the polygon's shorter side
MAX_SCAN_ROWS = 10_000


class UsageError(Exception):
    pass


def _load_polygon(name: str) -> LatticePolygon:
    try:
        return preset(name)
    except DomainError:
        if name.strip().lower().startswith("p2:"):
            raise  # a bad degree, in the preset's own words
    path = Path(name)
    if not path.is_file():
        raise UsageError(
            f"unknown polygon {name!r}: not a preset ({', '.join(preset_names())}) "
            "and not a readable file"
        )
    import json

    try:
        return LatticePolygon.from_json(json.loads(path.read_text()))
    # RecursionError: nested deeper than the JSON decoder recurses
    except (OSError, ValueError, KeyError, DomainError, RecursionError) as exc:
        raise UsageError(f"cannot read polygon from {name}: {exc}") from exc


def _guard_budget(poly: LatticePolygon, limit: int) -> None:
    """Refuse a polygon whose point budget exceeds ``limit``, or whose
    candidate lattice paths, C(points - 2, budget - 1), outnumber those of
    the largest ``p2:d`` that ``limit`` admits (27 132 for ``p2:5`` at 14).
    Both counts come from the edge gcds and Pick, without a point scan, as
    does the refusal of a polygon whose bounding box is more than
    ``MAX_SCAN_ROWS`` rows across on its shorter side, which the point scan
    would run through."""
    budget = poly.point_budget()
    if budget > limit:
        raise UsageError(
            f"point budget {budget} exceeds limit {limit} (raise with --max-budget)"
        )
    rows = 1 + min(_span(poly.vertices, 0), _span(poly.vertices, 1))
    if rows > MAX_SCAN_ROWS:
        raise UsageError(f"polygon spans {rows} rows on its shorter side, more than {MAX_SCAN_ROWS}")
    candidates = comb(poly.point_count() - 2, budget - 1)
    # The cap is C(n, k) for p2:d, of budget 3d - 1.  It is built up as
    # C(n, 0), C(n, 1), ..., increasing up to i = n/2, and left as soon as
    # it reaches the candidates, so a large --max-budget costs nothing.
    d = max(1, (limit + 1) // 3)
    n, k = (d + 1) * (d + 2) // 2 - 2, 3 * d - 2
    cap = 1
    for i in range(min(k, n - k)):
        if cap >= candidates:
            return
        cap = cap * (n - i) // (i + 1)
    if candidates > cap:
        raise UsageError(
            f"{candidates} candidate lattice paths exceed limit {cap}, "
            f"the count of p2:{d} (raise with --max-budget)"
        )


def _integer(text: str) -> int:
    """An integer option value, read by ``gw.read_int``."""
    try:
        return read_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _integers(text: str) -> list[int]:
    """A comma-separated ``_integer`` list; a blank item is refused unless only blanks follow it."""
    items = [v.strip() for v in text.split(",")]
    while items and not items[-1]:
        items.pop()
    return [_integer(v) for v in items]


def _check_writable(name: str | None) -> None:
    """Refuse, before any work, an output file whose directory does not exist
    or that is a directory itself (``''`` names ``.``)."""
    if name is None:
        return
    if Path(name).is_dir():
        raise UsageError(f"cannot write {name}: is a directory")
    if not Path(name).parent.is_dir():
        raise UsageError(f"cannot write {name}: no directory {Path(name).parent}")


def _write(name: str, text: str) -> None:
    try:
        Path(name).write_text(text)
    except OSError as exc:
        raise UsageError(f"cannot write {name}: {exc.strerror}") from None


def _json_dump(data) -> str:
    import json

    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def _cmd_gw_eval(args) -> int:
    from .betapoly import format_poly
    from .expr import _parse

    value = _parse(args.expr)
    fmt = format_gw if isinstance(value, GWElement) else format_poly
    if args.json:
        payload = value.to_json()
        payload["pretty"] = fmt(value)
        sys.stdout.write(_json_dump(payload))
    else:
        print(fmt(value, unicode=args.unicode))
    return 0


def _cmd_gw_equal(args) -> int:
    from .expr import _parse

    v1, v2 = _parse(args.expr1), _parse(args.expr2)
    if not (isinstance(v1, GWElement) and isinstance(v2, GWElement)):
        raise UsageError("gw-equal compares constants; got formal b symbols")
    if gw_equal(v1, v2):
        print("equal")
        return 0
    print("not equal")
    return 1


def _enumeration_json(enum, inv) -> dict:
    return {
        "polygon": enum.polygon.to_json(),
        "curves": [c.to_json() for c in enum.curves],
        "motivic": inv.canonical.to_json(),
        "pretty": format_gw(inv.canonical),
        "complex": inv.n,
        "welschinger": inv.w,
        "dropped": enum.dropped,
    }


def _cmd_tropical(args) -> int:
    from .svgout import render_svg
    from .tropical import collector_paused, enumerate_curves

    poly = _load_polygon(args.polygon)
    _guard_budget(poly, args.max_budget)
    _check_writable(args.json)
    _check_writable(args.svg)
    if args.json is not None and args.svg is not None and Path(args.json).resolve() == Path(args.svg).resolve():
        raise UsageError(f"--json and --svg name the same file: {args.json}")
    enum = enumerate_curves(poly)
    inv = enum.invariants()
    print(f"polygon: {poly}")
    print(f"curves: {len(enum.curves)}")
    print(f"motivic: {format_gw(inv.canonical)}  N={inv.n}  W={inv.w}")
    if enum.dropped:
        drops = ", ".join(f"{k}={v}" for k, v in sorted(enum.dropped.items()))
        print(f"dropped completions: {drops}")
    if args.list_curves:
        for i, c in enumerate(enum.curves):
            m = c.motivic
            print(f"curve {i}: motivic={format_gw(m)} complex={m.rank()} welschinger={m.signature()}")
    if args.json is not None:
        with collector_paused():  # the payload's dicts stay live until written
            _write(args.json, _json_dump(_enumeration_json(enum, inv)))
    if args.svg is not None:
        _write(args.svg, render_svg(enum))
    return 0


def _cmd_invariant(args) -> int:
    from .tropical import count_invariants

    poly = _load_polygon(args.polygon)
    _guard_budget(poly, args.max_budget)
    inv = count_invariants(poly)
    print(f"{format_gw(inv.canonical)}  N={inv.n}  W={inv.w}")
    return 0


def _cmd_table(args) -> int:
    from .wallcross import SurfaceChain, build_tables, chain_from

    names = [s for s in args.chain.split(",") if s.strip()]
    if not names:
        raise UsageError(f"--chain {args.chain!r} names no polygon")
    # guard before building a chain (one chop per interior point); chops only lower the budget
    polys = [_load_polygon(n) for n in names]
    for poly in polys:
        _guard_budget(poly, args.max_budget)
    chain = SurfaceChain(tuple(polys)) if len(polys) > 1 else chain_from(polys[0])
    # the first level's table has the most rows: a value past its s_max is used by no level
    top = chain.polygons[0]
    s_max = top.point_budget() // 2
    if args.specialize is not None and len(args.specialize) > s_max:
        raise UsageError(
            f"--specialize gives {len(args.specialize)} values, but the chain's first "
            f"table, {top}, has s_max = {s_max}"
        )
    tables = build_tables(chain)
    if args.signature:
        sign = 1 if args.signature == "pos" else -1
        for t in tables:
            sigs = (row.signature_profile({i: sign for i in range(1, s + 1)}) for s, row in enumerate(t.rows))
            print(f"{t.polygon}: " + " ".join(map(str, sigs)))
        return 0
    if args.specialize is not None:
        for t in tables:
            s = min(len(args.specialize), t.s_max())
            row = t.rows[s]
            value = row.specialize({i + 1: args.specialize[i] for i in range(s)})
            print(f"{t.polygon} (s={s}): {format_gw(value)}")
        return 0
    if args.json:
        sys.stdout.write(_json_dump({"tables": [t.to_json() for t in tables]}))
        return 0
    for t in tables:
        print(t.markdown())
        print()
    return 0


def _cmd_oracle(args) -> int:
    from .wallcross import kontsevich_nd

    n = kontsevich_nd(args.kontsevich)
    _check_printable(n)  # the digit limit may be set lower than the default
    print(n)
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse, except that an argument beginning with ``-`` that names none
    of the parser's options is a value, as it is when spelled with a leading
    space: the expressions ``-<2>`` and ``-h+<2>``, or the list in
    ``--specialize -1,-1``.  argparse would read each as an unknown option
    and exit 2.  In a subcommand that reads calculator texts (``texts``),
    ``-h`` is the text -<1> - <-1> too, unless it is the subcommand's only
    argument, which asks for help."""

    texts = False
    _h_is_text = False

    def parse_known_args(self, args=None, namespace=None):
        # a subcommand's parser gets the arguments after the subcommand's name
        self._h_is_text = self.texts and len(args) > 1
        return super().parse_known_args(args, namespace)

    def _parse_optional(self, arg):
        options = self._option_string_actions
        if arg.startswith("--"):  # a long option or a prefix of one, then "=value"
            value = not any(o.startswith(arg.split("=", 1)[0]) for o in options)
        elif arg == "-h":
            value = self._h_is_text
        else:  # one short option, or several short flags run together
            value = arg.startswith("-") and not all(f"-{ch}" in options for ch in arg[1:])
        return None if value else super()._parse_optional(arg)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gwcurves",
        description="Quadratically enriched counts of rational curves on toric del Pezzo surfaces.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log enumeration details")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gw-eval", help="evaluate an expression to canonical form")
    p.texts = True
    p.add_argument("expr")
    p.add_argument("--json", action="store_true")
    p.add_argument("--unicode", action="store_true")
    p.set_defaults(func=_cmd_gw_eval)

    p = sub.add_parser("gw-equal", help="decide equality in GW(Q)")
    p.texts = True
    p.add_argument("expr1")
    p.add_argument("expr2")
    p.set_defaults(func=_cmd_gw_equal)

    p = sub.add_parser("tropical", help="enumerate tropical curves")
    p.add_argument("--polygon", required=True)
    p.add_argument("--list-curves", action="store_true")
    p.add_argument("--json", metavar="OUT")
    p.add_argument("--svg", metavar="OUT")
    p.add_argument("--max-budget", type=_integer, default=DEFAULT_BUDGET_LIMIT)
    p.set_defaults(func=_cmd_tropical)

    p = sub.add_parser("invariant", help="motivic count with rank and signature")
    p.add_argument("--polygon", required=True)
    p.add_argument("--max-budget", type=_integer, default=DEFAULT_BUDGET_LIMIT)
    p.set_defaults(func=_cmd_invariant)

    p = sub.add_parser("table", help="wall-crossing invariant tables")
    p.add_argument("--chain", required=True, help="e.g. p2:4 or a comma-separated polygon list")
    out = p.add_mutually_exclusive_group()
    out.add_argument("--json", action="store_true")
    out.add_argument("--specialize", type=_integers, metavar="C1,C2,...")
    out.add_argument("--signature", choices=["neg", "pos"])
    p.add_argument("--max-budget", type=_integer, default=DEFAULT_BUDGET_LIMIT)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("oracle", help="classical counting oracles")
    p.add_argument("--kontsevich", type=_integer, required=True, metavar="D")
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.verbose:  # tropical logs through logging only once it is imported
        import logging

        logging.basicConfig(level=logging.INFO)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader stopped early: send what is left to devnull and exit quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (UsageError, ExprError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
