"""In-memory spans around calls into the program's public functions.

The tracer records one span per call: name, start, end and the enclosing
span; the spans of one request share the root span's index.  Counts are
kept at the same boundaries.  Spans stay in memory and are written out once,
at the end of the run.

Nothing in the program is edited: ``Patches`` swaps module attributes and
methods for timing wrappers and puts the originals back afterwards.  The
enumeration is rebuilt from the public tropical functions so that paths,
completions, gluing, validation and multiplicities get spans of their own;
``traced_enumeration`` must reproduce ``enumerate_curves`` exactly.
"""

from __future__ import annotations

import gzip
import importlib
from array import array
from collections import Counter
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.root = array("l")
        self.start = array("q")
        self.end = array("q")
        self.child = array("q")  # time covered by direct children
        self.outer = bytearray()  # 1 if no enclosing span has the same name
        self._depth: list[int] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.max_values: dict[str, int] = {}

    def nid(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return i

    def begin(self, nid: int) -> int:
        idx = len(self.start)
        stack = self._stack
        parent = stack[-1] if stack else -1
        self.name.append(nid)
        self.parent.append(parent)
        self.root.append(self.root[parent] if parent >= 0 else idx)
        self.outer.append(self._depth[nid] == 0)
        self._depth[nid] += 1
        self.child.append(0)
        self.end.append(0)
        stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def finish(self, idx: int) -> None:
        t = perf_counter_ns()
        self.end[idx] = t
        self._stack.pop()
        self._depth[self.name[idx]] -= 1
        parent = self.parent[idx]
        if parent >= 0:
            self.child[parent] += t - self.start[idx]

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.begin(self.nid(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self.finish(idx)

    def wrap(self, name: str, fn):
        nid = self.nid(name)
        begin, finish = self.begin, self.finish

        def traced(*args, **kwargs):
            idx = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(idx)

        traced.__wrapped__ = fn
        return traced

    def note_max(self, key: str, value: int) -> None:
        if value > self.max_values.get(key, 0):
            self.max_values[key] = value

    # -- read-out -------------------------------------------------------------

    def summary(self) -> dict[str, tuple[float, float, int]]:
        """Per span name: (seconds in outermost spans, self seconds, calls)."""
        n = len(self.names)
        incl, own, calls = [0] * n, [0] * n, [0] * n
        name, start, end, child, outer = self.name, self.start, self.end, self.child, self.outer
        for i in range(len(start)):
            k = name[i]
            d = end[i] - start[i]
            calls[k] += 1
            own[k] += d - child[i]
            if outer[i]:
                incl[k] += d
        return {
            self.names[k]: (incl[k] / 1e9, own[k] / 1e9, calls[k]) for k in range(n)
        }

    def dump(self, path) -> int:
        """Write every span as a tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=3) as out:
            out.write("index\tname\tparent\troot\tstart_ns\tend_ns\n")
            names = self.names
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{names[self.name[i]]}\t{self.parent[i]}\t{self.root[i]}"
                    f"\t{self.start[i]}\t{self.end[i]}\n"
                )
        return len(self.start)


class Patches:
    """Module attributes and methods swapped for wrappers, and restored."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _mod(name: str):
    return importlib.import_module(f"gwcurves.{name}")


def install(tracer: Tracer, patches: Patches) -> None:
    """Timing wrappers around the public functions each layer calls in the
    next one down.  Callers that imported a function by name are patched at
    their own module attribute."""
    gw, expr, betapoly, wallcross, polygon, tropical = (
        _mod(m) for m in ("gw", "expr", "betapoly", "wallcross", "polygon", "tropical")
    )

    square_class = gw.square_class
    sq_nid = tracer.nid("gw.square_class")

    def traced_square_class(a):
        tracer.note_max("gw.square_class", abs(a.numerator * a.denominator))
        idx = tracer.begin(sq_nid)
        try:
            return square_class(a)
        finally:
            tracer.finish(idx)

    patches.set(gw, "square_class", traced_square_class)
    mul = tracer.wrap("gw.mul", gw.GWElement.__mul__)
    patches.set(gw.GWElement, "__mul__", mul)
    patches.set(gw.GWElement, "__rmul__", mul)
    equal = tracer.wrap("gw.equal", gw.gw_equal)
    for m in (gw, betapoly, tropical):
        patches.set(m, "gw_equal", equal)
    trace_form = tracer.wrap("gw.trace_form", gw.trace_form)
    for m in (gw, expr):
        patches.set(m, "trace_form", trace_form)
    format_gw = tracer.wrap("gw.format", gw.format_gw)
    for m in (gw, betapoly):
        patches.set(m, "format_gw", format_gw)

    patches.set(expr, "parse_expression", tracer.wrap("expr.parse", expr.parse_expression))
    patches.set(betapoly, "format_poly", tracer.wrap("betapoly.format", betapoly.format_poly))
    patches.set(
        betapoly.BetaPolynomial,
        "specialize",
        tracer.wrap("betapoly.specialize", betapoly.BetaPolynomial.specialize),
    )
    patches.set(polygon, "polygon", tracer.wrap("polygon.construct", polygon.polygon))
    patches.set(wallcross, "base_invariant", tracer.wrap("wallcross.base", wallcross.base_invariant))
    patches.set(wallcross, "build_tables", tracer.wrap("wallcross.build", wallcross.build_tables))
    patches.set(wallcross, "quartic_chain", tracer.wrap("wallcross.chain", wallcross.quartic_chain))
    patches.set(wallcross, "chain_from", tracer.wrap("wallcross.chain", wallcross.chain_from))
    for method in ("markdown", "to_json"):
        fn = wallcross.InvariantTable.__dict__[method]
        patches.set(wallcross.InvariantTable, method, tracer.wrap("wallcross.render", fn))
    # base invariants inside build_tables go through the traced enumeration
    patches.set(
        wallcross,
        "count_invariants",
        lambda poly, jobs=None: traced_invariants(tracer, traced_enumeration(tracer, poly)),
    )


# -- the enumeration, rebuilt from public functions ------------------------------


def _cell_key(cell):
    return (cell.kind, cell.vertices)


def curve_key(curve):
    return (curve.subdivision.path, tuple(_cell_key(c) for c in curve.subdivision.cells))


def traced_enumeration(tracer: Tracer, poly):
    """``enumerate_curves(poly, jobs=1)`` with a span per stage and counts of
    paths, completions, candidates, drops and curves."""
    tropical = _mod("tropical")
    idx = tracer.begin(tracer.nid("tropical.enumerate"))
    try:
        paths = tracer.call("tropical.enumerate_paths", lambda: list(tropical.enumerate_paths(poly)))
        c = tracer.counts
        c["tropical.paths"] += len(paths)
        complete_nid = tracer.nid("tropical.complete_path")
        glue_nid = tracer.nid("tropical.glue")
        validate_nid = tracer.nid("tropical.validate")
        mult_nid = tracer.nid("tropical.curve_mult")
        begin, finish = tracer.begin, tracer.finish
        curves = []
        dropped: Counter = Counter()
        for path in paths:
            i = begin(complete_nid)
            left = tropical.complete_path(path, 1, poly)
            finish(i)
            i = begin(complete_nid)
            right = tropical.complete_path(path, -1, poly)
            finish(i)
            c["tropical.completions_left"] += len(left)
            c["tropical.completions_right"] += len(right)
            c["tropical.candidates"] += len(left) * len(right)
            if not left or not right:
                c["tropical.dead_paths"] += 1
            for cl in left:
                for cr in right:
                    i = begin(glue_nid)
                    sub = tropical.MarkedSubdivision(tuple(path), tuple(sorted(cl + cr, key=_cell_key)))
                    finish(i)
                    i = begin(validate_nid)
                    reason = tropical.validate_subdivision(sub, poly)
                    finish(i)
                    if reason is None:
                        i = begin(mult_nid)
                        curves.append(tropical.TropicalCurve(sub, tropical.curve_mult(sub)))
                        finish(i)
                    else:
                        dropped[reason] += 1
        curves.sort(key=curve_key)
        c["tropical.curves"] += len(curves)
        for reason, n in dropped.items():
            c[f"tropical.drops.{reason}"] += n
        return tropical.Enumeration(poly, curves, dropped)
    finally:
        tracer.finish(idx)


def traced_invariants(tracer: Tracer, enum):
    return tracer.call("tropical.invariants", enum.invariants)
