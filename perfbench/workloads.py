"""The three workloads, each a closed loop with one caller.

Each workload function gets a ``Context`` and fills ``ctx.values`` with its
metrics.  Without tracing it measures the end-to-end metrics in ROUNDS
rounds, with the reference sampler on while it times (see reference.py);
with tracing it runs its phases untraced and traced in alternation (the
difference is the tracing overhead) and the per-layer metrics come from the
spans.

Every output is checked; a wrong result, an exception or an operation over
its deadline is counted as failed and the run goes on.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import resource
import sys
import traceback
from statistics import median
from time import perf_counter

from reference import Sampler
from tracing import Patches, Tracer, install, traced_enumeration, traced_invariants

#: An in-process operation slower than this counts as failed.
OP_DEADLINE_S = 5.0

#: The quartic chain's table rows (acceptance criterion 4), level by level.
GOLDEN_ROWS = [
    [
        "190*h + 240*<1>",
        "190*h + 144*<1> + 48*b1",
        "190*h + 80*<1> + 32*b1 + 32*b2 + 8*b1*b2",
        "190*h + 40*<1> + 20*b1 + 20*b2 + 20*b3 + 6*b1*b2 + 6*b1*b3 + 6*b2*b3 + b1*b2*b3",
        "190*h + 16*<1> + 12*b1 + 12*b2 + 12*b3 + 12*b4"
        " + 4*b1*b2 + 4*b1*b3 + 4*b1*b4 + 4*b2*b3 + 4*b2*b4 + 4*b3*b4"
        " + b1*b2*b3 + b1*b2*b4 + b1*b3*b4 + b2*b3*b4",
        "190*h + 8*b1 + 8*b2 + 8*b3 + 8*b4 + 8*b5"
        " + 2*b1*b2 + 2*b1*b3 + 2*b1*b4 + 2*b1*b5 + 2*b2*b3 + 2*b2*b4 + 2*b2*b5"
        " + 2*b3*b4 + 2*b3*b5 + 2*b4*b5"
        " + b1*b2*b3 + b1*b2*b4 + b1*b2*b5 + b1*b3*b4 + b1*b3*b5 + b1*b4*b5"
        " + b2*b3*b4 + b2*b3*b5 + b2*b4*b5 + b3*b4*b5",
    ],
    [
        "24*h + 48*<1>",
        "24*h + 32*<1> + 8*b1",
        "24*h + 20*<1> + 6*b1 + 6*b2 + b1*b2",
        "24*h + 12*<1> + 4*b1 + 4*b2 + 4*b3 + b1*b2 + b1*b3 + b2*b3",
        "24*h + 8*<1> + 2*b1 + 2*b2 + 2*b3 + 2*b4"
        " + b1*b2 + b1*b3 + b1*b4 + b2*b3 + b2*b4 + b3*b4",
    ],
    ["2*h + 8*<1>", "2*h + 6*<1> + b1", "2*h + 4*<1> + b1 + b2", "2*h + 2*<1> + b1 + b2 + b3"],
    ["<1>", "<1>", "<1>"],
]
WELSCHINGER_LADDER = [240, 144, 80, 40, 16, 0]

#: Untraced and traced passes alternate this many times in a traced run, so
#: the overhead is a difference of medians.
REPLAY_PAIRS = 3
#: Operations replayed untraced and traced in a traced run.
TRACED_QUERIES = 300
TRACED_CALC_OPS = 3000
#: Rounds of an untraced run; every workload repeats its batch once per
#: round.
ROUNDS = 7
#: The stream's tail percentile.  Every workload has at least 900 timed
#: operations in a 10 s run, so at least 18 samples lie beyond it; a fixed
#: percentile, unlike the highest one with ten samples beyond it, does not
#: move when a faster program fits more operations into the run.
TAIL_PERCENTILE = 98


def mod(name: str):
    return importlib.import_module(f"gwcurves.{name}")


def clear_caches() -> None:
    """Empty every functools cache in the program, as a fresh process has."""
    for name, module in list(sys.modules.items()):
        if name == "gwcurves" or name.startswith("gwcurves."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


class Context:
    def __init__(self, inputs: dict, seconds: int, trace: bool):
        self.inputs = inputs
        self.seconds = seconds
        self.trace = trace
        self.setup = None  # what build_setup returned
        self.attempted = 0
        self.failed = 0
        self.values: dict[str, float] = {}
        self.tracer = Tracer() if trace else None
        self.overhead = [0.0, 0.0]  # untraced, traced seconds of replayed phases
        #: CLI samples, taken in turn: argv after "-m gwcurves.cli", stdout
        self.cli: list[tuple[list[str], str]] = []
        #: Set-up and CLI samples in fresh interpreters (untraced runs only).
        self.probes = None
        #: Reference slices next to the timed regions (untraced runs only).
        self.sampler = None if trace else Sampler()

    def probe(self, kind: str) -> None:
        if self.probes is not None:
            getattr(self.probes, kind)()

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED: {what}", file=sys.stderr)
        return ok

    def guard(self, what: str, fn, *args):
        """Run fn; an exception counts as a failed operation."""
        try:
            return fn(*args)
        except Exception:
            self.check(False, f"{what}: {traceback.format_exc(limit=3)}")
            return None

    def traced(self, fn, *args, tracer: Tracer | None = None):
        """Run fn with the timing wrappers installed."""
        patches = Patches()
        install(tracer or self.tracer, patches)
        try:
            return fn(*args)
        finally:
            patches.restore()

    def replay(self, fn, prepare=tuple):
        """fn(tracer, *prepare()) untraced (tracer None) and traced,
        REPLAY_PAIRS times in alternation, each from empty caches and fresh
        arguments, after one untimed pass that warms what the program cannot
        clear (the factorization backend's own tables).  Only the first
        traced pass keeps its spans.  Returns the first pair's results and
        adds the median times to the overhead tally."""
        fn(None, *prepare())
        results, times = [], ([], [])
        for k in range(REPLAY_PAIRS):
            for i in range(2):
                args = prepare()
                clear_caches()
                tracer = (self.tracer if k == 0 else Tracer()) if i else None
                t0 = perf_counter()
                out = self.traced(fn, tracer, *args, tracer=tracer) if i else fn(None, *args)
                times[i].append(perf_counter() - t0)
                if k == 0:
                    results.append(out)
        for i in range(2):
            self.overhead[i] += median(times[i])
        return results

    def latencies(self, spans: list[tuple[float, float]]) -> None:
        """Stream metrics from the operations' (start, end) times: the
        median and the TAIL_PERCENTILE in reference passes; the same in
        microseconds, and the throughput, are printed."""
        n = len(spans)
        tail = n * TAIL_PERCENTILE // 100
        if n - tail < 10:
            self.check(False, f"only {n} timed operations; need ten beyond p{TAIL_PERCENTILE}")
            return
        sampler = self.sampler
        costs = sorted(sampler.cost(*s) for s in spans)
        secs = sorted(sampler.net(*s) for s in spans)
        self.values["op_p50_ref"] = median(costs)
        self.values["op_tail_ref"] = costs[tail]
        print(
            f"ops: n={n}, p50={median(costs):.4g} ref ({median(secs) * 1e6:.1f}us), "
            f"p{TAIL_PERCENTILE}={costs[tail]:.4g} ref ({secs[tail] * 1e6:.1f}us, {n - tail - 1} beyond), "
            f"max={secs[-1] * 1e6:.1f}us, {n / sum(secs):.1f} ops/s"
        )

    def batch(self, rounds: list[list[tuple[float, float]]], what: str) -> None:
        """batch_ref: the median over the rounds of the batch step's cost in
        reference passes; each round is a list of (start, end) times."""
        sampler = self.sampler
        secs = [sum(sampler.net(*s) for s in spans) for spans in rounds]
        costs = [sum(sampler.cost(*s) for s in spans) for spans in rounds]
        self.values["batch_ref"] = median(costs)
        print(
            f"{what} x {len(rounds)} rounds: median {median(costs):.1f} ref ({median(secs):.3f}s), "
            f"all {[round(c) for c in costs]} ref, {[round(t, 3) for t in secs]}s"
        )


def _curves_digest(enum) -> str:
    blob = json.dumps([c.to_json() for c in enum.curves], sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


class Stream:
    """Operations in order (wrapping around), run in chunks of wall time;
    only run_op is timed, and check_op(op, result) returns (ok,
    description) afterwards."""

    def __init__(self, ctx: Context, ops: list, run_op, check_op):
        self.ctx, self.ops, self.run_op, self.check_op = ctx, ops, run_op, check_op
        self.spans: list[tuple[float, float]] = []

    def chunk(self, seconds: float) -> None:
        ctx, ops = self.ctx, self.ops
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            i = len(self.spans)
            op = ops[i % len(ops)]
            t0 = perf_counter()
            try:
                result = self.run_op(op)
            except Exception:
                result = None
                ok, what = False, traceback.format_exc(limit=3)
            t1 = perf_counter()
            if result is not None:
                ok, what = self.check_op(op, result)
            self.spans.append((t0, t1))
            ctx.check(ok and t1 - t0 < OP_DEADLINE_S, f"op {i}: {what} ({t1 - t0:.3f}s)")

    def finish(self) -> None:
        self.ctx.latencies(self.spans)
        if len(self.spans) > len(self.ops):
            print(f"note: stream wrapped around its {len(self.ops)} operations")


def _rounds(ctx: Context, batch_step, stream: Stream) -> None:
    """ROUNDS rounds of one set-up sample, one batch step, one stream chunk
    and one CLI sample.  Every metric then samples the whole run, so a slow
    spell of the shared machine hits only some of its samples.  The
    reference sampler is on for the batch step and the stream chunk, and
    off while a fresh interpreter runs next to this one."""
    for _ in range(ROUNDS):
        ctx.probe("setup")
        with ctx.sampler:
            batch_step()
            stream.chunk(ctx.seconds / ROUNDS)
        ctx.probe("cli")
    stream.finish()
    ctx.values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- enumerate -------------------------------------------------------------------


def enumerate_workload(ctx: Context) -> None:
    tropical, gw, wallcross, polygon = mod("tropical"), mod("gw"), mod("wallcross"), mod("polygon")
    #: per polygon name, the first jobs=1 enumeration and its curve digest
    serial: dict[str, tuple] = {}

    def enumerate_one(spec, poly) -> tuple[float, float]:
        t0 = perf_counter()
        enum = ctx.guard(spec["name"], tropical.enumerate_curves, poly, 1)
        inv = enum and ctx.guard(spec["name"], enum.invariants)
        if inv is not None:
            gw.format_gw(inv.canonical)
        t1 = perf_counter()
        if inv is not None:
            check_counts(spec, inv)
            if spec["name"] not in serial:
                serial[spec["name"]] = (poly, enum, _curves_digest(enum))
        return t0, t1

    def check_counts(spec, inv) -> None:
        ctx.check((inv.n, inv.w) == tuple(spec["nw"]), f"{spec['name']}: N, W = {inv.n}, {inv.w}")
        if spec["name"] == "p2:4":
            ctx.check(inv.n == wallcross.kontsevich_nd(4), "p2:4 rank against Kontsevich")

    traced_batch = list(zip(ctx.inputs["traced"], ctx.setup["traced"]))
    if ctx.trace:
        batch_s = sum(t1 - t0 for t0, t1 in (enumerate_one(spec, poly) for spec, poly in traced_batch))
    else:
        # untraced runs enumerate p2:4 and the square once per round; the
        # trapezoid's single long pass swings with the machine's load
        # spells, so it is enumerated in traced runs only
        spans: list[list[tuple[float, float]]] = []
        rounds = iter(zip(ctx.inputs["rounds"], ctx.setup["rounds"]))

        def step():
            specs, polys = next(rounds)
            spans.append([enumerate_one(spec, poly) for spec, poly in zip(specs, polys)])

        def invariant_query(op):
            inv = tropical.count_invariants(polygon.polygon(op["vertices"]), jobs=1)
            gw.format_gw(inv.canonical)
            return inv

        def check_query(op, inv):
            return (inv.n, inv.w) == tuple(op["nw"]), f"{op['name']}: N, W = {inv.n}, {inv.w}"

        ctx.cli = [(["invariant", "--polygon", "{polygon_file}"], "190h + 240*<1>  N=620  W=240\n")]
        _rounds(ctx, step, Stream(ctx, ctx.inputs["stream"], invariant_query, check_query))
        ctx.batch(spans, "batch: p2:4 + square")

    # jobs=2 must give byte-identical curves
    jobs2_s = 0.0
    for name, (poly, enum1, digest) in serial.items():
        t0 = perf_counter()
        enum = ctx.guard(name, tropical.enumerate_curves, poly, 2)
        jobs2_s += perf_counter() - t0
        if enum is not None:
            ctx.check(
                _curves_digest(enum) == digest and enum.dropped == enum1.dropped,
                f"{name}: jobs=2 curves differ from jobs=1",
            )
    if not ctx.trace:
        return

    def run_pairs(tracer, pairs):
        """enumerate_curves, or the traced enumeration when traced."""
        out = []
        for _, poly in pairs:
            if tracer is None:
                enum = tropical.enumerate_curves(poly, jobs=1)
                out.append((enum, enum.invariants()))
            else:
                enum = traced_enumeration(tracer, poly)
                out.append((enum, traced_invariants(tracer, enum)))
        return out

    # spans of the trapezoid once; p2:4 and the square alternate with
    # enumerate_curves for the overhead
    big = [(spec, poly) for spec, poly in traced_batch if spec["name"] == "trapezoid"]
    small = [(spec, poly) for spec, poly in traced_batch if spec["name"] != "trapezoid"]
    results = ctx.traced(run_pairs, ctx.tracer, big, tracer=ctx.tracer)
    results += ctx.replay(run_pairs, lambda: (small,))[1]
    for (spec, _), (enum, inv) in zip(big + small, results):
        check_counts(spec, inv)
        _, enum1, digest = serial.get(spec["name"], (None, None, None))
        ctx.check(
            enum1 is not None and _curves_digest(enum) == digest and enum.dropped == enum1.dropped,
            f"{spec['name']}: traced enumeration differs from enumerate_curves",
        )
    ctx.values["tropical.jobs2_s"] = jobs2_s
    ctx.values["tropical.parallel_efficiency"] = batch_s / (2 * jobs2_s) if jobs2_s else 0.0


# -- tables ----------------------------------------------------------------------


def _fresh_chains(chains: dict) -> dict:
    """Copies with new polygon objects, so no cached geometry carries over."""
    wallcross, polygon = mod("wallcross"), mod("polygon")
    return {
        name: wallcross.SurfaceChain(tuple(polygon.LatticePolygon(p.vertices) for p in chain.polygons))
        for name, chain in chains.items()
    }


def _build_and_render(chains: dict) -> tuple[dict, dict]:
    wallcross = mod("wallcross")
    tables = {name: wallcross.build_tables(chain, jobs=1) for name, chain in chains.items()}
    rendered = {
        name: (
            "".join(t.markdown() + "\n\n" for t in ts),
            json.dumps({"tables": [t.to_json() for t in ts]}, sort_keys=True),
        )
        for name, ts in tables.items()
    }
    return tables, rendered


def _check_quartic(ctx: Context, tables: list) -> None:
    parse = mod("expr").parse_expression
    for level, golden in enumerate(GOLDEN_ROWS):
        rows = tables[level].rows
        ctx.check(len(rows) == len(golden), f"quartic level {level}: {len(rows)} rows")
        for s, (row, text) in enumerate(zip(rows, golden)):
            ctx.check(row.equivalent(parse(text)), f"quartic level {level} row {s}")
    ladder = [
        row.signature_profile({i: -1 for i in range(1, s + 1)}) for s, row in enumerate(tables[0].rows)
    ]
    ctx.check(ladder == WELSCHINGER_LADDER, f"Welschinger ladder {ladder}")


def _query(tables: dict, q: dict):
    """One query as the CLI runs it: the row s = len(c), capped at the
    table's s_max.  Returns (kind, row, argument, result)."""
    table = tables[q["table"]][q["level"]]
    s = min(len(q["c"]), table.s_max())
    row = table.rows[s]
    if q["kind"] == "specialize":
        assignment = {i + 1: c for i, c in enumerate(q["c"][:s])}
        value = row.specialize(assignment)
        return row, assignment, (value, mod("gw").format_gw(value))
    signs = {i + 1: 1 if c > 0 else -1 for i, c in enumerate(q["c"][:s])}
    return row, signs, row.signature_profile(signs)


def _query_ok(q: dict, row, arg, result) -> bool:
    if q["kind"] == "specialize":
        value, _ = result
        signs = {i: 1 if c > 0 else -1 for i, c in arg.items()}
        return value.rank() == row.rank_profile() and value.signature() == row.signature_profile(signs)
    # a representative c of each sign: beta(2) has signature 2, beta(-1) 0
    rep = row.specialize({i: 2 if sign > 0 else -1 for i, sign in arg.items()})
    return result == rep.signature()


def tables_workload(ctx: Context) -> None:
    queries = ctx.inputs["queries"]
    if ctx.trace:
        (plain_t, plain_r), (traced_t, traced_r) = ctx.replay(
            lambda _, chains: _build_and_render(chains), lambda: (_fresh_chains(ctx.setup),)
        )
        ctx.check(plain_r == traced_r, "traced tables differ from untraced")
        _check_quartic(ctx, traced_t["quartic"])

        def replay_queries(_):
            return [_query(traced_t, q) for q in queries[:TRACED_QUERIES]]

        plain_q, traced_q = ctx.replay(replay_queries)
        for q, a, b in zip(queries, plain_q, traced_q):
            ctx.check(_query_ok(q, *b) and a[2] == b[2], f"query {q}")
        return

    spans, renders, built = [], [], {}

    def build():
        chains = _fresh_chains(ctx.setup)
        clear_caches()
        t0 = perf_counter()
        result = ctx.guard("build", _build_and_render, chains)
        spans.append([(t0, perf_counter())])
        if result is not None:
            built.setdefault("tables", result[0])
            renders.append(result[1])
            ctx.cli = [(["table", "--chain", "p2:4"], renders[0]["quartic"][0])]

    _rounds(ctx, build, Stream(
        ctx,
        queries,
        lambda q: _query(built["tables"], q),
        lambda q, r: (_query_ok(q, *r), f"{q['kind']} {q['table']} {q['c']}"),
    ))
    ctx.batch(spans, "build")
    if ctx.check(len(renders) == ROUNDS and all(r == renders[0] for r in renders), "builds differ"):
        _check_quartic(ctx, built["tables"]["quartic"])


# -- calculator ------------------------------------------------------------------


def _calc_op(op: dict):
    """One calculator operation as the CLI runs it; returns the outcome."""
    expr, betapoly, gw = mod("expr"), mod("betapoly"), mod("gw")
    if op["kind"] == "eval":
        return betapoly.format_poly(expr.parse_expression(op["expr"]))
    if op["kind"] == "equal":
        p1 = expr.parse_expression(op["lhs"])
        p2 = expr.parse_expression(op["rhs"])
        return gw.gw_equal(p1.constant_value(), p2.constant_value())
    try:
        betapoly.format_poly(expr.parse_expression(op["expr"]))
    except (expr.ExprError, gw.DomainError) as exc:
        return type(exc).__name__
    return "accepted"


def _calc_ok(op: dict, result) -> bool:
    if op["kind"] == "bad":
        return result in ("ExprError", "DomainError")
    return result == op["expect"]


def calculator_workload(ctx: Context) -> None:
    batch, stream = ctx.inputs["batch"], ctx.inputs["stream"]

    def run_batch(_, ops):
        return [_calc_op(op) for op in ops]

    if ctx.trace:
        plain, traced = ctx.replay(run_batch, lambda: (batch,))
        for op, a, b in zip(batch, plain, traced):
            ctx.check(_calc_ok(op, b) and a == b, f"batch {op}")
        plain, traced = ctx.replay(run_batch, lambda: (stream[:TRACED_CALC_OPS],))
        for op, a, b in zip(stream, plain, traced):
            ctx.check(_calc_ok(op, b) and a == b, f"stream {op}")
        return

    spans = []

    def batch_step():
        clear_caches()
        t0 = perf_counter()
        out = ctx.guard("batch", run_batch, None, batch)
        spans.append([(t0, perf_counter())])
        for op, result in zip(batch, out or []):
            ctx.check(_calc_ok(op, result), f"batch {op} -> {result}")

    ctx.cli = [(["gw-eval", op["expr"]], op["expect"] + "\n") for op in ctx.inputs["cli_ops"]]
    _rounds(ctx, batch_step, Stream(ctx, stream, _calc_op, lambda op, r: (_calc_ok(op, r), f"{op} -> {r}")))
    ctx.batch(spans, f"batch: {len(batch)} ops")


WORKLOADS = {
    "enumerate": enumerate_workload,
    "tables": tables_workload,
    "calculator": calculator_workload,
}

