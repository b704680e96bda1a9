"""gwcurves benchmark: one command runs a workload, checks every output and
prints every metric by name and unit.

    python3 perfbench/run.py --workload enumerate|tables|calculator \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the program from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Set-up and CLI timings come from fresh interpreters; scratch files and span
dumps go to ``perfbench/out/``.  See perfbench/README.md for the design.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Fresh interpreters for import timing in traced runs (untraced runs take
#: one set-up and one CLI sample per round).
IMPORT_SAMPLES = 3
#: Per-operation deadline of the hostile operands.
HOSTILE_DEADLINE_S = 1.0
CHILD_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cli_cold_ref": "ref",
    "batch_ref": "ref",
    "op_p50_ref": "ref",
    "op_tail_ref": "ref",
}

DROP_REASONS = ("boundary-weight", "line-component", "no-trivalent-vertex", "disconnected", "positive-genus")

PER_LAYER = {
    "tropical.paths": "count",
    "tropical.paths_s": "s",
    "tropical.complete_s": "s",
    "tropical.completions_left": "count",
    "tropical.completions_right": "count",
    "tropical.dead_paths": "count",
    "tropical.candidates": "count",
    "tropical.glue_s": "s",
    "tropical.validate_s": "s",
    **{f"tropical.drops.{r}": "count" for r in DROP_REASONS},
    "tropical.useful_ratio": "ratio",
    "tropical.mult_s": "s",
    "tropical.curves": "count",
    "tropical.invariants_s": "s",
    "tropical.jobs2_s": "s",
    "tropical.parallel_efficiency": "ratio",
    "polygon.construct_s": "s",
    "polygon.calls": "count",
    "wallcross.chain_s": "s",
    "wallcross.base_s": "s",
    "wallcross.dp_s": "s",
    "wallcross.render_s": "s",
    "betapoly.specialize_s": "s",
    "betapoly.specialize_calls": "count",
    "betapoly.format_s": "s",
    "gw.square_class_s": "s",
    "gw.square_class_calls": "count",
    "gw.square_class_max_digits": "digits",
    "gw.mul_s": "s",
    "gw.mul_calls": "count",
    "gw.equal_s": "s",
    "gw.equal_calls": "count",
    "gw.trace_form_s": "s",
    "gw.format_s": "s",
    "expr.parse_self_s": "s",
    "cli.import_s": "s",
    "cli.import_sympy_s": "s",
    "cli.hostile_probes": "count",
    "cli.hostile_deadline_hits": "count",
    "cli.hostile_crashes": "count",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["GWCURVES_THREADS"] = "1"
    return env


def _watchdog(proc: subprocess.Popen) -> threading.Timer:
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.daemon = True
    timer.start()
    return timer


class Probes:
    """Set-up and CLI samples, each in a fresh interpreter.  Workloads take
    them one at a time between their in-process steps."""

    def __init__(self, ctx, workload: str, setup_file: Path, polygon_file: Path):
        self.ctx = ctx
        self.workload = workload
        self.setup_file = setup_file
        self.polygon_file = polygon_file
        self.setup_times: list[float] = []
        self.cli_times: list[float] = []
        self.cli_costs: list[float] = []  # in reference passes
        self.cli_runs = 0
        self._spawn_setup()  # warms the bytecode and file caches; not timed

    def _spawn_setup(self) -> float:
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "probes.py"), "setup", self.workload, str(self.setup_file)],
            stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
        )
        timer = _watchdog(proc)
        try:
            line = proc.stdout.readline()
            dt = perf_counter() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            proc.wait()
            timer.cancel()
        self.ctx.check(line == "ready\n" and proc.returncode == 0, f"setup probe exited {proc.returncode}")
        return dt

    def setup(self) -> None:
        """Wall time from spawning a fresh interpreter to its "ready"."""
        self.setup_times.append(self._spawn_setup())

    def cli(self) -> None:
        if not self.ctx.cli:
            return
        argv, expected = self.ctx.cli[self.cli_runs % len(self.ctx.cli)]
        self.cli_runs += 1
        if "{polygon_file}" in argv:
            argv = [str(self.polygon_file) if a == "{polygon_file}" else a for a in argv]
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probes.py"), "cli", *argv],
            capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
        )
        wall = perf_counter() - t0
        report = (proc.stderr.splitlines() or [""])[-1].split()
        if self.ctx.check(
            proc.returncode == 0 and proc.stdout == expected and report[:1] == ["reference:"],
            f"cli {argv[:3]} exited {proc.returncode}: {proc.stdout[:200]!r} {proc.stderr[-300:]!r}",
        ):
            slices_s, pass_s = float(report[1]), float(report[2])
            self.cli_times.append(wall - slices_s)
            self.cli_costs.append((wall - slices_s) / pass_s)

    def report(self) -> dict:
        out = {}
        if self.setup_times:
            out["setup_s"] = median(self.setup_times)
            print(f"setup_s: {len(self.setup_times)} fresh interpreters, median {out['setup_s']:.4f}s, "
                  f"all {[round(t, 4) for t in self.setup_times]}")
        if self.cli_costs:
            out["cli_cold_ref"] = median(self.cli_costs)
            print(f"cli_cold_ref: {len(self.cli_costs)} fresh interpreters, median {out['cli_cold_ref']:.1f} ref "
                  f"({median(self.cli_times):.4f}s), all {[round(c) for c in self.cli_costs]} ref")
        return out


def import_samples() -> tuple[float, float]:
    """Median cumulative import time of gwcurves and of sympy inside it,
    from ``python -X importtime``."""
    totals, sympys = [], []
    for _ in range(IMPORT_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import gwcurves"],
            capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
        totals.append(cumulative.get("gwcurves", 0.0))
        sympys.append(cumulative.get("sympy", 0.0))
    return median(totals[1:]), median(sympys[1:])


def hostile_samples(ops: list[dict]) -> Counter:
    """Each hostile operand once in a fresh worker process, with
    HOSTILE_DEADLINE_S from request to reply.  A worker that misses the
    deadline is killed and replaced.  Outcomes: answer (correct), refused
    (ExprError or DomainError), wrong, crash (another exception), deadline."""
    outcomes: Counter = Counter()
    proc = None

    def stop(p):
        p.kill()
        p.wait()
        p.stdin.close()
        p.stdout.close()

    try:
        for op in ops:
            if proc is None:
                proc = subprocess.Popen(
                    [sys.executable, str(HERE / "probes.py"), "hostile"],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
                )
                if proc.stdout.readline() != "ready\n":
                    raise RuntimeError("hostile worker did not start")
            proc.stdin.write(json.dumps(op["expr"]) + "\n")
            proc.stdin.flush()
            t0 = perf_counter()
            if not select.select([proc.stdout], [], [], HOSTILE_DEADLINE_S)[0]:
                outcome = "deadline"
                stop(proc)
                proc = None
            else:
                line = proc.stdout.readline()
                reply = json.loads(line) if line else {"err": "worker exited"}
                if not line:
                    stop(proc)
                    proc = None
                if "out" in reply:
                    outcome = "answer" if reply["out"] == op["expect"] else "wrong"
                elif reply["err"] in ("ExprError", "DomainError"):
                    outcome = "refused"
                else:
                    outcome = "crash"
            outcomes[outcome] += 1
            print(f"hostile: {op['name']}: {outcome} after {perf_counter() - t0:.3f}s")
    finally:
        if proc is not None:
            stop(proc)
    return outcomes


def declared_metrics() -> tuple[dict, dict]:
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    return (
        {m["name"]: m["unit"] for m in bench["end_to_end"]},
        {m["name"]: m["unit"] for m in bench["per_layer"]},
    )


def layer_metrics(ctx, imports: tuple[float, float], hostile: Counter) -> dict:
    summary = ctx.tracer.summary()

    def incl(name):
        return summary.get(name, (0.0, 0.0, 0))[0]

    def calls(name):
        return summary.get(name, (0.0, 0.0, 0))[2]

    counts = ctx.tracer.counts
    v = {
        name: counts[name]
        for name, unit in PER_LAYER.items()
        if unit == "count" and name.startswith("tropical.")
    }
    candidates = counts["tropical.candidates"]
    v.update({
        "tropical.paths_s": incl("tropical.enumerate_paths"),
        "tropical.complete_s": incl("tropical.complete_path"),
        "tropical.glue_s": incl("tropical.glue"),
        "tropical.validate_s": incl("tropical.validate"),
        "tropical.useful_ratio": counts["tropical.curves"] / candidates if candidates else 0.0,
        "tropical.mult_s": incl("tropical.curve_mult"),
        "tropical.invariants_s": incl("tropical.invariants"),
        "tropical.jobs2_s": ctx.values.get("tropical.jobs2_s", 0.0),
        "tropical.parallel_efficiency": ctx.values.get("tropical.parallel_efficiency", 0.0),
        "polygon.construct_s": incl("polygon.construct"),
        "polygon.calls": calls("polygon.construct"),
        "wallcross.chain_s": incl("wallcross.chain"),
        "wallcross.base_s": incl("wallcross.base"),
        "wallcross.dp_s": incl("wallcross.build") - incl("wallcross.base"),
        "wallcross.render_s": incl("wallcross.render"),
        "betapoly.specialize_s": incl("betapoly.specialize"),
        "betapoly.specialize_calls": calls("betapoly.specialize"),
        "betapoly.format_s": incl("betapoly.format"),
        "gw.square_class_s": incl("gw.square_class"),
        "gw.square_class_calls": calls("gw.square_class"),
        "gw.square_class_max_digits": len(str(ctx.tracer.max_values.get("gw.square_class", 0))),
        "gw.mul_s": incl("gw.mul"),
        "gw.mul_calls": calls("gw.mul"),
        "gw.equal_s": incl("gw.equal"),
        "gw.equal_calls": calls("gw.equal"),
        "gw.trace_form_s": incl("gw.trace_form"),
        "gw.format_s": incl("gw.format"),
        "expr.parse_self_s": summary.get("expr.parse", (0.0, 0.0, 0))[1],
        "cli.import_s": imports[0],
        "cli.import_sympy_s": imports[1],
        "cli.hostile_probes": sum(hostile.values()),
        "cli.hostile_deadline_hits": hostile["deadline"],
        "cli.hostile_crashes": hostile["crash"],
        "trace.overhead_s": ctx.overhead[1] - ctx.overhead[0],
        "trace.overhead_ratio": (ctx.overhead[1] - ctx.overhead[0]) / ctx.overhead[0] if ctx.overhead[0] else 0.0,
    })
    return v


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["enumerate", "tables", "calculator"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "gwcurves" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'gwcurves'}; run from a checkout", file=sys.stderr)
        return 2
    declared_e2e, declared_layer = declared_metrics()
    if declared_e2e != END_TO_END or declared_layer != PER_LAYER:
        print("error: metrics in BENCHMARK.json differ from the ones this benchmark prints", file=sys.stderr)
        return 2

    from inputs import fingerprint, make_inputs

    OUT.mkdir(exist_ok=True)
    inputs = make_inputs(args.workload, args.seed)
    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} {platform.machine()}")
    print(f"inputs: workload={args.workload} seed={args.seed} sha256={fingerprint(inputs)}")
    if "mix" in inputs:
        print(f"operand mix: {json.dumps(inputs['mix'], sort_keys=True)}")
    setup_inputs = {k: inputs[k] for k in ("rounds", "traced", "chains") if k in inputs}

    import workloads
    from probes import build_setup

    sys.path.insert(0, str(ROOT / "src"))
    import gwcurves

    if Path(gwcurves.__file__).resolve().parent != ROOT / "src" / "gwcurves":
        print(f"error: imported gwcurves from {gwcurves.__file__}", file=sys.stderr)
        return 2
    ctx = workloads.Context(inputs, args.seconds, bool(args.trace))
    setup_file = OUT / f"setup-{args.workload}-{args.seed}-{os.getpid()}.json"
    polygon_file = OUT / f"polygon-{args.seed}-{os.getpid()}.json"
    try:
        if args.trace:
            imports = import_samples()
            ctx.setup = ctx.traced(build_setup, args.workload, setup_inputs)
        else:
            setup_file.write_text(json.dumps(setup_inputs))
            if "cli_polygon" in inputs:
                polygon_file.write_text(json.dumps({"vertices": inputs["cli_polygon"]}))
            ctx.probes = Probes(ctx, args.workload, setup_file, polygon_file)
            ctx.setup = build_setup(args.workload, setup_inputs)
        workloads.WORKLOADS[args.workload](ctx)
        hostile = hostile_samples(inputs["hostile"]) if args.workload == "calculator" else Counter()
    finally:
        setup_file.unlink(missing_ok=True)
        polygon_file.unlink(missing_ok=True)
    if hostile:
        print(f"hostile outcomes: {dict(sorted(hostile.items()))} (not counted as failed operations)")
    if args.trace:
        metrics, units = layer_metrics(ctx, imports, hostile), PER_LAYER
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.tsv.gz"
        print(f"trace: {ctx.tracer.dump(trace_file)} spans written to {trace_file.relative_to(ROOT)}")
    else:
        metrics, units = {**ctx.values, **ctx.probes.report()}, END_TO_END

    missing = set(units) - set(metrics)
    if missing:
        print(f"error: no value for {sorted(missing)}", file=sys.stderr)
        return 3
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(f"correct={ctx.failed == 0} attempted={ctx.attempted} failed={ctx.failed}")
    print(json.dumps({
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
