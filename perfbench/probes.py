"""Child processes of the benchmark, each a fresh interpreter.

    python3 perfbench/probes.py setup WORKLOAD INPUTS_JSON
        import gwcurves, build the workload's polygons and chains, print
        "ready" and exit; the parent times it from spawn to "ready".
    python3 perfbench/probes.py cli ARGS...
        run ``python -m gwcurves.cli ARGS...`` in this interpreter with the
        reference sampler on (see reference.py); the last line of standard
        error is "reference: SLICES_S PASS_S", the seconds spent in
        reference slices and the seconds per reference pass meanwhile.
    python3 perfbench/probes.py hostile
        import gwcurves, print "ready", then answer one JSON-encoded
        expression per stdin line with a JSON line: {"out": display} or
        {"err": exception class name}.  The parent enforces the deadline.

The parent puts the checkout's ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import importlib
import json
import runpy
import sys
from time import perf_counter


def build_setup(workload: str, inputs: dict):
    """The program-side set-up of a workload: polygons for ``enumerate``,
    chains for ``tables``, nothing beyond the import for ``calculator``.
    Functions are looked up at call time, so traced runs see wrappers."""
    polygon = importlib.import_module("gwcurves.polygon")
    wallcross = importlib.import_module("gwcurves.wallcross")
    if workload == "enumerate":

        def build(specs):
            polys = [polygon.polygon(p["vertices"]) for p in specs]
            for p in polys:
                p.point_budget()
            return polys

        return {"rounds": [build(r) for r in inputs["rounds"]], "traced": build(inputs["traced"])}
    if workload == "tables":
        chains = {"quartic": wallcross.quartic_chain()}
        for name, vertices in inputs["chains"].items():
            chains[name] = wallcross.chain_from(polygon.polygon(vertices))
        return chains
    return None


def _cli(args: list[str]) -> int:
    from reference import Sampler

    sys.argv = ["gwcurves.cli", *args]
    code = 0
    with Sampler() as sampler:
        t0 = perf_counter()
        try:
            runpy.run_module("gwcurves.cli", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            code = exc.code
        t1 = perf_counter()
    sys.stdout.flush()
    slices = (t1 - t0) - sampler.net(t0, t1)
    print(f"reference: {slices!r} {sampler.pass_s(t0, t1)!r}", file=sys.stderr)
    return code


def _hostile() -> None:
    from gwcurves.betapoly import format_poly
    from gwcurves.expr import parse_expression

    print("ready", flush=True)
    for line in sys.stdin:
        try:
            reply = {"out": format_poly(parse_expression(json.loads(line)))}
        except Exception as exc:  # reported to the parent, which classifies it
            reply = {"err": type(exc).__name__}
        print(json.dumps(reply), flush=True)


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 3:
        with open(argv[2]) as f:
            inputs = json.load(f)
        import gwcurves  # noqa: F401  (the import is part of set-up)

        build_setup(argv[1], inputs)
        print("ready", flush=True)
        return 0
    if argv[:1] == ["cli"]:
        return _cli(argv[1:])
    if argv == ["hostile"]:
        _hostile()
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
