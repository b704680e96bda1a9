"""Self-tests of the benchmark itself (not of the program).

    python3 perfbench/selftest.py

Checks that the input generators are deterministic per seed, that the
expected answers built alongside the inputs agree with the program on small
cases, that the reference sampler takes its slices out of a timed region,
that the traced enumeration reproduces ``enumerate_curves`` on fast
polygons, and that the metric names printed are exactly the ones declared
in BENCHMARK.json.  Takes about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Patches, Tracer, install, traced_enumeration, traced_invariants  # noqa: E402


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(what)


def test_generators_are_deterministic():
    for w in ("enumerate", "tables", "calculator"):
        a = inputs.fingerprint(inputs.make_inputs(w, 7))
        b = inputs.fingerprint(inputs.make_inputs(w, 7))
        c = inputs.fingerprint(inputs.make_inputs(w, 8))
        expect(a == b, f"{w}: seed 7 gave two different input sets")
        expect(a != c, f"{w}: seeds 7 and 8 gave the same inputs")


def test_miller_rabin():
    sieve = [True] * 20_000
    sieve[0] = sieve[1] = False
    for i in range(2, 142):
        if sieve[i]:
            sieve[i * i :: i] = [False] * len(sieve[i * i :: i])
    expect(all(inputs.is_probable_prime(n) == sieve[n] for n in range(20_000)), "primality below 20000")
    expect(inputs.next_prime(10**34) == 10**34 + 193, "nextprime(10**34)")
    expect(inputs.next_prime(3 * 10**35) == 3 * 10**35 + 199, "nextprime(3*10**35)")
    expect(inputs.SEMIPRIME_40 == inputs.next_prime(10**19) * inputs.next_prime(3 * 10**19), "40-digit semiprime")


def test_reference_sampler():
    sampler = reference.Sampler()
    with sampler:
        t0 = perf_counter()
        while perf_counter() - t0 < 0.3:
            pass
        t1 = perf_counter()
    inside = [e - s for s, e in zip(sampler.starts, sampler.ends) if s >= t0 and e <= t1]
    expect(len(inside) >= 5, f"{len(inside)} slices in 0.3 s")
    expect(abs(sampler.net(t0, t1) - (t1 - t0 - sum(inside))) < 1e-9, "net time")
    pass_s = sampler.pass_s(t0, t1)
    expect(min(inside) <= pass_s * reference.SLICE_PASSES <= max(inside), "pass time")
    expect(abs(sampler.cost(t0, t1) - sampler.net(t0, t1) / pass_s) < 1e-9, "cost")
    n = len(sampler.starts)
    t2 = perf_counter()
    while perf_counter() - t2 < 0.1:
        pass
    expect(len(sampler.starts) == n, "slices after the sampler was switched off")


def test_expected_answers_match_the_program():
    from gwcurves.gw import GWElement, format_gw

    rng = random.Random(3)
    for _ in range(500):
        d = {rng.choice((1, -1, 2, -3, 5, 6, -7)): rng.randint(-3, 3) for _ in range(rng.randint(0, 4))}
        d = {c: n for c, n in d.items() if n}
        expect(inputs.format_expected(d) == format_gw(GWElement.from_dict(d)), f"display of {d}")
    for op in inputs.make_inputs("calculator", 5)["stream"][:400]:
        expect(workloads._calc_ok(op, workloads._calc_op(op)), f"expected outcome of {op}")


def test_traced_enumeration_reproduces_enumerate_curves():
    from gwcurves import enumerate_curves, polygon, preset

    rng = random.Random(1)
    polys = [preset("p2:3"), preset("f1_4_2e")]
    polys += [polygon(inputs.image(p.vertices, rng)) for p in polys]
    for poly in polys:
        tracer, patches = Tracer(), Patches()
        install(tracer, patches)
        try:
            traced = traced_enumeration(tracer, poly)
            inv = traced_invariants(tracer, traced)
        finally:
            patches.restore()
        plain = enumerate_curves(poly, jobs=1)
        expect(
            [c.to_json() for c in traced.curves] == [c.to_json() for c in plain.curves],
            f"{poly}: curves differ",
        )
        expect(traced.dropped == plain.dropped, f"{poly}: drop tallies differ")
        expect(inv == plain.invariants(), f"{poly}: invariants differ")
        expect(tracer.counts["tropical.curves"] == len(plain.curves), f"{poly}: curve count")


def test_metric_names_match_benchmark_json():
    e2e, layer = run.declared_metrics()
    expect(e2e == run.END_TO_END, f"end_to_end: {set(e2e) ^ set(run.END_TO_END)}")
    expect(layer == run.PER_LAYER, f"per_layer: {set(layer) ^ set(run.PER_LAYER)}")
    for trace, declared in ((0, e2e), (1, layer)):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "calculator", "--seed", "1", "--seconds", "1", "--trace", str(trace)])
        expect(code == 0, f"calculator --trace {trace} exited {code}")
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {set(result)}")
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(printed == declared, f"--trace {trace} printed {set(printed) ^ set(declared)}")
        expect(result["correct"] and result["failed"] == 0, f"--trace {trace}: failed operations")


def main() -> int:
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name}: {exc}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
