"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Timed criteria measure fresh runs; table criteria reuse
the session's tropical base cases, matching their stated budgets.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from fractions import Fraction

import pytest
from oracles import PLACES, hilbert_oracle

from gwcurves.expr import parse_expression
from gwcurves.gw import (
    H,
    ONE,
    delta,
    form,
    format_gw,
    gw_equal,
    hilbert_symbol,
    square_class,
    trace_form,
)
from gwcurves.polygon import p2, preset
from gwcurves.tropical import (
    collector_paused,
    count_invariants,
    enumerate_curves,
    validate_subdivision,
)
from gwcurves.wallcross import build_tables, kontsevich_nd, quartic_chain

QUARTIC_CHAIN_POLYGONS = ["p2:4", "f1_4_2e", "blf1", "bl2f1"]


def report(n: int, text: str) -> None:
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_degree_4_base_case():
    start = time.perf_counter()
    inv = count_invariants(p2(4), jobs=1)
    elapsed = time.perf_counter() - start
    assert gw_equal(inv.motivic, 190 * H + 240 * ONE)
    assert inv.canonical == 190 * H + 240 * ONE
    assert format_gw(inv.canonical) == "190h + 240*<1>"
    assert (inv.n, inv.w) == (620, 240)
    assert elapsed < 60.0
    report(1, f"p2:4 -> 190h + 240*<1>, N=620, W=240 ({elapsed:.2f}s single-threaded)")


def test_criterion_2_blowup_base_cases():
    expected = {
        "f1_4_2e": (24 * H + 48 * ONE, 96, 48),
        "blf1": (2 * H + 8 * ONE, 12, 8),
        "bl2f1": (ONE, 1, 1),
    }
    times = {}
    for name, (motivic, n, w) in expected.items():
        start = time.perf_counter()
        inv = count_invariants(preset(name), jobs=1)
        times[name] = time.perf_counter() - start
        assert gw_equal(inv.motivic, motivic), name
        assert (inv.n, inv.w) == (n, w), name
        assert times[name] < 5.0, name
    report(
        2,
        "f1_4_2e -> 24h+48*<1> (96/48), blf1 -> 2h+8*<1> (12/8), bl2f1 -> <1>"
        f" ({', '.join(f'{k}={v:.2f}s' for k, v in times.items())})",
    )


def test_criterion_3_cubic_cross_check():
    inv = count_invariants(p2(3), jobs=1)
    assert gw_equal(inv.motivic, 2 * H + 8 * ONE)
    assert (inv.n, inv.w) == (12, 8)
    report(3, "p2:3 -> 2h + 8*<1>, N=12, W=8")


GOLDEN_ROWS = {
    0: [
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
    1: [
        "24*h + 48*<1>",
        "24*h + 32*<1> + 8*b1",
        "24*h + 20*<1> + 6*b1 + 6*b2 + b1*b2",
        "24*h + 12*<1> + 4*b1 + 4*b2 + 4*b3 + b1*b2 + b1*b3 + b2*b3",
        "24*h + 8*<1> + 2*b1 + 2*b2 + 2*b3 + 2*b4"
        " + b1*b2 + b1*b3 + b1*b4 + b2*b3 + b2*b4 + b3*b4",
    ],
    2: [
        "2*h + 8*<1>",
        "2*h + 6*<1> + b1",
        "2*h + 4*<1> + b1 + b2",
        "2*h + 2*<1> + b1 + b2 + b3",
    ],
    3: ["<1>", "<1>", "<1>"],
}


def test_criterion_4_full_table_reproduction():
    start = time.perf_counter()
    tables = build_tables(quartic_chain())
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    checked = 0
    for level, table in enumerate(tables):
        golden = GOLDEN_ROWS[level]
        assert len(table.rows) == len(golden)
        for row, text in zip(table.rows, golden):
            assert row.equivalent(parse_expression(text))
            checked += 1
    assert checked == 6 + 5 + 4 + 3
    report(4, f"all 15 displayed rows match coefficient-by-coefficient ({elapsed:.3f}s)")


def test_criterion_5_table_structure(quartic_tables):
    for table, rank in zip(quartic_tables, (620, 96, 12, 1)):
        for row in table.rows:
            assert row.rank_profile() == rank
        g = table.polygon.interior_count()
        assert table.rows[g].coeff(tuple(range(1, g + 1))) == ONE
        base = table.rows[0].constant_value()
        for s, row in enumerate(table.rows):
            assert gw_equal(row.specialize({i: 1 for i in range(1, s + 1)}), base)
    report(5, "rank profiles constant; top rows monic; all-square specialization = row 0")


def test_criterion_6_welschinger_ladder(quartic_tables):
    plane, hirzebruch = quartic_tables[0], quartic_tables[1]
    sig = [
        row.signature_profile({i: -1 for i in range(1, s + 1)})
        for s, row in enumerate(plane.rows)
    ]
    blow = [
        row.signature_profile({i: -1 for i in range(1, s + 1)})
        for s, row in enumerate(hirzebruch.rows)
    ]
    assert sig == [240, 144, 80, 40, 16, 0]
    assert blow == [48, 32, 20, 12, 8]
    assert [a - b for a, b in zip(sig, sig[1:])] == [2 * v for v in blow]
    report(6, "signatures 240,144,80,40,16,0 with differences 2*(48,32,20,12,8)")


def test_criterion_7_kontsevich_agreement():
    for d, want in [(1, 1), (2, 1), (3, 12), (4, 620)]:
        assert kontsevich_nd(d) == want
        assert count_invariants(p2(d)).n == want
    report(7, "tropical N(p2:d) = Kontsevich N_d = 1, 1, 12, 620 for d = 1..4")


def test_criterion_8_gw_property_suite():
    rng = random.Random(88)
    # four generator relations, >= 1000 randomized instances of each
    chain_checked = 0
    while chain_checked < 1000:
        a = Fraction(rng.randint(1, 50) * rng.choice([-1, 1]), rng.randint(1, 50))
        b = Fraction(rng.randint(1, 50) * rng.choice([-1, 1]), rng.randint(1, 50))
        t = Fraction(rng.randint(1, 20), rng.randint(1, 20))
        assert form(a * t * t) == form(a)
        assert form(a) * form(b) == form(a * b)
        assert gw_equal(form(a) + form(-a), H)
        if a + b != 0:
            assert gw_equal(form(a) + form(b), form(a + b) + form(a * b * (a + b)))
            chain_checked += 1

    # Hilbert symbols against brute-force local solvability
    checked = 0
    values = [v for v in range(-30, 31) if v]
    for place in PLACES:
        for a in values:
            for b in values:
                assert hilbert_symbol(a, b, place) == hilbert_oracle(a, b, place)
                checked += 1
    for _ in range(500):
        a = Fraction(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 30))
        b = Fraction(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 30))
        place = rng.choice(PLACES)
        assert hilbert_symbol(a, b, place) == hilbert_oracle(a, b, place)
        checked += 1

    # trace forms against the rank-2 formulas, and multiplicativity
    for _ in range(100):
        a = Fraction(rng.randint(1, 40) * rng.choice([-1, 1]), rng.randint(1, 20))
        c = rng.choice([-1, 1]) * rng.randint(2, 40)
        if square_class(c) == 1:
            c = 7
        assert trace_form(c, a) == form(2 * a) + form(2 * a * c)
        assert trace_form(c, 0, a) == H
        assert gw_equal(trace_form(c, a), form(a) * trace_form(c, 1))

    # wall-crossing defect: rank zero always, signature 2 for negative c
    for _ in range(100):
        c = rng.choice([-1, 1]) * rng.randint(1, 200)
        d = delta(c)
        assert d.rank() == 0
        assert d.signature() == (2 if c < 0 else 0)

    report(
        8,
        f"1000+ instances of each generator relation, {checked} Hilbert-vs-oracle comparisons, "
        "100 trace-form and 100 defect checks",
    )


def test_criterion_9_tropical_structural_suite():
    dropped_summary = {}
    for name in QUARTIC_CHAIN_POLYGONS:
        poly = preset(name) if name != "p2:4" else p2(4)
        serial = enumerate_curves(poly, jobs=1)
        # every emitted curve passes tiling, tree/connectedness and
        # weight-one checks: re-validating fires no filter
        for curve in serial.curves:
            assert validate_subdivision(curve.subdivision, poly) is None
            prod = 1
            for t in curve.subdivision.triangles():
                prod *= t.area2()
            assert curve.bundle.motivic.rank() == prod
        # byte-identical output independent of parallelism
        parallel = enumerate_curves(poly, jobs=2)
        serial_bytes = json.dumps([c.to_json() for c in serial.curves], sort_keys=True)
        parallel_bytes = json.dumps([c.to_json() for c in parallel.curves], sort_keys=True)
        assert serial_bytes == parallel_bytes
        assert serial.dropped == parallel.dropped
        dropped_summary[name] = sum(serial.dropped.values())
    report(
        9,
        "emitted curves all re-validate, rank factorization holds, 1- and 2-process "
        f"runs byte-identical; candidate completions dropped en route: {dropped_summary} "
        "(the drops are load-bearing: see the diagnostics note in README.md)",
    )


QUINTIC_SHA256 = "915af9085dcf6ebbc0e37183f42977108238f5b32530e778d76f0ff20d746755"


@pytest.mark.slow
def test_criterion_10_degree_5_base_case(quintic_runs):
    serial, elapsed, parallel = quintic_runs
    inv = serial.invariants()
    assert (inv.n, inv.w) == (87304, 18264)
    assert count_invariants(p2(5)) == inv  # the count builds no curves, and gives the same fields
    assert dict(serial.dropped) == {"boundary-weight": 761180, "disconnected": 12740}
    # the 25 871 curves' JSON dicts and tilings stay live, which a collection would only rescan
    with collector_paused():
        serial_bytes = json.dumps([c.to_json() for c in serial.curves], sort_keys=True)
        parallel_bytes = json.dumps([c.to_json() for c in parallel.curves], sort_keys=True)
        assert serial_bytes == parallel_bytes
        assert serial.dropped == parallel.dropped
        assert hashlib.sha256(serial_bytes.encode()).hexdigest() == QUINTIC_SHA256
        for curve in serial.curves:
            assert validate_subdivision(curve.subdivision, serial.polygon) is None
    assert elapsed < 60.0
    report(
        10,
        f"p2:5 -> N=87304, W=18264, {len(serial.curves)} curves, drops 761180/12740, "
        f"1- and 2-process runs byte-identical, all re-validate, count_invariants agrees "
        f"({elapsed:.2f}s single-threaded)",
    )
