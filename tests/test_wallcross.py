"""Wall-crossing recursion, invariant tables, and the classical oracle."""

from __future__ import annotations

import collections
import functools
import itertools
import operator
import random
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwcurves import wallcross
from gwcurves.betapoly import POLY_ZERO, BetaPolynomial, beta_symbol
from gwcurves.expr import parse_expression
from gwcurves.gw import H, ONE, ZERO, DomainError, form, gw_equal
from gwcurves.polygon import normal_form, p2, polygon, preset
from gwcurves.wallcross import (
    InvariantTable,
    SurfaceChain,
    base_invariant,
    build_tables,
    chain_from,
    kontsevich_nd,
    quartic_chain,
    wall_cross_step,
)

from gwcurves.tropical import count_invariants

from oracles import blowup_count, convex_hull, depth2_chops, specialize_per_monomial, three_rule_chain_ok
from test_polygon import affine_maps, image_of

# The degree-4 invariant tables: rows s = 0.. for the plane, the Hirzebruch
# surface with class 4-2E, its blow-up with 4-2E-2E', and the conic polygon.
P2_ROWS = [
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
]
F1_ROWS = [
    "24*h + 48*<1>",
    "24*h + 32*<1> + 8*b1",
    "24*h + 20*<1> + 6*b1 + 6*b2 + b1*b2",
    "24*h + 12*<1> + 4*b1 + 4*b2 + 4*b3 + b1*b2 + b1*b3 + b2*b3",
    "24*h + 8*<1> + 2*b1 + 2*b2 + 2*b3 + 2*b4"
    " + b1*b2 + b1*b3 + b1*b4 + b2*b3 + b2*b4 + b3*b4",
]
BLF1_ROWS = [
    "2*h + 8*<1>",
    "2*h + 6*<1> + b1",
    "2*h + 4*<1> + b1 + b2",
    "2*h + 2*<1> + b1 + b2 + b3",
]
BL2F1_ROWS = ["<1>", "<1>", "<1>"]

GOLDEN = [P2_ROWS, F1_ROWS, BLF1_ROWS, BL2F1_ROWS]


class TestKontsevich:
    def test_known_values(self):
        assert [kontsevich_nd(d) for d in (1, 2, 3, 4, 5, 6)] == [
            1,
            1,
            12,
            620,
            87304,
            26312976,
        ]

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            kontsevich_nd(0)


class TestBlowupOracle:
    """The WDVV rank oracle of ``oracles.blowup_count``, then the chain
    levels against it."""

    def test_plane_counts_are_kontsevich(self):
        assert [blowup_count(d) for d in range(1, 9)] == [kontsevich_nd(d) for d in range(1, 9)]

    def test_cremona_symmetry(self):
        # the quadratic Cremona map at the first three points preserves the count
        def image(d, a1, a2, a3, *rest):
            return (2 * d - a1 - a2 - a3, d - a2 - a3, d - a1 - a3, d - a1 - a2, *rest)

        assert image(5, 2, 2, 2) == (4, 1, 1, 1) and blowup_count(4, 1, 1, 1) == 620
        nonzero = 0
        for d in range(1, 5):
            for a in itertools.product(range(4), repeat=3):
                for rest in [(), (2,), (1, 1, 1)]:
                    if 3 * d - sum(a) - sum(rest) - 1 >= 0:
                        got = blowup_count(d, *a, *rest)
                        assert got == blowup_count(*image(d, *a, *rest)), (d, a, rest)
                        nonzero += got != 0
        assert nonzero > 100

    @pytest.mark.parametrize(
        "cls, n",
        [
            ((4, 2), 96),
            ((4, 2, 2), 12),
            ((4, 2, 2, 2), 1),
            ((3, 2), 1),
            ((5, 2), 18132),
            ((5, 2, 2), 3510),
            ((5, 2, 2, 2), 620),
            ((5, 2, 0, 2), 3510),
        ],
        ids=str,
    )
    def test_known_ranks(self, cls, n):
        assert blowup_count(*cls) == n

    def test_refuses_beyond_del_pezzo(self):
        with pytest.raises(ValueError, match="at most 6"):
            blowup_count(6, *[2] * 7)

    def test_quartic_chain_levels(self):
        # level k chops k corners at depth 2: the class (4; 2, ..., 2), k twos
        for k, poly in enumerate(quartic_chain().polygons):
            assert poly.point_budget() == 3 * 4 - 2 * k - 1, poly
            assert count_invariants(poly).n == blowup_count(4, *[2] * k), poly


class TestWallCrossStep:
    def test_conic_blowup_row(self):
        out = wall_cross_step(
            BetaPolynomial.constant(2 * H + 8 * ONE), BetaPolynomial.constant(ONE), 1
        )
        assert out == parse_expression("2*h + 6*<1> + b1")

    def test_hirzebruch_row(self):
        out = wall_cross_step(
            BetaPolynomial.constant(24 * H + 48 * ONE),
            BetaPolynomial.constant(2 * H + 8 * ONE),
            1,
        )
        assert out.reduced() == parse_expression("24*h + 32*<1> + 8*b1")
        assert out.equivalent(parse_expression("24*h + 32*<1> + 8*b1"))

    def test_zero_blowup_is_identity(self):
        p = parse_expression("2*h + 6*<1> + b1")
        assert wall_cross_step(p, BetaPolynomial(), 2) == p

    def test_index_collision(self):
        p = parse_expression("b1")
        with pytest.raises(DomainError):
            wall_cross_step(p, BetaPolynomial.constant(ONE), 1)

    def test_indices_out_of_order(self):
        with pytest.raises(DomainError) as exc:
            wall_cross_step(parse_expression("b2"), BetaPolynomial.constant(ONE), 1)
        assert str(exc.value) == "indices must be crossed in increasing order"


class TestChains:
    def test_quartic_chain_is_valid(self):
        chain = quartic_chain()
        assert len(chain.polygons) == 4
        assert [q.point_budget() for q in chain.polygons] == [11, 9, 7, 5]
        assert [q.interior_count() for q in chain.polygons] == [3, 2, 1, 0]

    def test_chain_from_quartic_matches_preset_shape(self):
        auto = chain_from(p2(4))
        assert len(auto.polygons) == 4
        assert [q.interior_count() for q in auto.polygons] == [3, 2, 1, 0]
        assert auto == quartic_chain()

    def test_chain_from_cubic(self):
        chain = chain_from(p2(3))
        assert len(chain.polygons) == 2
        assert chain.polygons[1].interior_count() == 0

    def test_rejects_wrong_length(self):
        with pytest.raises(DomainError):
            SurfaceChain((p2(4), preset("f1_4_2e")))

    def test_refusal_lists_the_presets_that_chain(self):
        # every preset below degree 5 chains; p2:5's refusal names the step that fails
        for name in ["p2:1", "p2:2", "p2:3", "p2:4", "f1_4_2e", "blf1", "bl2f1"]:
            chain_from(preset(name))
        with pytest.raises(DomainError) as exc:
            chain_from(p2(5))
        assert str(exc.value) == (
            "a chain step must remove exactly one interior point: conv{(0,4), (2,0), (5,0), (0,5)} "
            "has 4 interior points and conv{(0,4), (4,0), (5,0), (0,5)} has 0"
        )

    def test_rejects_non_chop(self):
        with pytest.raises(DomainError):
            SurfaceChain((preset("blf1"), polygon([(0, 0), (1, 0), (0, 1)])))

    def test_rejects_empty_chain(self):
        with pytest.raises(DomainError) as exc:
            SurfaceChain(())
        assert str(exc.value) == "empty chain"

    def test_rejects_a_list_of_polygons(self):
        with pytest.raises(DomainError) as exc:
            SurfaceChain([p2(1)])
        assert str(exc.value) == "polygons must be a tuple, not list"

    @pytest.mark.parametrize(
        "polygons, message",
        [
            ((1,), "polygon 1 is not a LatticePolygon"),
            ((p2(1), "x"), "polygon 'x' is not a LatticePolygon"),
        ],
        ids=["int", "str-after-a-polygon"],
    )
    def test_rejects_elements_that_are_not_polygons(self, polygons, message):
        with pytest.raises(DomainError) as exc:
            SurfaceChain(polygons)
        assert str(exc.value) == message

    def test_single_polygon_chain(self):
        chain = SurfaceChain((preset("bl2f1"),))
        assert len(chain.polygons) == 1

    def test_chain_from_maps_the_normal_form_chain_back(self):
        # f1_4_2e is not its own normal form: its level is chopped there and mapped back
        assert [str(q) for q in chain_from(preset("f1_4_2e")).polygons] == [
            "conv{(0,0), (4,0), (2,2), (0,2)}", "conv{(0,0), (2,0), (2,2), (0,2)}", "conv{(0,2), (2,0), (2,2)}",
        ]

    def test_chain_from_chops_each_level_on_its_own_normal_form(self):
        # the 4x2 rectangle's first chop is an image of f1_4_2e, and gets its chain below;
        # the first chops of the rectangle's normal form alone give 48 36 28 24 24 there
        tables = build_tables(chain_from(polygon([(0, 0), (4, 0), (4, 2), (0, 2)])))
        assert [t.rows for t in tables[1:]] == preset_rows("f1_4_2e")

    def test_chain_from_an_image_of_p2_4_is_the_quartic_chain_mapped_back(self):
        top = polygon([(0, 0), (4, 4), (0, 4)])  # p2:4 under (x, y) -> (y, x + y)
        chain = chain_from(top)
        _, ((a, b), (c, d)), (ox, oy) = normal_form(top)
        forward = [
            polygon([(a * (x - ox) + b * (y - oy), c * (x - ox) + d * (y - oy)) for x, y in q.vertices])
            for q in chain.polygons
        ]
        assert chain.polygons[0] == top and forward == list(quartic_chain().polygons)

    def test_chain_from_maps_back_through_a_mirror(self):
        # a chiral triangle, sent to its normal form by a map of determinant -1
        top = polygon([(0, 0), (3, 3), (1, 3)])
        (a, b), (c, d) = normal_form(top)[1]
        assert a * d - b * c == -1
        assert chain_from(top).polygons == (top, polygon([(0, 0), (1, 1), (1, 3)]))

    def test_chain_from_names_the_stuck_level_as_given(self):
        with pytest.raises(DomainError) as exc:
            chain_from(polygon([(0, 0), (3, 1), (1, 3)]))
        assert str(exc.value) == "no depth-2 chop available on conv{(0,0), (3,1), (1,3)}"

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="chain_from chops without curve classes (ROADMAP item 2): the pentagon's level 1 leaves the fan",
    )
    def test_chain_from_keeps_the_pentagon_in_the_bl3_fan(self):
        # N = 96, W = 48; level 1 is conv{(0,5), (3,2), (4,2), (4,3)}, whose N is 10, and
        # table prints 48 36 28 24 24 where a chain kept in the fan gives 48 32 20 12 8
        try:
            chain = chain_from(polygon([(0, 5), (3, 2), (4, 2), (4, 3), (2, 5)]))
        except DomainError:
            return
        assert all(in_bl3_fan(q) for q in chain.polygons)


# -- a point of multiplicity 1 is a point condition ---------------------------------


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="chain_from chops without curve classes (ROADMAP item 2): the first chop leaves the class",
)
@pytest.mark.parametrize(
    "absorbed, plain",
    [
        ([(2, 1), (5, 4), (5, 5), (2, 5)], "p2:4"),
        ([(0, 5), (3, 2), (4, 2), (4, 3), (2, 5)], "f1_4_2e"),
        ([(0, 0), (5, 0), (5, 1), (4, 2), (0, 2)], [(4, 0), (6, 0), (0, 6), (0, 4)]),
    ],
    ids=["4;1,0,0", "4;2,1,0", "6;4,1,0"],
)
def test_an_absorbed_point_keeps_the_rows(absorbed, plain):
    # (d; a, 1) against (d; a, 0), up to the shorter table's s_max; the rows first differ at s = 2, 1 and 1
    top = build_tables(chain_from(polygon(absorbed)))[0]
    want = build_tables(chain_from(preset(plain) if isinstance(plain, str) else polygon(plain)))[0]
    for s in range(min(top.s_max(), want.s_max()) + 1):
        assert top.rows[s].equivalent(want.rows[s]), s


# -- the interior rule against the three rules it replaced --------------------------


def candidate_chains(seed: int, hulls: int, side: int):
    """Polygon lists to judge as chains, over seeded hulls in [0, side]^2: each hull's ``chain_from`` list,
    unjudged, and three runs of depth-2 chops at random corners, each with its prefixes and suffixes."""
    rng = random.Random(seed)
    for _ in range(hulls):
        try:
            top = convex_hull([(rng.randint(0, side), rng.randint(0, side)) for _ in range(rng.randint(3, 8))])
        except DomainError:
            continue
        runs = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(wallcross, "SurfaceChain", tuple)  # chain_from returns its list, unjudged
            try:
                runs.append(chain_from(top))
            except DomainError:
                pass
        for _ in range(3):
            run = [top]
            while chops := depth2_chops(run[-1]):
                run.append(rng.choice(chops))
            runs.append(tuple(run))
        for run in runs:
            for k in range(1, len(run) + 1):
                yield run[:k]
                yield run[k - 1 :]


def test_the_interior_rule_accepts_what_the_three_rules_accept():
    # Pick: a depth-2 chop removes one interior point exactly at a smooth corner, where the budget drops by 2
    verdicts = collections.Counter()
    for polys in candidate_chains(seed=5, hulls=1000, side=5):
        try:
            SurfaceChain(polys)
            ok = True
        except DomainError:
            ok = False
        assert ok == three_rule_chain_ok(polys), polys
        budget_steps = all(a.point_budget() - 2 == b.point_budget() for a, b in zip(polys, polys[1:]))
        verdicts[ok, budget_steps and polys[-1].interior_count() == 0] += 1
    # every step is a depth-2 chop by construction, so a list refused although its budget drops by 2 at
    # each step and its bottom has no interior point is refused for the interior count: a singular corner
    assert verdicts[True, True] > 1000 and verdicts[False, True] > 20, verdicts


#: The primitive edge directions of the fan of Bl3P2, the blow-up of the plane
#: in three points, in cyclic order.
BL3_FAN = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))


def in_bl3_fan(poly) -> bool:
    """Whether one GL(2,Z) map sends the primitive edge directions of ``poly``,
    in cycle order, into ``BL3_FAN`` in its cyclic order: the polygon is then a
    curve class on Bl3P2 or on one of its toric blow-downs."""
    vs = poly.vertices
    dirs = []
    for (x0, y0), (x1, y1) in zip(vs, vs[1:] + vs[:1]):
        g = gcd(x1 - x0, y1 - y0)
        dirs.append(((x1 - x0) // g, (y1 - y0) // g))
    (p, q), (r, s) = dirs[0], dirs[1]
    det = p * s - q * r
    for (a, c), (b, d) in itertools.product(BL3_FAN, repeat=2):
        # the map sending dirs[0] to (a, c) and dirs[1] to (b, d), det times its inverse's adjugate
        m = ((a * s - b * q, b * p - a * r), (c * s - d * q, d * p - c * r))
        if any(v % det for row in m for v in row):
            continue
        (m00, m01), (m10, m11) = ((v // det for v in row) for row in m)
        images = [(m00 * x + m01 * y, m10 * x + m11 * y) for x, y in dirs]
        if abs(m00 * m11 - m01 * m10) != 1 or not all(v in BL3_FAN for v in images):
            continue
        idx = [BL3_FAN.index(v) for v in images]
        steps = [(j - i) % 6 for i, j in zip(idx, idx[1:] + idx[:1])]
        if all(steps) and sum(steps) == 6:
            return True
    return False


@functools.lru_cache(maxsize=None)
def preset_rows(name: str) -> list:
    return [t.rows for t in build_tables(chain_from(preset(name)))]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(["p2:3", "p2:4", "f1_4_2e", "blf1"]), affine_maps)
def test_an_image_gets_the_tables_of_its_preset(name, f):
    # shears, the swap, negation, the mirror and translations: the chain starts
    # at the polygon as given, and its tables are the preset's, row for row
    q = image_of(preset(name), *f)
    chain = chain_from(q)
    assert chain.polygons[0] == q
    assert [t.rows for t in build_tables(chain)] == preset_rows(name)


class TestBaseInvariants:
    def test_base_values(self, quartic_bases):
        assert quartic_bases[0] == 190 * H + 240 * ONE
        assert quartic_bases[1] == 24 * H + 48 * ONE
        assert quartic_bases[2] == 2 * H + 8 * ONE
        assert quartic_bases[3] == ONE

    def test_conic_direct(self):
        assert base_invariant(preset("bl2f1")) == ONE


class TestTables:
    def test_rank_must_stay_constant(self):
        rows = (BetaPolynomial.constant(ONE), BetaPolynomial.constant(2 * ONE))
        with pytest.raises(DomainError) as exc:
            InvariantTable(preset("blf1"), rows)
        assert str(exc.value) == "rank profile must be constant down a table"

    def test_rows_must_be_a_tuple(self):
        with pytest.raises(DomainError) as exc:
            InvariantTable(preset("bl2f1"), [BetaPolynomial.constant(ONE)])
        assert str(exc.value) == "rows must be a tuple, not list"

    @pytest.mark.parametrize(
        "polygon, rows, message",
        [
            ([1], (BetaPolynomial.constant(ONE),), "polygon [1] is not a LatticePolygon"),
            (p2(1), (1,), "row 1 is not a BetaPolynomial"),
            (p2(1), (), "a table needs at least one row"),
        ],
        ids=["list-polygon", "int-row", "no-rows"],
    )
    def test_rejects_bad_elements(self, polygon, rows, message):
        with pytest.raises(DomainError) as exc:
            InvariantTable(polygon, rows)
        assert str(exc.value) == message

    def test_golden_rows_structurally(self, quartic_tables):
        assert len(quartic_tables) == 4
        for table, golden in zip(quartic_tables, GOLDEN):
            assert len(table.rows) == len(golden)
            for row, text in zip(table.rows, golden):
                assert row == parse_expression(text)

    def test_golden_rows_under_gw_equal(self, quartic_tables):
        for table, golden in zip(quartic_tables, GOLDEN):
            for row, text in zip(table.rows, golden):
                assert row.equivalent(parse_expression(text))

    def test_rank_profile_constant(self, quartic_tables):
        for table, want in zip(quartic_tables, (620, 96, 12, 1)):
            for row in table.rows:
                assert row.rank_profile() == want

    def test_monic_in_top_row(self, quartic_tables):
        for table in quartic_tables:
            g = table.polygon.interior_count()
            assert table.rows[g].coeff(tuple(range(1, g + 1))) == ONE

    def test_specialization_recovers_row_zero(self, quartic_tables):
        for table in quartic_tables:
            base = table.rows[0].constant_value()
            for s, row in enumerate(table.rows):
                value = row.specialize({i: 1 for i in range(1, s + 1)})
                assert gw_equal(value, base)

    def test_welschinger_ladder(self, quartic_tables):
        p2_table, f1_table = quartic_tables[0], quartic_tables[1]
        sig = [
            row.signature_profile({i: -1 for i in range(1, s + 1)})
            for s, row in enumerate(p2_table.rows)
        ]
        assert sig == [240, 144, 80, 40, 16, 0]
        blow = [
            row.signature_profile({i: -1 for i in range(1, s + 1)})
            for s, row in enumerate(f1_table.rows)
        ]
        assert blow == [48, 32, 20, 12, 8]
        assert [a - b for a, b in zip(sig, sig[1:])] == [2 * v for v in blow]

    def test_conic_only_chain(self):
        (table,) = build_tables(SurfaceChain((preset("bl2f1"),)))
        assert [str(r) for r in table.rows] == ["<1>", "<1>", "<1>"]

    def test_cubic_chain_tables(self):
        tables = build_tables(chain_from(p2(3)))
        top = tables[0]
        assert top.rows[0].constant_value() == 2 * H + 8 * ONE
        # one interior point: monic linear polynomial
        assert top.rows[1].coeff((1,)) == ONE
        assert tables[1].rows[0].constant_value() == ONE

    def test_row_symbols_validator(self):
        with pytest.raises(DomainError):
            InvariantTable(preset("bl2f1"), (parse_expression("b1"),))

    def test_json_and_markdown(self, quartic_tables):
        t = quartic_tables[2]
        data = t.to_json()
        assert [r["s"] for r in data["rows"]] == [0, 1, 2, 3]
        md = t.markdown()
        assert "| 1 | 2h + 6·⟨1⟩ + β₁ |" in md


# -- every chain the CLI builds, and the 4x2 rectangle's ----------------------

#: The presets ``table --chain NAME`` chains, each built here with ``chain_from``,
#: the rule ``table`` runs; ``rect4x2`` is the 4x2 rectangle's chain by the same rule.
CLI_CHAIN_NAMES = ["p2:1", "p2:2", "p2:3", "p2:4", "f1_4_2e", "blf1", "bl2f1"]
CHAIN_NAMES = CLI_CHAIN_NAMES + ["rect4x2"]


@pytest.fixture(scope="module")
def chain_tables(quartic_tables):
    """The tables ``table`` prints for a chain in ``CHAIN_NAMES``, each built once;
    p2:4's are the shared quartic tables, since ``chain_from(p2(4))`` is the quartic chain."""
    built = {"p2:4": quartic_tables}

    def tables(name):
        if name not in built:
            top = polygon([(0, 0), (4, 0), (4, 2), (0, 2)]) if name == "rect4x2" else preset(name)
            built[name] = build_tables(chain_from(top))
        return built[name]

    return tables


@pytest.mark.parametrize("name", CHAIN_NAMES)
def test_every_level_is_in_the_bl3_fan(name, chain_tables):
    # the pentagon's fails it, as the raw-coordinate rule's p2:4 level conv{(0,4), (2,0), (4,0)} did
    assert all(in_bl3_fan(t.polygon) for t in chain_tables(name))


# -- specialization against evaluating each monomial by factoring ---------------


@pytest.mark.parametrize("name", CLI_CHAIN_NAMES)
def test_specialize_matches_per_monomial_evaluation(name, chain_tables):
    rng = random.Random(name)
    for t in chain_tables(name):
        for s, row in enumerate(t.rows):
            for bound in (30, 10**6):
                cs = {i: rng.choice([-1, 1]) * rng.randrange(1, bound) for i in range(1, s + 1)}
                assert row.specialize(cs) == specialize_per_monomial(row, cs), (t.polygon, s, cs)


# -- every row is a sum over its base column ------------------------------------
#
# Induction on s turns the DP N_j(s+1) = N_j(s) + (b_{s+1} - 2<1>) N_{j+1}(s)
# into N_j(s) = sum_k e_k(b_1 - 2<1>, ..., b_s - 2<1>) N_{j+k}(0), with e_k the
# k-th elementary symmetric polynomial and N_m(0) = 0 past the last level.


def elementary(values, k, one):
    """e_k of ``values``, elements of the ring whose unit is ``one``: the sum
    over k-subsets of their products."""
    total = one - one
    for subset in itertools.combinations(values, k):
        total = total + functools.reduce(operator.mul, subset, one)
    return total


def closed_form_row(tables, j: int, s: int) -> BetaPolynomial:
    """Row s of level j from the bases alone, by BetaPolynomial + and *."""
    one = BetaPolynomial.constant(ONE)
    shifted = [beta_symbol(i) - BetaPolynomial.constant(2 * ONE) for i in range(1, s + 1)]
    out = POLY_ZERO
    for k in range(min(s, len(tables) - 1 - j) + 1):
        out = out + elementary(shifted, k, one) * tables[j + k].rows[0]
    return out


@pytest.mark.parametrize("name", CHAIN_NAMES)
def test_every_row_is_a_sum_over_its_base_column(name, chain_tables):
    tables = chain_tables(name)
    for j, t in enumerate(tables):
        for s, row in enumerate(t.rows):
            assert row.equivalent(closed_form_row(tables, j, s)), (t.polygon, s)


@pytest.mark.parametrize("name", CHAIN_NAMES)
def test_rows_are_symmetric_in_their_symbols(name, chain_tables):
    # the adjacent transpositions generate every permutation of b1..bs
    for t in chain_tables(name):
        for s, row in enumerate(t.rows):
            for i in range(1, s):
                swap = {i: i + 1, i + 1: i}
                permuted = {tuple(sorted(swap.get(x, x) for x in m)): g for m, g in row.monomials}
                assert BetaPolynomial.from_dict(permuted) == row, (t.polygon, s, i)


@pytest.mark.parametrize("name", CHAIN_NAMES)
def test_signature_ladders_follow_from_the_bases(name, chain_tables):
    # b_i - 2<1> has signature 0 for c_i > 0 and -2 for c_i < 0
    tables = chain_tables(name)
    w = [t.rows[0].constant_value().signature() for t in tables]
    for j, t in enumerate(tables):
        pos = [row.signature_profile(dict.fromkeys(range(1, s + 1), 1)) for s, row in enumerate(t.rows)]
        neg = [row.signature_profile(dict.fromkeys(range(1, s + 1), -1)) for s, row in enumerate(t.rows)]
        assert pos == [w[j]] * len(t.rows), t.polygon
        assert neg == [
            sum(comb(s, k) * (-2) ** k * w[j + k] for k in range(min(s, len(tables) - 1 - j) + 1))
            for s in range(len(t.rows))
        ], t.polygon


def test_quartic_top_row_specializes_to_the_closed_form(quartic_tables):
    rng = random.Random(31)
    bases = [t.rows[0].constant_value() for t in quartic_tables]
    top = quartic_tables[0]
    for _ in range(4):
        # two small, two medium and one large c, each with a square factor and a sign
        sizes = [rng.randrange(2, 100) for _ in range(2)]
        sizes += [rng.randrange(10**3, 10**4) * rng.randrange(10**3, 10**4) for _ in range(2)]
        sizes.append(rng.randrange(10**5, 10**6))
        rng.shuffle(sizes)
        cs = {i: rng.choice([-1, 1]) * rng.randrange(1, 30) ** 2 * c for i, c in enumerate(sizes, 1)}
        deltas = [form(2, 2 * cs[i]) - 2 * ONE for i in range(1, 6)]
        for s, row in enumerate(top.rows):
            want = ZERO
            for k in range(min(s, len(bases) - 1) + 1):
                want = want + elementary(deltas[:s], k, ONE) * bases[k]
            assert gw_equal(row.specialize(cs), want), (s, cs)
