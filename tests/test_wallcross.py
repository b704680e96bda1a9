"""Wall-crossing recursion, invariant tables, and the classical oracle."""

from __future__ import annotations

import itertools
import random

import pytest

from gwcurves.betapoly import BetaPolynomial
from gwcurves.expr import parse_expression
from gwcurves.gw import H, ONE, ZERO, DomainError, GWElement, gw_equal
from gwcurves.polygon import p2, polygon, preset
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

from oracles import blowup_count, factoring_beta, factoring_product

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
        assert len(chain) == 4
        assert [q.point_budget() for q in chain.polygons] == [11, 9, 7, 5]
        assert [q.interior_count() for q in chain.polygons] == [3, 2, 1, 0]

    def test_chain_from_quartic_matches_preset_shape(self):
        auto = chain_from(p2(4))
        assert len(auto) == 4
        assert [q.interior_count() for q in auto.polygons] == [3, 2, 1, 0]

    def test_chain_from_cubic(self):
        chain = chain_from(p2(3))
        assert len(chain) == 2
        assert chain.polygons[1].interior_count() == 0

    def test_rejects_wrong_length(self):
        with pytest.raises(DomainError):
            SurfaceChain((p2(4), preset("f1_4_2e")))

    def test_refusal_lists_the_presets_that_chain(self):
        # the refusal message names these presets as the ones that work
        for name in ["p2:1", "p2:2", "p2:3", "p2:4", "f1_4_2e", "blf1", "bl2f1"]:
            chain_from(preset(name))
        with pytest.raises(DomainError, match="p2:1 to p2:4, f1_4_2e, blf1 and bl2f1"):
            chain_from(p2(5))

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

    def test_single_polygon_chain(self):
        chain = SurfaceChain((preset("bl2f1"),))
        assert len(chain) == 1


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


# -- specialization against evaluating each monomial by factoring ---------------

#: The chains ``table --chain NAME`` builds: the quartic chain for p2:4 and
#: ``chain_from`` for every other preset that chains.
CLI_CHAIN_NAMES = ["p2:1", "p2:2", "p2:3", "p2:4", "f1_4_2e", "blf1", "bl2f1"]


def specialize_per_monomial(row: BetaPolynomial, assignment) -> GWElement:
    """``row.specialize``, with beta(c_i) built again for every monomial and
    index and each product of classes factored."""
    total = ZERO
    for m, g in row.monomials:
        for i in m:
            g = factoring_product(g, factoring_beta(assignment[i]))
        total = total + g
    return total


@pytest.mark.parametrize("name", CLI_CHAIN_NAMES)
def test_specialize_matches_per_monomial_evaluation(name, quartic_tables):
    tables = quartic_tables if name == "p2:4" else build_tables(chain_from(preset(name)))
    rng = random.Random(name)
    for t in tables:
        for s, row in enumerate(t.rows):
            for bound in (30, 10**6):
                cs = {i: rng.choice([-1, 1]) * rng.randrange(1, bound) for i in range(1, s + 1)}
                assert row.specialize(cs) == specialize_per_monomial(row, cs), (t.polygon, s, cs)
