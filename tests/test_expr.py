"""Surface syntax: parsing, canonical printing, round trips."""

from __future__ import annotations

import random

import pytest

from gwcurves.betapoly import BetaPolynomial, format_poly
from gwcurves.expr import ExprError, parse_expression, parse_gw
from gwcurves.gw import H, ONE, form, format_gw

from oracles import random_gw


class TestParsing:
    def test_gw_with_h(self):
        assert parse_gw("2h + 8*<1>") == 2 * H + 8 * ONE

    def test_trace_factor(self):
        assert parse_gw("tr(-1; 1)") == form(2) + form(-2)
        assert parse_gw("tr(2; 1, 1)") == form(2) + form(-1)

    def test_beta_monomials(self):
        p = parse_expression("b1*b2 - 2*<1>*b1")
        assert p.coeff((1, 2)) == ONE
        assert p.coeff((1,)) == -2 * ONE

    def test_rationals(self):
        assert parse_gw("<4/9>") == ONE
        assert parse_gw("<-3/2>") == form(-6)

    def test_coefficient_styles(self):
        assert parse_gw("3*h") == parse_gw("3h")
        assert parse_gw("0") == parse_gw("h - h")

    def test_product_of_factors(self):
        assert parse_gw("<2>*<2>") == ONE
        assert parse_expression("2*h*b1").coeff((1,)) == 2 * H

    def test_whitespace_insensitive(self):
        assert parse_gw(" 2h+8*<1> ") == parse_gw("2h + 8*<1>")


class TestErrors:
    def test_zero_class(self):
        with pytest.raises(ExprError):
            parse_expression("<0>")

    def test_zero_symbol_index(self):
        with pytest.raises(ExprError):
            parse_expression("b0")

    def test_syntax_error_position(self):
        with pytest.raises(ExprError) as err:
            parse_expression("2h + ?")
        assert err.value.pos == 5

    def test_unclosed_bracket(self):
        with pytest.raises(ExprError):
            parse_expression("<3")

    def test_repeated_symbol(self):
        with pytest.raises(ExprError) as err:
            parse_expression("b1*b1")
        assert err.value.pos == 3  # the second factor
        assert str(err.value) == "repeated symbol b1 (at position 3)"
        with pytest.raises(ExprError) as err:
            parse_expression("h + b2*<3> *  b2")
        assert err.value.pos == 14

    def test_constant_required(self):
        with pytest.raises(Exception):
            parse_gw("b1")


class TestRoundTrip:
    def test_gw_roundtrip_random(self):
        rng = random.Random(42)
        for _ in range(200):
            q = random_gw(rng, size=5, bound=60)
            text = format_gw(q)
            assert parse_gw(text) == q
            assert format_gw(parse_gw(text)) == text

    def test_poly_roundtrip_random(self):
        rng = random.Random(43)
        for _ in range(200):
            p = BetaPolynomial.from_dict(
                {
                    (): random_gw(rng),
                    (1,): random_gw(rng),
                    (1, 2): random_gw(rng),
                    (3,): random_gw(rng),
                }
            )
            text = format_poly(p)
            assert parse_expression(text) == p
            assert format_poly(parse_expression(text)) == text

    def test_canonical_examples(self):
        for text in [
            "2h + 8*<1> + <-3>",
            "190h + 240*<1>",
            "2h + 6*<1> + b1",
            "24h + 20*<1> + 6*b1 + 6*b2 + b1*b2",
            "<2> + <-2>",
            "-2*b1 + b1*b2",
            "0",
        ]:
            assert format_poly(parse_expression(text)) == text
