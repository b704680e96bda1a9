"""Surface syntax: parsing, canonical printing, round trips."""

from __future__ import annotations

import random
import sys
from itertools import filterfalse
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwcurves.betapoly import BetaPolynomial, format_poly
from gwcurves.expr import _TOKEN, ExprError, parse_expression, parse_gw
from gwcurves.gw import DomainError, H, ONE, form, format_gw

from oracles import random_gw, scan_expression


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

    @pytest.mark.parametrize(
        "text, pos", [("2*", 2), ("2*+<3>", 2), ("2 * - <3>", 4), ("h + 3 *", 7), ("<2>*", 4)]
    )
    def test_star_needs_a_factor(self, text, pos):
        # after a coefficient as after a factor: the grammar's uint "*" factor
        with pytest.raises(ExprError) as err:
            parse_expression(text)
        assert str(err.value) == f"expected a factor (at position {pos})"


class TestTokens:
    def test_whitespace_is_str_isspace(self):
        # over every code point: the tokens keep exactly the characters
        # that are not str.isspace, so whitespace is skipped and nothing else
        text = "".join(map(chr, range(sys.maxunicode + 1)))
        assert "".join(_TOKEN.findall(text)) == "".join(filterfalse(str.isspace, text))

    def test_unicode_whitespace_separates_tokens(self):
        assert parse_gw("\u3000<\xa0-3 /\u20032>\n*\th") == form(-6) * H
        assert parse_expression("b 1 * b\t2") == parse_expression("b1*b2")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("<\u0663>", "expected an integer (at position 1)"),
            ("<\u00b2>", "expected an integer (at position 1)"),
            ("<1_0>", "expected '>' (at position 2)"),
            ("<1 2>", "expected '>' (at position 3)"),
            ("tr (2; 1)", "expected a factor (at position 0)"),
            ("h + t r(2; 1)", "expected a factor (at position 4)"),
        ],
    )
    def test_token_rules(self, text, message):
        # integers are runs of ASCII digits, and no whitespace falls inside
        # tr( or a number
        with pytest.raises(ExprError) as err:
            parse_expression(text)
        assert str(err.value) == message

    def test_a_bad_token_ends_the_read(self):
        # tokens are read as the parser reaches them: the million characters
        # after the bad one are never scanned
        text = "<x" + " 1" * 500_000
        t0 = perf_counter()
        with pytest.raises(ExprError) as err:
            parse_expression(text)
        assert perf_counter() - t0 < 0.1
        assert str(err.value) == "expected an integer (at position 1)"


def _outcome(parse, text):
    try:
        return parse(text)
    except (ExprError, DomainError) as exc:
        return type(exc), str(exc)


#: What may stand between two tokens.
_WS = ["", "", "", " ", "  ", "\t", "\n", "\xa0", "\u2003"]


@st.composite
def expressions(draw):
    """Texts of the calculator grammar, zeros, b0 and repeated symbols
    among them, with whitespace between tokens from a drawn seed (one
    draw, where one per gap made the examples slow to build)."""

    def rational() -> list[str]:
        out = ["-"] if draw(st.booleans()) else []
        out.append(str(draw(st.integers(0, 300))))
        return out + (["/", str(draw(st.integers(0, 300)))] if draw(st.booleans()) else [])

    def factor() -> list[str]:
        kind = draw(st.sampled_from(["<", "h", "b", "tr("]))
        if kind == "<":
            return ["<", *rational(), ">"]
        if kind == "h":
            return ["h"]
        if kind == "b":
            return ["b", str(draw(st.integers(0, 3)))]
        out = ["tr(", *rational(), ";", *rational()]
        if draw(st.booleans()):
            out += [",", *rational()]
        return out + [")"]

    def term() -> list[str]:
        out = []
        if draw(st.booleans()):
            out = [str(draw(st.integers(0, 300)))] + (["*"] if draw(st.booleans()) else [])
            if draw(st.integers(0, 3)) == 0:
                return out
        out += factor()
        for _ in range(draw(st.integers(0, 2))):
            out += ["*", *factor()]
        return out

    tokens = (["-"] if draw(st.booleans()) else []) + term()
    for _ in range(draw(st.integers(0, 3))):
        tokens += [draw(st.sampled_from(["+", "-"])), *term()]
    rng = random.Random(draw(st.integers(0, 2**32)))
    return "".join(rng.choice(_WS) + t for t in tokens) + rng.choice(_WS)


#: Pieces of hostile text: every token kind, tr( split by a space, Unicode
#: whitespace and digits, and a literal longer than Python reads.
_GARBAGE = [
    "<", ">", "/", "-", "+", "*", ";", ",", "(", ")", "tr(", "tr (", "t", "h", "b",
    "0", "1", "2", "7", "12", "\u0663", "\u00b2", "_", " ", "\xa0", "\t", "x", "7" * 5000,
]


class TestAgainstCharacterScanner:
    """parse_expression gives the value, or the error type and message, of
    ``oracles.scan_expression``: a scanner that walks the text one
    character at a time and builds every value as a BetaPolynomial."""

    @settings(deadline=None, max_examples=400)
    @given(expressions())
    def test_grammar(self, text):
        assert _outcome(parse_expression, text) == _outcome(scan_expression, text)

    @settings(deadline=None, max_examples=400)
    @given(st.lists(st.sampled_from(_GARBAGE), max_size=12).map("".join) | st.text(max_size=12))
    def test_garbage(self, text):
        assert _outcome(parse_expression, text) == _outcome(scan_expression, text)


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
