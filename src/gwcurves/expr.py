r"""Parser for the calculator surface syntax.

Grammar, over tokens read one at a time as ``\s*([0-9]+|tr\(|\S)``: a run
of ASCII digits, ``tr(`` or one other character, after any whitespace
(``str.isspace``), which may not fall inside ``tr(`` or a number:

    element := term (("+" | "-") term)*
    term    := [uint ["*"]] factor ("*" factor)*
             | uint                      -- bare integer, meaning n*<1>
    factor  := "<" rational ">" | "h" | "b" uint
             | "tr(" rational ";" rational ["," rational] ")"

A token is read when the parser reaches it, and an error carries the start
of the token it is found at.  ``tr(c; a[, b])`` is the trace form of
a + b*sqrt(c) from Q(sqrt(c)).  Values are computed in GW(Q) until a ``bN``
lifts them to BetaPolynomials.  ``parse_expression`` returns a
BetaPolynomial, ``parse_gw`` a GWElement, and the command line reads the
value itself (``_parse``).
"""

from __future__ import annotations

import re
from operator import add, mul
from typing import Callable, Union

from .betapoly import BetaPolynomial, beta_symbol
# ExprError lives in gw, so that the command line catches it without this module
from .gw import ZERO, DomainError, ExprError, GWElement, H, ONE, Rational, form, read_int, trace_form

_TOKEN = re.compile(r"\s*([0-9]+|tr\(|\S)")
Value = Union[GWElement, BetaPolynomial]


class _Tokens:
    """The current token ``tok`` of a text and its start ``at``: "" and
    len(text) once only whitespace is left."""

    def __init__(self, text: str):
        self.text, self.end = text, 0
        self.advance()

    def advance(self) -> None:
        m = _TOKEN.match(self.text, self.end)
        if m is None:
            self.tok, self.at = "", len(self.text)
        else:
            self.tok, self.at, self.end = m[1], m.start(1), m.end()

    def take(self, token: str) -> bool:
        if self.tok == token:
            self.advance()
            return True
        return False

    def expect(self, token: str) -> None:
        if not self.take(token):
            raise ExprError(f"expected {token!r}", self.at)

    def uint(self) -> int:
        text, at = self.tok, self.at
        if not "0" <= text[:1] <= "9":
            raise ExprError("expected an integer", at)
        self.advance()
        try:
            return read_int(text)
        except ValueError as exc:  # longer than int() accepts
            raise ExprError(str(exc), at) from None

    def rational(self) -> Rational:
        """An int, or a Fraction when a denominator other than 1 is written."""
        start = self.at
        num = -self.uint() if self.take("-") else self.uint()
        if not self.take("/"):
            return num
        den = self.uint()
        if den == 0:
            raise ExprError("zero denominator", start)
        if den == 1:
            return num
        from fractions import Fraction

        return Fraction(num, den)


def _poly(v: Value) -> BetaPolynomial:
    return BetaPolynomial.constant(v) if isinstance(v, GWElement) else v


def _apply(op: Callable, x: Value, y: Value) -> Value:
    """op(x, y) in GW(Q) if both are constants, else on BetaPolynomials."""
    if isinstance(x, GWElement) and isinstance(y, GWElement):
        return op(x, y)
    return op(_poly(x), _poly(y))


def _factor(tk: _Tokens) -> Value:
    start = tk.at
    try:
        if tk.take("<"):
            a = tk.rational()
            if a == 0:
                raise ExprError("zero inside <...>", start)
            tk.expect(">")
            return form(a)
        if tk.take("tr("):
            c = tk.rational()
            tk.expect(";")
            a = tk.rational()
            b = tk.rational() if tk.take(",") else 0
            tk.expect(")")
            return trace_form(c, a, b)
    except DomainError as exc:  # a class past the factoring effort, or a bad tr(c; a, b)
        raise ExprError(str(exc), start) from None
    if tk.take("h"):
        return H
    if tk.take("b"):
        idx = tk.uint()
        if idx == 0:
            raise ExprError("symbol index must be positive", start)
        return beta_symbol(idx)
    raise ExprError("expected a factor", tk.at)


def _term(tk: _Tokens) -> Value:
    coeff = 1
    if "0" <= tk.tok[:1] <= "9":
        coeff = tk.uint()
        if not tk.take("*") and tk.tok in ("", "+", "-"):
            return coeff * ONE
    out = _factor(tk)
    while tk.take("*"):
        start = tk.at
        factor = _factor(tk)
        try:
            out = _apply(mul, out, factor)
        except DomainError as exc:  # a repeated symbol
            raise ExprError(str(exc), start) from None
    return out if coeff == 1 else _apply(mul, coeff * ONE, out)


def _parse(text: str) -> Value:
    """The value of ``text``: a GWElement if it is constant, also when its
    symbols cancel (``b1 - b1``), else a BetaPolynomial with symbols."""
    tk = _Tokens(text)
    total: Value = ZERO
    negate = tk.take("-")
    while True:
        term = _term(tk)
        total = _apply(add, total, -term if negate else term)
        if not tk.tok:
            if isinstance(total, GWElement) or total.indices():
                return total
            return dict(total.monomials).get((), ZERO)
        if tk.tok not in ("+", "-"):
            raise ExprError("expected '+', '-' or end of input", tk.at)
        negate = tk.tok == "-"
        tk.advance()


def parse_expression(text: str) -> BetaPolynomial:
    return _poly(_parse(text))


def parse_gw(text: str) -> GWElement:
    """Parse an expression that must be constant (no b symbols)."""
    value = _parse(text)
    if not isinstance(value, GWElement):
        raise DomainError("polynomial carries formal symbols")
    return value
