"""Parser for the calculator surface syntax.

Grammar (ASCII; whitespace free between tokens):

    element := term (("+" | "-") term)*
    term    := [uint ["*"]] factor ("*" factor)*
             | uint                      -- bare integer, meaning n*<1>
    factor  := "<" rational ">" | "h" | "b" uint
             | "tr(" rational ";" rational ["," rational] ")"

``tr(c; a[, b])`` evaluates the trace form of a + b*sqrt(c) from Q(sqrt(c)).
Parsing returns a BetaPolynomial; constants can be narrowed with
``constant_value``.  Errors carry the offending position.
"""

from __future__ import annotations

from fractions import Fraction

from .betapoly import POLY_ZERO, BetaPolynomial, beta_symbol
from .gw import DomainError, GWElement, H, ONE, _is_digit, form, read_int, trace_form


class ExprError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def expect(self, token: str) -> None:
        if not self.take(token):
            raise ExprError(f"expected {token!r}", self.pos)

    def uint(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and _is_digit(self.text[self.pos]):
            self.pos += 1
        if self.pos == start:
            raise ExprError("expected an integer", start)
        try:
            return read_int(self.text[start : self.pos])
        except ValueError as exc:  # longer than int() accepts
            raise ExprError(str(exc), start) from None

    def rational(self) -> Fraction:
        self.skip_ws()
        start = self.pos
        sign = -1 if self.take("-") else 1
        num = self.uint()
        den = 1
        if self.take("/"):
            den = self.uint()
            if den == 0:
                raise ExprError("zero denominator", start)
        return Fraction(sign * num, den)

    def done(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def _factor(sc: _Scanner) -> BetaPolynomial:
    start = sc.pos
    try:
        if sc.take("<"):
            a = sc.rational()
            if a == 0:
                raise ExprError("zero inside <...>", start)
            sc.expect(">")
            return BetaPolynomial.constant(form(a))
        if sc.take("tr("):
            c = sc.rational()
            sc.expect(";")
            a = sc.rational()
            b = Fraction(0)
            if sc.take(","):
                b = sc.rational()
            sc.expect(")")
            return BetaPolynomial.constant(trace_form(c, a, b))
    except DomainError as exc:  # a class past the factoring effort, or a bad tr(c; a, b)
        raise ExprError(str(exc), start) from None
    if sc.take("h"):
        return BetaPolynomial.constant(H)
    if sc.take("b"):
        idx = sc.uint()
        if idx == 0:
            raise ExprError("symbol index must be positive", start)
        return beta_symbol(idx)
    raise ExprError("expected a factor", sc.pos)


def _term(sc: _Scanner) -> BetaPolynomial:
    coeff = 1
    sc.skip_ws()
    if _is_digit(sc.peek()):
        coeff = sc.uint()
        sc.take("*")
        if sc.done() or sc.peek() in "+-":
            return BetaPolynomial.constant(coeff * ONE)
    out = _factor(sc)
    while sc.take("*"):
        sc.skip_ws()
        start = sc.pos
        factor = _factor(sc)
        try:
            out = out * factor
        except DomainError as exc:  # a repeated symbol
            raise ExprError(str(exc), start) from None
    if coeff != 1:
        out = BetaPolynomial.constant(coeff * ONE) * out
    return out


def parse_expression(text: str) -> BetaPolynomial:
    sc = _Scanner(text)
    total = POLY_ZERO
    negate = sc.take("-")
    while True:
        term = _term(sc)
        total = total + (-term if negate else term)
        if sc.done():
            return total
        if sc.take("+"):
            negate = False
        elif sc.take("-"):
            negate = True
        else:
            raise ExprError("expected '+', '-' or end of input", sc.pos)


def parse_gw(text: str) -> GWElement:
    """Parse an expression that must be constant (no b symbols)."""
    poly = parse_expression(text)
    return poly.constant_value()
