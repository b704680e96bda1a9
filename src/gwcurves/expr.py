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
from typing import Union

from .betapoly import BetaPolynomial, Monomial
# ExprError lives in gw, so that the command line catches it without this module
from .gw import ZERO, DomainError, ExprError, GWElement, H, ONE, Rational, _add_into, form, read_int, trace_form

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


def _factor(tk: _Tokens) -> GWElement | int:
    """A constant factor, or the index of a symbol ``bN``."""
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
        return idx
    raise ExprError("expected a factor", tk.at)


def _term(tk: _Tokens) -> Value:
    """The product of the constant factors, in GW(Q), and of the symbols,
    collected and made one monomial at the end: a monomial rebuilt at every
    ``*`` makes a product of n symbols cost n^2."""
    coeff = 1
    if "0" <= tk.tok[:1] <= "9":
        coeff = tk.uint()
        if not tk.take("*") and tk.tok in ("", "+", "-"):
            return coeff * ONE
    out, symbols = _factor(tk), None
    if type(out) is int:
        out, symbols = None, {out}
    while tk.take("*"):
        start = tk.at
        factor = _factor(tk)
        if type(factor) is not int:
            out = factor if out is None else out * factor
        elif symbols is None:
            symbols = {factor}
        elif factor in symbols:
            raise ExprError(f"repeated symbol b{factor}", start)
        else:
            symbols.add(factor)
    if out is None:  # symbols alone
        out = coeff * ONE
    elif coeff != 1:
        out = coeff * ONE * out
    return BetaPolynomial._of({tuple(sorted(symbols)): out}) if symbols else out


def _parse(text: str) -> Value:
    """The value of ``text``: a GWElement if it is constant, also when its
    symbols cancel (``b1 - b1``), else a BetaPolynomial with symbols."""
    tk = _Tokens(text)
    terms = [-_term(tk) if tk.take("-") else _term(tk)]
    while tk.tok in ("+", "-"):
        negate = tk.tok == "-"
        tk.advance()
        terms.append(-_term(tk) if negate else _term(tk))
    if tk.tok:
        raise ExprError("expected '+', '-' or end of input", tk.at)
    total = terms[0]
    if len(terms) > 1:  # one class -> weight dict per monomial, not a running sum copied per term
        sums: dict[Monomial, dict[int, int]] = {}
        for term in terms:
            for m, g in (((), term),) if isinstance(term, GWElement) else term.monomials:
                _add_into(sums.setdefault(m, {}), g)
        total = BetaPolynomial._of({m: GWElement._of(d) for m, d in sums.items()})
    if isinstance(total, GWElement) or total.indices():
        return total
    return dict(total.monomials).get((), ZERO)


def parse_expression(text: str) -> BetaPolynomial:
    v = _parse(text)
    return BetaPolynomial.constant(v) if isinstance(v, GWElement) else v


def parse_gw(text: str) -> GWElement:
    """Parse an expression that must be constant (no b symbols)."""
    value = _parse(text)
    if not isinstance(value, GWElement):
        raise DomainError("polynomial carries formal symbols")
    return value
