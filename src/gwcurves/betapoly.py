"""Multilinear polynomials in formal trace symbols b1, b2, ... over GW(Q).

Invariant tables for point configurations with s conjugate pairs live here:
a row is a polynomial whose monomials are *sets* of indices (each bi occurs
at most once, matching the one-wall-per-pair recursion) with GW(Q)
coefficients.

Values are kept formal: multiplying by (b_i - 2<1>) distributes without
simplification.  The identity h*b_i = 2h (valid for every specialization of
b_i to a rank-2 trace form) is applied only by :meth:`BetaPolynomial.reduced`,
which drains hyperbolic multiples out of the symbol-carrying coefficients
into the constant term; ``equivalent`` compares polynomials modulo that
identity, coefficient by coefficient under gw_equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .gw import (
    GWElement,
    H,
    ONE,
    ZERO,
    UNICODE_GLYPHS,
    DomainError,
    Rational,
    beta,
    display_terms,
    format_gw,
    gw_equal,
    hyperbolic_part,
    signed_term,
)

Monomial = tuple[int, ...]


def _mono(indices) -> Monomial:
    out = tuple(sorted(indices))
    if out and out[0] < 1:
        raise DomainError(f"bad monomial {indices!r}: indices must be positive")
    for i, j in zip(out, out[1:]):
        if i == j:
            raise DomainError(f"repeated symbol b{i}")
    return out


def _mono_key(m: Monomial) -> tuple[int, Monomial]:
    return (len(m), m)


@dataclass(frozen=True)
class BetaPolynomial:
    """Map from index sets to GW coefficients; () is the constant term."""

    monomials: tuple[tuple[Monomial, GWElement], ...] = ()

    def __post_init__(self) -> None:
        last = None
        for m, g in self.monomials:
            if not g:
                raise DomainError("zero coefficients must be pruned")
            key = _mono_key(_mono(m))
            if last is not None and key <= last:
                raise DomainError("monomials must be sorted by (degree, indices)")
            last = key

    @classmethod
    def from_dict(cls, d: Mapping[Monomial, GWElement]) -> "BetaPolynomial":
        items = [(_mono(m), g) for m, g in d.items() if g]
        return cls(tuple(sorted(items, key=lambda it: _mono_key(it[0]))))

    @classmethod
    def constant(cls, g: GWElement) -> "BetaPolynomial":
        return cls((((), g),) if g else ())

    def as_dict(self) -> dict[Monomial, GWElement]:
        return dict(self.monomials)

    def coeff(self, indices) -> GWElement:
        return self.as_dict().get(_mono(indices), ZERO)

    def indices(self) -> set[int]:
        return {i for m, _ in self.monomials for i in m}

    def constant_value(self) -> GWElement:
        if self.indices():
            raise DomainError("polynomial carries formal symbols")
        return self.coeff(())

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: "BetaPolynomial") -> "BetaPolynomial":
        d = self.as_dict()
        for m, g in other.monomials:
            d[m] = d.get(m, ZERO) + g
        return BetaPolynomial.from_dict(d)

    def __neg__(self) -> "BetaPolynomial":
        return BetaPolynomial(tuple((m, -g) for m, g in self.monomials))

    def __sub__(self, other: "BetaPolynomial") -> "BetaPolynomial":
        return self + (-other)

    def __mul__(self, other: "BetaPolynomial") -> "BetaPolynomial":
        """Formal product; a symbol in both factors would break
        multilinearity and raises DomainError."""
        d: dict[Monomial, GWElement] = {}
        for m1, g1 in self.monomials:
            for m2, g2 in other.monomials:
                m = _mono(m1 + m2)
                d[m] = d.get(m, ZERO) + g1 * g2
        return BetaPolynomial.from_dict(d)

    def mul_step(self, index: int) -> "BetaPolynomial":
        """Multiply by (b_index - 2<1>), formally; the index must be fresh."""
        return self * (beta_symbol(index) - BetaPolynomial.constant(2 * ONE))

    def reduced(self) -> "BetaPolynomial":
        """Apply h*b_i = 2h: hyperbolic multiples hiding in the coefficient
        of a degree-k monomial move to the constant term as 2^k copies of h.
        """
        d = self.as_dict()
        for m, g in self.monomials:
            if m:
                k, d[m] = hyperbolic_part(g)
                if k:
                    d[()] = d.get((), ZERO) + (k * 2 ** len(m)) * H
        return BetaPolynomial.from_dict(d)

    # -- evaluation ---------------------------------------------------------

    def specialize(self, assignment: Mapping[int, Rational]) -> GWElement:
        """Substitute b_i := beta(c_i) and evaluate in GW(Q)."""
        missing = self.indices() - set(assignment)
        if missing:
            raise DomainError(f"no value for indices {sorted(missing)}")
        betas = {i: beta(assignment[i]) for i in self.indices()}
        total = ZERO
        for m, g in self.monomials:
            val = g
            for i in m:
                val = val * betas[i]
            total = total + val
        return total

    def rank_profile(self) -> int:
        """Rank after substituting any rank-2 form for every symbol."""
        return sum(g.rank() * 2 ** len(m) for m, g in self.monomials)

    def signature_profile(self, signs: Mapping[int, int]) -> int:
        """Signature after substituting a trace form with sign(c_i) as given:
        signature 0 for negative c, 2 for positive c."""
        missing = self.indices() - set(signs)
        if missing:
            raise DomainError(f"no sign for indices {sorted(missing)}")
        total = 0
        for m, g in self.monomials:
            if all(signs[i] > 0 for i in m):
                total += g.signature() * 2 ** len(m)
        return total

    def equivalent(self, other: "BetaPolynomial") -> bool:
        """Coefficient-wise gw_equal, modulo the h*b_i = 2h identity."""
        a, b = self.reduced().as_dict(), other.reduced().as_dict()
        return all(
            gw_equal(a.get(m, ZERO), b.get(m, ZERO)) for m in set(a) | set(b)
        )

    # -- presentation ---------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def to_json(self) -> dict:
        return {
            "monomials": [
                {"indices": list(m), "value": g.to_json()} for m, g in self.monomials
            ]
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "BetaPolynomial":
        return cls.from_dict(
            {
                tuple(entry["indices"]): GWElement.from_json(entry["value"])
                for entry in data["monomials"]
            }
        )


POLY_ZERO = BetaPolynomial()


def beta_symbol(index: int) -> BetaPolynomial:
    """The formal symbol b_index with coefficient <1>."""
    return BetaPolynomial.from_dict({_mono((index,)): ONE})


SUBSCRIPTS = str.maketrans("0123456789", "₀₁₂₃₄₅₆₇₈₉")


def _beta_factor(m: Monomial, unicode: bool) -> str:
    if unicode:
        return "".join("β" + str(i).translate(SUBSCRIPTS) for i in m)
    return "*".join(f"b{i}" for i in m)


def format_poly(p: BetaPolynomial, unicode: bool = False) -> str:
    """Fully distributed canonical display, one printed term per square
    class of each coefficient, e.g. ``2h + 6*<1> + b1`` or ``2*h*b1``.
    """
    out = ""
    for m, g in p.monomials:
        if not m:
            out = format_gw(g)
            continue
        bfac = _beta_factor(m, unicode)
        for n, body in display_terms(g):
            stem = bfac if body == "<1>" else f"{body}{'' if unicode else '*'}{bfac}"
            out += signed_term(n, stem if abs(n) == 1 else f"{abs(n)}*{stem}", not out)
    out = out or "0"
    return out.translate(UNICODE_GLYPHS) if unicode else out
