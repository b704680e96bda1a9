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

from typing import Mapping

from .gw import (
    GWElement,
    H,
    ONE,
    ZERO,
    UNICODE_GLYPHS,
    DomainError,
    _Frozen,
    _check_tuple,
    _class_product,
    _split_h,
    Rational,
    display_terms,
    format_gw,
    gw_equal,
    signed_term,
    square_class,
)

Monomial = tuple[int, ...]


def _mono(indices) -> Monomial:
    """``indices`` as a monomial: a sorted tuple of distinct positive ints."""
    try:
        out = tuple(sorted(indices))
    except TypeError:  # not iterable, or without a common order, as (1, "a")
        out = (None,)
    for i in out:
        if type(i) is not int:  # a float or a bool would print as b1.5 or bTrue
            raise DomainError(f"bad monomial {indices!r}: indices must be ints")
    if out and out[0] < 1:
        raise DomainError(f"bad monomial {indices!r}: indices must be positive")
    for i, j in zip(out, out[1:]):
        if i == j:
            raise DomainError(f"repeated symbol b{i}")
    return out


def _by_degree(term: tuple[Monomial, GWElement]) -> tuple[int, Monomial]:
    return (len(term[0]), term[0])


class BetaPolynomial(_Frozen):
    """Map from index sets to GW coefficients; () is the constant term."""

    __slots__ = _fields = ("monomials",)
    monomials: tuple[tuple[Monomial, GWElement], ...]

    def __init__(self, monomials: tuple[tuple[Monomial, GWElement], ...] = ()) -> None:
        _check_tuple(monomials, "monomials")
        last = None
        for t in monomials:
            if not (type(t) is tuple and len(t) == 2):
                raise DomainError(f"bad term {t!r}: need a tuple (monomial, coefficient)")
            m, g = t
            if not isinstance(g, GWElement):
                raise DomainError(f"coefficient {g!r} is not a GWElement")
            if not g:
                raise DomainError("zero coefficients must be pruned")
            if m != _mono(m):
                raise DomainError(f"bad monomial {m!r}: need a sorted tuple of indices")
            key = (len(m), m)
            if last is not None and key <= last:
                raise DomainError("monomials must be sorted by (degree, indices)")
            last = key
        object.__setattr__(self, "monomials", monomials)

    @classmethod
    def from_dict(cls, d: Mapping[Monomial, GWElement]) -> "BetaPolynomial":
        """The polynomial of the nonzero terms of ``d``; two spellings of
        one monomial, as (1, 2) and (2, 1), are refused."""
        items: dict[Monomial, tuple] = {}
        for m, g in d.items():
            if g:
                key = _mono(m)
                if key in items:
                    raise DomainError(f"repeated monomial {key}: given as {items[key][0]!r} and {m!r}")
                items[key] = m, g
        return cls(tuple(sorted(((k, g) for k, (_, g) in items.items()), key=_by_degree)))

    @classmethod
    def _of(cls, d: Mapping[Monomial, GWElement]) -> "BetaPolynomial":
        """``from_dict`` without its checks, for ring results: their
        monomials are stored ones or ``_mono`` values, their coefficients
        GWElements, so they are only sorted and pruned."""
        p = object.__new__(cls)
        terms = sorted([t for t in d.items() if t[1]], key=_by_degree)
        object.__setattr__(p, "monomials", tuple(terms))
        return p

    @classmethod
    def constant(cls, g: GWElement) -> "BetaPolynomial":
        if not isinstance(g, GWElement):
            raise DomainError(f"coefficient {g!r} is not a GWElement")
        return cls._of({(): g})

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
        return BetaPolynomial._of(d)

    def __neg__(self) -> "BetaPolynomial":
        return BetaPolynomial._of({m: -g for m, g in self.monomials})

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
        return BetaPolynomial._of(d)

    def mul_step(self, index: int) -> "BetaPolynomial":
        """Multiply by (b_index - 2<1>), formally; the index must be fresh."""
        return self * (beta_symbol(index) - BetaPolynomial.constant(2 * ONE))

    def reduced(self) -> "BetaPolynomial":
        """Apply h*b_i = 2h: hyperbolic multiples hiding in the coefficient
        of a degree-k monomial (its stored +/- class pairs, split greedily)
        move to the constant term as 2^k copies of h.
        """
        d = self.as_dict()
        for m, g in self.monomials:
            if m:
                k, d[m] = _split_h(g, [c for c, _ in g.terms if c > 0])
                if k:
                    d[()] = d.get((), ZERO) + (k * 2 ** len(m)) * H
        return BetaPolynomial._of(d)

    # -- evaluation ---------------------------------------------------------

    def specialize(self, assignment: Mapping[int, Rational]) -> GWElement:
        """Substitute for b_i the form <2> + <2c_i> and evaluate in GW(Q).

        As <2> + <2c> = <2>(<1> + <c>), a monomial over the index set S becomes
        <2>^|S| times the sum over the subsets T of S of <c_T>, c_T the
        class of the product of the c_i over T.  The used indices are bits
        of a mask.  The class of c_T (|S| even) or of 2*c_T (|S| odd) is
        kept per subset mask and filled, on first use, from the subset
        without T's lowest bit with one class product; only subsets of the
        monomials present are filled.  Every coefficient term is added into
        one class -> weight dict; only the sum becomes a GWElement."""
        used = self.indices()
        missing = used - set(assignment)
        if missing:
            raise DomainError(f"no value for indices {sorted(missing)}")
        bits = {i: 1 << k for k, i in enumerate(used)}
        by_bit = {bits[i]: square_class(assignment[i]) for i in used}
        subset_classes = ({0: 1}, {0: 2})  # by |S| mod 2: c_T, 2*c_T
        total: dict[int, int] = {}
        for m, g in self.monomials:
            table = subset_classes[len(m) & 1]
            mask = 0
            for i in m:
                mask |= bits[i]
            t = 0
            while True:  # the subsets of mask in ascending order, from 0
                c = table.get(t)
                if c is None:
                    low = t & -t
                    c = table[t] = _class_product(table[t ^ low], by_bit[low])
                for a, n in g.terms:
                    ac = c if a == 1 else _class_product(a, c)
                    total[ac] = total.get(ac, 0) + n
                t = (t - mask) & mask
                if not t:
                    break
        return GWElement._of(total)

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


POLY_ZERO = BetaPolynomial()


def beta_symbol(index: int) -> BetaPolynomial:
    """The formal symbol b_index with coefficient <1>."""
    return BetaPolynomial._of({_mono((index,)): ONE})


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
