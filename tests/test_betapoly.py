"""Formal multilinear polynomials in trace symbols."""

from __future__ import annotations

import gc
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gwcurves import betapoly
from gwcurves.betapoly import (
    POLY_ZERO,
    BetaPolynomial,
    beta_symbol,
    format_poly,
)
from gwcurves.gw import H, ONE, ZERO, DomainError, GWElement, _class_product, _split_h, beta, form, gw_equal

from oracles import random_gw, specialize_per_monomial


def const(g):
    return BetaPolynomial.constant(g)


class TestBasics:
    def test_add(self):
        b1 = beta_symbol(1)
        assert (b1 + b1).coeff((1,)) == 2 * ONE

    def test_scale(self):
        assert const(ONE) * const(H) == const(H)

    def test_add_table_row(self):
        row0 = const(2 * H + 8 * ONE)
        step = beta_symbol(1) + const(-2 * ONE)
        row1 = row0 + step
        assert row1.coeff(()) == 2 * H + 6 * ONE
        assert row1.coeff((1,)) == ONE
        assert format_poly(row1) == "2h + 6*<1> + b1"

    def test_constant_is_its_dict(self):
        for g in (ZERO, ONE, 2 * H - form(3)):
            assert const(g) == BetaPolynomial.from_dict({(): g})
        assert const(ZERO) == POLY_ZERO

    def test_zero_pruning(self):
        p = beta_symbol(1) - beta_symbol(1)
        assert p == POLY_ZERO
        assert format_poly(p) == "0"

    @pytest.mark.parametrize(
        "monomials, message",
        [
            ((((), ZERO),), "zero coefficients must be pruned"),
            ((((1,), ONE), ((), ONE)), "monomials must be sorted by (degree, indices)"),
        ],
        ids=["zero-coefficient", "unsorted"],
    )
    def test_constructor_refuses_unpruned_monomials(self, monomials, message):
        with pytest.raises(DomainError) as exc:
            BetaPolynomial(monomials)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "monomials, message",
        [
            ((((2, 1), ONE),), "bad monomial (2, 1): need a sorted tuple of indices"),
            ((([1], ONE),), "bad monomial [1]: need a sorted tuple of indices"),
            ((((), 1),), "coefficient 1 is not a GWElement"),
            ([((), ONE)], "monomials must be a tuple, not list"),
        ],
        ids=["unsorted-monomial", "list-monomial", "int-coefficient", "list-monomials"],
    )
    def test_constructor_refuses_non_canonical_monomials(self, monomials, message):
        # stored as given, (2, 1) would be unequal to from_dict({(1, 2): ONE})
        with pytest.raises(DomainError) as exc:
            BetaPolynomial(monomials)
        assert str(exc.value) == message

    def test_two_spellings_of_one_monomial_are_refused(self):
        # both would be kept, and the constructor would refuse their order
        with pytest.raises(DomainError) as exc:
            BetaPolynomial.from_dict({(1, 2): ONE, (2, 1): form(3)})
        assert str(exc.value) == "repeated monomial (1, 2): given as (1, 2) and (2, 1)"

    def test_monomial_validation(self):
        with pytest.raises(DomainError):
            BetaPolynomial.from_dict({(0,): ONE})
        with pytest.raises(DomainError):
            BetaPolynomial.from_dict({(1, 1): ONE})

    @pytest.mark.parametrize(
        "monomial, message",
        [
            ((1.5,), "bad monomial (1.5,): indices must be ints"),
            ((True,), "bad monomial (True,): indices must be ints"),
            (("a",), "bad monomial ('a',): indices must be ints"),
            ((1, "a"), "bad monomial (1, 'a'): indices must be ints"),
        ],
        ids=["float", "bool", "str", "int-and-str"],
    )
    def test_indices_must_be_ints(self, monomial, message):
        # stored as given, 1.5 would print as b1.5, and True as bTrue while equal to b1
        with pytest.raises(DomainError) as exc:
            BetaPolynomial.from_dict({monomial: ONE})
        assert str(exc.value) == message
        with pytest.raises(DomainError) as exc:
            BetaPolynomial(((monomial, ONE),))
        assert str(exc.value) == message

    def test_constant_refuses_a_coefficient_that_is_not_a_gw_element(self):
        # 0 is not ZERO, and must not give the zero polynomial
        for g in (0, 1):
            with pytest.raises(DomainError) as exc:
                const(g)
            assert str(exc.value) == f"coefficient {g} is not a GWElement"


def random_poly(rng, symbols):
    """Random multilinear polynomial over the given symbol indices."""
    d = {}
    for _ in range(rng.randrange(4)):
        mono = tuple(i for i in symbols if rng.random() < 0.5)
        d[mono] = d.get(mono, ZERO) + random_gw(rng, size=3, bound=20)
    return BetaPolynomial.from_dict(d)


class TestProduct:
    def test_specialize_is_multiplicative(self):
        rng = random.Random(23)
        for _ in range(60):
            p, q = random_poly(rng, (1, 2)), random_poly(rng, (3, 4))
            cs = {i: rng.choice([-1, 1]) * rng.randint(1, 20) for i in (1, 2, 3, 4)}
            assert gw_equal((p * q).specialize(cs), p.specialize(cs) * q.specialize(cs))

    def test_shared_symbol_rejected(self):
        rng = random.Random(29)
        for _ in range(20):
            p = random_poly(rng, (1,)) + beta_symbol(2)
            q = random_poly(rng, (3,)) + beta_symbol(2) * beta_symbol(3)
            with pytest.raises(DomainError):
                p * q


class TestMulStep:
    def test_identity_base(self):
        p = const(ONE).mul_step(1)
        assert p.coeff((1,)) == ONE
        assert p.coeff(()) == -2 * ONE

    def test_distributes_formally(self):
        p = const(2 * H + 8 * ONE).mul_step(1)
        assert p.coeff((1,)) == 2 * H + 8 * ONE
        assert p.coeff(()) == -(4 * H + 16 * ONE)

    def test_on_symbol(self):
        p = beta_symbol(1).mul_step(2)
        assert p.coeff((1, 2)) == ONE
        assert p.coeff((1,)) == -2 * ONE

    def test_index_collision(self):
        with pytest.raises(DomainError):
            beta_symbol(1).mul_step(1)


class TestReduced:
    def test_moves_h_to_constant(self):
        p = BetaPolynomial.from_dict({(1,): 2 * H + 8 * ONE})
        r = p.reduced()
        assert r.coeff((1,)) == 8 * ONE
        assert r.coeff(()) == 4 * H

    def test_doubling_per_degree(self):
        p = BetaPolynomial.from_dict({(1, 2): H})
        assert p.reduced().coeff(()) == 4 * H

    def test_pairs_of_opposite_sign(self):
        # +h from the 2-pair and -h from the 3-pair sum to 0 but both split off
        q = form(2) + form(-2) - form(3) - form(-3)
        assert _split_h(q, (2, 3)) == (0, ZERO)
        r = BetaPolynomial.from_dict({(1,): q, (): ONE}).reduced()
        assert r == const(ONE)

    def test_general_pairs_count_as_h(self):
        p = BetaPolynomial.from_dict({(1,): form(3) + form(-3)})
        r = p.reduced()
        assert r.coeff((1,)) == ZERO
        assert r.coeff(()) == 2 * H

    def test_equivalent_modulo_reduction(self):
        formal = BetaPolynomial.from_dict({(1,): 2 * H + 8 * ONE, (): 20 * H + 32 * ONE})
        displayed = BetaPolynomial.from_dict({(1,): 8 * ONE, (): 24 * H + 32 * ONE})
        assert formal.equivalent(displayed)
        assert not formal.equivalent(displayed + beta_symbol(2))


class TestSpecialize:
    def test_single_symbol(self):
        assert gw_equal(beta_symbol(1).specialize({1: -1}), H)

    def test_constant(self):
        assert const(2 * H).specialize({}) == 2 * H

    def test_missing_index(self):
        with pytest.raises(DomainError) as exc:
            (beta_symbol(3) * beta_symbol(1) + beta_symbol(5)).specialize({1: -1})
        assert str(exc.value) == "no value for indices [3, 5]"

    def test_zero_has_no_square_class(self):
        with pytest.raises(DomainError) as exc:
            (beta_symbol(1) + beta_symbol(2)).specialize({1: 3, 2: 0})
        assert str(exc.value) == "zero has no square class"

    def test_extra_keys_are_ignored(self):
        p = beta_symbol(1).mul_step(2)
        assert p.specialize({1: -1, 2: 7, 3: 0, 9: 5}) == p.specialize({1: -1, 2: 7})

    def test_commutes_with_add_and_mul_step(self):
        rng = random.Random(17)
        for _ in range(40):
            coeffs = [rng.randint(-3, 3) for _ in range(3)]
            p = const(coeffs[0] * ONE + coeffs[1] * H)
            if coeffs[2]:
                p = p + beta_symbol(1) * const(coeffs[2] * ONE)
            q = beta_symbol(1) + const(H)
            cs = {1: rng.choice([-1, 1]) * rng.randint(1, 20), 2: rng.choice([-1, 1]) * rng.randint(1, 20)}
            assert gw_equal(
                (p + q).specialize(cs), p.specialize(cs) + q.specialize(cs)
            )
            assert gw_equal(
                p.mul_step(2).specialize(cs),
                (beta(cs[2]) - 2 * ONE) * p.specialize(cs),
            )

    def test_specialize_at_squares_is_textual_replacement(self):
        p = (
            const(3 * H)
            + beta_symbol(1) * const(2 * ONE)
            + beta_symbol(2)
            + beta_symbol(1).mul_step(2)
        )
        substituted = p.specialize({1: 1, 2: 1})
        textual = ZERO
        for mono, g in p.monomials:
            for _ in mono:
                g = g * (2 * ONE)
            textual = textual + g
        assert gw_equal(substituted, textual)


class TestProfiles:
    def test_rank_profile(self):
        p = const(190 * H + 240 * ONE)
        assert p.rank_profile() == 620
        q = BetaPolynomial.from_dict({(): 190 * H + 144 * ONE, (1,): 48 * ONE})
        assert q.rank_profile() == 620

    def test_signature_profile(self):
        q = BetaPolynomial.from_dict({(): 190 * H + 144 * ONE, (1,): 48 * ONE})
        assert q.signature_profile({1: -1}) == 144
        assert q.signature_profile({1: 1}) == 144 + 96

    def test_rank_constant_along_mul_step(self):
        p = BetaPolynomial.from_dict({(): 24 * H + 48 * ONE})
        assert p.mul_step(1).rank_profile() == 0

    def test_missing_sign(self):
        with pytest.raises(DomainError):
            beta_symbol(1).signature_profile({})


class TestJsonAndPrint:
    def test_print_orders_by_degree(self):
        p = BetaPolynomial.from_dict({(1, 2): ONE, (): 2 * H, (1,): -2 * ONE})
        assert format_poly(p) == "2h - 2*b1 + b1*b2"


# Small coefficients over classes whose +/- pairs give reduced() work to do.
gw_values = st.dictionaries(st.integers(-6, 6).filter(bool), st.integers(-3, 3), max_size=3).map(
    lambda d: sum((n * form(a) for a, n in d.items()), ZERO)
)


def polys(symbols):
    monomials = st.sets(st.sampled_from(symbols)).map(lambda s: tuple(sorted(s)))
    return st.dictionaries(monomials, gw_values, max_size=4).map(BetaPolynomial.from_dict)


class TestTrustedResults:
    """Ring results skip the constructor's checks: each must still be a value
    that the checked constructors accept and rebuild equal."""

    @given(polys((1, 2, 3)), polys((1, 2, 3)), polys((4, 5)), gw_values)
    @settings(deadline=None)
    def test_ring_results_are_canonical(self, p, q, r, g):
        results = (p + q, p - q, -p, p * r, p.reduced(), p.mul_step(6), const(g))
        for result in results:
            assert BetaPolynomial(result.monomials) == result
            assert BetaPolynomial.from_dict(result.as_dict()) == result


# Coefficients with h, negative weights and classes beyond the betas'.
spec_coefficients = st.dictionaries(st.integers(-40, 40).filter(bool), st.integers(-3, 3), max_size=3).map(
    lambda d: sum((n * form(a) for a, n in d.items()), ZERO)
) | st.tuples(st.integers(-3, 3), gw_values).map(lambda t: t[0] * H + t[1])
# Every subset of b1..b6 may be a monomial, so a monomial's prefixes may be absent.
spec_polys = st.dictionaries(
    st.sets(st.integers(1, 6)).map(lambda s: tuple(sorted(s))), spec_coefficients, max_size=8
).map(BetaPolynomial.from_dict)
nonzero = st.integers(-(10**12), 10**12).filter(bool)
spec_values = st.one_of(
    nonzero,
    st.builds(Fraction, st.integers(-(10**6), 10**6).filter(bool), st.integers(1, 10**6)),
    st.integers(1, 10**6).map(lambda k: k * k),
    st.integers(1, 10**6).map(lambda k: -k * k),
)
# All 2**6 monomials over b1..b6, with the coefficients <-1>, <3> and h in turn.
every_monomial = BetaPolynomial.from_dict(
    {
        tuple(i + 1 for i in range(6) if mask >> i & 1): (form(-1), form(3), H)[mask % 3]
        for mask in range(2**6)
    }
)
QUARTIC_CS = {1: 3, 2: -7, 3: 1019, 4: -7919, 5: 1000003}


class TestSpecializeKernel:
    """``specialize`` sums each monomial's subset classes into one
    class -> weight dict; the reference builds a GWElement per monomial and
    factors every product."""

    @given(spec_polys, st.fixed_dictionaries({i: spec_values for i in range(1, 7)}))
    @example(POLY_ZERO, dict.fromkeys(range(1, 7), 3))
    @example(const(-3 * H + form(-5)), dict.fromkeys(range(1, 7), -1))
    @example(BetaPolynomial.from_dict({(2, 4, 6): H - 2 * ONE, (5,): form(7)}), {i: (-1) ** i * (10**12 - i) for i in range(1, 7)})
    # classes that repeat or cancel: c1 = c2, c and c*k**2, c and -c, Fractions
    @example(every_monomial, {1: 5, 2: 5, 3: 7, 4: 5, 5: 11, 6: 7})
    @example(every_monomial, {1: 3, 2: 12, 3: 27, 4: -3, 5: 2, 6: 6})
    @example(every_monomial, {1: 3, 2: -3, 3: -1, 4: 1, 5: -6, 6: 2})
    @example(every_monomial, {1: Fraction(3, 4), 2: Fraction(-1, 3), 3: 3, 4: Fraction(2, 5), 5: 10, 6: -1})
    @example(every_monomial, {i: (-1) ** i * (10**12 - i) for i in range(1, 7)})
    @settings(deadline=None)
    def test_matches_the_per_monomial_reference(self, p, cs):
        assert p.specialize(cs).terms == specialize_per_monomial(p, cs).terms

    def test_reference_refuses_a_class_that_is_not_squarefree(self):
        # _of skips the squarefree check, so the reference must not read <4> as <2>
        p = BetaPolynomial.from_dict({(1,): GWElement._of({4: 1})})
        with pytest.raises(ValueError, match="4 is not a squarefree class"):
            specialize_per_monomial(p, {1: 3})

    def test_leaves_no_reference_cycles(self, quartic_tables, gc_state):
        row = quartic_tables[0].rows[5]
        gc.disable()
        gc.collect()
        for _ in range(20):
            row.specialize(QUARTIC_CS)
        assert gc.collect() == 0


class TestSpecializeWork:
    """The class products ``specialize`` makes: one per subset class the
    monomials present need, plus one per coefficient term of class other
    than 1 and subset."""

    @staticmethod
    def products(monkeypatch, p, cs) -> int:
        calls = []

        def spy(c1, c2):
            calls.append((c1, c2))
            return _class_product(c1, c2)

        monkeypatch.setattr(betapoly, "_class_product", spy)
        p.specialize(cs)
        return len(calls)

    def test_quartic_top_row(self, quartic_tables, monkeypatch):
        # 26 monomials of degree <= 3 over b1..b5: 15 even and 25 odd subset
        # classes, and one product for the constant's <-1>.  Multiplying out
        # each monomial's betas made 215; two full tables hold 2 * 2**5.
        row = quartic_tables[0].rows[5]
        assert len(row.monomials) == 26
        assert self.products(monkeypatch, row, QUARTIC_CS) == 41

    def test_no_power_set_table(self, monkeypatch):
        # b1 + ... + b41: a table of every subset of the used symbols would
        # have 2**41 entries; one class per monomial is needed
        p = sum((beta_symbol(i) for i in range(1, 42)), POLY_ZERO)
        assert self.products(monkeypatch, p, {i: 1000 + i for i in range(1, 42)}) == 41
