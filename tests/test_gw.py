"""Ring arithmetic, local invariants and trace forms over Q."""

from __future__ import annotations

import random
from fractions import Fraction
from math import prod
from time import perf_counter

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from gwcurves import cli, gw
from gwcurves.gw import (
    H,
    ONE,
    ZERO,
    DomainError,
    GWElement,
    form,
    format_gw,
    gw_equal,
    square_class,
    trace_form,
    _class_product,
    _factor,
    _is_prime,
    _squarefree_part,
)

from oracles import (
    factoring_beta,
    factoring_discriminant,
    factoring_product,
    factoring_trace_form,
    random_gw,
    uncancelled_gw_equal,
)

nonzero_rationals = st.fractions(
    min_value=Fraction(-60), max_value=Fraction(60), max_denominator=40
).filter(lambda x: x != 0)


class TestSquareClass:
    def test_examples(self):
        assert square_class(8) == 2
        assert square_class(-12) == -3
        assert square_class(Fraction(4, 9)) == 1

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            square_class(0)

    @given(nonzero_rationals, nonzero_rationals)
    def test_square_factors_invisible(self, a, t):
        assert square_class(a * t * t) == square_class(a)

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=30))
    def test_fraction_reduces_like_product(self, p, q):
        assert square_class(Fraction(p, q)) == square_class(p * q)

    @given(st.integers(-10**15, 10**15).filter(bool))
    def test_int_is_its_fraction(self, n):
        assert square_class(n) == square_class(Fraction(n))

    @pytest.mark.parametrize("a", [True, 2.0, "2"])
    def test_only_exact_rationals(self, a):
        with pytest.raises(DomainError, match="expected an exact rational"):
            square_class(a)
        with pytest.raises(DomainError, match="expected an exact rational"):
            trace_form(3, a)


# -- the in-house factorizer against sympy, used here as an independent oracle --

#: Semiprimes of 70 and 40 digits: two prime factors far above what the
#: effort bound lets Pollard-Brent rho find.
SEMIPRIME_70 = (10**34 + 193) * (3 * 10**35 + 199)
SEMIPRIME_40 = (10**19 + 51) * (3 * 10**19 + 41)
#: The primes below 1000 that ``_factor`` divides out by trial division.
SMALL_PRIMES = list(sympy.primerange(2, 1000))
#: Cofactors at the edges of both screens of ``_squarefree_part`` that its
#: square test settles: below 1009**3, or below 10007**3 with no prime
#: factor below 10**4.
SQUARE_TEST_EDGES = [
    1009**2,
    1009 * 1013,
    997 * 1009**2,
    10**9 + 7,
    2 * (10**9 + 7),
    9973 * 10007,
    10007**2,
    10007 * 10009,
    999983 * 1000003,
    999983**2,
    10**12 - 11,
    10**12 + 39,
]
#: Cofactors that it factors in full: 1009**3 or more with a prime of the
#: second screen, or 10007**3 or more.
FACTORED_EDGES = [
    1009**3,
    9973**2 * 10007,
    10007**3,
    1009 * 10007 * 10009,
]


def factorint_squarefree_part(n):
    """The squarefree part of n, sign kept, from ``sympy.factorint``."""
    return (-1 if n < 0 else 1) * prod(p for p, e in sympy.factorint(abs(n)).items() if e % 2)


def spy_on_rho(monkeypatch):
    """Empty the factoring caches and record each number ``_brent_rho`` is
    called on, in the list returned."""
    calls = []
    rho = gw._brent_rho
    monkeypatch.setattr(gw, "_brent_rho", lambda n, spend: calls.append(n) or rho(n, spend))
    _factor.cache_clear()
    _squarefree_part.cache_clear()
    return calls


class TestFactorization:
    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(
            st.tuples(st.integers(10**5, 10**9).map(sympy.prevprime), st.integers(1, 3)),
            min_size=1,
            max_size=2,
        ),
        st.integers(1, 10**4),
        st.sampled_from([1, -1]),
    )
    def test_squarefree_part_matches_factorint(self, powers, t, sign):
        n = sign * t * t * prod(p**k for p, k in powers)
        want = sympy.factorint(abs(n))
        assert dict(_factor(abs(n))) == want
        assert _squarefree_part(n) == sign * prod(p for p, e in want.items() if e % 2)

    def test_is_prime_small(self):
        assert [n for n in range(2, 10**5) if _is_prime(n)] == list(sympy.primerange(2, 10**5))

    @pytest.mark.parametrize(
        "n",
        [2047, 3277, 4033, 3215031751, 561, 41041]
        # no prime factor below 1000: only the Lucas half of Baillie-PSW
        # rejects these strong base-2 pseudoprimes
        + [1194649, 12327121, 3825123056546413051, 318665857834031151167461],
    )
    def test_is_prime_pseudoprimes(self, n):
        # strong base-2 pseudoprimes and Carmichael numbers
        assert not _is_prime(n)
        assert not sympy.isprime(n)

    def test_is_prime_large(self):
        rng = random.Random(41)
        odd = [rng.randrange(10**19, 10**40) | 1 for _ in range(400)]
        primes = [sympy.nextprime(rng.randrange(10**19, 10**40)) for _ in range(40)]
        for n in odd + primes:
            assert _is_prime(n) == sympy.isprime(n), n

    @pytest.mark.parametrize(
        "n",
        list(
            dict.fromkeys(
                [1, 2, 2**7, 2**64, 2**1000, 997**2, 999983, 1000003, 1009 * 1013, 999983**2]
                + [prod(SMALL_PRIMES) ** 2]
                + SQUARE_TEST_EDGES
                + FACTORED_EDGES
            )
        ),
        ids=lambda n: str(n) if n < 10**20 else f"{n.bit_length()}-bit",
    )
    def test_matches_factorint_at_the_screen_edges(self, n):
        # the largest prime the gcd screen divides out, the largest cofactor
        # taken as prime untested, the smallest one tested, their squares and
        # a product of two, every screened prime at once, and both sides of
        # the cube rule and of the second screen of _squarefree_part
        assert dict(_factor(n)) == sympy.factorint(n)
        for m in (n, -n):
            assert _squarefree_part(m) == factorint_squarefree_part(m)

    @settings(deadline=None, max_examples=100)
    @given(
        st.integers(1, 10**4),
        st.lists(st.sampled_from(SMALL_PRIMES), max_size=4),
        st.integers(10**3, 10**6 - 18).map(sympy.nextprime),
        st.integers(10**3, 10**6 - 18).map(sympy.nextprime),
        st.sampled_from([1, -1]),
    )
    def test_matches_factorint_on_calculator_operands(self, s, small, p, q, sign):
        # s**2 * (primes below 1000) * p * q with p, q in [10**3, 10**6],
        # factored and through the square test of _squarefree_part
        n = s * s * prod(small) * p * q
        assert dict(_factor(n)) == sympy.factorint(n)
        assert _squarefree_part(sign * n) == factorint_squarefree_part(sign * n)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("n", SQUARE_TEST_EDGES + [4 * 999983 * 1000003 * 12**2])
    def test_square_test_calls_no_rho(self, monkeypatch, n, sign):
        # below 1009**3, or below 10007**3 past the second screen, the
        # cofactor is 1, p, p**2 or p*q: one isqrt settles its class
        rho = spy_on_rho(monkeypatch)
        assert square_class(sign * n) == factorint_squarefree_part(sign * n)
        assert rho == []

    def test_rho_still_splits_what_the_square_test_cannot(self, monkeypatch, capsys):
        # the 82-bit product of two primes past 10**12, as one class and as
        # the Hasse places of gw-equal: rho runs and the effort bound refuses
        rho = spy_on_rho(monkeypatch)
        with pytest.raises(DomainError, match="cannot factor a 82-bit integer"):
            square_class(1000000000039 * 3000000000013)
        assert rho
        rho.clear()
        assert cli.main(["gw-equal", "2<1000000000039> * <3000000000013>", "2"]) == 2
        assert capsys.readouterr().err.startswith("error: cannot factor a 82-bit integer")
        assert rho

    @pytest.mark.parametrize("n", [SEMIPRIME_70, SEMIPRIME_40], ids=["70-digit", "40-digit"])
    def test_semiprime_is_refused_fast(self, capsys, n):
        t0 = perf_counter()
        code = cli.main(["gw-eval", f"<{n}>"])
        elapsed = perf_counter() - t0
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: cannot factor") and err.count("\n") == 1
        assert elapsed < 1.0


class TestRingOps:
    def test_add_makes_h(self):
        assert form(1) + form(-1) == H
        assert H.as_dict() == {1: 1, -1: 1}

    def test_add_cancels(self):
        assert form(2) + (-1) * form(2) == ZERO

    def test_add_bookkeeping(self):
        lhs = (2 * H + 8 * ONE) + (form(2) + form(-2) - 2 * ONE)
        assert lhs.as_dict() == {1: 8, -1: 2, 2: 1, -2: 1}
        assert format_gw(lhs) == "2h + 6*<1> + <2> + <-2>"

    def test_mul_square_class(self):
        assert form(2) * form(2) == ONE

    def test_mul_h_absorbs(self):
        a = form(7)
        assert gw_equal(H * a, H)
        assert (H * a).as_dict() == {7: 1, -7: 1}

    def test_mul_expand(self):
        q = form(2) + form(6)
        assert (q * q).as_dict() == {1: 2, 3: 2}

    def test_rank_signature_examples(self):
        q = 190 * H + 240 * ONE
        assert q.rank() == 620
        assert q.signature() == 240

    def test_discriminant(self):
        assert (form(2) + form(6)).discriminant() == 3
        with pytest.raises(DomainError):
            (form(2) - form(3)).discriminant()

    def test_rank_and_signature_are_ring_maps(self):
        rng = random.Random(7)
        for _ in range(200):
            q1, q2 = random_gw(rng), random_gw(rng)
            assert (q1 + q2).rank() == q1.rank() + q2.rank()
            assert (q1 * q2).rank() == q1.rank() * q2.rank()
            assert (q1 + q2).signature() == q1.signature() + q2.signature()
            assert (q1 * q2).signature() == q1.signature() * q2.signature()


# -- classes of products by gcd, against factoring the product ------------------

#: Primes for squarefree classes: small ones, so that two classes often
#: share factors, and two large ones that make the products costly to factor.
CLASS_PRIMES = (2, 3, 5, 7, 11, 13, 1000003, 10**9 + 7)

squarefree_classes = st.builds(
    lambda primes, sign: sign * prod(primes),
    st.sets(st.sampled_from(CLASS_PRIMES), max_size=5),
    st.sampled_from([1, -1]),
)


class TestClassProduct:
    @given(squarefree_classes, squarefree_classes)
    def test_matches_squarefree_part(self, a, b):
        assert _class_product(a, b) == _squarefree_part(a * b)

    @pytest.mark.parametrize("c", [12, -8, 4, 0])
    def test_public_constructors_check_classes(self, c):
        with pytest.raises(DomainError, match="squarefree"):
            GWElement(((c, 1),))
        with pytest.raises(DomainError, match="squarefree"):
            GWElement.from_dict({c: 1})

    @pytest.mark.parametrize(
        "terms, message",
        [(((1, 0),), "zero coefficients must be pruned"), (((2, 1), (1, 1)), "classes must be strictly ascending")],
        ids=["zero-coefficient", "unsorted"],
    )
    def test_constructor_refuses_unpruned_terms(self, terms, message):
        with pytest.raises(DomainError) as exc:
            GWElement(terms)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "terms, message",
        [
            ([(1, 1)], "terms must be a tuple, not list"),
            (([1, 1],), "bad term [1, 1]: need a tuple (class, coefficient) of two ints"),
            (((1, 1.5),), "bad term (1, 1.5): need a tuple (class, coefficient) of two ints"),
            (((True, 1),), "bad term (True, 1): need a tuple (class, coefficient) of two ints"),
        ],
        ids=["list-terms", "list-term", "float-coefficient", "bool-class"],
    )
    def test_constructor_refuses_non_canonical_terms(self, terms, message):
        with pytest.raises(DomainError) as exc:
            GWElement(terms)
        assert str(exc.value) == message

    def test_ring_matches_factoring(self):
        rng = random.Random(12)
        for bound in (30, 10**6):
            for _ in range(200):
                q1, q2 = random_gw(rng, bound=bound), random_gw(rng, bound=bound)
                assert q1 * q2 == factoring_product(q1, q2)
                for one in (ONE, 2 * ONE, -ONE, ZERO, H):  # <1>, the shortcut, and near-misses
                    assert one * q1 == factoring_product(one, q1)
                    assert q1 * one == factoring_product(q1, one)
                effective = form(*(rng.choice([-1, 1]) * rng.randrange(1, bound) for _ in range(5)))
                assert effective.discriminant() == factoring_discriminant(effective)

    def test_beta_and_trace_form_match_factoring(self):
        rng = random.Random(13)
        for bound in (30, 10**6):
            for _ in range(200):
                c = rng.choice([-1, 1]) * rng.randrange(1, bound)
                if square_class(c) == 1:
                    continue
                assert trace_form(c, 1) == factoring_beta(c)
                a = Fraction(rng.choice([-1, 1]) * rng.randrange(1, bound), rng.randrange(1, 50))
                b = Fraction(rng.randrange(-bound, bound), rng.randrange(1, 50))
                assert trace_form(c, a, b) == factoring_trace_form(c, a, b)


# -- Hilbert symbols against a brute-force local solvability oracle ------------

from oracles import PLACES, hilbert_oracle as oracle  # noqa: E402


class TestHilbertSymbol:
    """The Hilbert symbol (a, b) at a place is the Hasse invariant of <a> + <b>."""

    def test_examples(self):
        assert form(-1, -1).hasse_invariant(None) == -1
        assert form(-1, -1).hasse_invariant(2) == -1
        assert form(2, 3).hasse_invariant(5) == 1

    def test_place_validation(self):
        for place in (4, 1, True, 2.0):
            with pytest.raises(DomainError, match="not a place of Q"):
                form(2, 3).hasse_invariant(place)
            with pytest.raises(DomainError, match="not a place of Q"):
                form(3).hasse_invariant(place)  # a rank-1 form needs no symbol

    def test_against_oracle_all_integers_to_30(self):
        values = [v for v in range(-30, 31) if v]
        for place in PLACES:
            for a in values:
                for b in values:
                    assert form(a, b).hasse_invariant(place) == oracle(a, b, place), (a, b, place)

    def test_against_oracle_sampled_rationals(self):
        rng = random.Random(20240)
        for _ in range(500):
            a = Fraction(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 30))
            b = Fraction(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 30))
            place = rng.choice(PLACES)
            assert form(a, b).hasse_invariant(place) == oracle(a, b, place), (a, b, place)

    def test_symmetry_and_bilinearity_spot(self):
        rng = random.Random(5)
        for _ in range(200):
            a, b, c = (rng.choice([-1, 1]) * rng.randint(1, 50) for _ in range(3))
            v = rng.choice(PLACES)
            assert form(a, b).hasse_invariant(v) == form(b, a).hasse_invariant(v)
            assert form(a * b, c).hasse_invariant(v) == form(a, c).hasse_invariant(v) * form(b, c).hasse_invariant(v)


class TestHasseInvariant:
    def test_examples(self):
        assert (2 * ONE).hasse_invariant(None) == 1
        assert (2 * ONE).hasse_invariant(2) == 1
        assert (2 * form(-1)).hasse_invariant(None) == -1
        assert (2 * form(2)).hasse_invariant(2) == 1

    def test_order_independence(self):
        q = form(2) + form(3) + form(-5) + form(30)
        expanded = [2, 3, -5, 30]
        for place in PLACES:
            want = 1
            for i in range(len(expanded)):
                for j in range(i + 1, len(expanded)):
                    want *= oracle(expanded[i], expanded[j], place)
            assert q.hasse_invariant(place) == want

    def test_virtual_rejected(self):
        with pytest.raises(DomainError):
            (form(1) - form(2)).hasse_invariant(2)


#: Nonzero integers whose classes share primes often.
small_classes = st.integers(-30, 30).filter(bool)


class TestGWEqual:
    def test_examples(self):
        assert gw_equal(form(2) + form(-2), H)
        assert gw_equal(form(1) + form(1), form(2) + form(2))
        assert not gw_equal(form(1), form(2))
        # the difference effectivizes to 3<1> + <-2> + <-3> + <-6> with m = 3
        # and no +-c pair: its discriminant is -1, that of 3h, not 1
        assert gw_equal(form(1, 1, 1), form(2, 3, 6))

    def test_rank_zero(self):
        assert gw_equal(ZERO, ZERO)
        assert gw_equal(H - H, ZERO)
        assert not gw_equal(form(1) - form(2), ZERO)
        assert gw_equal(form(3) + form(-3) - H, ZERO)

    def test_four_relations_randomized(self):
        rng = random.Random(99)
        for _ in range(1000):
            num = rng.randint(1, 50) * rng.choice([-1, 1])
            den = rng.randint(1, 50)
            a = Fraction(num, den)
            b = Fraction(rng.randint(1, 50) * rng.choice([-1, 1]), rng.randint(1, 50))
            t = Fraction(rng.randint(1, 20), rng.randint(1, 20))
            # <a t^2> = <a>
            assert form(a * t * t) == form(a)
            # <a><b> = <ab>
            assert form(a) * form(b) == form(a * b)
            # <a> + <b> = <a+b> + <ab(a+b)>
            if a + b != 0:
                assert gw_equal(form(a) + form(b), form(a + b) + form(a * b * (a + b)))
            # <a> + <-a> = h
            assert gw_equal(form(a) + form(-a), H)

    def test_equivalence_and_congruence(self):
        rng = random.Random(11)
        for _ in range(60):
            q = random_gw(rng)
            r = random_gw(rng)
            a = Fraction(rng.randint(1, 20) * rng.choice([-1, 1]))
            # two rewritings of q that stay equal in GW(Q)
            q2 = q + form(a) + form(-a) - H
            q3 = q2 + form(3) + form(-3) - H
            assert gw_equal(q, q)
            assert gw_equal(q, q2) and gw_equal(q2, q)
            assert gw_equal(q2, q3) and gw_equal(q, q3)
            assert gw_equal(q + r, q2 + r)
            assert gw_equal(q * r, q2 * r)

    def test_distinguishes_close_forms(self):
        assert not gw_equal(form(1) + form(1), H)
        assert not gw_equal(form(2), form(-2))
        assert not gw_equal(2 * ONE, form(3) + form(3))
        # the difference effectivizes to 4<1> with m = 2: discriminant 1, as
        # 2h has, and no odd place, but signature 4
        assert not gw_equal(2 * ONE, 2 * form(-1))

    def test_opposite_classes_cancel_unfactored(self, monkeypatch):
        # <c> + <-c> is h for a c past the factoring effort bound: the pair
        # cancels as one h, so no class is left to factor
        c = form(1000000000039) * form(3000000000013)
        rho = spy_on_rho(monkeypatch)
        assert gw_equal(c + form(-1) * c, H)
        assert gw_equal(H, c + form(-1) * c)
        assert rho == []

    @settings(max_examples=300)
    @given(
        st.integers(2, 3).flatmap(lambda n: st.tuples(*[st.lists(small_classes, min_size=n, max_size=n)] * 2)),
        st.sampled_from([None, "sum", "h"]),
        st.lists(small_classes, max_size=3),
        st.sampled_from([1, -1]),
    )
    def test_cancellation_keeps_the_verdict(self, sides, rewrite, shared, sign):
        # the second side is random, or the first rewritten by
        # <a> + <b> = <a+b> + <ab(a+b)>, or both sides h + rest written as
        # <a> + <-a> and <b> + <-b>; the shared summands are positive, or
        # negative so that the hyperbolic padding meets them
        first, other = sides
        a, b, *rest = first
        if rewrite == "sum" and a + b:
            other = [a + b, a * b * (a + b), *rest]
        elif rewrite == "h":
            first, other = [a, -a, *rest], [b, -b, *rest]
        common = sign * form(*shared)
        q1, q2 = form(*first) + common, form(*other) + common
        assert gw_equal(q1, q2) == uncancelled_gw_equal(q1, q2)


class TestTraceForm:
    def test_prop_examples(self):
        assert trace_form(-1, 1) == form(2) + form(-2)
        assert trace_form(5, 0, 1) == H
        assert trace_form(2, 1, 1) == form(2) + form(-1)

    def test_zero_element_rejected(self):
        with pytest.raises(DomainError):
            trace_form(3, 0, 0)

    def test_square_extension_rejected(self):
        with pytest.raises(DomainError):
            trace_form(9, 1)
        with pytest.raises(DomainError):
            trace_form(1, 1, 1)
        # the message names c, unless it is too long to print
        with pytest.raises(DomainError, match="^c is a square"):
            trace_form(10**5000, 1)

    def test_rational_multiples_of_one(self):
        # Gram diagonalization reproduces <2a> + <2ac> exactly
        rng = random.Random(2024)
        for _ in range(100):
            a = Fraction(rng.randint(1, 40) * rng.choice([-1, 1]), rng.randint(1, 20))
            c = rng.choice([-1, 1]) * rng.randint(2, 40)
            if square_class(c) == 1:
                c = 2
            assert trace_form(c, a) == form(2 * a) + form(2 * a * c)

    def test_multiples_of_sqrt_c(self):
        rng = random.Random(2025)
        for _ in range(100):
            b = Fraction(rng.randint(1, 40) * rng.choice([-1, 1]), rng.randint(1, 20))
            c = rng.choice([-1, 1]) * rng.randint(2, 40)
            if square_class(c) == 1:
                c = 3
            assert trace_form(c, 0, b) == H

    def test_trace_is_multiplicative_over_base_classes(self):
        rng = random.Random(2026)
        for _ in range(100):
            a = Fraction(rng.randint(1, 40) * rng.choice([-1, 1]), rng.randint(1, 20))
            c = rng.choice([-1, 1]) * rng.randint(2, 40)
            if square_class(c) == 1:
                c = 5
            assert gw_equal(trace_form(c, a), form(a) * trace_form(c, 1))

    def test_general_element(self):
        # Gram [[2,4],[4,4]] from 1 + sqrt(2): det -8, so <2> + <-16> = <2> + <-1>
        assert trace_form(2, 1, 1).as_dict() == {-1: 1, 2: 1}

    @settings(deadline=None, max_examples=60)
    @given(
        st.fractions(-(10**6), 10**6, max_denominator=10**4).filter(lambda a: a != 0),
        st.integers(-50, 50).filter(lambda c: c and square_class(c) != 1),
    )
    def test_norm_of_a_rational_is_not_factored(self, a, c):
        # the norm a**2 has class 1: only c and 2a are factored
        seen = []
        factor = gw._factor
        _squarefree_part.cache_clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gw, "_factor", lambda n: seen.append(n) or factor(n))
            got = trace_form(c, a)
        bound = max(abs(c), abs((2 * a).numerator) * (2 * a).denominator)
        assert max(seen, default=1) <= bound
        assert got == factoring_trace_form(c, a)

    def test_trace_of_a_large_prime_answers(self, capsys):
        # 2P factors in well under the effort bound; P**2, 2651 bits, does not
        p = 10**399 + 1311  # sympy.nextprime(10**399)
        assert sympy.isprime(p)
        assert cli.main(["gw-eval", f"tr(5; {p})"]) == 0
        assert capsys.readouterr() == (f"<{2 * p}> + <{10 * p}>\n", "")


class TestBetaDelta:
    """beta(c) = <2> + <2c>, the trace form of <1> for a nonsquare c, and the
    wall-crossing defect delta(c) = 2<1> - beta(c)."""

    def test_beta_examples(self):
        assert trace_form(-1, 1) == form(2) + form(-2)
        assert gw_equal(trace_form(-1, 1), H)
        assert gw_equal(form(2, 2), 2 * ONE)  # c = 1: the split algebra Q x Q

    def test_delta_rank_and_signature(self):
        rng = random.Random(31)
        for _ in range(100):
            c = rng.choice([-1, 1]) * rng.randint(1, 200)
            d = 2 * ONE - form(2, 2 * c)
            assert d.rank() == 0
            assert d.signature() == (2 if c < 0 else 0)
        assert (2 * ONE - trace_form(-1, 1)).signature() == 2


class TestFormatting:
    def test_display_examples(self):
        assert format_gw(2 * H + 8 * ONE + form(-3)) == "2h + 8*<1> + <-3>"
        assert format_gw(190 * H + 240 * ONE) == "190h + 240*<1>"
        assert format_gw(ZERO) == "0"
        assert format_gw(-H) == "-h"
        assert format_gw(form(2) + form(-2)) == "<2> + <-2>"

    def test_unicode(self):
        assert format_gw(H + ONE, unicode=True) == "h + ⟨1⟩"
