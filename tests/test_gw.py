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

from gwcurves import cli
from gwcurves.gw import (
    H,
    ONE,
    ZERO,
    DomainError,
    GWElement,
    beta,
    delta,
    form,
    format_gw,
    gw_equal,
    hilbert_symbol,
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


# -- the in-house factorizer against sympy, used here as an independent oracle --

#: Semiprimes of 70 and 40 digits: two prime factors far above what the
#: effort bound lets Pollard-Brent rho find.
SEMIPRIME_70 = (10**34 + 193) * (3 * 10**35 + 199)
SEMIPRIME_40 = (10**19 + 51) * (3 * 10**19 + 41)


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
        with pytest.raises(DomainError, match="squarefree"):
            GWElement.from_json({"terms": [{"class": c, "coeff": 1}]})

    def test_ring_matches_factoring(self):
        rng = random.Random(12)
        for bound in (30, 10**6):
            for _ in range(200):
                q1, q2 = random_gw(rng, bound=bound), random_gw(rng, bound=bound)
                assert q1 * q2 == factoring_product(q1, q2)
                effective = form(*(rng.choice([-1, 1]) * rng.randrange(1, bound) for _ in range(5)))
                assert effective.discriminant() == factoring_discriminant(effective)

    def test_beta_and_trace_form_match_factoring(self):
        rng = random.Random(13)
        for bound in (30, 10**6):
            for _ in range(200):
                c = rng.choice([-1, 1]) * rng.randrange(1, bound)
                assert beta(c) == factoring_beta(c)
                if square_class(c) == 1:
                    continue
                a = Fraction(rng.choice([-1, 1]) * rng.randrange(1, bound), rng.randrange(1, 50))
                b = Fraction(rng.randrange(-bound, bound), rng.randrange(1, 50))
                assert trace_form(c, a, b) == factoring_trace_form(c, a, b)


# -- Hilbert symbols against a brute-force local solvability oracle ------------

from oracles import PLACES, hilbert_oracle as oracle  # noqa: E402


class TestHilbertSymbol:
    def test_examples(self):
        assert hilbert_symbol(-1, -1, None) == -1
        assert hilbert_symbol(-1, -1, 2) == -1
        assert hilbert_symbol(2, 3, 5) == 1

    def test_place_validation(self):
        for place in (4, 1, True, 2.0):
            with pytest.raises(DomainError, match="not a place of Q"):
                hilbert_symbol(2, 3, place)

    def test_against_oracle_all_integers_to_30(self):
        values = [v for v in range(-30, 31) if v]
        for place in PLACES:
            for a in values:
                for b in values:
                    assert hilbert_symbol(a, b, place) == oracle(a, b, place), (a, b, place)

    def test_against_oracle_sampled_rationals(self):
        rng = random.Random(20240)
        for _ in range(500):
            a = Fraction(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 30))
            b = Fraction(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 30))
            place = rng.choice(PLACES)
            assert hilbert_symbol(a, b, place) == oracle(a, b, place), (a, b, place)

    def test_symmetry_and_bilinearity_spot(self):
        rng = random.Random(5)
        for _ in range(200):
            a, b, c = (rng.choice([-1, 1]) * rng.randint(1, 50) for _ in range(3))
            v = rng.choice(PLACES)
            assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
            assert hilbert_symbol(a * b, c, v) == hilbert_symbol(a, c, v) * hilbert_symbol(b, c, v)


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
                    want *= hilbert_symbol(expanded[i], expanded[j], place)
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

    @settings(max_examples=300)
    @given(
        st.integers(2, 3).flatmap(lambda n: st.tuples(*[st.lists(small_classes, min_size=n, max_size=n)] * 2)),
        st.booleans(),
        st.lists(small_classes, max_size=3),
        st.sampled_from([1, -1]),
    )
    def test_cancellation_keeps_the_verdict(self, sides, rewrite, shared, sign):
        # the second side is random, or the first rewritten by
        # <a> + <b> = <a+b> + <ab(a+b)>; the shared summands are positive, or
        # negative so that the hyperbolic padding meets them
        (a, b, *rest), other = sides
        if rewrite and a + b:
            other = [a + b, a * b * (a + b), *rest]
        common = sign * form(*shared)
        q1, q2 = form(a, b, *rest) + common, form(*other) + common
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


class TestBetaDelta:
    def test_beta_examples(self):
        assert beta(-1) == form(2) + form(-2)
        assert gw_equal(beta(-1), H)
        assert gw_equal(beta(1), 2 * ONE)

    def test_delta_rank_and_signature(self):
        rng = random.Random(31)
        for _ in range(100):
            c = rng.choice([-1, 1]) * rng.randint(1, 200)
            d = delta(c)
            assert d.rank() == 0
            assert d.signature() == (2 if c < 0 else 0)
        assert delta(-1).signature() == 2


class TestFormatting:
    def test_display_examples(self):
        assert format_gw(2 * H + 8 * ONE + form(-3)) == "2h + 8*<1> + <-3>"
        assert format_gw(190 * H + 240 * ONE) == "190h + 240*<1>"
        assert format_gw(ZERO) == "0"
        assert format_gw(-H) == "-h"
        assert format_gw(form(2) + form(-2)) == "<2> + <-2>"

    def test_unicode(self):
        assert format_gw(H + ONE, unicode=True) == "h + ⟨1⟩"

    def test_json_roundtrip(self):
        rng = random.Random(13)
        for _ in range(50):
            q = random_gw(rng)
            assert GWElement.from_json(q.to_json()) == q
