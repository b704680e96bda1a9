"""Exact arithmetic in the Grothendieck-Witt ring of the rational numbers.

A nondegenerate symmetric bilinear form over Q diagonalizes as an orthogonal
sum of rank-one forms <a>, and <a> only depends on the square class of a, so
a class is stored canonically as a squarefree integer.  Elements here are
*virtual* forms: integer-weighted sums of square classes with weights of
either sign, so that rank-zero differences such as 2<1> - (<2> + <2c>) are
first-class values.

Equality in GW(Q) is decided by Hasse-Minkowski: q1 == q2 iff q1 - q2 is
a multiple of h.  Trading each negative term -<a> of the difference for
<-a> - h and cancelling each pair <c> + <-c> as one h leaves an effective
form e and a count m, and q1 == q2 iff e is isometric to m*h: signature 0,
discriminant (-1)**m, and Hasse invariant +1 at every odd prime dividing a
class of e.  The real place follows from the signature, 2 from Hilbert
reciprocity, and every other odd prime gives +1 on both sides.  At an odd
prime p the Hasse invariant of e = sum n_i <c_i> has a closed form
(``_hasse_odd``): with K the total weight of the classes divisible by p, U0
the product of the classes prime to p and U1 that of c_i/p over the classes
divisible by p, each over the classes of odd weight, it is
(-1/p)**C(K, 2) (U0/p)**K (U1/p)**(K-1), one pass over the terms and one
Jacobi symbol.  The real place and 2 keep the product of a Hilbert symbol
per pair of entries (``_hilbert_int``), which only ``hasse_invariant`` asks.

Factoring is needed only where an integer enters from outside: the square
class of a given rational (``square_class``), the squarefree check on the
classes given to ``GWElement`` and ``from_dict``, and the odd places of a
Hasse check (the classes of the difference left once its +-c pairs are
cancelled).  It uses the standard library alone.  One gcd with
the product of the primes below 1000 picks the ones to divide out
(``_screen``).  A square class then only needs to know whether the cofactor
m is a square: m has no prime factor below 1009, so if m < 1009**3 (the
cube rule), or m < 10007**3 and a second gcd finds no prime from 1009 to
9973 in it, m is 1, p, p**2 or p*q and one isqrt decides its class
(``_squarefree_part``).  Every other cofactor (10007**3, about 1.002e12, or
more, or 1009**3 or more with a prime below 10**4) and the odd places of a
Hasse check are factored in full by ``_factor``: Baillie-PSW primality and
Pollard-Brent rho split the cofactor, all within the fixed work bound
FACTOR_EFFORT.  No prime below 1000 divides that cofactor or any divisor
rho finds, so such a number below 10**6 is prime without a test.  An
integer it cannot split within that bound (two prime factors well above
10**9, or a cofactor of more than about 780 digits) raises DomainError,
which the command line reports with exit status 2.  ``trace_form(c, a)``
takes the classes of c and 2a but not of its norm a**2, which is 1.

Everything the ring computes from stored classes needs no factoring: the
class of a product of squarefree classes c1, c2 is (c1/g)(c2/g) with
g = gcd(c1, c2) (``_class_product``), so products, discriminants and the
second entry of a trace form take a gcd, and ring results are built
without checking their classes again (``GWElement._of``).  The ring results
of ``betapoly`` skip its checks the same way (``BetaPolynomial._of``).

The hyperbolic plane h = <1> + <-1> is not a separate primitive; the
pretty-printer extracts h-multiples greedily (min of the <1> and <-1>
coefficients), which is how values like ``190h + 240*<1>`` are displayed.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from itertools import compress, count
from math import comb, gcd, isqrt, prod
from typing import TYPE_CHECKING, Callable, Mapping, Union

if TYPE_CHECKING:
    from fractions import Fraction

# fractions, which imports decimal, loads only where a Fraction can arrive
Rational = Union[int, "Fraction"]

#: The real place of Q.  Finite places are given as the prime itself.
REAL_PLACE = None
Place = Union[int, None]


class DomainError(ValueError):
    """Raised when an operation is applied outside its domain."""


class InternalInvariantError(AssertionError):
    """A structural impossibility (a bad tiling in ``tropical``) rather than
    a filtered curve.  Defined here, beside DomainError, so that the command
    line can catch it without loading the enumeration."""


class ExprError(ValueError):
    """A calculator text that does not parse, at a position in it.  Defined
    here, beside DomainError, so that the command line can catch it without
    loading the parser; ``expr`` re-exports it."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class _Frozen:
    """An immutable value with the fields ``_fields``, compared, hashed,
    shown and pickled by them as a frozen dataclass is.  A subclass sets its
    fields in ``__init__`` through ``object.__setattr__``; assigning or
    deleting one afterwards raises AttributeError."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _check_tuple(value, name: str) -> None:
    """Refuse a container that is not a tuple: a list would leave the value
    holding it unhashable and unequal to the same value built from tuples."""
    if type(value) is not tuple:
        raise DomainError(f"{name} must be a tuple, not {type(value).__name__}")


def _exact(a: Rational) -> Rational:
    """An int as it is; any other exact rational as a Fraction."""
    if type(a) is int:
        return a
    from fractions import Fraction

    if isinstance(a, bool) or not isinstance(a, (int, Fraction)):
        raise DomainError(f"expected an exact rational, got {a!r}")
    return Fraction(a)


# -- integer factorization (Cohen, A Course in Computational Algebraic Number
# Theory, chapters 8 and 10) ---------------------------------------------------

#: Work one call of ``_factor`` may spend before it gives up, counted in
#: steps of Pollard-Brent rho on numbers below 2**256.  A step modulo a b-bit
#: number costs ``_step_cost`` of them, which grows like the time of one
#: multiplication modulo it, and a primality test 2*b steps.  Products of
#: powers of two primes near 10**9 factor inside it.  A 70-digit semiprime
#: is refused after about 0.2 s of work, a prime of more than about 780
#: digits before it is tested.
FACTOR_EFFORT = 1 << 19

#: Size of each cache on the integer helpers below.
_CACHE_SIZE = 1 << 14


def _primes_below(n: int) -> list[int]:
    """The primes below n, by the sieve of Eratosthenes."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 2)
    for p in range(2, isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
    return list(compress(range(n), sieve))


_PRIMES = _primes_below(10**4)
_SMALL_PRIMES = tuple(p for p in _PRIMES if p < 1000)
#: Their product: gcd(n, _PRIMORIAL) is the product of the small primes
#: dividing n, so one gcd tells trial division which primes to try.
_PRIMORIAL = prod(_SMALL_PRIMES)
#: The product of the primes in (1000, 10**4), 1009 to 9973: the second
#: screen of ``_squarefree_part``.
_MID_PRIMORIAL = prod(_PRIMES[len(_SMALL_PRIMES) :])
del _PRIMES


def _is_strong_base2_probable_prime(n: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(2, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    a %= n
    out = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def _is_strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters: D the first of
    5, -7, 9, -11, ... with (D/n) = -1, P = 1, Q = (1 - D)/4."""
    if isqrt(n) ** 2 == n:
        return False
    d = 5
    while (j := _jacobi(d, n)) != -1:
        if j == 0:
            return False
        d = -d - 2 if d > 0 else -d + 2
    q = (1 - d) // 4
    k, s = n + 1, 0
    while k % 2 == 0:
        k, s = k // 2, s + 1

    def half(x: int) -> int:
        return (x + n * (x & 1)) // 2

    u, v, qk = 1, 1, q % n  # U_1, V_1, Q^1 for P = 1
    for bit in bin(k)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = half((u + v) % n), half((d * u + v) % n), qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def _is_prime(n: int) -> bool:
    """Baillie-PSW: trial division by the primes below 1000 (``_screen``),
    then a strong base-2 Miller-Rabin and a strong Lucas test.  A number
    below 10**6 with no prime factor below 1000 is prime untested.  No
    composite passing both tests is known; below 2**64 there is none."""
    if n < 2:
        return False
    small, m = _screen(n)
    if small:
        return small == {n: 1}
    return m < 1000 * 1000 or (
        _is_strong_base2_probable_prime(m) and _is_strong_lucas_probable_prime(m)
    )


def _step_cost(n: int) -> int:
    return 1 + (n.bit_length() >> 8) ** 2


def _brent_rho(n: int, spend: Callable[[int], None]) -> int:
    """A proper divisor of the odd composite non-square n by Pollard-Brent
    rho, paying for each doubling of the search before it runs."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            spend(2 * r * _step_cost(n))
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                steps = min(128, r - k)
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += steps
            r *= 2
        if g == n:  # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def _screen(n: int) -> tuple[dict[int, int], int]:
    """Trial division of n >= 1 by the primes below 1000 that divide
    gcd(n, _PRIMORIAL): their exponents, and the cofactor they leave."""
    out: dict[int, int] = {}
    g = gcd(n, _PRIMORIAL)
    for p in _SMALL_PRIMES:
        if g == 1:
            break
        if g % p == 0:
            g //= p
            out[p], n = _split(n, p)
    return out, n


@lru_cache(maxsize=_CACHE_SIZE)
def _factor(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ascending (prime, exponent) pairs.

    Trial division by ``_screen``, then ``_is_prime`` and Pollard-Brent rho
    on what is left, within FACTOR_EFFORT; raises DomainError when the
    effort runs out."""
    left = FACTOR_EFFORT

    def spend(units: int) -> None:
        nonlocal left
        left -= units
        if left < 0:
            raise DomainError(f"cannot factor a {n.bit_length()}-bit integer within the effort bound")

    out, m = _screen(n)
    todo = [m] if m > 1 else []
    while todo:
        m = todo.pop()
        spend(2 * m.bit_length() * _step_cost(m))
        if _is_prime(m):
            # divide m out of the cofactors still to split, so that a prime
            # power costs one search rather than one per exponent
            e = 1
            for i, r in enumerate(todo):
                while r % m == 0:
                    r, e = r // m, e + 1
                todo[i] = r
            todo = [r for r in todo if r > 1]
            out[m] = out.get(m, 0) + e
        elif isqrt(m) ** 2 == m:
            todo += [isqrt(m)] * 2
        else:
            d = _brent_rho(m, spend)
            todo += [m // d, d]
    return tuple(sorted(out.items()))


@lru_cache(maxsize=_CACHE_SIZE)
def _squarefree_part(n: int) -> int:
    """Squarefree part of a nonzero integer (sign preserved).

    The cofactor m that ``_screen`` leaves has no prime factor below 1009.
    Below 1009**3, or below 10007**3 with no prime factor below 10**4 (one
    gcd with _MID_PRIMORIAL), it has at most two prime factors: it is 1, p,
    p**2 or p*q, so its squarefree part is 1 if m is a square and m if not.
    Any other n is factored in full."""
    small, m = _screen(abs(n))
    if m < 1009**3 or (m < 10007**3 and gcd(m, _MID_PRIMORIAL) == 1):
        out = prod(p for p, e in small.items() if e % 2) * (1 if isqrt(m) ** 2 == m else m)
    else:
        out = prod(p for p, e in _factor(abs(n)) if e % 2)
    return -out if n < 0 else out


def _class_product(c1: int, c2: int) -> int:
    """Square class of c1*c2 for squarefree c1, c2: with g = gcd(c1, c2),
    c1*c2 = g**2 * (c1/g) * (c2/g), and the two cofactors are squarefree and
    coprime, so their product is squarefree and carries the sign."""
    g = gcd(c1, c2)
    return (c1 // g) * (c2 // g)


def square_class(a: Rational) -> int:
    """Canonical squarefree integer representing a in Q*/(Q*)^2.

    square_class(a * t**2) == square_class(a) for every nonzero rational t;
    a numerator/denominator pair reduces through n/d ~ n*d.
    """
    a = _exact(a)
    if a == 0:
        raise DomainError("zero has no square class")
    return _squarefree_part(a if type(a) is int else a.numerator * a.denominator)


def _split(n: int, p: int) -> tuple[int, int]:
    """n = p**v * u with p not dividing u; returns (v, u)."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _hilbert_int(a: int, b: int, place: Place) -> int:
    """The Hilbert symbol (a, b) at the real place or at 2, for nonzero
    integers a and b.  Odd primes go to ``_hasse_odd``."""
    if place is REAL_PLACE:
        return -1 if a < 0 and b < 0 else 1
    al, u = _split(a, 2)
    bl, w = _split(b, 2)
    e = ((u - 1) // 2) * ((w - 1) // 2)
    e += al * ((w * w - 1) // 8) + bl * ((u * u - 1) // 8)
    return -1 if e % 2 else 1


def _hasse_odd(terms: tuple[tuple[int, int], ...], p: int) -> int:
    """Hasse invariant at the odd prime p of the effective form with
    (squarefree class, weight) ``terms``, in one pass over them.

    At p, (a, b) = (-1/p)**(v(a)v(b)) (u/p)**v(b) (w/p)**v(a) for a = p**v(a) u,
    b = p**v(b) w (Serre, A Course in Arithmetic, ch. III 1.2).  Over the
    pairs of entries this is (-1/p)**C(K, 2) (U0/p)**K (U1/p)**(K-1), where
    K counts the entries divisible by p, U0 is the product of the classes
    prime to p of odd weight and U1 that of c/p over the classes divisible
    by p of odd weight.  (-1/p) is read off p mod 4, and only one of K and
    K - 1 is odd, so it takes one Jacobi symbol of a product kept mod p."""
    k, u0, u1 = 0, 1, 1
    for c, n in terms:
        if c % p:
            if n % 2:
                u0 = u0 * c % p
        else:
            k += n
            if n % 2:
                u1 = u1 * (c // p) % p
    sign = -1 if p % 4 == 3 and k % 4 > 1 else 1
    return sign * _jacobi(u0 if k % 2 else u1, p)


class GWElement(_Frozen):
    """A virtual diagonal form: map square class -> nonzero integer weight.

    Stored as a tuple of (class, coefficient) pairs with classes strictly
    ascending.  Structural equality (==) compares stored terms; use
    ``gw_equal`` for equality in GW(Q).
    """

    __slots__ = _fields = ("terms",)
    terms: tuple[tuple[int, int], ...]

    def __init__(self, terms: tuple[tuple[int, int], ...] = ()) -> None:
        _check_tuple(terms, "terms")
        last = None
        for t in terms:
            if not (type(t) is tuple and len(t) == 2 and type(t[0]) is int and type(t[1]) is int):
                raise DomainError(f"bad term {t!r}: need a tuple (class, coefficient) of two ints")
            c, n = t
            if n == 0:
                raise DomainError("zero coefficients must be pruned")
            if c == 0 or c != _squarefree_part(c):
                raise DomainError(f"{c} is not a squarefree class representative")
            if last is not None and c <= last:
                raise DomainError("classes must be strictly ascending")
            last = c
        object.__setattr__(self, "terms", terms)

    @classmethod
    def from_dict(cls, d: Mapping[int, int]) -> "GWElement":
        return cls(tuple(sorted((c, n) for c, n in d.items() if n)))

    @classmethod
    def _of(cls, d: Mapping[int, int]) -> "GWElement":
        """``from_dict`` without the squarefree check, for results whose
        classes are ``square_class`` values, stored classes, their negatives
        or ``_class_product``s of them: squarefree already, so not factored
        again."""
        q = object.__new__(cls)
        object.__setattr__(q, "terms", tuple(sorted([t for t in d.items() if t[1]])))
        return q

    def __reduce__(self):
        """Rebuild through ``_of``: the terms are a GWElement's, so
        ``pickle`` and ``copy`` do not factor them again.  Unpickle only
        bytes this program wrote."""
        return GWElement._of, (self.as_dict(),)

    def as_dict(self) -> dict[int, int]:
        return dict(self.terms)

    # -- ring structure -------------------------------------------------

    def __add__(self, other: "GWElement") -> "GWElement":
        d = self.as_dict()
        for c, n in other.terms:
            d[c] = d.get(c, 0) + n
        return GWElement._of(d)

    def __neg__(self) -> "GWElement":
        return GWElement._of({c: -n for c, n in self.terms})

    def __sub__(self, other: "GWElement") -> "GWElement":
        return self + (-other)

    def __mul__(self, other):
        """The ring product, or an integer multiple.  A factor equal to <1>,
        the identity (as most vertex multiplicities of a curve are), returns
        the other factor itself."""
        if isinstance(other, GWElement):
            if self.terms == ((1, 1),):
                return other
            if other.terms == ((1, 1),):
                return self
            d: dict[int, int] = {}
            for c1, n1 in self.terms:
                for c2, n2 in other.terms:
                    c = _class_product(c1, c2)
                    d[c] = d.get(c, 0) + n1 * n2
            return GWElement._of(d)
        if isinstance(other, int):
            return GWElement._of({c: n * other for c, n in self.terms})
        return NotImplemented

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- invariants ------------------------------------------------------

    def rank(self) -> int:
        return sum(n for _, n in self.terms)

    def signature(self) -> int:
        return sum(n if c > 0 else -n for c, n in self.terms)

    def is_effective(self) -> bool:
        return all(n > 0 for _, n in self.terms)

    def discriminant(self) -> int:
        if not self.is_effective():
            raise DomainError("discriminant needs an effective form")
        d = 1
        for c, n in self.terms:
            if n % 2:
                d = _class_product(d, c)
        return d

    def hasse_invariant(self, place: Place) -> int:
        """Product of pairwise Hilbert symbols (a, b) of the diagonal entries at
        ``place``, a prime number or REAL_PLACE (None): (a, b) is +1 iff
        z^2 = a x^2 + b y^2 has a nontrivial solution in the completion, else -1.

        At an odd prime p the product has the closed form of ``_hasse_odd``,
        (-1/p)**C(K, 2) (U0/p)**K (U1/p)**(K-1), one pass over the terms; at
        the real place and 2 it is taken pair by pair."""
        if place is not REAL_PLACE and not (type(place) is int and _is_prime(place)):
            raise DomainError(f"not a place of Q: {place!r}")
        if not self.is_effective():
            raise DomainError("Hasse invariant needs an effective form")
        if place is not REAL_PLACE and place != 2:
            return _hasse_odd(self.terms, place)
        out = 1
        for i, (c, n) in enumerate(self.terms):
            if comb(n, 2) % 2:
                out *= _hilbert_int(c, c, place)
            for c2, n2 in self.terms[i + 1 :]:
                if (n * n2) % 2:
                    out *= _hilbert_int(c, c2, place)
        return out

    def _effectivized(self) -> tuple["GWElement", int]:
        """An effective form isometric to self + m*h, with the m used.

        Uses -<a> + h = <-a>, so each negative weight trades sign of its
        class at the cost of one hyperbolic summand.
        """
        d: dict[int, int] = {}
        m = 0
        for c, n in self.terms:
            if n > 0:
                d[c] = d.get(c, 0) + n
            else:
                d[-c] = d.get(-c, 0) - n
                m -= n
        return GWElement._of(d), m

    # -- presentation ----------------------------------------------------

    def __str__(self) -> str:
        return format_gw(self)

    def to_json(self) -> dict:
        return {"terms": [{"class": c, "coeff": n} for c, n in self.terms]}


ZERO = GWElement()


def _add_into(total: dict[int, int], q: GWElement) -> None:
    """Add the terms of ``q`` into the class -> coefficient dict ``total``."""
    for c, n in q.terms:
        total[c] = total.get(c, 0) + n


def _diagonal(classes) -> GWElement:
    """<c1> + <c2> + ... for squarefree classes c1, c2, ..."""
    d: dict[int, int] = {}
    for c in classes:
        d[c] = d.get(c, 0) + 1
    return GWElement._of(d)


def form(*classes: Rational) -> GWElement:
    """Diagonal form <a1> + <a2> + ... with each entry reduced mod squares."""
    return _diagonal(map(square_class, classes))


ONE = form(1)
H = form(1, -1)


def _split_h(q: GWElement, classes) -> tuple[int, GWElement]:
    """Greedy split q = m*h + rest over the pairs {c, -c} for the positive
    classes c given: each pair gives the signed minimum of its two stored
    weights.  q itself is returned as the rest when no pair splits."""
    d = q.as_dict()
    m, split = 0, False
    for c in classes:
        n1, n2 = d.get(c, 0), d.get(-c, 0)
        if n1 > 0 and n2 > 0:
            k = min(n1, n2)
        elif n1 < 0 and n2 < 0:
            k = max(n1, n2)
        else:
            continue
        d[c] = n1 - k
        d[-c] = n2 - k
        m, split = m + k, True
    return m, (GWElement._of(d) if split else q)


UNICODE_GLYPHS = str.maketrans({"<": "⟨", ">": "⟩", "*": "·"})


def signed_term(coeff: int, text: str, first: bool) -> str:
    """One term of a displayed sum: ``text`` or ``-text`` when first,
    `` + text`` or `` - text`` after."""
    sign = "-" if coeff < 0 else ("" if first else "+")
    return f"{sign}{text}" if first else f" {sign} {text}"


def _check_printable(n: int) -> None:
    """Raise DomainError if ``n`` has more decimal digits than Python will
    print (``sys.get_int_max_str_digits``, 4300 by default)."""
    limit = sys.get_int_max_str_digits()
    if limit and n.bit_length() > 3 * limit:  # below 8**limit every int prints
        # 2**(b-1) <= |n| < 2**b leaves two candidates for the digit count
        digits = int((n.bit_length() - 1) * 0.30102999566398120) + 1
        digits += abs(n) >= 10**digits
        if digits > limit:
            raise DomainError(
                f"result has a {digits}-digit number; Python prints at most {limit} digits"
            )


def read_int(text: str) -> int:
    """``text`` as an integer written in ASCII digits after an optional minus
    sign: ``int`` also takes ``_``, ``+``, spaces and the digits of other
    scripts, ``str.isdigit`` superscripts.  Raises ValueError for any other
    text, and for a literal longer than Python reads (``sys.get_int_max_str_digits``)."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"integer literal of {len(digits)} digits is too long") from None


def display_terms(q: GWElement) -> list[tuple[int, str]]:
    """(coefficient, body) pairs in display order: the h-multiple visible in
    the <1>, <-1> coefficients first (body ``h``), then the remaining classes
    ordered by (|class|, sign) (body ``<c>``).  Raises DomainError if a
    stored class or coefficient is too long to print; no displayed or JSON
    number is longer than the stored ones.  Below 3 * the digit limit in
    bits, every int prints (see ``_check_printable``)."""
    bound = 3 * sys.get_int_max_str_digits()
    for c, n in q.terms:
        if bound and (c.bit_length() > bound or n.bit_length() > bound):
            _check_printable(c)
            _check_printable(n)
    m, rest = _split_h(q, (1,))
    out = [(m, "h")] if m else []
    out += [(n, f"<{c}>") for c, n in sorted(rest.terms, key=lambda t: (abs(t[0]), t[0] < 0))]
    return out


def format_gw(q: GWElement, unicode: bool = False) -> str:
    """Canonical display, e.g. ``2h + 8*<1> + <-3>``, in the order of
    :func:`display_terms`."""
    out = ""
    for n, body in display_terms(q):
        text = body if abs(n) == 1 else f"{abs(n)}{'' if body == 'h' else '*'}{body}"
        out += signed_term(n, text, not out)
    out = out or "0"
    return out.translate(UNICODE_GLYPHS) if unicode else out


def gw_equal(q1: GWElement, q2: GWElement) -> bool:
    """Decide q1 == q2 in GW(Q): whether d = q1 - q2 is a multiple of h.

    d must have rank 0.  Effectivized, d + m*h is a form e, and each pair
    <c> + <-c> in e is one h, cancelled from e and m (Witt cancellation).
    Then q1 == q2 iff e is isometric to m*h: signature 0, discriminant
    (-1)**m, and Hasse invariant +1 at each odd prime dividing a class of e.
    The real place agrees once the signatures do, 2 by Hilbert reciprocity,
    and an odd prime dividing no class gives +1 on both sides.  Only the
    classes of e are factored, so a d made of +-c pairs needs none.  Each
    odd place p is a prime ``_factor`` found, so it is not tested again,
    and its Hasse invariant is the closed form of ``_hasse_odd``: one pass
    over the terms of e and one Jacobi symbol, where the pairwise product
    takes a Hilbert symbol per pair of classes."""
    d = q1 - q2
    if d.rank():
        return False
    e, m = d._effectivized()
    k, e = _split_h(e, [c for c, _ in e.terms if c > 0])
    m -= k
    if e.signature() or e.discriminant() != (-1) ** m:
        return False
    places = {p for c, _ in e.terms for p, _ in _factor(abs(c)) if p != 2}
    return all(_hasse_odd(e.terms, p) == 1 for p in places)


# -- trace forms from quadratic extensions -------------------------------


def trace_form(c: Rational, a: Rational, b: Rational = 0) -> GWElement:
    """Pushforward of <a + b*sqrt(c)> along the field trace of Q(sqrt(c))/Q.

    c must be a nonsquare and a + b*sqrt(c) nonzero.  The Gram matrix of
    (x, y) -> tr(alpha * x * y) on the basis {1, sqrt(c)} is
    [[2a, 2bc], [2bc, 2ac]] with c the squarefree class; diagonalizing gives
    <2a> + <2a * det> when a != 0 and the hyperbolic plane when a = 0.
    """
    given = _exact(c)
    if given == 0:
        raise DomainError("c must be nonzero")
    c, a, b = square_class(given), _exact(a), _exact(b)
    if c == 1:
        try:
            name = str(given)
        except ValueError:  # more digits than Python prints
            name = "c"
        raise DomainError(f"{name} is a square, so it does not define a quadratic extension")
    if a == 0 and b == 0:
        raise DomainError("the zero element has no trace form")
    if a == 0:
        return H
    # det = 4c(a^2 - b^2 c), so <2a * det> is the class product of <2a>, <c>
    # and the norm a^2 - b^2 c, the only new number to factor; for b = 0 the
    # norm is a^2, of class 1
    s = square_class(2 * a)
    norm = square_class(a * a - b * b * c) if b else 1
    return _diagonal((s, _class_product(_class_product(s, c), norm)))
