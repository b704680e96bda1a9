"""Seeded inputs for the three workloads, built with the standard library only.

Everything here is a pure function of the seed: the same seed gives the same
inputs, and ``fingerprint`` hashes them so two runs can be shown to share
them.  Primality uses a local Miller-Rabin test rather than the program's
factorization backend, so the inputs do not depend on the code under test.

Every operand is built from known primes, so the expected answer of each
operation is known by construction:

* polygons are lambda-order-preserving images (a shear (x, y) -> (x + k*y, y)
  plus a translation) of polygons with known rank N and signature W;
* calculator operands carry their factorization, so square classes, trace
  forms and GW(Q) equality verdicts follow without factoring anything.
"""

from __future__ import annotations

import hashlib
import json
import random
from math import prod

# -- primes --------------------------------------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_probable_prime(n: int) -> bool:
    """Strong Miller-Rabin test with the first 15 prime bases: exact below
    3.3e24, and a probable-prime test above."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest probable prime strictly greater than n."""
    n += 1
    while not is_probable_prime(n):
        n += 1
    return n


def _prime_pool(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    out: set[int] = set()
    while len(out) < count:
        out.add(next_prime(rng.randrange(lo, hi)))
    return sorted(out)


# -- numbers with known factorization ------------------------------------------


class Num:
    """sign * prod(p**e) with the factorization kept alongside the value."""

    __slots__ = ("sign", "factors")

    def __init__(self, sign: int, factors: dict[int, int]):
        self.sign = sign
        self.factors = {p: e for p, e in factors.items() if e}

    @property
    def value(self) -> int:
        return self.sign * prod(p**e for p, e in self.factors.items())

    def squarefree(self) -> int:
        """The square class representative the program must report."""
        return self.sign * prod(p for p, e in self.factors.items() if e % 2)

    def times(self, other: "Num") -> "Num":
        f = dict(self.factors)
        for p, e in other.factors.items():
            f[p] = f.get(p, 0) + e
        return Num(self.sign * other.sign, f)


# -- polygons ------------------------------------------------------------------

#: Batch polygons of the enumerate workload: vertices and (N, W).  N and W do
#: not change under SL(2,Z) plus translation.
BATCH_POLYGONS = {
    "p2:4": ([(0, 0), (4, 0), (0, 4)], (620, 240)),
    "square3": ([(0, 0), (3, 0), (3, 3), (0, 3)], (3510, 1086)),
    "trapezoid": ([(0, 0), (5, 0), (2, 3), (0, 3)], (18132, 4584)),
}

#: Small polygons of the enumerate workload's query stream, with (N, W).
STREAM_POLYGONS = {
    "p2:2": ([(0, 0), (2, 0), (0, 2)], (1, 1)),
    "p2:3": ([(0, 0), (3, 0), (0, 3)], (12, 8)),
    "f1_4_2e": ([(0, 0), (4, 0), (2, 2), (0, 2)], (96, 48)),
    "blf1": ([(0, 0), (2, 0), (2, 2), (0, 2)], (12, 8)),
    "bl2f1": ([(0, 0), (2, 0), (0, 2)], (1, 1)),
}

#: Every block of 8 stream queries.  Half of them are p2:3, so the median
#: latency falls inside its range rather than on the edge between two
#: polygons of different cost.
STREAM_BLOCK = ["p2:2", "bl2f1", "blf1", "p2:3", "p2:3", "p2:3", "p2:3", "f1_4_2e"]

#: Top polygons of the chains the tables workload builds besides the
#: quartic chain.
CHAIN_TOPS = {
    "p2:3": [(0, 0), (3, 0), (0, 3)],
    "f1_4_2e": [(0, 0), (4, 0), (2, 2), (0, 2)],
    "rect4x2": [(0, 0), (4, 0), (4, 2), (0, 2)],
}


def image(vertices, rng: random.Random) -> list[list[int]]:
    """A shear (x, y) -> (x + k*y, y) plus a translation.

    Shears keep the stretched order (y, then x) of the lattice points, so the
    enumeration finds the same curves and drops on every image; a general
    SL(2,Z) image changes the candidate count by a few percent.
    """
    k = rng.randint(-3, 3)
    tx, ty = rng.randint(-20, 20), rng.randint(-20, 20)
    return [[x + k * y + tx, y + ty] for x, y in vertices]


#: Images per polygon in the shared pools; one pair of batch images per round.
POOL_SIZE = 7


def image_pool(name: str, vertices) -> list[list[list[int]]]:
    """The same POOL_SIZE images of a polygon for every seed.

    The enumeration's speed depends on the coordinates, not only on the
    work: the p2:4 plus square batch took from 2.1 s to 3.4 s across eight
    seed-drawn images.  Images drawn per seed would show up as seed-to-seed
    spread, so every seed shares these pools and the seed only orders and
    picks from them.
    """
    rng = random.Random(f"image-pool:{name}")
    return [image(vertices, rng) for _ in range(POOL_SIZE)]


def _spec(name: str, vertices, nw) -> dict:
    return {"name": name, "vertices": vertices, "nw": list(nw)}


def enumerate_inputs(seed: int) -> dict:
    """``rounds``: one image each of p2:4 and the square per round, in a
    seeded order; ``traced``: the batch of traced runs, trapezoid included;
    ``stream``: small invariant queries in seeded shuffled blocks of
    STREAM_BLOCK."""
    rng = random.Random(f"enumerate:{seed}")
    pools = {name: image_pool(name, vs) for name, (vs, _) in {**BATCH_POLYGONS, **STREAM_POLYGONS}.items()}
    order = rng.sample(range(POOL_SIZE), POOL_SIZE)
    rounds = [
        [_spec(name, pools[name][i], BATCH_POLYGONS[name][1]) for name in ("p2:4", "square3")]
        for i in order
    ]
    traced = [_spec(name, rng.choice(pools[name]), nw) for name, (_, nw) in BATCH_POLYGONS.items()]
    # one image per small polygon: with several, each chunk's median would
    # jump between the images' latencies
    stream = []
    for _ in range(400):  # blocks with a fixed mix, shuffled
        block = STREAM_BLOCK[:]
        rng.shuffle(block)
        for name in block:
            stream.append(_spec(name, pools[name][0], STREAM_POLYGONS[name][1]))
    return {"rounds": rounds, "traced": traced, "stream": stream, "cli_polygon": pools["p2:4"][0]}


# -- operands for GW(Q) operations ---------------------------------------------

#: Operand size classes: (label, prime pool, most primes per operand, count
#: in every deck of 20 draws).
SIZE_MIX = (("small", 0, 1, 8), ("medium", 1, 2, 7), ("large", 2, 2, 5))
#: Repeats in every deck of 10 draws, each of one of the RECENT operands
#: drawn last.
REPEATS_PER_10 = 3
RECENT = 100


class _Deck:
    """Shuffled copies of a fixed list: exact proportions in every deck, so
    each seed gets the same mix and only the order and values change."""

    def __init__(self, rng: random.Random, items: list):
        self.rng, self.items, self.left = rng, items, []

    def draw(self):
        if not self.left:
            self.left = self.items[:]
            self.rng.shuffle(self.left)
        return self.left.pop()


class OperandSource:
    """Seeded operands with known factorization.  ``repeats`` of every ten
    draws return an operand drawn before, so memo caches see both hits and
    misses."""

    def __init__(self, rng: random.Random, repeats: int = REPEATS_PER_10):
        self.rng = rng
        self.pools = (
            [p for p in range(3, 100) if is_probable_prime(p)],
            _prime_pool(rng, 1_000, 10_000, 300),
            _prime_pool(rng, 100_000, 1_000_000, 300),
        )
        self.sizes = _Deck(rng, [m for m in SIZE_MIX for _ in range(m[3])])
        self.repeat_deck = _Deck(rng, [True] * repeats + [False] * (10 - repeats))
        self.seen: list[Num] = []
        self.size_counts = {label: 0 for label, *_ in SIZE_MIX}
        self.repeats = 0
        self.draws = 0

    def draw(self, size: str | None = None) -> Num:
        """An operand of the given size class, or of the next one in the
        size deck."""
        rng = self.rng
        self.draws += 1
        if self.repeat_deck.draw() and self.seen:
            self.repeats += 1
            return rng.choice(self.seen[-RECENT:])
        label, pool, count, _ = next(m for m in SIZE_MIX if m[0] == size) if size else self.sizes.draw()
        self.size_counts[label] += 1
        factors: dict[int, int] = {}
        for _ in range(rng.randint(1, count)):
            p = rng.choice(self.pools[pool])
            factors[p] = factors.get(p, 0) + 1
        if rng.random() < 0.5:
            factors[2] = factors.get(2, 0) + 1
        sq = rng.choice(self.pools[0] + [2])  # a square factor rides along
        factors[sq] = factors.get(sq, 0) + 2
        n = Num(rng.choice((1, -1)), factors)
        self.seen.append(n)
        return n

    def small(self) -> Num:
        """A fresh operand from the small pool only (sums of these stay
        cheap to factor)."""
        rng = self.rng
        return Num(rng.choice((1, -1)), {rng.choice(self.pools[0]): 1, rng.choice(self.pools[0]): 2})

    def stats(self) -> dict:
        return {"sizes": self.size_counts, "repeat_share": round(self.repeats / max(1, self.draws), 4)}


def gw_text(n: Num, rng: random.Random) -> str:
    """``<a>`` for n, sometimes written as a fraction with a square moved to
    the denominator (same square class)."""
    if rng.random() < 0.3:
        d = rng.choice((2, 3, 5, 7))
        return f"<{n.value}/{d * d}>"
    return f"<{n.value}>"


def _add(d: dict[int, int], c: int, k: int = 1) -> None:
    d[c] = d.get(c, 0) + k
    if d[c] == 0:
        del d[c]


def format_expected(d: dict[int, int]) -> str:
    """The display the program documents: h-multiples visible in the <1>,
    <-1> coefficients first, then classes by (|class|, sign)."""
    d = dict(d)
    n1, n2 = d.get(1, 0), d.get(-1, 0)
    m = 0
    if n1 > 0 and n2 > 0:
        m = min(n1, n2)
    elif n1 < 0 and n2 < 0:
        m = max(n1, n2)
    if m:
        for c in (1, -1):
            _add(d, c, -m)
    pieces = [(m, "h")] if m else []
    pieces += [(n, f"<{c}>") for c, n in sorted(d.items(), key=lambda t: (abs(t[0]), t[0] < 0))]
    if not pieces:
        return "0"
    out = []
    for i, (n, body) in enumerate(pieces):
        mag = abs(n)
        if body == "h":
            text = "h" if mag == 1 else f"{mag}h"
        else:
            text = body if mag == 1 else f"{mag}*{body}"
        sign = "-" if n < 0 else ("" if i == 0 else "+")
        out.append(f"{sign}{text}" if i == 0 else f" {sign} {text}")
    return "".join(out)


def _trace(c: Num, a: Num) -> tuple[str, dict[int, int]]:
    """tr(c; a) = <2a> + <2ac> for a nonsquare c."""
    d: dict[int, int] = {}
    two = Num(1, {2: 1})
    _add(d, two.times(a).squarefree())
    _add(d, two.times(a).times(c).squarefree())
    return f"tr({c.value}; {a.value})", d


MALFORMED = (
    "<0>",
    "<3",
    "2*<5> +",
    "b0",
    "<1/0>",
    "tr(4; 1)",
    "tr(9/4; 3)",
    "tr(7; 0, 0)",
    "b1*b1",
    "<2> <3>",
    "tr(5 1)",
    "<x>",
)


def _nonsquare(src: OperandSource, size: str | None = None) -> Num:
    n = src.draw(size)
    while n.squarefree() == 1:
        n = src.draw(size)
    return n


#: Every block of 20 calculator operations: (kind, form).
OP_BLOCK = [("bad", 0)] + [("eval", f) for f in range(5)] * 2 + [("equal", f) for f in range(8)] + [("equal", 0)]


def calc_op(src: OperandSource, kind: str, form: int) -> dict:
    """One calculator operation with its expected outcome.

    Kinds: ``eval`` (expected display), ``equal`` (expected verdict) and
    ``bad`` (must be refused with ExprError or DomainError).
    """
    rng = src.rng
    if kind == "bad":
        return {"kind": "bad", "expr": rng.choice(MALFORMED)}
    if kind == "eval":
        d: dict[int, int] = {}
        if form == 0:
            a = src.draw()
            _add(d, a.squarefree())
            text = gw_text(a, rng)
        elif form == 1:
            a, b, c = src.draw(), src.draw(), src.draw()
            k = rng.randint(2, 9)
            _add(d, a.squarefree(), k)
            _add(d, b.squarefree())
            _add(d, c.squarefree(), -1)
            text = f"{k}*{gw_text(a, rng)} + {gw_text(b, rng)} - {gw_text(c, rng)}"
        elif form == 2:
            text, d = _trace(_nonsquare(src), src.draw())
        elif form == 3:
            c, b = _nonsquare(src), src.draw()
            d = {1: 1, -1: 1}
            text = f"tr({c.value}; 0, {b.value})"
        else:
            a, b = src.draw(), src.draw()
            _add(d, a.times(b).squarefree())
            text = f"{gw_text(a, rng)} * {gw_text(b, rng)}"
        return {"kind": "eval", "expr": text, "expect": format_expected(d)}
    if form == 0:
        a = src.draw()
        return _eq(gw_text(a, rng), gw_text(a, rng), True)
    if form == 1:
        c, a = _nonsquare(src), src.draw()
        lhs, _ = _trace(c, a)
        two = Num(1, {2: 1})
        x, y = two.times(a), two.times(a).times(c)
        return _eq(lhs, f"{gw_text(x, rng)} + {gw_text(y, rng)}", True)
    if form == 2:
        c, b = _nonsquare(src), src.draw()
        return _eq(f"tr({c.value}; 0, {b.value})", "h", True)
    if form == 3:
        # <a> + <b> = <a+b> + <ab(a+b)> whenever a + b != 0
        a, b = src.small(), src.small()
        s = a.value + b.value
        if s == 0:
            s = a.value + 2 * b.value
            b = Num(b.sign, {**b.factors, 2: b.factors.get(2, 0) + 1})
        return _eq(
            f"<{a.value}> + <{b.value}>", f"<{s}> + <{a.value * b.value * s}>", True
        )
    if form == 4:
        a, b = src.draw(), src.draw()
        same = a.squarefree() == b.squarefree()
        return _eq(gw_text(a, rng), gw_text(b, rng), same)
    if form == 5:
        a = src.draw()
        return _eq(f"2*{gw_text(a, rng)}", gw_text(a, rng), False)
    if form == 6:
        # <p> + <p> = 2<1> iff p is a sum of two squares
        p = rng.choice(src.pools[rng.randrange(3)])
        t, u = rng.randint(1, 30), rng.randint(1, 30)
        return _eq(f"<{p * t * t}> + <{p * u * u}>", "2*<1>", p % 4 == 1)
    a = src.draw()
    return _eq(gw_text(a, rng), gw_text(Num(-a.sign, a.factors), rng), False)


def _eq(lhs: str, rhs: str, verdict: bool) -> dict:
    return {"kind": "equal", "lhs": lhs, "rhs": rhs, "expect": verdict}


#: 70-digit semiprime from the roadmap, nextprime(10**34) * nextprime(3*10**35).
SEMIPRIME_70 = (10**34 + 193) * (3 * 10**35 + 199)
#: 40-digit semiprime, nextprime(10**19) * nextprime(3*10**19).
SEMIPRIME_40 = (10**19 + 51) * (3 * 10**19 + 41)


def hostile_ops() -> list[dict]:
    """Inputs that hang or crash today.  Each runs once, outside the timed
    stream, under a per-operation deadline.  ``expect`` is the display of a
    correct answer, where one exists."""
    return [
        {"name": "semiprime70", "expr": f"<{SEMIPRIME_70}>", "expect": f"<{SEMIPRIME_70}>"},
        {"name": "semiprime70_trace", "expr": f"tr({SEMIPRIME_70}; 1)",
         "expect": format_expected({2: 1, 2 * SEMIPRIME_70: 1})},
        {"name": "semiprime40", "expr": f"<{SEMIPRIME_40}>", "expect": f"<{SEMIPRIME_40}>"},
        {"name": "literal5000", "expr": "<" + "7" * 5000 + ">", "expect": None},
        {"name": "power_of_four", "expr": f"<{3 * 4**1000}>", "expect": "<3>"},
    ]


#: Calculator batch length: gw-eval operations on fresh operands.
BATCH_OPS = 1000
#: gw-eval expressions of the CLI samples, one per round of an untraced
#: run: their cost depends on the operands, and a mix of seven varies less
#: from seed to seed than one expression.
CLI_OPS = 7


def calculator_inputs(seed: int) -> dict:
    rng = random.Random(f"calculator:{seed}")
    src = OperandSource(rng, repeats=0)
    # eval operations on fresh operands, every form equally often
    batch = [calc_op(src, "eval", i % 5) for i in range(BATCH_OPS)]
    batch_src = src.stats()
    rng = random.Random(f"calculator-stream:{seed}")
    src = OperandSource(rng)
    deck = _Deck(rng, OP_BLOCK)
    stream = [calc_op(src, *deck.draw()) for _ in range(60_000)]
    return {
        "batch": batch,
        "stream": stream,
        "hostile": hostile_ops(),
        "cli_ops": [op for op in stream if op["kind"] == "eval"][:CLI_OPS],
        "mix": {"batch": batch_src, "stream": src.stats()},
    }


#: Size classes of the five c_i of every quartic top-row query.
TOP_ROW_SIZES = ("small", "small", "medium", "medium", "large")


def tables_inputs(seed: int) -> dict:
    """Queries on the four chains' tables: ``table`` picks a chain, ``level``
    a table in it and ``len(c)`` the row s; specialize substitutes the
    nonsquare c_i, signature uses only their signs.  The quartic top row
    s = 5 is the heaviest query."""
    rng = random.Random(f"tables:{seed}")
    src = OperandSource(rng)
    s_max = {"quartic": (5, 4, 3, 2), "p2:3": (4, 3), "f1_4_2e": (4, 3, 2), "rect4x2": (5, 4, 3, 2)}
    # the quartic top row s = 5 is the heaviest query; with 5 of 8 the median
    # falls inside its latency range rather than on the edge between groups
    kinds = ["quartic-top"] * 5 + ["quartic-low", "other", "signature"]
    queries = []
    for _ in range(2_000):  # blocks with a fixed mix, shuffled
        block = kinds[:]
        rng.shuffle(block)
        for kind in block:
            if kind == "quartic-top":
                # the same size pattern every time keeps this heaviest
                # query's latency range narrow
                table, level = "quartic", 0
                cs = [_nonsquare(src, size).value for size in TOP_ROW_SIZES]
                rng.shuffle(cs)
            else:
                if kind == "quartic-low":
                    table, level = "quartic", rng.randint(1, 3)
                else:
                    table = rng.choice(("p2:3", "f1_4_2e", "rect4x2"))
                    level = rng.randrange(len(s_max[table]))
                cs = [_nonsquare(src).value for _ in range(rng.randint(1, s_max[table][level]))]
            queries.append(
                {"kind": "signature" if kind == "signature" else "specialize",
                 "table": table, "level": level, "c": cs}
            )
    return {"chains": CHAIN_TOPS, "queries": queries, "mix": src.stats()}


def make_inputs(workload: str, seed: int) -> dict:
    return {"enumerate": enumerate_inputs, "tables": tables_inputs,
            "calculator": calculator_inputs}[workload](seed)


def fingerprint(inputs: dict) -> str:
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
