"""Independent brute-force oracles shared by the test modules.

These deliberately avoid the closed-form machinery they are checking:
local solvability is decided by enumerating square values in residue
charts, triangle interior counts by scanning the bounding box, boundary
segments by testing each polygon edge, orientation-keeping lattice-affine
equivalence by solving for the SL(2,Z) map that sends two edges onto two, a wall-crossing
chain by three rules (an interior-free bottom, one chop per interior point of the top and a
point budget that drops by 2 at each normal-form chop), the arcs beside every lattice
path and their potentials by walking the boundary lattice points, a
parallelogram's cycle by trying each vertex as the far one, the dual
curve of a tiling by walking its strands, a doomed path and a heavy
completion by their boundary sides, and a curve's motivic multiplicity
by a plain product, the classes of products, discriminants, beta and
trace forms by factoring, a β-polynomial's value at β(c_i) one monomial
at a time, and equality in GW(Q) by comparing both padded sides whole,
cancelling nothing, and a calculator expression by a scanner that
walks the text one character at a time and evaluates every factor as a
BetaPolynomial.  Also home to helpers that only tests call: the random
form generator of the property tests, the convex hull that builds their
random polygons, and a triangle's interior count by Pick's formula, which
the tests check against a scan.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, prod

from sympy import factorint, primefactors

from gwcurves.betapoly import POLY_ZERO, BetaPolynomial, beta_symbol
from gwcurves.expr import ExprError
from gwcurves.gw import (
    H,
    ONE,
    ZERO,
    DomainError,
    GWElement,
    _squarefree_part,
    form,
    read_int,
    square_class,
    trace_form,
)
from gwcurves.polygon import _area2, _as_point, _cross, _sub, lattice_length, normal_form, polygon, primitive
from gwcurves.tropical import _pick_interior, parallelogram, triangle, triangle_edge_lengths, vertex_mult

PLACES = [None, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

_square_tables: dict[int, set[int]] = {}
_cache: dict[tuple, int] = {}


def _oracle(a: int, b: int, place) -> int:
    """Primitive solvability of z^2 = a x^2 + b y^2 in the completion.

    Real place: sign analysis.  Finite p: a primitive solution has a unit
    coordinate, so after scaling one coordinate is 1; search each chart for
    c1*s + c2*t = target with s, t squares (0 included) modulo p^3 (16 at
    p = 2), which decides solvability for squarefree coefficients.
    """
    if place is None:
        return 1 if (a > 0 or b > 0) else -1
    mod = 16 if place == 2 else place**3
    if mod not in _square_tables:
        _square_tables[mod] = {(z * z) % mod for z in range(mod)}
    squares = _square_tables[mod]

    def chart(c1: int, c2: int, target: int) -> bool:
        reachable = {(c2 * s) % mod for s in squares}
        return any((target - c1 * s) % mod in reachable for s in squares)

    solvable = (
        chart(a, b, 1)  # z = 1
        or chart(1, -b, a % mod)  # x = 1: z^2 - b y^2 = a
        or chart(1, -a, b % mod)  # y = 1: z^2 - a x^2 = b
    )
    return 1 if solvable else -1


def hilbert_oracle(a, b, place) -> int:
    sa, sb = square_class(a), square_class(b)
    key = (min(sa, sb), max(sa, sb), place)
    if key not in _cache:
        _cache[key] = _oracle(key[0], key[1], place)
    return _cache[key]


def convex_hull(points):
    """Convex hull (Andrew monotone chain) of a lattice point set."""
    pts = sorted({_as_point(p) for p in points})
    if len(pts) < 3:
        raise DomainError("need at least 3 points")

    def half(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    lower = half(pts)
    upper = half(reversed(pts))
    return polygon(lower[:-1] + upper[:-1])


def triangle_interior_count(cell) -> int:
    return _pick_interior(cell.area2(), sum(triangle_edge_lengths(cell)), cell.vertices)


def segment_on_boundary_scan(poly, p, q) -> bool:
    """Whether [p, q] lies inside one edge of ``poly``: both ends on the
    edge's line and inside its bounding box."""
    for a, b in poly.edges:
        on_line = all(
            (b[0] - a[0]) * (c[1] - a[1]) == (b[1] - a[1]) * (c[0] - a[0]) for c in (p, q)
        )
        if on_line and all(
            min(a[k], b[k]) <= c[k] <= max(a[k], b[k]) for c in (p, q) for k in range(2)
        ):
            return True
    return False


def two_edge_sl2z_equivalent(a, b) -> bool:
    """Lattice-affine equivalence: some SL(2,Z) map plus a translation sends
    one vertex cycle onto the other."""
    ea = [_sub(q, p) for p, q in a.edges]
    eb = [_sub(q, p) for p, q in b.edges]
    if len(ea) != len(eb):
        return False
    n = len(ea)
    det0 = ea[0][0] * ea[1][1] - ea[0][1] * ea[1][0]
    for shift in range(n):
        f0, f1 = eb[shift], eb[(shift + 1) % n]
        # Solve M @ ea[0] = f0, M @ ea[1] = f1 over Q; accept integral det-1 M.
        num_a = f0[0] * ea[1][1] - f1[0] * ea[0][1]
        num_b = f1[0] * ea[0][0] - f0[0] * ea[1][0]
        num_c = f0[1] * ea[1][1] - f1[1] * ea[0][1]
        num_d = f1[1] * ea[0][0] - f0[1] * ea[1][0]
        if any(v % det0 for v in (num_a, num_b, num_c, num_d)):
            continue
        m = (num_a // det0, num_b // det0, num_c // det0, num_d // det0)
        if m[0] * m[3] - m[1] * m[2] != 1:
            continue
        mapped = [
            (m[0] * v[0] + m[1] * v[1], m[2] * v[0] + m[3] * v[1]) for v in ea
        ]
        if mapped == [eb[(shift + k) % n] for k in range(n)]:
            return True
    return False


def three_rule_chain_ok(polygons) -> bool:
    """Whether ``polygons`` is a wall-crossing chain by three rules: the bottom
    has no interior points, the chain has one chop per interior point of its
    top, and each step drops the point budget by 2 and is a depth-2 corner
    chop up to normal form.  Pick's theorem makes these one rule, a depth-2
    chop that removes exactly one interior point."""
    if polygons[-1].interior_count() != 0:
        return False
    if len(polygons) - 1 != polygons[0].interior_count():
        return False
    for a, b in zip(polygons, polygons[1:]):
        if a.point_budget() - 2 != b.point_budget():
            return False
        if normal_form(b)[0] not in {normal_form(c)[0] for c in depth2_chops(a)}:
            return False
    return True


def depth2_chops(poly) -> list:
    """The depth-2 chops of ``poly`` at each corner whose two edges allow one."""
    out = []
    for v in poly.vertices:
        try:
            out.append(poly.chop_corner(v, 2))
        except DomainError:
            pass
    return out


def _arcs_walk(poly) -> dict[int, list[tuple[int, int]]]:
    """The boundary lattice points of each side's arc, in counterclockwise
    order, from a walk over every boundary lattice point: the left arc
    (side 1) from the lambda-max point to the lambda-min point, the right
    arc (side -1) from the min to the max."""
    bd = []
    for a, b in poly.edges:
        step = primitive((b[0] - a[0], b[1] - a[1]))
        bd += [(a[0] + k * step[0], a[1] + k * step[1]) for k in range(lattice_length(a, b))]
    lo = min(bd, key=lambda p: (p[1], p[0]))
    hi = max(bd, key=lambda p: (p[1], p[0]))
    out = {}
    for side, start, end in ((1, hi, lo), (-1, lo, hi)):
        k = bd.index(start)
        walk = bd[k:] + bd[:k]
        out[side] = walk[: walk.index(end) + 1]
    return out


def arc_shoelaces_walk(poly) -> tuple[int, int]:
    """Shoelace sums of the two boundary arcs from the lambda-min point to
    the lambda-max point, each closed by the chord back: (left arc, right
    arc).

    Walking the counterclockwise boundary from the minimum reaches the
    maximum along the right-hand side of any increasing path; the left arc
    runs clockwise from the minimum, the reverse of its walk.
    """
    arcs = _arcs_walk(poly)
    return -_area2(arcs[1]), _area2(arcs[-1])


def arc_potentials_walk(poly) -> dict[int, dict[tuple[int, int], int]]:
    """For each side, the running shoelace sum at each boundary lattice
    point of its arc (see ``_arcs_walk``), from the arc's start."""
    out = {}
    for side, arc in _arcs_walk(poly).items():
        out[side] = pot = {arc[0]: 0}
        for p, q in zip(arc, arc[1:]):
            pot[q] = pot[p] + p[0] * q[1] - q[0] * p[1]
    return out


def par_cycle_search(pts):
    """Sorted parallelogram vertices in cycle order p, p+u, p+u+v, p+v,
    found by trying each of the other three as the vertex opposite p; None
    if no choice gives a non-degenerate parallelogram."""
    p, q, r, s = pts
    for far, m1, m2 in ((q, r, s), (r, q, s), (s, q, r)):
        if (p[0] + far[0], p[1] + far[1]) == (m1[0] + m2[0], m1[1] + m2[1]):
            if (m1[0] - p[0]) * (m2[1] - p[1]) == (m1[1] - p[1]) * (m2[0] - p[0]):
                return None
            return (p, m1, far, m2)
    return None


def strand_walk_reason(cells):
    """Reason a glued tiling is dropped (None if kept), by walking its dual
    curve: the classifier ``validate_subdivision`` used before it grouped
    cell sides.

    A strand crosses parallelograms from one side to the opposite one and
    ends at a triangle (a trivalent vertex) or on the boundary.  Each strand
    is walked once from one of its ends: triangle-triangle is an arc,
    triangle-boundary a ray, boundary-boundary a vertex-free line.  The arcs
    then go through a union-find over the triangles.
    """
    owners: dict = {}
    for idx, cell in enumerate(cells):
        for side in cell.sides():
            owners.setdefault(side, []).append(idx)
    if any(len(ids) == 1 and lattice_length(*side) != 1 for side, ids in owners.items()):
        return "boundary-weight"

    def walk(side, cell_id):
        while True:
            nxt = [o for o in owners[side] if o != cell_id]
            if not nxt:
                return side, None
            cell_id = nxt[0]
            sides = cells[cell_id].sides()
            if cells[cell_id].kind == "triangle":
                return side, cell_id
            side = sides[(sides.index(side) + 2) % 4]

    tri_ids = [i for i, c in enumerate(cells) if c.kind == "triangle"]
    ends = [(side, t) for t in tri_ids for side in cells[t].sides()]
    ends += [(side, None) for side, ids in owners.items() if len(ids) == 1]
    arcs, rays, lines = [], 0, 0
    seen: set = set()
    for end in ends:
        if end in seen:
            continue
        far = walk(*end)
        seen.add(far)
        if end[1] is None and far[1] is None:
            lines += 1
        elif end[1] is None or far[1] is None:
            rays += 1
        else:
            arcs.append((end[1], far[1]))
    assert 3 * len(tri_ids) == 2 * len(arcs) + rays

    parent = {t: t for t in tri_ids}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in arcs:
        parent[find(a)] = find(b)
    if lines:
        return "line-component"
    if len({find(t) for t in tri_ids}) > 1:
        return "disconnected"
    if len(arcs) != len(tri_ids) - 1:
        return "positive-genus"
    return None


def doomed(path, poly) -> bool:
    """True if some step of ``path`` lies on the boundary with lattice length
    >= 2: that step is a side of a cell in every tiling built from the path,
    an end of weight >= 2."""
    return any(
        segment_on_boundary_scan(poly, a, b) and lattice_length(a, b) != 1
        for a, b in zip(path, path[1:])
    )


def heavy_boundary(cells, poly) -> bool:
    """True if some cell side lies on the boundary with lattice length >= 2
    (an end of weight >= 2), from the edge scan."""
    return any(
        segment_on_boundary_scan(poly, *side) and lattice_length(*side) != 1
        for cell in cells
        for side in cell.sides()
    )


def summary_cells(side, poly) -> tuple:
    """The cells of a completion summary (``tropical._Side``) of ``poly``,
    built from the point ids in its cell link, in the order of
    ``complete_path``: the deepest peel first, the summary's own last."""
    ids = []
    link = side.cells
    while link is not None:
        pts, link = link
        ids.append(pts)
    points = poly.lattice_points
    cells = []
    for pts in reversed(ids):
        vs = [points[k] for k in pts]
        cells.append(triangle(*vs) if len(vs) == 3 else parallelogram(*vs))
    return tuple(cells)


def motivic_fold(sub) -> GWElement:
    """The motivic multiplicity of a curve as the product of its vertex
    multiplicities, every factor multiplied in."""
    out = ONE
    for t in sub.triangles():
        out = out * vertex_mult(t)
    return out


def blowup_count(d: int, *a: int) -> int:
    """N(d; a1, ..., ar): the number of rational curves of class
    dH - a1*E1 - ... - ar*Er on the plane blown up at r <= 6 general points
    (a del Pezzo surface, where the count is enumerative) through
    3d - a1 - ... - ar - 1 general points.  From the class alone, by the
    WDVV recursions of Goettsche and Pandharipande (J. Differential Geom.
    48, 1998); a multiplicity 0 is a point not blown up."""
    a = tuple(sorted((x for x in a if x), reverse=True))
    if len(a) > 6:
        raise ValueError(f"{len(a)} blown-up points: the recursion holds for at most 6")
    return _wdvv(d, a)


def _choose(n: int, k: int) -> int:
    return comb(n, k) if 0 <= k <= n else 0


@lru_cache(maxsize=None)
def _wdvv(d: int, a: tuple[int, ...]) -> int:
    """``blowup_count`` of a class whose nonzero multiplicities ``a`` are
    sorted downward.

    With n the point count and a split b1 + b2 = b into classes of degrees
    d1, d2 >= 1 and point counts n1 + n2 = n - 1 (a part of degree 0 is an
    E_j, which adds nothing: each term has the factor d1, and an E_j
    carries no point), WDVV on (H, H, pt, pt) gives Kontsevich's recursion

        N = sum N1 N2 (b1.b2) d1 [d2 C(n-3, n1-1) - d1 C(n-3, n1)]

    and, when a1 > 0, WDVV on (H, H, E1, pt) gives

        a1 N = sum N1 N2 (b1.b2) d1 [a1' d2 - d1 a1''] C(n-2, n1)

    with a1', a1'' the first multiplicities of b1 and b2.  The recursion
    ends at the classes through fewer than two points: a class through no
    point is a (-1)-curve (b.b = -1), one through one point a conic class
    (b.b = 0), and each is one curve."""
    n = 3 * d - sum(a) - 1
    if n < 0 or d < 0:
        return 0
    if d == 0:
        return int(a == (-1,))  # the exceptional curve E1
    if a and a[-1] < 0:
        return 0  # holds the exceptional curve: not irreducible
    if n < 2:
        return int(d * d - sum(x * x for x in a) == n - 1)
    if not a and d == 1:
        return 1  # the line through two points
    total = 0
    for d1 in range(1, d):
        d2 = d - d1
        for a1 in itertools.product(*(range(x + 1) for x in a)):
            a2 = tuple(x - y for x, y in zip(a, a1))
            n1 = 3 * d1 - sum(a1) - 1
            if not 0 <= n1 <= n - 1:
                continue
            dot = d1 * d2 - sum(x * y for x, y in zip(a1, a2))
            if a:
                weight = (a1[0] * d2 - d1 * a2[0]) * _choose(n - 2, n1)
            else:
                weight = d2 * _choose(n - 3, n1 - 1) - d1 * _choose(n - 3, n1)
            if dot and weight:
                total += blowup_count(d1, *a1) * blowup_count(d2, *a2) * dot * d1 * weight
    if a:
        if total % a[0]:
            raise AssertionError(f"WDVV sum {total} of ({d}; {a}) is not a multiple of {a[0]}")
        total //= a[0]
    return total


def random_gw(rng, size: int = 4, bound: int = 30) -> GWElement:
    """Small random virtual form, for property tests."""
    out = ZERO
    for _ in range(rng.randrange(size + 1)):
        a = rng.choice([-1, 1]) * rng.randrange(1, bound)
        out = out + rng.choice([-2, -1, 1, 2]) * form(a)
    return out


def uncancelled_gw_equal(q1: GWElement, q2: GWElement) -> bool:
    """q1 == q2 in GW(Q) by Hasse-Minkowski on the padded effective forms
    whole, with the odd places taken from every stored class of both."""
    if q1.rank() != q2.rank():
        return False
    (e1, m1), (e2, m2) = q1._effectivized(), q2._effectivized()
    e1, e2 = e1 + (max(m1, m2) - m1) * H, e2 + (max(m1, m2) - m2) * H
    if e1.signature() != e2.signature() or e1.discriminant() != e2.discriminant():
        return False
    places = {None, 2} | {p for q in (e1, e2) for c, _ in q.terms for p in primefactors(c)}
    return all(e1.hasse_invariant(v) == e2.hasse_invariant(v) for v in places)


# -- the ring's class arithmetic by factoring every product -------------------


#: The primes of each squarefree class seen, so that a product of large
#: classes is never factored from scratch.
_class_primes: dict[int, frozenset[int]] = {}


def _primes_of(c: int) -> frozenset[int]:
    out = _class_primes.get(c)
    if out is None:
        powers = factorint(abs(c))
        if any(e != 1 for e in powers.values()):
            raise ValueError(f"{c} is not a squarefree class")
        out = _class_primes[c] = frozenset(powers)
    return out


def _factored_class_product(c1: int, c2: int) -> int:
    """The square class of c1*c2 for squarefree c1, c2, read off the
    factorization of the product: the primes that divide exactly one of
    them, with the sign of the product.  The primes of each class are found
    by sympy, or recorded when the class was made here as a product."""
    primes = _primes_of(c1) ^ _primes_of(c2)
    c = prod(primes) * (-1 if (c1 < 0) != (c2 < 0) else 1)
    _class_primes.setdefault(c, primes)
    return c


def factoring_product(q1: GWElement, q2: GWElement) -> GWElement:
    """q1 * q2 with the class of each product of classes found by factoring
    the product, and the result's classes checked by the public constructor."""
    return GWElement.from_dict(_factored_product_terms(q1.terms, q2.terms))


def _factored_product_terms(t1, t2) -> dict[int, int]:
    d: dict[int, int] = {}
    for c1, n1 in t1:
        for c2, n2 in t2:
            c = _factored_class_product(c1, c2)
            d[c] = d.get(c, 0) + n1 * n2
    return d


def factoring_discriminant(q: GWElement) -> int:
    """The class of the product of the classes of odd weight, by factoring."""
    return _squarefree_part(prod(c for c, n in q.terms if n % 2))


def factoring_beta(c) -> GWElement:
    """<2> + <2c>, each entry reduced by factoring."""
    return GWElement.from_dict(Counter((2, square_class(2 * square_class(c)))))


def factoring_trace_form(c, a, b=0) -> GWElement:
    """<2a> + <2a * det> for det = 4c(a^2 - b^2 c), c reduced to its class and
    a != 0 (the Gram diagonalization), each entry reduced by factoring."""
    c = square_class(c)
    det = 4 * c * (a * a - b * b * c)
    return GWElement.from_dict(Counter((square_class(2 * a), square_class(2 * a * det))))


def specialize_per_monomial(row: BetaPolynomial, assignment) -> GWElement:
    """``row.specialize`` as it was first written: one GWElement per
    monomial, its coefficient times beta(c_i) built again for every index,
    summed with ``+``.  Each product of classes is factored.  The products
    skip the public constructor, whose check would factor a product of
    several large classes from scratch."""
    total = ZERO
    for m, g in row.monomials:
        for i in m:
            g = GWElement._of(_factored_product_terms(g.terms, factoring_beta(assignment[i]).terms))
        total = total + g
    return total


# -- calculator expressions, one character at a time ----------------------------


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
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
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


def _scan_factor(sc: _Scanner) -> BetaPolynomial:
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
    except DomainError as exc:
        raise ExprError(str(exc), start) from None
    if sc.take("h"):
        return BetaPolynomial.constant(H)
    if sc.take("b"):
        idx = sc.uint()
        if idx == 0:
            raise ExprError("symbol index must be positive", start)
        return beta_symbol(idx)
    raise ExprError("expected a factor", sc.pos)


def _scan_term(sc: _Scanner) -> BetaPolynomial:
    coeff = 1
    sc.skip_ws()
    if "0" <= sc.peek() <= "9":
        coeff = sc.uint()
        star = sc.take("*")
        if (sc.done() or sc.peek() in "+-") and not star:
            return BetaPolynomial.constant(coeff * ONE)
    out = _scan_factor(sc)
    while sc.take("*"):
        sc.skip_ws()
        start = sc.pos
        factor = _scan_factor(sc)
        try:
            out = out * factor
        except DomainError as exc:  # a repeated symbol
            raise ExprError(str(exc), start) from None
    if coeff != 1:
        out = BetaPolynomial.constant(coeff * ONE) * out
    return out


def scan_expression(text: str) -> BetaPolynomial:
    """``expr.parse_expression`` as a scanner that skips whitespace
    character by character before every token it tries, and builds every
    factor, product and sum as a BetaPolynomial."""
    sc = _Scanner(text)
    total = POLY_ZERO
    negate = sc.take("-")
    while True:
        term = _scan_term(sc)
        total = total + (-term if negate else term)
        if sc.done():
            return total
        if sc.take("+"):
            negate = False
        elif sc.take("-"):
            negate = True
        else:
            raise ExprError("expected '+', '-' or end of input", sc.pos)
