"""Independent brute-force oracles shared by the test modules.

These deliberately avoid the closed-form machinery they are checking:
local solvability is decided by enumerating square values in residue
charts, triangle interior counts by scanning the bounding box, boundary
segments by testing each polygon edge, the arcs beside every lattice path
by walking the boundary lattice points, a parallelogram's cycle by trying
each vertex as the far one, the dual curve of a tiling by walking its
strands, a doomed path and a heavy completion by their boundary sides, and
a curve's motivic multiplicity by a plain product, the classes of
products, discriminants, beta and trace forms by factoring, and equality in
GW(Q) without cancelling the summands both sides share.  Also home to
the random form generator of the property tests.
"""

from __future__ import annotations

from collections import Counter
from math import prod

import numpy as np
from sympy import primefactors

from gwcurves.gw import H, ONE, ZERO, GWElement, _squarefree_part, form, square_class
from gwcurves.polygon import _area2, lattice_length, primitive
from gwcurves.tropical import vertex_mult

PLACES = [None, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

_square_tables: dict[int, np.ndarray] = {}
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
        _square_tables[mod] = np.array(
            sorted({(z * z) % mod for z in range(mod)}), dtype=np.int64
        )
    squares = _square_tables[mod]

    def chart(c1: int, c2: int, target: int) -> bool:
        lut = np.zeros(mod, dtype=bool)
        lut[(c2 * squares) % mod] = True
        return bool(lut[(target - c1 * squares) % mod].any())

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


def arc_shoelaces_walk(poly) -> tuple[int, int]:
    """Shoelace sums of the two boundary arcs from the lambda-min point to
    the lambda-max point, each closed by the chord back: (left arc, right
    arc), from a walk over every boundary lattice point.

    Walking the counterclockwise boundary from the minimum reaches the
    maximum along the right-hand side of any increasing path.
    """
    bd = []
    for a, b in poly.edges:
        step = primitive((b[0] - a[0], b[1] - a[1]))
        bd += [(a[0] + k * step[0], a[1] + k * step[1]) for k in range(lattice_length(a, b))]
    lo = min(bd, key=lambda p: (p[1], p[0]))
    hi = max(bd, key=lambda p: (p[1], p[0]))
    k = bd.index(lo)
    bd = bd[k:] + bd[:k]
    j = bd.index(hi)
    right = bd[: j + 1]
    left = [lo] + bd[: j - 1 : -1]
    return _area2(left), _area2(right)


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


def motivic_fold(sub) -> GWElement:
    """The motivic multiplicity of a curve as the product of its vertex
    multiplicities, every factor multiplied in."""
    out = ONE
    for t in sub.triangles():
        out = out * vertex_mult(t)
    return out


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


def factoring_product(q1: GWElement, q2: GWElement) -> GWElement:
    """q1 * q2 with the class of each product of classes found by factoring
    the product, and the result's classes checked by the public constructor."""
    d: dict[int, int] = {}
    for c1, n1 in q1.terms:
        for c2, n2 in q2.terms:
            c = _squarefree_part(c1 * c2)
            d[c] = d.get(c, 0) + n1 * n2
    return GWElement.from_dict(d)


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
