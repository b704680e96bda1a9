"""Wall-crossing recursion over invariant tables.

Replacing two rational point conditions by a conjugate pair over Q(sqrt(c))
changes the motivic count by (beta - 2<1>) times the count on the blow-up
with class D - 2E, where beta = <2> + <2c> is the trace form of <1>.  Over
a chain of depth-2 corner chops that each remove exactly one interior point
(one rule, ``chain_from``, picks each level's chop on its normal form) this
gives a dynamic program: with N_j(s) the invariant of level j with s pairs,

    N_j(s+1) = N_j(s) + (b_{s+1} - 2<1>) * N_{j+1}(s),

seeded at s = 0 by the tropical count of each polygon.  The bottom level,
a polygon with no interior points, crosses against an empty blow-up, so
its rows are constant.  Rows are kept as multilinear polynomials in the
formal symbols b_i so one table covers every choice of the extensions.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice

from .betapoly import POLY_ZERO, BetaPolynomial
from .gw import GWElement, DomainError, _Frozen, _check_tuple
from .polygon import LatticePolygon, normal_form, polygon, preset
from .tropical import count_invariants


#: The largest degree whose count prints under Python's default limit of
#: 4300 digits for int-to-str conversion: N_571 has 4295 digits, N_572 has 4304.
KONTSEVICH_MAX_DEGREE = 571


def kontsevich_nd(d: int) -> int:
    """Count of rational degree-d plane curves through 3d-1 generic points,
    by the classical recursion in exact integer arithmetic."""
    if d < 1:
        raise DomainError("degree must be >= 1")
    if d > KONTSEVICH_MAX_DEGREE:
        raise DomainError(
            f"degree must be <= {KONTSEVICH_MAX_DEGREE}: the count for degree "
            f"{KONTSEVICH_MAX_DEGREE + 1} already has more than 4300 digits"
        )
    return _kontsevich_counts(d)[d]


def _kontsevich_counts(d: int) -> list[int]:
    """[0, N_1, ..., N_d] for d >= 1, bottom-up.

    The recursion sums N_a * N_b * a^2 * b * (b*C(3e-4, 3a-2) - a*C(3e-4, 3a-1))
    over a + b = e.  The terms for (a, b) and (b, a) share N_a * N_b, and
    C(3e-4, 3b-2) = C(3e-4, 3a-2), C(3e-4, 3b-1) = C(3e-4, 3a-3), so each
    unordered pair is one product against a weight read off one binomial row.
    """
    counts = [0, 1]
    for e in range(2, d + 1):
        m = 3 * e - 4
        row = [1]  # C(m, 0), C(m, 1), ..., as far as a = e // 2 reads
        for j in range(3 * (e // 2)):
            row.append(row[-1] * (m - j) // (j + 1))
        total = 0
        for a in range(1, e // 2 + 1):
            b = e - a
            w = a * b * (
                2 * a * b * row[3 * a - 2] - a * a * row[3 * a - 1] - b * b * row[3 * a - 3]
            )
            total += (w // 2 if a == b else w) * counts[a] * counts[b]
        counts.append(total)
    return counts


class _Level:
    """A polygon that hashes and compares by its normal form: the key of
    ``_canonical_count``, which counts the polygon it carries."""

    __slots__ = ("poly", "form")

    def __init__(self, poly: LatticePolygon) -> None:
        self.poly = poly
        self.form = normal_form(poly)[0]

    def __hash__(self) -> int:
        return hash(self.form)

    def __eq__(self, other) -> bool:
        return self.form == other.form


@lru_cache(maxsize=128)
def _canonical_count(level: _Level) -> GWElement:
    return count_invariants(level.poly).canonical


def base_invariant(poly: LatticePolygon) -> GWElement:
    """Motivic count for an all-rational configuration, in the canonical
    a*h + b*<1> shape (checked isometric to the raw tropical sum).

    N and W do not change under lattice-affine maps, so one count serves
    every polygon with the same normal form: the first one asked for is
    counted as given, and later ones get its value until
    ``_canonical_count.cache_clear()``."""
    return _canonical_count(_Level(poly))


def wall_cross_step(
    n_surface: BetaPolynomial, n_blowup: BetaPolynomial, next_index: int
) -> BetaPolynomial:
    """One wall: N(s+1) = N(s) + (b_{next} - 2<1>) * N_blowup(s)."""
    used = n_surface.indices() | n_blowup.indices()
    if used and max(used) >= next_index:
        raise DomainError("indices must be crossed in increasing order")
    return n_surface + n_blowup.mul_step(next_index)


class SurfaceChain(_Frozen):
    """Polygons ending with no interior points, each step a depth-2 corner chop, up to lattice-affine
    maps, that removes exactly one interior point.  By Pick's theorem, a depth-2 chop at a corner with
    primitive edge directions u, w, k = |det(u, w)| and g the gcd of w - u changes the interior count
    by 2 - 2k - g, which is -1 exactly at a smooth corner, k = g = 1: a blow-up at a fixed point."""

    __slots__ = _fields = ("polygons",)
    polygons: tuple[LatticePolygon, ...]

    def __init__(self, polygons: tuple[LatticePolygon, ...]) -> None:
        _check_tuple(polygons, "polygons")
        if not polygons:
            raise DomainError("empty chain")
        for p in polygons:
            if not isinstance(p, LatticePolygon):
                raise DomainError(f"polygon {p!r} is not a LatticePolygon")
        if polygons[-1].interior_count() != 0:
            raise DomainError("chain must end with an interior-point-free polygon")
        for a, b in zip(polygons, polygons[1:]):
            if b.interior_count() != a.interior_count() - 1:
                raise DomainError(
                    f"a chain step must remove exactly one interior point: {a} has {a.interior_count()} "
                    f"interior points and {b} has {b.interior_count()}"
                )
            if normal_form(b)[0] not in {normal_form(c)[0] for c in _depth2_chops(a)}:
                raise DomainError(f"{b} is not a depth-2 corner chop of {a}")
        object.__setattr__(self, "polygons", polygons)


def _depth2_chops(poly: LatticePolygon):
    """The depth-2 corner chops of ``poly``, in cycle order."""
    for v in poly.vertices:
        try:
            yield poly.chop_corner(v, 2)
        except DomainError:
            pass


def quartic_chain() -> SurfaceChain:
    """The quartic chain: P2 degree 4, then 4-2E, 4-2E-2E', 4-2E-2E'-2E''."""
    return chain_from(preset("p2:4"))


def chain_from(poly: LatticePolygon) -> SurfaceChain:
    """The chain of one polygon, alike for all its lattice-affine images: below each level, the
    first depth-2 chop of its normal form, mapped back through m^-1 = det(m) adj(m).  Below an
    image of ``p2:4`` come ``f1_4_2e``, ``blf1`` and ``bl2f1`` instead; the first chops have their
    normal forms and rows, so this keeps only the coordinates the golden ``table`` digests pin."""
    polys = [poly]
    while polys[-1].interior_count():
        form, ((a, b), (c, d)), (ox, oy) = normal_form(polys[-1])
        e = a * d - b * c
        chops = map(preset, ("f1_4_2e", "blf1", "bl2f1")) if form == preset("p2:4") else islice(_depth2_chops(form), 1)
        below = [polygon([(e * (d * x - b * y) + ox, e * (a * y - c * x) + oy) for x, y in q.vertices]) for q in chops]
        if not below:
            raise DomainError(f"no depth-2 chop available on {polys[-1]}")
        polys += below
    return SurfaceChain(tuple(polys))


class InvariantTable(_Frozen):
    """Rows s = 0..point_budget//2 of invariants with s conjugate pairs."""

    __slots__ = _fields = ("polygon", "rows")
    polygon: LatticePolygon
    rows: tuple[BetaPolynomial, ...]

    def __init__(self, polygon: LatticePolygon, rows: tuple[BetaPolynomial, ...]) -> None:
        _check_tuple(rows, "rows")
        if not isinstance(polygon, LatticePolygon):
            raise DomainError(f"polygon {polygon!r} is not a LatticePolygon")
        if not rows:
            raise DomainError("a table needs at least one row")
        for row in rows:
            if not isinstance(row, BetaPolynomial):
                raise DomainError(f"row {row!r} is not a BetaPolynomial")
        ranks = {row.rank_profile() for row in rows}
        if len(ranks) != 1:
            raise DomainError("rank profile must be constant down a table")
        for s, row in enumerate(rows):
            if row.indices() - set(range(1, s + 1)):
                raise DomainError(f"row {s} uses symbols beyond b1..b{s}")
        object.__setattr__(self, "polygon", polygon)
        object.__setattr__(self, "rows", rows)

    def s_max(self) -> int:
        return len(self.rows) - 1

    def to_json(self) -> dict:
        return {
            "polygon": self.polygon.to_json(),
            "rows": [
                {"s": s, "value": row.to_json()} for s, row in enumerate(self.rows)
            ],
        }

    def markdown(self) -> str:
        from .betapoly import format_poly  # at call time, where perfbench's tracer patches it

        lines = [f"### {self.polygon}", "", "| s | invariant |", "| --- | --- |"]
        for s, row in enumerate(self.rows):
            lines.append(f"| {s} | {format_poly(row, unicode=True)} |")
        return "\n".join(lines)


def build_tables(chain: SurfaceChain, jobs: int = 1) -> list[InvariantTable]:
    """Bottom-up dynamic program over the chain, on the base invariant of
    each level.  ``jobs`` is accepted and ignored, as by ``enumerate_curves``."""
    polys = chain.polygons
    bases = [base_invariant(poly) for poly in polys]

    tables: list[InvariantTable] = []
    below = (POLY_ZERO,) * (polys[-1].point_budget() // 2)  # the bottom has no blow-up
    for j in range(len(polys) - 1, -1, -1):
        rows = [BetaPolynomial.constant(bases[j])]
        for s in range(polys[j].point_budget() // 2):
            rows.append(wall_cross_step(rows[s], below[s], s + 1).reduced())
        tables.insert(0, InvariantTable(polys[j], tuple(rows)))
        below = rows
    return tables
