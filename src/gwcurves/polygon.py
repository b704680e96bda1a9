"""Convex lattice polygons encoding a toric surface with a curve class.

A polygon is stored as given: a counterclockwise vertex cycle (no three
consecutive vertices collinear), rotated to start at its lexicographically
smallest vertex.  The number of boundary lattice points minus one is the
point budget: the number of generic point conditions that cut the count of
rational curves in the class down to a finite number.

Blowing up a torus-fixed point chops a corner off the polygon; depth-2
chops realize the degree shifts D -> D - 2E used by the wall-crossing
recursion.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd

from .gw import DomainError, _Frozen, _check_tuple, read_int

Point = tuple[int, int]


def _cross(o: Point, a: Point, b: Point) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _sub(a: Point, b: Point) -> Point:
    return (a[0] - b[0], a[1] - b[1])


def _add(a: Point, b: Point) -> Point:
    return (a[0] + b[0], a[1] + b[1])


def lattice_length(a: Point, b: Point) -> int:
    return gcd(abs(a[0] - b[0]), abs(a[1] - b[1]))


def _area2(vs) -> int:
    """Twice the signed area of a vertex cycle (shoelace)."""
    return sum(vs[i - 1][0] * vs[i][1] - vs[i][0] * vs[i - 1][1] for i in range(len(vs)))


def _span(vs, axis: int) -> int:
    """The extent of a vertex list along coordinate ``axis``."""
    return max(v[axis] for v in vs) - min(v[axis] for v in vs)


def _rows(vs):
    """The lattice points of the convex polygon with vertex cycle ``vs`` (in
    either orientation), row by row from the bottom and left to right in a
    row.  A row runs between the outermost lattice points of its line's
    crossings with the edges, rounded inward."""
    edges = list(zip(vs, vs[1:] + vs[:1]))
    for y in range(min(v[1] for v in vs), max(v[1] for v in vs) + 1):
        los, his = [], []
        for (ax, ay), (bx, by) in edges:
            if not min(ay, by) <= y <= max(ay, by):
                continue
            if ay == by:  # the edge lies on the row
                los.append(min(ax, bx))
                his.append(max(ax, bx))
            else:  # the crossing ax + n/d, rounded up and down
                n, d = (bx - ax) * (y - ay), by - ay
                los.append(ax - (-n // d))
                his.append(ax + n // d)
        for x in range(min(los), max(his) + 1):
            yield (x, y)


def _as_point(p) -> Point:
    """A vertex from outside input: a pair of integer coordinates (a bool
    is not one, although Python counts it as an int)."""
    if not (isinstance(p, (tuple, list)) and len(p) == 2 and all(type(c) is int for c in p)):
        raise DomainError(f"bad vertex {p!r}: need two integer coordinates")
    return tuple(p)


def primitive(v: Point) -> Point:
    g = gcd(abs(v[0]), abs(v[1]))
    return (v[0] // g, v[1] // g)


class LatticePolygon(_Frozen):
    """A vertex cycle, validated as the module docstring describes.  It has
    a ``__dict__``, where each ``cached_property`` stores its value."""

    _fields = ("vertices",)
    vertices: tuple[Point, ...]

    def __init__(self, vertices: tuple[Point, ...]) -> None:
        _check_tuple(vertices, "vertices")
        vs = vertices
        if len(vs) < 3:
            raise DomainError("a polygon needs at least 3 vertices")
        for v in vs:
            if _as_point(v) != v:
                raise DomainError(f"bad vertex {v!r}: not a tuple")
        n = len(vs)
        for i in range(n):
            if _cross(vs[i], vs[(i + 1) % n], vs[(i + 2) % n]) <= 0:
                raise DomainError("vertices must be strictly convex counterclockwise")
        if min(vs) != vs[0]:
            raise DomainError("vertex cycle must start at the lexicographic minimum")
        object.__setattr__(self, "vertices", vs)

    # -- basic geometry ------------------------------------------------------

    @cached_property
    def area2(self) -> int:
        """Twice the Euclidean area (shoelace)."""
        return _area2(self.vertices)

    @cached_property
    def edges(self) -> tuple[tuple[Point, Point], ...]:
        vs = self.vertices
        return tuple(zip(vs, vs[1:] + vs[:1]))

    def strictly_contains(self, p: Point) -> bool:
        return all(_cross(a, b, p) > 0 for a, b in self.edges)

    # -- lattice point counts ------------------------------------------------

    @cached_property
    def lattice_points(self) -> tuple[Point, ...]:
        """All lattice points, by height and then abscissa.  They are read
        row by row along the shorter side of the bounding box (``_rows``),
        so a long thin polygon costs its few rows; the boundary count is
        checked against the edge gcds and all counts against Pick."""
        vs = self.vertices
        if _span(vs, 1) <= _span(vs, 0):
            pts = tuple(_rows(vs))
        else:  # scan the transpose, whose rows are the columns
            pts = tuple((x, y) for y, x in sorted(_rows([(y, x) for x, y in vs])))
        interior = sum(map(self.strictly_contains, pts))
        boundary = len(pts) - interior
        if boundary != self.boundary_count():
            raise AssertionError("boundary scan disagrees with edge gcd count")
        if self.area2 != 2 * interior + boundary - 2:
            raise AssertionError("Pick's theorem violated")
        return pts

    def interior_count(self) -> int:
        """Interior lattice points, by Pick (2A = 2I + B - 2) without a scan."""
        return (self.area2 - self.boundary_count()) // 2 + 1

    def boundary_count(self) -> int:
        """Boundary lattice points, summed over the edges without a scan."""
        return sum(lattice_length(a, b) for a, b in self.edges)

    def point_count(self) -> int:
        """All lattice points, by Pick (2A = 2I + B - 2) without a scan."""
        return (self.area2 + self.boundary_count()) // 2 + 1

    def point_budget(self) -> int:
        return self.boundary_count() - 1

    # -- corner chops (blow-ups at torus-fixed points) -------------------------

    def chop_corner(self, vertex: Point, depth: int) -> "LatticePolygon":
        """Cut the corner at ``vertex``: replace it by the two points at
        lattice distance ``depth`` along the incident edges."""
        if depth < 1:
            raise DomainError("chop depth must be positive")
        vs = self.vertices
        try:
            i = vs.index(vertex)
        except ValueError:
            raise DomainError(f"{vertex} is not a vertex") from None
        u = vs[i - 1]
        w = vs[(i + 1) % len(vs)]
        if lattice_length(u, vertex) < depth or lattice_length(w, vertex) < depth:
            raise DomainError("incident edges are too short for this chop")
        du = primitive(_sub(u, vertex))
        dw = primitive(_sub(w, vertex))
        a = _add(vertex, (du[0] * depth, du[1] * depth))
        b = _add(vertex, (dw[0] * depth, dw[1] * depth))
        new = list(vs[:i]) + ([a] if a != u else []) + ([b] if b != w else []) + list(vs[i + 1 :])
        return polygon(new)

    # -- presentation ------------------------------------------------------------

    def to_json(self) -> dict:
        return {"vertices": [list(v) for v in self.vertices]}

    @classmethod
    def from_json(cls, data) -> "LatticePolygon":
        if not isinstance(data, dict):
            raise DomainError("a polygon file holds an object {\"vertices\": [[x, y], ...]}")
        vertices = data["vertices"]
        if not isinstance(vertices, list):
            raise DomainError(f"\"vertices\" must be a list of [x, y] pairs, not {vertices!r}")
        return polygon(vertices)

    def __str__(self) -> str:
        return "conv{" + ", ".join(f"({x},{y})" for x, y in self.vertices) + "}"


def polygon(points) -> LatticePolygon:
    """Build a polygon from a counterclockwise or clockwise vertex cycle;
    rotates to the canonical start, reverses clockwise input."""
    vs = [_as_point(p) for p in points]
    if len(set(vs)) != len(vs):
        raise DomainError("repeated vertices")
    if _area2(vs) < 0:
        vs.reverse()
    k = vs.index(min(vs))
    return LatticePolygon(tuple(vs[k:] + vs[:k]))


# -- named polygons --------------------------------------------------------


def p2(d: int) -> LatticePolygon:
    """Degree-d curves in the projective plane: conv{(0,0), (d,0), (0,d)}."""
    if d < 1:
        raise DomainError("degree must be positive")
    return polygon([(0, 0), (d, 0), (0, d)])


def _presets() -> dict[str, LatticePolygon]:
    return {
        # first Hirzebruch surface, class 4L - 2E
        "f1_4_2e": polygon([(0, 0), (4, 0), (2, 2), (0, 2)]),
        # its blow-up at another point, class 4L - 2E - 2E'
        "blf1": polygon([(0, 0), (2, 0), (2, 2), (0, 2)]),
        # two more blow-ups: the conic polygon, class 4L - 2E - 2E' - 2E''
        "bl2f1": polygon([(0, 0), (2, 0), (0, 2)]),
    }


def preset(name: str) -> LatticePolygon:
    """Resolve a polygon name: ``p2:<d>``, ``f1_4_2e``, ``blf1``, ``bl2f1``."""
    key = name.strip().lower().replace("-", "_")
    if key.startswith("p2:"):
        # no sign can reach read_int: "-" became "_" above
        try:
            degree = read_int(key.split(":", 1)[1].strip())
        except ValueError:
            raise DomainError(f"bad degree in {name!r}") from None
        return p2(degree)
    table = _presets()
    if key in table:
        return table[key]
    raise DomainError(f"unknown polygon preset {name!r}")


def preset_names() -> list[str]:
    return ["p2:<d>"] + sorted(_presets())


def normal_form(poly: LatticePolygon):
    """The normal form under lattice-affine maps (Grinis-Kasprzyk, arXiv:1301.6641,
    in the plane): the least vertex tuple, over each start vertex of the cycle
    and of its mirror, with the start at the origin, its outgoing edge along
    (1, 0) and its incoming edge sheared to (a, b), 0 <= a < b.  Returned with
    a matrix m of determinant +-1 and a vertex o: x -> m(x - o) maps ``poly`` onto it."""
    vs, n, best = poly.vertices, len(poly.vertices), None
    for s in (1, -1):  # the mirror runs the cycle backward, under a map of determinant -1
        for i, o in enumerate(vs):
            ws = [_sub(vs[(i + s * j) % n], o) for j in range(n)]
            (p, q), (fx, fy) = primitive(ws[1]), ws[-1]
            u = pow(p, -1, abs(q)) if q else p  # u p + v q = 1
            v = (1 - u * p) // q if q else 0
            k = (u * fx + v * fy) // (s * (p * fy - q * fx))
            m = ((u + k * s * q, v - k * s * p), (-s * q, s * p))
            image = tuple((m[0][0] * x + m[0][1] * y, m[1][0] * x + m[1][1] * y) for x, y in ws)
            if best is None or image < best[0]:
                best = (image, m, o)
    return (LatticePolygon(best[0]),) + best[1:]
