"""Rational tropical curves through vertically stretched point configurations.

Curves of degree Delta through #(boundary lattice points) - 1 stretched
points are enumerated through their dual subdivisions: a lattice path that
increases strictly under the order lambda(x, y) = (y, x) lexicographic (the
limit of y + eps*x) is completed on each side of the polygon by peeling, at
the first vertex turning toward that side, either the turn triangle or the
parallelogram obtained by reflecting the turn vertex.  Gluing a positive and
a negative completion tiles the polygon with triangles and parallelograms;
the result is kept when its dual graph is a connected tree whose unbounded
edges all have weight one (an irreducible rational curve), and dropped with
a counted diagnostic otherwise.  The dual graph is read off by grouping cell
sides (parallelograms join opposite sides, triangles all three): each group
is a connected component, one without a triangle a line, and a connected
curve with T triangles and B boundary sides is a tree iff T = B - 2.

Every boundary side of a tiling comes from exactly one of its two
completions, so an end of weight >= 2 is decided by one side alone: only
the light completions, without a boundary side of lattice length >= 2, are
glued, and ``boundary-weight`` counts the other pairs, as |L|*|R| -
|L_ok|*|R_ok| for L and R the completions of a path and L_ok, R_ok the light
ones.  One memoized recursion gives |L| and, where it can be glued, L_ok;
below a peeled cell with a heavy side it only counts.  It only counts, too,
both sides of a doomed path, with a heavy step on the boundary (a side of
every tiling built from it), and the left side of a path whose right side,
completed first, has no light completion.  A count is a product: a path
point on a side's boundary arc never turns toward that side (the polygon is
convex), and no peel moves it (a reflected point stays in its
parallelogram), so the region falls apart there into pieces completed alone.

All of it runs on point ids, the indices of the lattice points in lambda
order: paths are ``combinations`` of ids, and one boundary walk gives the
arc areas and an id-keyed table of boundary steps, which the doomed test,
the heavy test of a cell, the check of a piece along the arc and the gluing
read.  The paths of one enumeration share a ``_Completer``: a cell table
and, per side, a summary memo keyed by the remaining id path, which callers
read before they recurse, and a count memo of pieces alone.  A peel at path
vertex i leaves vertices 1 .. i-2 their neighbours, where no turn was, so
the child's scan for a turn starts at i - 1 (at 1 for a piece cut anew).
Points are built only for kept curves and messages.

A glued pair of light completions is decided on the path interface.  The
same recursion gives each light completion a summary: for each edge of its
path the side group of the cell owning it, which groups hold a triangle,
its area and the product of its vertex multiplicities.  Groups of one side
never merge (a peel adds sides to one group, or starts a new one at a ray),
and a group's ray is its only side off the path that one cell owns, so the
group count is the ray count.  The two sides' groups join only across the
path edges both of them own, so one union-find over the path's labels gives
the reason.  A curve's multiplicity is the product of its two sides', and
the count adds up that product pair by pair.  A summary links the ids of
its cells, and a light triangle's multiplicity comes from a cache keyed by
its shape, so only ``enumerate_curves`` builds cells: those of the pairs it
keeps, each once.  ``validate_subdivision`` and ``curve_mult`` decide a
whole tiling, end weights included, and serve as the reference.

Each trivalent vertex, dual to a triangle with edge lattice lengths
l1, l2, l3, twice-area A2 and I interior lattice points, carries the
multiplicity

    <(-1)^I * l1*l2*l3> + (A2 - 1)/2 * h   if all li are odd,
    (A2 / 2) * h                           otherwise,

and a curve multiplies the contributions of its trivalent vertices.  The
rank of the product is the classical complex multiplicity, the signature the
real (signed) one, so a multiplicity is stored once, as a ``GWElement``, and
both numbers are read off it where they are printed.
"""

from __future__ import annotations

import gc
import itertools
import sys
from collections import Counter
from contextlib import contextmanager
from functools import lru_cache, reduce
from math import gcd
from operator import attrgetter, mul
from typing import Iterator, NamedTuple

from .gw import GWElement, InternalInvariantError, ONE, _add_into, form, gw_equal
from .polygon import LatticePolygon, Point, lattice_length, _add, _cross as _orient


def _log(msg: str, *args) -> None:
    """Log at INFO through ``logging`` if something imported it: the
    command line does for ``-v``.  Without that import no handler exists,
    and the message would be dropped."""
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(__name__).info(msg, *args)


@contextmanager
def collector_paused():
    """Run the block with the cyclic garbage collector paused, for code that
    builds many objects that stay live, which a collection would only
    rescan; the caller's setting is restored, also when the block raises."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def lambda_key(p: Point) -> tuple[int, int]:
    """The stretched order: compare by height, then abscissa."""
    return (p[1], p[0])


# -- cells -------------------------------------------------------------------


class Cell(NamedTuple):
    """A cell of a subdivision: its kind and its sorted vertices."""

    kind: str  # "triangle" | "parallelogram"
    vertices: tuple[Point, ...]  # sorted

    @property
    def cycle(self) -> tuple[Point, ...]:
        """The vertices in boundary order.  A parallelogram's largest vertex
        is the one opposite its smallest (see ``parallelogram``)."""
        if self.kind == "triangle":
            return self.vertices
        p, q, r, s = self.vertices
        return (p, q, s, r)

    def area2(self) -> int:
        a, b, c = self.vertices[:3]  # for a parallelogram, half of it
        return abs(_orient(a, b, c)) * (2 if self.kind == "parallelogram" else 1)

    def sides(self) -> tuple[tuple[Point, Point], ...]:
        """Sides as sorted endpoint pairs, in cycle order from the one that
        closes the cycle, read off the sorted vertices."""
        if self.kind == "triangle":
            a, b, c = self.vertices
            return ((a, c), (a, b), (b, c))
        p, q, r, s = self.vertices
        return ((p, r), (p, q), (q, s), (r, s))

    def to_json(self) -> dict:
        return {"kind": self.kind, "vertices": [list(v) for v in self.vertices]}


def triangle(a: Point, b: Point, c: Point) -> Cell:
    pts = tuple(sorted((a, b, c)))
    if _orient(*pts) == 0:
        raise InternalInvariantError("degenerate triangle")
    return Cell("triangle", pts)


def parallelogram(a: Point, b: Point, c: Point, d: Point) -> Cell:
    """The parallelogram cell on four points, in cycle order p, p+u, p+u+v,
    p+v.  The lexicographic order is a group order (it survives adding a
    vector), so the largest vertex is the one opposite the smallest."""
    p, q, r, s = pts = tuple(sorted((a, b, c, d)))
    if _add(p, s) != _add(q, r) or _orient(p, q, r) == 0:
        raise InternalInvariantError(f"not a parallelogram: {pts}")
    return Cell("parallelogram", pts)


# -- motivic vertex and curve multiplicities -----------------------------------


def triangle_edge_lengths(cell: Cell) -> tuple[int, int, int]:
    a, b, c = cell.vertices
    return (lattice_length(a, b), lattice_length(a, c), lattice_length(b, c))


def _pick_interior(a2: int, boundary: int, where) -> int:
    """Pick: 2*Area = 2*I + B - 2 with B the boundary lattice points."""
    i2 = a2 - boundary + 2
    if i2 < 0 or i2 % 2:
        raise InternalInvariantError(f"Pick count failed on {where}")
    return i2 // 2


def vertex_mult(cell: Cell) -> GWElement:
    """Motivic multiplicity of the trivalent vertex dual to a triangle."""
    if cell.kind != "triangle":
        raise InternalInvariantError("vertex multiplicity needs a triangle")
    (ax, ay), (bx, by), (cx, cy) = sorted(cell.vertices, key=lambda_key)
    return _shape_mult(bx - ax, by - ay, cx - ax, cy - ay)


@lru_cache(maxsize=4096)
def _shape_mult(ux: int, uy: int, vx: int, vy: int) -> GWElement:
    """``vertex_mult`` of a triangle from its shape up to translation: its
    edge vectors ``u`` and ``v`` from its lambda-least vertex to the other
    two, in lambda order.  The one formula and the one cache of the vertex
    multiplicity, and the home of its one check: the rank is twice the
    triangle's area, the classical multiplicity of the vertex."""
    l1, l2, l3 = gcd(ux, uy), gcd(vx, vy), gcd(vx - ux, vy - uy)
    a2 = abs(ux * vy - uy * vx)
    if l1 % 2 and l2 % 2 and l3 % 2:
        sign = -1 if _pick_interior(a2, l1 + l2 + l3, ((ux, uy), (vx, vy))) % 2 else 1
        m = form(sign * l1 * l2 * l3) + ((a2 - 1) // 2) * form(1, -1)
    else:
        m = (a2 // 2) * form(1, -1)
    if m.rank() != a2:
        raise InternalInvariantError(f"vertex multiplicity of rank {m.rank()} on a triangle of twice-area {a2}")
    return m


class MarkedSubdivision(NamedTuple):
    path: tuple[Point, ...]
    cells: tuple[Cell, ...]

    def triangles(self) -> list[Cell]:
        return [c for c in self.cells if c.kind == "triangle"]

    def to_json(self) -> dict:
        return {"path": [list(p) for p in self.path], "cells": [c.to_json() for c in self.cells]}


def curve_mult(sub: MarkedSubdivision) -> GWElement:
    """Product of the vertex multiplicities over the trivalent vertices."""
    return reduce(mul, map(vertex_mult, sub.triangles()), ONE)


# -- lattice paths and completions -----------------------------------------------


def enumerate_paths(poly: LatticePolygon):
    """All strictly lambda-increasing point sequences of step count equal to
    the point budget, from the lambda-minimal to the lambda-maximal vertex."""
    pts = poly.lattice_points
    return (tuple(map(pts.__getitem__, p)) for p in _id_paths(poly))


def _id_paths(poly: LatticePolygon) -> Iterator[tuple[int, ...]]:
    """``enumerate_paths`` as ids into ``poly.lattice_points``, in lambda
    order.  The budget is at least 2: a polygon has at least 3 boundary points."""
    last = len(poly.lattice_points) - 1
    return ((0, *c, last) for c in itertools.combinations(range(1, last), poly.point_budget() - 1))


def _boundary_tables(poly: LatticePolygon, ids: dict[Point, int]) -> tuple[dict, dict]:
    """Per side, by point id, the potential P of each lattice point on the
    side's arc (None off it): the shoelace sum along the arc, counterclockwise
    from the lambda-maximal vertex for side 1 (left), from the minimal one for
    side -1.  Twice the area between the arc and a piece from u to v on it
    with shoelace sum ``cross`` is ``side * (cross + P(u) - P(v))``.  And,
    from the same walk, the one table of boundary steps: each ordered pair
    of ids on a common edge, mapped to whether its lattice length is >= 2."""
    vs, pts = poly.vertices, poly.lattice_points  # pts[0] and pts[-1] are vertices
    lo, hi = vs.index(pts[0]), vs.index(pts[-1])
    arc, steps = {}, {}
    for side, k, end in ((1, hi, lo), (-1, lo, hi)):
        arc[side] = pot = [None] * len(ids)
        pot[ids[vs[k]]] = 0
        while k != end:  # along the edge from corner c the sum grows by cross(c, w)
            (cx, cy), (dx, dy) = poly.edges[k]
            n, total = gcd(dx - cx, dy - cy), pot[ids[cx, cy]]
            run = [ids[cx, cy]]
            for m in range(1, n + 1):
                x, y = cx + m * (dx - cx) // n, cy + m * (dy - cy) // n
                pot[ids[x, y]] = total + cx * y - x * cy
                run.append(ids[x, y])
            steps.update(((a, b), abs(i - j) > 1) for i, a in enumerate(run) for j, b in enumerate(run) if i != j)
            k = (k + 1) % len(vs)
    return arc, steps


class _Completer:
    """What the completion recursion shares over one enumeration of the
    paths of ``poly``: the lattice points in lambda order (``points``, their
    coordinates ``X`` and ``Y``, and ``ids`` back from a point), the ``arc``
    and ``steps`` of ``_boundary_tables``, per side the memos of summaries
    (``memo``) and counts (``counts``), and the cell table (``cells``).  Kept
    on the polygon, the memos and the table would outlive the enumeration."""

    def __init__(self, poly: LatticePolygon):
        self.poly = poly
        self.points = points = poly.lattice_points
        self.X = [x for x, _ in points]
        self.Y = [y for _, y in points]
        self.ids = {p: k for k, p in enumerate(points)}
        self.arc, self.steps = _boundary_tables(poly, self.ids)
        self.memo, self.counts, self.cells = {1: {}, -1: {}}, {1: {}, -1: {}}, {}  # see the class docstring

    def root(self, p: tuple[int, ...]) -> tuple[tuple[int, ...], dict[int, int]]:
        """The id path ``p``, and for each side twice the area between it and
        that side's arc, which starts at point 0 (right) or the last (left)."""
        X, Y = self.X, self.Y
        cross = sum(X[a] * Y[b] - X[b] * Y[a] for a, b in zip(p, p[1:]))
        return p, {1: cross + self.arc[1][0], -1: self.arc[-1][-1] - cross}

    def at(self, ids) -> tuple[Point, ...]:  # the points of ``ids``, for messages
        return tuple(map(self.points.__getitem__, ids))

    def cell(self, pts: tuple[int, ...]) -> tuple:
        """The cell table's entry ``(heavy, pts, mult)`` for the cell with ids
        ``pts`` (see ``_peels``), and no ``Cell``: whether a side is heavy,
        and a light triangle's ``vertex_mult`` (``_shape_mult``).  The key
        names the cell whichever side peels it, so each cell is checked once
        per enumeration: a triangle must not be flat, and four points must be
        a parallelogram with diagonals ``pts[0] pts[2]`` and ``pts[1] pts[3]``.
        Summaries keep the entry's ``pts``, one tuple per cell."""
        X, Y = self.X, self.Y
        a, b, c = pts[:3]
        ux, uy, vx, vy = X[b] - X[a], Y[b] - Y[a], X[c] - X[a], Y[c] - Y[a]
        if ux * vy == uy * vx:
            raise InternalInvariantError(f"degenerate cell {list(self.at(pts))}")
        if len(pts) == 4 and (X[a] + X[c] != X[b] + X[pts[3]] or Y[a] + Y[c] != Y[b] + Y[pts[3]]):
            raise InternalInvariantError(f"not a parallelogram: {list(self.at(pts))}")
        heavy = _heavy_steps(self.steps, pts + pts[:1])
        mult = None if heavy or len(pts) == 4 else _shape_mult(ux, uy, vx, vy)
        self.cells[pts] = entry = heavy, pts, mult
        return entry


def _peels(p, side: int, comp: _Completer, start: int = 1) -> list:
    """The peel rule, on a path ``p`` of point ids of ``comp``.  At the first
    vertex ``p[i]``, ``i >= start`` (the hint of the module docstring), where
    ``p`` turns toward ``side``: the turn triangle (``p[i]`` deleted) and,
    when the reflected point ``r = p[i-1] + p[i+1] - p[i]`` stays in the
    polygon, the turn parallelogram (``p[i]`` replaced by it).  Each peel is
    (remaining path, cell ids, i, twice the cell's area); none if ``p`` never
    turns toward ``side``.  The cell ids run along its cycle from ``p[i-1]``,
    its lambda-least vertex, with the smaller of ``p[i]`` and ``r`` second:
    one key, whichever side peels the cell."""
    X, Y = comp.X, comp.Y
    for i in range(start, len(p) - 1):
        a, b, c = p[i - 1], p[i], p[i + 1]
        xa, ya = X[a], Y[a]
        turn = (X[b] - xa) * (Y[c] - ya) - (Y[b] - ya) * (X[c] - xa)
        if turn * side > 0:
            a2 = abs(turn)
            out = [(p[:i] + p[i + 1 :], (a, b, c), i, a2)]
            r = comp.ids.get((xa + X[c] - X[b], ya + Y[c] - Y[b]))
            if r is not None:
                out.append((p[:i] + (r,) + p[i + 1 :], (a, min(b, r), c, max(b, r)), i, 2 * a2))
            return out
    return []


def complete_path(path, side: int, poly: LatticePolygon):
    """All completion cell sets between ``path`` and the boundary arc on the
    given side (+1: left of travel, -1: right), by the peel rule of
    ``_peels``.  A path with no remaining area on that side contributes the
    empty set; a path with area but no turn toward the side is a dead end."""
    if side not in (1, -1):
        raise ValueError("side must be +1 or -1")
    comp = _Completer(poly)
    if not all(map(comp.ids.__contains__, path)):
        raise ValueError(f"path {tuple(path)} leaves the lattice points of {poly}")
    cache: dict[tuple, list[tuple[Cell, ...]]] = {}

    def rec(p, area: int) -> list[tuple[Cell, ...]]:  # area: twice the area left, less each peeled cell's
        hit = cache.get(p)
        if hit is not None:
            return hit
        if area < 0:
            raise InternalInvariantError("path escaped its completion region")
        out: list[tuple[Cell, ...]] = [] if area else [()]
        for rest_path, pts, _, a2 in _peels(p, side, comp) if area else ():
            vs = [comp.points[k] for k in pts]
            cell = triangle(*vs) if len(vs) == 3 else parallelogram(*vs)
            out.extend(rest + (cell,) for rest in rec(rest_path, area - a2))
        cache[p] = out
        return out

    ids, areas = comp.root(tuple(map(comp.ids.__getitem__, path)))
    return rec(ids, areas[side])


class _Side(NamedTuple):
    """One light completion of a remaining path, summarized for gluing.

    ``labels`` gives, for each edge of the path, the side group (see
    ``validate_subdivision``) of the cell owning the edge, or -1 when no
    cell owns it (the edge lies on the boundary arc).  Every group holds an
    edge of the path, so the labels are 0 .. ``groups`` - 1.  Each group
    starts at a ray, a side owned once that is not a path edge, and gets no
    other, so ``groups`` is also the ray count; every ray has lattice
    length 1: the completion is light.  ``area2`` sums ``Cell.area2`` over
    the cells, and ``motivic`` is the product of its vertex multiplicities
    (``curve_mult`` of its cells).  ``cells`` is a link, ``(pts, child's
    cells)`` with ``pts`` the cell table's ids of the last cell peeled, or
    None for the empty completion: extending a summary copies no cells, and
    the count never walks the link."""

    cells: tuple | None
    labels: tuple[int, ...]
    groups: int
    tri_groups: int  # bitmask of the groups holding a triangle
    triangles: int
    area2: int
    motivic: GWElement


def _heavy_steps(steps: dict[tuple[int, int], bool], pts) -> bool:
    """True if ``steps`` (``_boundary_tables``) marks a step of the ids
    ``pts`` heavy: on a path, a side of every tiling built from it (it is
    doomed); on a cell's closed cycle, an end of weight >= 2."""
    return any(map(steps.get, zip(pts, pts[1:])))


def _light_completions(comp: _Completer, root, side: int) -> tuple[int, list[_Side]]:
    """``(len(complete), light)`` for ``complete = complete_path(path, side,
    poly)`` and ``light`` the summaries (``_complete``) of its light
    completions, in order; ``root`` is ``comp.root`` of the ids of ``path``.
    ``comp.memo[side]`` keeps it per remaining id path, which fixes the area
    left, over one enumeration; the root's entry is dropped once returned."""
    ids, areas = root
    out = comp.memo[side].get(ids) or _complete(comp, side, ids, areas[side], 1)
    del comp.memo[side][ids]
    return out


def _complete(comp: _Completer, side: int, p, area: int, hint: int) -> tuple[int, list[_Side]]:
    """``_light_completions`` of the remaining id path ``p``, in no memo yet,
    with ``area`` twice the area left (a peel removes its cell's) and ``hint``
    the ``start`` of ``_peels``.  A child's summary gets the cell peeled at
    ``i`` linked in front in O(1); a side of the cell on the child's path that
    no cell of the child owns is a ray, alone in a new group."""
    if area < 0:
        raise InternalInvariantError("path escaped its completion region")
    memo = comp.memo[side]
    if not area:  # one empty completion, which the count checks: 1, or it raises
        memo[p] = out = _count_path(comp, side, p, 0), [_Side(None, (-1,) * (len(p) - 1), 0, 0, 0, 0, ONE)]
        return out
    n, light, cells, new = 0, [], comp.cells, tuple.__new__
    for rest_path, pts, i, a2 in _peels(p, side, comp, hint):
        heavy, ids, mult = cells.get(pts) or comp.cell(pts)
        if heavy:
            n += _count_path(comp, side, rest_path)
            continue
        count, rest_light = memo.get(rest_path) or _complete(comp, side, rest_path, area - a2, i - 1 or 1)
        n += count
        if mult is None:  # parallelogram: ab takes the group of rc, bc that of ar
            for link, labels, groups, tri_groups, triangles, area2, motivic in rest_light:
                rc, ar = labels[i], labels[i - 1]
                if rc < 0:
                    rc, groups = groups, groups + 1
                if ar < 0:
                    ar, groups = groups, groups + 1
                labels = labels[: i - 1] + (rc, ar) + labels[i + 1 :]
                light.append(new(_Side, ((ids, link), labels, groups, tri_groups, triangles, area2 + a2, motivic)))
        else:  # triangle: ab and bc take the group of ac
            for link, labels, groups, tri_groups, triangles, area2, motivic in rest_light:
                ac = labels[i - 1]
                if ac < 0:
                    ac, groups = groups, groups + 1
                labels = labels[: i - 1] + (ac, ac) + labels[i:]
                summary = (ids, link), labels, groups, tri_groups | 1 << ac, triangles + 1, area2 + a2, motivic * mult
                light.append(new(_Side, summary))
    memo[p] = out = n, light
    return out


def _count_path(comp: _Completer, side: int, p, area: int | None = None, hint: int = 1) -> int:
    """``len(complete_path(path, side, poly))`` for the id path ``p``.
    Without ``area``: the product over the pieces between its arc points,
    with areas from one pass (``_boundary_tables``), returned and not kept; a
    step along the arc has no area and is no piece, and a run off the arc
    encloses some.  With ``area``, twice the area left, ``p`` is a piece,
    peeled from ``hint`` and kept in ``comp.counts[side]``, the one memo of
    counts; a peel leaves a piece unless its reflected point is on the arc,
    which cuts the rest into pieces."""
    counts = comp.counts[side]
    X, Y, pot = comp.X, comp.Y, comp.arc[side]
    if area is None:
        n, start, cross = 1, 0, 0
        for j, (a, b) in enumerate(zip(p, p[1:]), 1):
            cross += X[a] * Y[b] - X[b] * Y[a]
            if pot[b] is not None:
                area = side * (cross + pot[p[start]] - pot[b])
                if area:
                    piece = p[start : j + 1]
                    n *= _count_path(comp, side, piece, area) if (m := counts.get(piece)) is None else m
                    if not n:
                        break
                start, cross = j, 0
        return n
    if area < 0:
        raise InternalInvariantError("path escaped its completion region")
    elif not area:  # the path runs along the arc: one empty completion
        for edge in zip(p, p[1:]):  # every edge that no cell owns starts a ray here
            if edge not in comp.steps:
                raise InternalInvariantError(f"interior edge {comp.at(edge)} has a single cell")
        n = 1
    else:
        n = 0
        for rest, pts, i, a2 in _peels(p, side, comp, hint):
            if len(pts) == 4 and pot[rest[i]] is not None:  # cut: r is on the arc
                n += _count_path(comp, side, rest)
            else:
                n += _count_path(comp, side, rest, area - a2, i - 1 or 1) if (m := counts.get(rest)) is None else m
    counts[p] = n
    return n


# -- gluing and validity -----------------------------------------------------------


def validate_subdivision(sub: MarkedSubdivision, poly: LatticePolygon):
    """None if the subdivision is an irreducible rational curve with
    weight-one ends; otherwise a short reason string.

    A parallelogram joins each side to the opposite one (the strand crossing
    it), a triangle joins its three sides (a trivalent vertex); the smaller
    group is relabelled into the larger.  With T triangles and B boundary
    sides (rays), 3T = 2*arcs + B once no line exists.  Raises
    InternalInvariantError on a set of cells that does not tile the polygon.
    """
    if sum(c.area2() for c in sub.cells) != poly.area2:
        raise InternalInvariantError("cells do not tile the polygon")
    sides = [cell.sides() for cell in sub.cells]
    owners = Counter(itertools.chain.from_iterable(sides))
    for side, n in owners.items():
        if n > 2:
            raise InternalInvariantError(f"edge {side} shared by {n} cells")
        # a tiling's vertices are lattice points of the convex polygon: a side on an edge's line lies on the edge
        if n == 1 and not any(_orient(a, b, side[0]) == 0 == _orient(a, b, side[1]) for a, b in poly.edges):
            raise InternalInvariantError(f"interior edge {side} has a single cell")
    rays = [side for side, n in owners.items() if n == 1]
    if any(lattice_length(*side) != 1 for side in rays):
        return "boundary-weight"

    group = {side: [side] for side in owners}
    vertices = []  # one side of each triangle
    for cell, s in zip(sub.cells, sides):
        if cell.kind == "triangle":
            vertices.append(s[0])
            joins = ((s[0], s[1]), (s[0], s[2]))
        else:
            joins = ((s[0], s[2]), (s[1], s[3]))
        for a, b in joins:
            big, small = group[a], group[b]
            if big is small:
                continue
            if len(big) < len(small):
                big, small = small, big
            big.extend(small)
            for side in small:
                group[side] = big
    if (len(vertices) - len(rays)) % 2:  # every strand has two ends, so 3T + B is even
        raise InternalInvariantError("dual graph slot count mismatch")
    components = {id(g) for g in group.values()}
    if len({id(group[side]) for side in vertices}) < len(components):
        # also every tiling without a triangle: its strands all end on the boundary
        return "line-component"
    if len(components) > 1:
        return "disconnected"
    if len(vertices) != len(rays) - 2:
        return "positive-genus"
    return None


def _pair_reason(comp: _Completer, p, left: _Side, right: _Side):
    """``validate_subdivision`` of the tiling glued from two light completion
    summaries of the id path ``p`` (see ``_Side``), decided on its edges: a
    path edge owned by both sides joins their groups there, one owned by a
    single side is a ray, whose weight is not read (no doomed path is glued).
    On light pairs: the reasons and the InternalInvariantErrors of
    ``validate_subdivision``."""
    if left.area2 + right.area2 != comp.poly.area2:
        raise InternalInvariantError("cells do not tile the polygon")
    off, merges = left.groups, 0
    parent = list(range(off + right.groups))
    rays = len(parent)  # one per group (see ``_Side``)
    for i, (lab, rab) in enumerate(zip(left.labels, right.labels)):
        if lab >= 0 and rab >= 0:
            x, y = lab, off + rab
            while parent[x] != x:
                x = parent[x]
            while parent[y] != y:
                y = parent[y]
            if x != y:
                parent[y] = x
                merges += 1
            continue
        edge = p[i], p[i + 1]
        if lab < 0 and rab < 0:
            raise InternalInvariantError(f"path edge {comp.at(edge)} owned by neither side")
        if edge not in comp.steps:
            raise InternalInvariantError(f"interior edge {comp.at(edge)} has a single cell")
        rays += 1
    triangles = left.triangles + right.triangles
    if (triangles - rays) % 2:
        raise InternalInvariantError("dual graph slot count mismatch")
    if merges < len(parent) - 1:  # more than one component: only such pairs pay for this pass
        tri = left.tri_groups | right.tri_groups << off
        components: dict[int, int] = {}
        for x in range(len(parent)):
            root = x
            while parent[root] != root:
                root = parent[root]
            components[root] = components.get(root, 0) | tri >> x & 1
        return "disconnected" if all(components.values()) else "line-component"
    # connected, so a triangle exists: a parallelogram carries two strands of
    # different edge vectors, and strands join only at triangles
    if triangles != rays - 2:
        return "positive-genus"
    return None


# -- enumeration -------------------------------------------------------------------


class TropicalCurve(NamedTuple):
    subdivision: MarkedSubdivision
    motivic: GWElement  # curve_mult of the subdivision

    def to_json(self) -> dict:
        out = self.subdivision.to_json()
        out.update(motivic=self.motivic.to_json(), complex=self.motivic.rank(), welschinger=self.motivic.signature())
        return out


class Enumeration(NamedTuple):
    polygon: LatticePolygon
    curves: list[TropicalCurve]
    dropped: Counter

    def motivic_total(self) -> GWElement:
        total: dict[int, int] = {}
        for c in self.curves:
            _add_into(total, c.motivic)
        return GWElement._of(total)

    def invariants(self) -> "Invariants":
        """Total motivic count with rank N and signature W; see ``_invariants``."""
        return _invariants(self.motivic_total())


def _invariants(total: GWElement) -> "Invariants":
    """``total`` with its rank N and signature W; checks that the total is
    determined by (N, W) as a sum of <1> and <-1> summands."""
    n, w = total.rank(), total.signature()
    if (n + w) % 2:
        raise InternalInvariantError("rank and signature have different parity")
    canonical = GWElement._of({1: (n + w) // 2, -1: (n - w) // 2})
    if total.terms != canonical.terms and not gw_equal(total, canonical):
        raise InternalInvariantError("motivic total is not of hyperbolic-plus-ones shape")
    return Invariants(total, canonical, n, w)


def _pair_loop(poly: LatticePolygon, paths, keep) -> Counter:
    """Drop tallies of ``paths``, id paths of ``poly`` (``_id_paths``), as
    the module docstring says; ``keep(p, kept)`` gets each path ``p`` with a
    pair that ``_pair_reason`` accepts, ``kept`` listing each such left
    summary with its accepted right ones.  The paths share one
    ``_Completer``, and the loop, ``keep`` included, runs with the cyclic
    garbage collector paused.  Logs the ``-v`` lines: the drop tallies, and
    the path count with the summary and count memos' entry counts."""
    with collector_paused():  # collections would only rescan the memo's live summaries
        dropped: Counter = Counter()
        comp = _Completer(poly)
        steps, n_paths = comp.steps, 0
        for p in paths:
            n_paths += 1
            if _heavy_steps(steps, p):  # doomed: no light completion on either side
                n_right, right_ok = _count_path(comp, -1, p), ()
            else:
                root = comp.root(p)
                n_right, right_ok = _light_completions(comp, root, -1)
            if right_ok:
                n_left, left_ok = _light_completions(comp, root, 1)
            else:  # nothing to glue to: the left side is counted only
                n_left, left_ok = n_right and _count_path(comp, 1, p), ()
            heavy = n_left * n_right - len(left_ok) * len(right_ok)
            if heavy:
                dropped["boundary-weight"] += heavy
            kept = []
            for cl in left_ok:
                rights = []
                for cr in right_ok:
                    reason = _pair_reason(comp, p, cl, cr)
                    if reason is None:
                        rights.append(cr)
                    else:
                        dropped[reason] += 1
                if rights:
                    kept.append((cl, rights))
            if kept:
                keep(p, kept)
        if dropped:
            tallies = ", ".join(f"{k}={v}" for k, v in sorted(dropped.items()))
            _log("%s: dropped %d completions (%s)", poly, sum(dropped.values()), tallies)
        entries = (sum(map(len, memo.values())) for memo in (comp.memo, comp.counts))
        _log("%s: completed %d paths with %d summary and %d count memo entries", poly, n_paths, *entries)
        del comp  # free the memos now: still alive when the collector resumes, they would be scanned
        return dropped


def enumerate_curves(poly: LatticePolygon, jobs: int = 1) -> Enumeration:
    """All irreducible rational tropical curves of degree ``poly`` through a
    vertically stretched configuration, in the order of their subdivision
    tuples: one per pair that ``_pair_loop`` keeps, with the product of its
    two sides' multiplicities and its cells in tuple order.  Dropped
    completions are tallied in ``Enumeration.dropped``.  ``jobs`` is ignored:
    the enumeration runs in one process.  On each path, a kept summary's cell
    link is walked and sorted once, and a kept pair merges its two sides'
    cells.  A cell is built once per enumeration, when a kept pair first
    holds it (checked by ``triangle`` or ``parallelogram``)."""
    curves: list[TropicalCurve] = []
    points = poly.lattice_points
    n, rank = len(points), {p: k for k, p in enumerate(sorted(points))}
    keys: dict[tuple[int, ...], int] = {}  # cell ids -> sort key
    built: dict[int, Cell] = {}  # sort key -> cell

    def sorted_keys(side: _Side) -> list[int]:
        # a key's digits: kind (parallelogram first), vertex ranks (a triangle's
        # first again as a fourth), so keys sort as cells do
        out, link = [], side.cells
        while link is not None:
            pts, link = link
            key = keys.get(pts)
            if key is None:
                vs = [points[k] for k in pts]
                cell = triangle(*vs) if len(vs) == 3 else parallelogram(*vs)
                key = reduce(lambda k, v: k * n + rank[v], (cell.vertices * 2)[:4], len(vs) == 3)
                keys[pts], built[key] = key, cell
            out.append(key)
        out.sort()
        return out

    def keep(p, kept) -> None:
        path = tuple(map(points.__getitem__, p))
        right_keys = {id(cr): cr for _, rights in kept for cr in rights}  # each once
        right_keys = {k: sorted_keys(cr) for k, cr in right_keys.items()}
        for cl, rights in kept:
            left_keys = sorted_keys(cl)
            for cr in rights:  # sorting two sorted runs merges them
                cells = tuple(map(built.__getitem__, sorted(left_keys + right_keys[id(cr)])))
                curves.append(TropicalCurve(MarkedSubdivision(path, cells), cl.motivic * cr.motivic))

    dropped = _pair_loop(poly, _id_paths(poly), keep)
    curves.sort(key=attrgetter("subdivision"))  # motivic, a GWElement, has no order
    return Enumeration(poly, curves, dropped)


class Invariants(NamedTuple):
    motivic: GWElement  # raw sum over curves
    canonical: GWElement  # (N+W)/2 <1> + (N-W)/2 <-1>
    n: int
    w: int


def count_invariants(poly: LatticePolygon, jobs: int = 1) -> Invariants:
    """``enumerate_curves(poly).invariants()``, without building the curves:
    the product of each kept pair's two multiplicities goes into one dict.
    It logs the same ``-v`` lines.  ``jobs`` is ignored, as by
    ``enumerate_curves``."""
    total: dict[int, int] = {}

    def add(p, kept) -> None:
        for cl, rights in kept:
            for cr in rights:
                _add_into(total, cl.motivic * cr.motivic)

    _pair_loop(poly, _id_paths(poly), add)
    return _invariants(GWElement._of(total))
