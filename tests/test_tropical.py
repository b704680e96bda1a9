"""Tropical enumeration: vertex multiplicities, paths, completions, curves."""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import random
from collections import Counter
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwcurves.gw import H, ONE, ZERO, DomainError, GWElement, form, gw_equal
from gwcurves.polygon import lattice_length, p2, polygon, preset
from gwcurves.tropical import (
    Cell,
    InternalInvariantError,
    MarkedSubdivision,
    TropicalCurve,
    _Completer,
    _boundary_tables,
    _count_doomed,
    _count_path,
    _heavy_steps,
    _light_completions,
    _orient,
    _pair_loop,
    _pair_reason,
    _peels,
    collector_paused,
    complete_path,
    count_invariants,
    curve_mult,
    enumerate_curves,
    enumerate_paths,
    lambda_key,
    parallelogram,
    triangle,
    validate_subdivision,
    vertex_mult,
)

from oracles import (
    arc_potentials_walk,
    arc_shoelaces_walk,
    convex_hull,
    doomed,
    heavy_boundary,
    motivic_fold,
    par_cycle_search,
    segment_on_boundary_scan,
    strand_walk_reason,
    summary_cells,
    triangle_interior_count,
)


def tri(*pts):
    return triangle(*pts)


def brute_interior(cell: Cell) -> int:
    xs = [v[0] for v in cell.vertices]
    ys = [v[1] for v in cell.vertices]
    a, b, c = cell.vertices
    count = 0
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            p = (x, y)
            s1, s2, s3 = _orient(a, b, p), _orient(b, c, p), _orient(c, a, p)
            if (s1 > 0 and s2 > 0 and s3 > 0) or (s1 < 0 and s2 < 0 and s3 < 0):
                count += 1
    return count


def _ids(comp, path):
    """The point ids of ``path`` in ``comp``, as the pair loop runs on them."""
    return tuple(map(comp.ids.__getitem__, path))


def _root(comp, path):
    return comp.root(_ids(comp, path))


def _without_boundary(monkeypatch):
    """Completers built from now on get an empty table of boundary steps,
    which every boundary lookup reads: the fault of a polygon with no
    boundary at all."""
    from gwcurves import tropical

    tables = tropical._boundary_tables
    monkeypatch.setattr(tropical, "_boundary_tables", lambda poly, ids: (tables(poly, ids)[0], {}))


def _no_heavy_steps(monkeypatch):
    """Let heavy paths and cells through the doomed and heavy-cell prunes."""
    from gwcurves import tropical

    monkeypatch.setattr(tropical, "_heavy_steps", lambda steps, pts: False)


class TestVertexMult:
    def test_unit_triangle(self):
        assert vertex_mult(tri((0, 0), (1, 0), (0, 1))) == ONE

    def test_even_edge(self):
        assert vertex_mult(tri((0, 0), (1, 0), (0, 2))) == H

    def test_odd_edges_area_three(self):
        t = tri((0, 0), (1, 0), (0, 3))
        assert sorted(lattice_length(*side) for side in t.sides()) == [1, 1, 3]
        assert triangle_interior_count(t) == 0
        assert vertex_mult(t) == form(3) + H

    def test_interior_point_flips_sign(self):
        t = tri((0, 0), (3, 0), (0, 3))
        assert triangle_interior_count(t) == 1
        assert vertex_mult(t) == form(-3) + 4 * H

    @pytest.mark.parametrize(
        "corners", [((0, 0), (1, 0), (0, 1)), ((0, 0), (1, 0), (0, 2))], ids=["odd-edges", "even-edge"]
    )
    def test_rank_off_the_area_raises(self, monkeypatch, corners):
        # the formula's one check: its rank is twice the triangle's area
        from gwcurves import tropical

        monkeypatch.setattr(tropical, "form", lambda *args: form(*args) + ONE)
        tropical._shape_mult.cache_clear()
        with pytest.raises(InternalInvariantError, match="rank"):
            vertex_mult(tri(*corners))

    def test_interior_count_matches_brute_scan(self):
        triangles = [
            tri((0, 0), (1, 0), (0, 1)),
            tri((0, 0), (3, 0), (0, 3)),
            tri((0, 0), (2, 1), (1, 2)),
            tri((1, 1), (4, 2), (2, 5)),
            tri((0, 0), (5, 1), (1, 3)),
            tri((0, 0), (2, 0), (1, 3)),
        ]
        for t in triangles:
            assert triangle_interior_count(t) == brute_interior(t)

    def test_degenerate_rejected(self):
        with pytest.raises(InternalInvariantError):
            tri((0, 0), (1, 1), (2, 2))


class TestCurveMult:
    def test_single_unit_triangle(self):
        sub = MarkedSubdivision(((0, 0), (1, 0), (0, 1)), (tri((0, 0), (1, 0), (0, 1)),))
        m = curve_mult(sub)
        assert (m, m.rank(), m.signature()) == (ONE, 1, 1)

    def test_product_with_h_vertex(self):
        cells = (tri((0, 0), (1, 0), (0, 1)), tri((1, 0), (0, 1), (1, 1)), tri((1, 0), (2, 0), (1, 1)))
        # replace one vertex mult by an even-edge triangle elsewhere
        sub = MarkedSubdivision((), (tri((0, 0), (1, 0), (0, 2)),))
        m = curve_mult(sub)
        assert (m, m.rank(), m.signature()) == (H, 2, 0)

    def test_matches_plain_fold(self, quartic_enum):
        # curve_mult skips the factors equal to ONE
        for enum in (quartic_enum, enumerate_curves(SQUARE)):
            for curve in enum.curves:
                assert curve.motivic.terms == motivic_fold(curve.subdivision).terms

    def test_welschinger_zero_with_even_triangle(self):
        sub = MarkedSubdivision((), (tri((0, 0), (1, 0), (0, 2)), tri((0, 0), (1, 0), (0, 3))))
        assert curve_mult(sub).signature() == 0


class TestPaths:
    def test_unit_triangle_single_path(self):
        paths = list(enumerate_paths(p2(1)))
        assert paths == [((0, 0), (1, 0), (0, 1))]

    def test_conic_single_path(self):
        paths = list(enumerate_paths(preset("bl2f1")))
        assert len(paths) == 1
        assert paths[0] == ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2))

    def test_cubic_path_count(self):
        # 10 lattice points, endpoints forced, 8 of the middle 8 points chosen
        assert len(list(enumerate_paths(p2(3)))) == 8

    def test_paths_are_lambda_increasing(self):
        for path in enumerate_paths(preset("blf1")):
            keys = [lambda_key(p) for p in path]
            assert keys == sorted(keys)


def alt_completions(path, side, poly):
    """Independent reimplementation choosing the LAST turning vertex.

    The completion set must not depend on the resolution order.
    """
    from gwcurves.polygon import _area2
    from gwcurves.tropical import parallelogram

    s_left, s_right = arc_shoelaces_walk(poly)
    left, right = -s_left, s_right

    def area2(p):
        s = _area2(p)
        return left + s if side == 1 else right - s

    def rec(p):
        if area2(p) == 0:
            return [frozenset()]
        turns = [
            i
            for i in range(1, len(p) - 1)
            if _orient(p[i - 1], p[i], p[i + 1]) != 0
            and (1 if _orient(p[i - 1], p[i], p[i + 1]) > 0 else -1) == side
        ]
        if not turns:
            return []
        i = turns[-1]
        out = []
        t = triangle(p[i - 1], p[i], p[i + 1])
        for rest in rec(p[:i] + p[i + 1 :]):
            out.append(rest | {t})
        refl = (p[i - 1][0] + p[i + 1][0] - p[i][0], p[i - 1][1] + p[i + 1][1] - p[i][1])
        if refl in poly.lattice_points:
            par = parallelogram(p[i - 1], p[i], p[i + 1], refl)
            for rest in rec(p[:i] + (refl,) + p[i + 1 :]):
                out.append(rest | {par})
        return out

    return rec(tuple(path))


class TestCompletions:
    def test_boundary_hugging_base_case(self):
        poly = preset("bl2f1")
        hug = ((0, 0), (1, 0), (2, 0), (1, 1), (0, 2))
        assert complete_path(hug, -1, poly) == [()]

    def test_dead_end_gives_nothing(self):
        poly = p2(2)
        # path hugging the left boundary: the right side has area but the
        # path never turns right
        hug = ((0, 0), (0, 1), (0, 2))
        assert complete_path(hug, 1, poly) == [()]
        assert complete_path(hug, -1, poly) == []

    def test_conic_completions(self):
        poly = preset("bl2f1")
        (path,) = enumerate_paths(poly)
        left = complete_path(path, 1, poly)
        right = complete_path(path, -1, poly)
        assert len(left) == 1 and len(right) == 1
        assert len(left[0]) == 3 and len(right[0]) == 1

    def test_order_independence_conic(self):
        # at conic scale the completion sets themselves agree
        poly = preset("bl2f1")
        for path in enumerate_paths(poly):
            for side in (1, -1):
                ours = {frozenset(cells) for cells in complete_path(path, side, poly)}
                alt = set(map(frozenset, alt_completions(path, side, poly)))
                assert ours == alt

    def test_order_independence_cubic_totals(self):
        # At cubic scale the raw completion sets differ between resolution
        # orders (path (0,0),(1,0),(2,0),(3,0),(0,1),(1,1),(2,1),(1,2),(0,3),
        # left side, is a counterexample), but the enumeration they induce is
        # the same size with the same multiplicities and the same drops.
        poly = p2(3)
        total_least, total_alt = [], []
        drops_least = drops_alt = 0
        for path in enumerate_paths(poly):
            for make, totals, is_alt in (
                (complete_path, total_least, False),
                (alt_completions, total_alt, True),
            ):
                for cl in make(path, 1, poly):
                    for cr in make(path, -1, poly):
                        cells = tuple(sorted(tuple(cl) + tuple(cr)))
                        sub = MarkedSubdivision(tuple(path), cells)
                        if validate_subdivision(sub, poly) is None:
                            totals.append(curve_mult(sub))
                        elif is_alt:
                            drops_alt += 1
                        else:
                            drops_least += 1
        assert len(total_least) == len(total_alt) == 9
        assert drops_least == drops_alt == 6
        s1 = s2 = form(1) - form(1)
        for m in total_least:
            s1 = s1 + m
        for m in total_alt:
            s2 = s2 + m
        assert gw_equal(s1, s2)

    def test_completion_sets_are_distinct(self):
        for poly in [preset("bl2f1"), p2(3), preset("blf1")]:
            for path in enumerate_paths(poly):
                for side in (1, -1):
                    sets = [frozenset(c) for c in complete_path(path, side, poly)]
                    assert len(sets) == len(set(sets))


class TestEnumerate:
    def test_line(self):
        enum = enumerate_curves(p2(1))
        assert len(enum.curves) == 1
        m = enum.curves[0].motivic
        assert (m, m.rank(), m.signature()) == (ONE, 1, 1)
        assert not enum.dropped

    def test_conic(self):
        enum = enumerate_curves(preset("bl2f1"))
        assert len(enum.curves) == 1
        assert enum.curves[0].motivic.rank() == 1

    def test_cubic_totals(self):
        inv = count_invariants(p2(3))
        assert (inv.n, inv.w) == (12, 8)
        assert gw_equal(inv.motivic, 2 * H + 8 * ONE)

    def test_cubic_drops_are_surfaced(self):
        # Completions with weight >= 2 boundary edges are genuine products of
        # the path recursion; they correspond to non-rational or tangent
        # curves and must be dropped for the counts to be right.
        enum = enumerate_curves(p2(3))
        assert dict(enum.dropped) == {"boundary-weight": 6}

    @pytest.mark.parametrize("reason", ["boundary-weight", "disconnected"])
    def test_quartic_total_needs_the_filter(self, quartic_enum, monkeypatch, reason):
        # README: the totals are provably wrong without the filter.  Keep the
        # candidates dropped for one reason and the rank leaves N = 620.
        from gwcurves import tropical

        assert reason in quartic_enum.dropped
        assert quartic_enum.motivic_total().rank() == 620
        pair_reason = tropical._pair_reason

        def keep_reason(comp, p, left, right):
            poly = comp.poly
            if reason == "boundary-weight":
                # keep the pairs with a heavy end, which the pair reason refuses as a broken T = B - 2
                if heavy_boundary(summary_cells(left, poly) + summary_cells(right, poly), poly):
                    return None
            got = pair_reason(comp, p, left, right)
            return None if got == reason else got

        monkeypatch.setattr(tropical, "_pair_reason", keep_reason)
        if reason == "boundary-weight":
            # the heavy-peel and doomed-path prunes drop these before gluing;
            # let them through
            _no_heavy_steps(monkeypatch)
        enum = enumerate_curves(p2(4))
        assert reason not in enum.dropped
        assert enum.motivic_total().rank() != 620

    def test_every_emitted_curve_revalidates(self):
        for name in ["p2:3", "blf1"]:
            enum = enumerate_curves(preset(name) if name != "p2:3" else p2(3))
            for curve in enum.curves:
                assert validate_subdivision(curve.subdivision, enum.polygon) is None

    def test_rank_factorization_per_curve(self):
        enum = enumerate_curves(preset("f1_4_2e"))
        for curve in enum.curves:
            prod = 1
            for t in curve.subdivision.triangles():
                prod *= t.area2()
            assert curve.motivic.rank() == prod

    def test_signature_rule_per_curve(self):
        enum = enumerate_curves(p2(3))
        for curve in enum.curves:
            tris = curve.subdivision.triangles()
            if any(lattice_length(*side) % 2 == 0 for t in tris for side in t.sides()):
                assert curve.motivic.signature() == 0
            else:
                want = 1
                for t in tris:
                    if triangle_interior_count(t) % 2:
                        want = -want
                assert curve.motivic.signature() == want

    def test_tiling_accounting(self):
        enum = enumerate_curves(preset("blf1"))
        for curve in enum.curves:
            assert sum(c.area2() for c in curve.subdivision.cells) == enum.polygon.area2

    def test_blowup_invariants(self):
        inv = count_invariants(preset("blf1"))
        assert (inv.n, inv.w) == (12, 8)
        inv = count_invariants(preset("f1_4_2e"))
        assert (inv.n, inv.w) == (96, 48)
        assert gw_equal(inv.motivic, 24 * H + 48 * ONE)

    def test_tiling_without_triangle_is_a_line_component(self):
        square = polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        cell = parallelogram((0, 0), (1, 0), (1, 1), (0, 1))
        sub = MarkedSubdivision(((0, 0), (1, 0), (1, 1)), (cell,))
        assert validate_subdivision(sub, square) == "line-component"

    def test_smooth_cubic_has_positive_genus(self):
        # the 9 unit triangles of p2:3: a smooth cubic, genus 1
        corners = [(i, j) for i in range(3) for j in range(3 - i)]
        cells = [triangle((i, j), (i + 1, j), (i, j + 1)) for i, j in corners]
        cells += [triangle((i + 1, j), (i, j + 1), (i + 1, j + 1)) for i, j in corners if i + j < 2]
        sub = MarkedSubdivision(next(enumerate_paths(p2(3))), tuple(sorted(cells)))
        assert validate_subdivision(sub, p2(3)) == "positive-genus"
        assert strand_walk_reason(sub.cells) == "positive-genus"

    def test_doomed_paths_are_logged(self, caplog):
        with caplog.at_level("INFO", logger="gwcurves.tropical"):
            enumerate_curves(p2(3))
        assert "completed 8 paths with 30 summary and 19 count memo entries" in caplog.text

    def test_no_count_carries_over_between_polygons(self):
        # Each pair shares coordinates but not areas.  A completion memo that
        # outlived one enumeration hands quad the tilings of tri (they do not
        # tile it), and tri then 0 curves instead of 1; blf1 and f1_4_2e
        # happen to survive one.
        polys = {
            "blf1": preset("blf1"),
            "f1_4_2e": preset("f1_4_2e"),
            "tri": polygon([(2, 0), (4, 3), (2, 2)]),
            "quad": polygon([(0, 2), (2, 0), (3, 0), (4, 3)]),
        }
        fresh = {name: _glue_everything(poly) for name, poly in polys.items()}
        for name in ("blf1", "f1_4_2e", "blf1", "tri", "quad", "tri"):
            enum = enumerate_curves(polys[name])
            curves, dropped = fresh[name]
            assert _digest(enum.curves) == _digest(curves), name
            assert dict(enum.dropped) == dropped, name


class TestQuartic:
    def test_invariants(self, quartic_enum):
        inv = quartic_enum.invariants()
        assert (inv.n, inv.w) == (620, 240)
        assert gw_equal(inv.motivic, 190 * H + 240 * ONE)

    def test_per_curve_structure(self, quartic_enum):
        for curve in quartic_enum.curves:
            prod = 1
            for t in curve.subdivision.triangles():
                prod *= t.area2()
            assert curve.motivic.rank() == prod

    def test_curves_sorted_canonically(self, quartic_enum):
        keys = [c.subdivision for c in quartic_enum.curves]
        assert keys == sorted(keys)


def _digest(curves):
    return hashlib.sha256(json.dumps([c.to_json() for c in curves]).encode()).hexdigest()


def _glue_everything(poly):
    """The enumeration from public functions, without the per-side filter:
    every pair of completions is glued and validated."""

    def cell_key(cell):
        return (cell.kind, cell.vertices)

    curves = []
    dropped = {}
    for path in enumerate_paths(poly):
        for cl in complete_path(path, 1, poly):
            for cr in complete_path(path, -1, poly):
                sub = MarkedSubdivision(tuple(path), tuple(sorted(cl + cr, key=cell_key)))
                reason = validate_subdivision(sub, poly)
                if reason is None:
                    curves.append(TropicalCurve(sub, curve_mult(sub)))
                else:
                    dropped[reason] = dropped.get(reason, 0) + 1
    curves.sort(key=lambda c: (c.subdivision.path, tuple(map(cell_key, c.subdivision.cells))))
    return curves, dropped


SQUARE = polygon([(0, 0), (3, 0), (3, 3), (0, 3)])


@pytest.mark.parametrize(
    "poly",
    [
        p2(3),
        p2(4),
        preset("blf1"),
        preset("bl2f1"),
        preset("f1_4_2e"),
        polygon([(5, -1), (9, -1), (13, 3)]),  # p2:4 under (x + 2y + 5, y - 1)
        SQUARE,  # 700 of its 1001 paths doomed; drops 7370/165/308
    ],
    ids=str,
)
def test_pruned_enumeration_matches_glue_everything(poly):
    curves, dropped = _glue_everything(poly)
    enum = enumerate_curves(poly)
    got, want = ([c.to_json() for c in cs] for cs in (enum.curves, curves))
    assert json.dumps(got) == json.dumps(want)
    assert dict(enum.dropped) == dropped


def _random_hulls(count, seed=5, size=4, budget=11):
    """Seeded lattice hulls in [0, size]^2 with point budget at most ``budget``."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randrange(3, 7)
        pts = [(rng.randrange(size + 1), rng.randrange(size + 1)) for _ in range(n)]
        try:
            q = convex_hull(pts)
        except DomainError:  # fewer than 3 distinct points, or all collinear
            continue
        if q.point_budget() <= budget:
            out.append(q)
    return out


HULLS = [
    p2(3),
    p2(4),
    preset("blf1"),
    preset("bl2f1"),
    preset("f1_4_2e"),
    SQUARE,
    polygon([(5, -1), (9, -1), (13, 3)]),  # p2:4 under (x + 2y + 5, y - 1)
] + _random_hulls(24)


@pytest.mark.parametrize("poly", HULLS, ids=str)
def test_count_matches_complete_path(poly):
    comp = _Completer(poly)  # shared by all paths of the polygon, as in an enumeration
    for path in enumerate_paths(poly):
        edges = {tuple(sorted(e)) for e in zip(path, path[1:])}
        for side in (1, -1):
            full = complete_path(path, side, poly)
            light = [c for c in full if not heavy_boundary(c, poly)]
            n, sides = _light_completions(comp, _root(comp, path), side)
            cells = [summary_cells(s, poly) for s in sides]
            assert (n, cells) == (len(full), light)
            # the group count is the ray count: sides one cell owns, off the path
            owners = [Counter(e for cell in cs for e in cell.sides()) for cs in cells]
            rays = [sum(k == 1 and e not in edges for e, k in o.items()) for o in owners]
            assert [s.groups for s in sides] == rays


def test_complete_path_refuses_a_point_off_the_polygon():
    with pytest.raises(ValueError, match="leaves the lattice points"):
        complete_path(((0, 0), (5, 5), (0, 3)), 1, p2(3))


def _factorized_counts_match_complete_path(poly) -> tuple[int, int]:
    """The count of every path and side, from one completer shared by all
    paths (as in an enumeration) and from a fresh one per path, against
    ``complete_path``, which peels the whole path without factorizing.
    Returns the shared count memos' size, over both sides, and the fresh
    ones' total."""
    shared, fresh_entries = _Completer(poly), 0
    for path in enumerate_paths(poly):
        for side in (1, -1):
            want = len(complete_path(path, side, poly))
            fresh = _Completer(poly)
            for comp in (shared, fresh):
                assert _count_path(comp, side, _ids(comp, path)) == want, (path, side)
            fresh_entries += _entries(fresh.counts)
    return _entries(shared.counts), fresh_entries


def _entries(memos) -> int:
    """The entry count of a completer's per-side memos, both sides."""
    return sum(map(len, memos.values()))


@pytest.mark.parametrize("poly", HULLS, ids=str)
def test_revisited_count_only_nodes_match_a_fresh_memo(poly):
    # with more than one path, later paths reach count memo entries that
    # earlier paths made
    shared_entries, fresh_entries = _factorized_counts_match_complete_path(poly)
    assert shared_entries < fresh_entries or len(list(enumerate_paths(poly))) == 1


_hull_points = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=3, max_size=6)
_hull_moves = (st.integers(-3, 3), st.booleans(), st.tuples(st.integers(-9, 9), st.integers(-9, 9)))


def _moved_hull(points, k, horizontal, shift):
    """The hull of ``points`` sheared by ``k`` and translated by ``shift``,
    thin when the points are nearly collinear; None if it has no area."""
    moved = [(x + k * y, y) if horizontal else (x, y + k * x) for x, y in points]
    try:
        return convex_hull([(x + shift[0], y + shift[1]) for x, y in moved])
    except DomainError:  # fewer than 3 distinct points, or all collinear
        return None


@settings(max_examples=40, deadline=None)
@given(_hull_points, *_hull_moves)
def test_factorized_count_matches_complete_path_on_random_hulls(points, k, horizontal, shift):
    poly = _moved_hull(points, k, horizontal, shift)
    if poly is not None and poly.point_budget() <= 9:
        _factorized_counts_match_complete_path(poly)


def test_doomed_paths_are_counted_only(caplog):
    # a doomed path's counts come from the factorized count; no summary is
    # built, so the summary memo stays empty
    poly = p2(4)
    paths = list(enumerate_paths(poly))
    doomed_paths = [path for path in paths if doomed(path, poly)]
    assert len(paths) == 286 and len(doomed_paths) == 163

    def refuse(*args):
        raise AssertionError("kept a doomed pair")

    heavy = sum(len(complete_path(path, 1, poly)) * len(complete_path(path, -1, poly)) for path in doomed_paths)
    comp = _Completer(poly)
    ids = [_ids(comp, path) for path in doomed_paths]
    with caplog.at_level("INFO", logger="gwcurves.tropical"):
        assert _pair_loop(poly, ids, refuse) == ({"boundary-weight": heavy}, ZERO)
    assert "completed 163 paths with 0 summary and " in caplog.text
    caplog.clear()
    with caplog.at_level("INFO", logger="gwcurves.tropical"):
        enumerate_curves(poly)  # the other paths build summaries
    assert "completed 286 paths with 546 summary and " in caplog.text


def _one_pass_counts_match_two_counts(poly) -> tuple[int, int]:
    """For each doomed path of ``poly``: ``_count_doomed`` against
    ``complete_path`` on both sides, and the count memos it leaves against
    those of the two ``_count_path`` calls it stands for, on a fresh
    completer per path and on one shared by all of them.  Returns how many
    doomed paths have a right count of 0, which leaves the left side
    uncounted, and how many have a left count of 0 but not a right one."""
    shared, shared_ref, zero_right, zero_left = _Completer(poly), _Completer(poly), 0, 0
    for path in enumerate_paths(poly):
        if not doomed(path, poly):
            continue
        n_left, n_right = (len(complete_path(path, side, poly)) for side in (1, -1))
        want = (n_right and n_left, n_right)
        zero_right += not n_right
        zero_left += n_right > 0 and not n_left
        for comp, ref in ((_Completer(poly), _Completer(poly)), (shared, shared_ref)):
            p = _ids(comp, path)
            assert _count_doomed(comp, p) == want, path
            if _count_path(ref, -1, p):
                _count_path(ref, 1, p)
            assert comp.counts == ref.counts, path
    return zero_right, zero_left


@pytest.mark.parametrize("poly", HULLS, ids=str)
def test_one_pass_count_matches_two_counts(poly):
    zeros = _one_pass_counts_match_two_counts(poly)
    if poly is SQUARE:  # 6 paths whose left pieces are never counted, 6 with a left piece of count 0
        assert zeros == (6, 6)


@settings(max_examples=40, deadline=None)
@given(_hull_points, *_hull_moves)
def test_one_pass_count_matches_two_counts_on_random_hulls(points, k, horizontal, shift):
    poly = _moved_hull(points, k, horizontal, shift)
    if poly is not None and poly.point_budget() <= 9:
        _one_pass_counts_match_two_counts(poly)


def _hinted_peels_match_a_full_scan(poly) -> int:
    """Each ``_peels`` call of ``enumerate_curves(poly)`` with a hint (a
    start past vertex 1), which both the summaries and the count make,
    against the same call scanning from vertex 1.  Returns their number."""
    from gwcurves import tropical

    peels, hinted = tropical._peels, []

    def spy(p, side, comp, start=1):
        if start > 1:
            hinted.append((p, side, comp, start))
        return peels(p, side, comp, start)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tropical, "_peels", spy)
        enumerate_curves(poly)
    for p, side, comp, start in hinted:
        assert _peels(p, side, comp, start) == _peels(p, side, comp), (comp.at(p), side, start)
    return len(hinted)


@pytest.mark.parametrize("poly", HULLS, ids=str)
def test_peel_hint_matches_a_scan_from_vertex_one(poly):
    # a peel at vertex i leaves vertices 1 .. i-2 their neighbours, where
    # the parent did not turn toward the side: its child scans from i - 1;
    # every hull here with a budget over 5 takes the hint somewhere
    assert _hinted_peels_match_a_full_scan(poly) or poly.point_budget() <= 5


@settings(max_examples=40, deadline=None)
@given(_hull_points, *_hull_moves)
def test_peel_hint_matches_a_scan_from_vertex_one_on_random_hulls(points, k, horizontal, shift):
    poly = _moved_hull(points, k, horizontal, shift)
    if poly is not None and poly.point_budget() <= 9:
        _hinted_peels_match_a_full_scan(poly)


def _kept_curves(poly, paths):
    """The curves that ``_pair_loop`` keeps over ``paths`` of ``poly``, as
    ``enumerate_curves`` builds them, and the loop's drop tallies and total.
    Each product the loop hands over must be its two sides' product."""
    curves, comp = [], _Completer(poly)

    def keep(p, kept):
        path = tuple(comp.points[k] for k in p)
        for left, right, motivic in kept:
            assert motivic == left.motivic * right.motivic, comp.at(p)
            cells = tuple(sorted(summary_cells(left, poly) + summary_cells(right, poly)))
            curves.append(TropicalCurve(MarkedSubdivision(path, cells), motivic))

    return (curves, *_pair_loop(poly, [_ids(comp, path) for path in paths], keep))


@pytest.mark.parametrize("poly", HULLS, ids=str)
def test_two_batches_give_the_curves_of_one(poly):
    # the memo-sharing oracle: no count or summary may depend on which paths
    # share a completer
    paths = list(enumerate_paths(poly))
    curves, dropped, total = _kept_curves(poly, paths)
    split, split_dropped, split_total = [], Counter(), ZERO
    for half in (paths[0::2], paths[1::2]):
        cs, dr, tot = _kept_curves(poly, half)
        split += cs
        split_dropped.update(dr)
        split_total += tot
    by_subdivision = attrgetter("subdivision")
    assert _digest(sorted(split, key=by_subdivision)) == _digest(sorted(curves, key=by_subdivision))
    assert split_dropped == dropped
    assert split_total.terms == total.terms == enumerate_curves(poly).motivic_total().terms


@pytest.mark.parametrize("poly", HULLS, ids=str)
def test_curves_come_in_subdivision_order(poly):
    # the curves of each path are sorted by their cell keys, and the paths by
    # their points: no sort of all the curves pins the order
    curves, _, _ = _kept_curves(poly, list(enumerate_paths(poly)))
    assert enumerate_curves(poly).curves == sorted(curves, key=attrgetter("subdivision"))


@pytest.mark.slow
def test_two_batches_give_the_quintic_curves():
    # the oracle above on the largest polygon, against the bytes of one
    # enumeration: the most cells shared between the two sides' peels
    from test_acceptance import QUINTIC_SHA256

    poly = p2(5)
    paths = list(enumerate_paths(poly))
    split, split_dropped, split_total = [], Counter(), ZERO
    for half in (paths[0::2], paths[1::2]):
        cs, dr, tot = _kept_curves(poly, half)
        split += cs
        split_dropped.update(dr)
        split_total += tot
    split.sort(key=attrgetter("subdivision"))
    assert split_total.terms == count_invariants(poly).motivic.terms
    with collector_paused():  # the curves' JSON dicts stay live until encoded
        curve_bytes = json.dumps([c.to_json() for c in split], sort_keys=True)
    assert hashlib.sha256(curve_bytes.encode()).hexdigest() == QUINTIC_SHA256
    assert split_dropped == {"boundary-weight": 761180, "disconnected": 12740}


@pytest.mark.parametrize("poly", [p2(4), SQUARE], ids=str)
def test_each_cell_is_built_once_per_batch(poly, monkeypatch):
    from gwcurves import tropical

    built, make = [], tropical.Cell
    monkeypatch.setattr(tropical, "Cell", lambda *args: built.append(make(*args)) or built[-1])
    curves = enumerate_curves(poly).curves
    assert len(built) == len(set(built))
    assert set(built) == {cell for curve in curves for cell in curve.subdivision.cells}


@pytest.mark.parametrize(
    "poly, entries", [pytest.param(p, e, id=str(p)) for p, e in ((p2(4), (546, 208)), (SQUARE, (1440, 531)))]
)
def test_memo_entries_are_logged(poly, entries, caplog):
    # the count logs the same line: test_count_logs_the_lines_of_the_enumeration
    with caplog.at_level("INFO", logger="gwcurves.tropical"):
        enumerate_curves(poly)
    assert "with %d summary and %d count memo entries" % entries in caplog.text


@pytest.mark.parametrize("poly", [p2(3), p2(4), SQUARE, preset("f1_4_2e"), preset("blf1")], ids=str)
def test_count_memo_keeps_arc_pieces_only(poly, monkeypatch):
    # a whole path's count is a product over its pieces, returned and not
    # kept: every key of the count memo runs from the side's arc to the arc,
    # off it in between or, for a run of area 0, along it
    from gwcurves import tropical

    made = []

    class Recording(tropical._Completer):
        def __init__(self, poly):
            super().__init__(poly)
            made.append(self)

    monkeypatch.setattr(tropical, "_Completer", Recording)
    enumerate_curves(poly)
    (comp,) = made
    assert comp.counts[1] and comp.counts[-1]
    for side in (1, -1):
        on_arc = comp.arc[side]
        for key in comp.counts[side]:
            where = side, comp.at(key)
            assert on_arc[key[0]] is not None and on_arc[key[-1]] is not None, where
            inner = {on_arc[k] is not None for k in key[1:-1]}
            assert inner <= {False} or all(step in comp.steps for step in zip(key, key[1:])), where


TRAPEZOID = polygon([(0, 0), (5, 0), (2, 3), (0, 3)])  # the F1 trapezoid: 6 334 curves


def test_trapezoid_curves_are_pinned():
    # below p2:5, the polygon with the deepest cell links and all three drop kinds
    enum = enumerate_curves(TRAPEZOID)
    assert _digest(enum.curves) == "1fa17588873c5e7db979c7bb884ef31c08f82aec225d7fa966acbaff65d6d7e7"
    assert enum.dropped == {"boundary-weight": 58614, "line-component": 1416, "disconnected": 1419}


@pytest.mark.parametrize("poly", [p2(1), p2(2), TRAPEZOID] + HULLS, ids=str)
def test_count_equals_the_enumeration(poly):
    # HULLS hold the other presets and the square; p2:5 is in criterion 10.
    # Invariants compare field for field: raw motivic, canonical, N and W.
    assert count_invariants(poly) == enumerate_curves(poly).invariants()


@pytest.mark.parametrize("poly", [p2(4), SQUARE], ids=str)
def test_count_builds_no_curve(poly, monkeypatch):
    from gwcurves import tropical

    want = enumerate_curves(poly).invariants()

    def refuse(*args):
        raise AssertionError("built a curve")

    for name in ("TropicalCurve", "MarkedSubdivision"):
        monkeypatch.setattr(tropical, name, refuse)
    assert count_invariants(poly) == want
    # the names that refuse are the ones the enumeration builds from, with tuple.__new__
    with pytest.raises(TypeError, match=r"tuple.__new__\(X\): X is not a type object \(function\)"):
        enumerate_curves(poly)


@pytest.mark.parametrize("poly", [p2(4), SQUARE], ids=str)
def test_count_makes_no_more_products_than_the_enumeration(poly):
    # the pair loop forms a kept pair's product once per pair of factors, for
    # both; a count that multiplied each kept pair afresh made 923 products
    # against the enumeration's 631 on p2:4, and 3 474 against 2 084 on the square
    mul = GWElement.__mul__

    def products(run) -> int:
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(GWElement, "__mul__", lambda a, b: calls.append(b) or mul(a, b))
            run(poly)
        return len(calls)

    count = products(count_invariants)
    assert 0 < count <= products(enumerate_curves)


@pytest.mark.parametrize("poly", [p2(1), p2(2)] + HULLS, ids=str)
def test_count_builds_no_cell(poly, monkeypatch):
    # every Cell is built through tropical.Cell: triangle and parallelogram call it
    from gwcurves import tropical

    built, make = [], tropical.Cell
    monkeypatch.setattr(tropical, "Cell", lambda *args: built.append(make(*args)) or built[-1])
    count_invariants(poly)
    assert built == []
    enum = enumerate_curves(poly)  # the spy sees the cells the enumeration builds
    assert len(built) == len({cell for curve in enum.curves for cell in curve.subdivision.cells})


def _formula_mult(cell):
    """The vertex multiplicity of the module docstring, with the interior
    points from the box scan."""
    a, b, c = cell.vertices
    lengths = lattice_length(a, b), lattice_length(a, c), lattice_length(b, c)
    a2 = abs(_orient(a, b, c))
    if all(n % 2 for n in lengths):
        return form((-1) ** brute_interior(cell) * lengths[0] * lengths[1] * lengths[2]) + (a2 - 1) // 2 * H
    return a2 // 2 * H


@pytest.mark.parametrize("poly", HULLS, ids=str)
def test_cell_table_multiplicity_is_vertex_mult(poly):
    # the cell table and vertex_mult read one cache keyed by shape; both
    # must give the formula on every triangle a completion peels
    triangles = {
        cell
        for path in enumerate_paths(poly)
        for side in (1, -1)
        for cells in complete_path(path, side, poly)
        for cell in cells
        if cell.kind == "triangle"
    }
    comp = _Completer(poly)
    for cell in triangles:
        heavy, pts, mult = comp.cell(tuple(sorted(map(comp.ids.__getitem__, cell.vertices))))
        m = vertex_mult(cell)
        assert m == _formula_mult(cell), cell
        if heavy:
            assert mult is None and heavy_boundary((cell,), poly), cell
        else:
            assert mult == m, cell


SHAPE_PRESETS = [p2(2), p2(3), preset("blf1"), preset("bl2f1"), preset("f1_4_2e")]
#: 2h + 3<1>: unlike the presets, no map of determinant +1 takes it onto its mirror image
CHIRAL = polygon([(0, 0), (3, 0), (1, 2)])


def _image(poly, matrix, shift):
    (a, b), (c, d) = matrix
    return polygon([(a * x + b * y + shift[0], c * x + d * y + shift[1]) for x, y in poly.vertices])


@pytest.mark.parametrize("poly", SHAPE_PRESETS, ids=str)
def test_translated_copies_count_alike(poly):
    # a translation keeps the lambda order, so every path, cell and drop
    # has its copy; the shape cache must give each copy the same factor
    want, dropped = count_invariants(poly), enumerate_curves(poly).dropped
    rng = random.Random(21)
    for _ in range(2):
        moved = _image(poly, ((1, 0), (0, 1)), (rng.randint(-40, 40), rng.randint(-40, 40)))
        assert count_invariants(moved) == want, moved
        assert enumerate_curves(moved).dropped == dropped, moved


@pytest.mark.parametrize("poly", SHAPE_PRESETS + [CHIRAL], ids=str)
def test_sheared_copies_count_alike(poly):
    # a shear changes the paths and the cells, not the curves counted; nor do
    # the swap and the mirror, of determinant -1, which wallcross's base-count
    # cache takes for granted when it keys a count by the normal form
    want = count_invariants(poly)
    rng = random.Random(22)

    def check(matrix):
        inv = count_invariants(_image(poly, matrix, (rng.randint(-5, 5), rng.randint(-5, 5))))
        assert (inv.n, inv.w, inv.canonical) == (want.n, want.w, want.canonical), matrix

    for _ in range(2):
        k = rng.choice([-2, -1, 1, 2])
        check(((1, k), (0, 1)) if rng.random() < 0.5 else ((1, 0), (k, 1)))
    check(((0, 1), (1, 0)))
    check(((-1, 0), (0, 1)))


PINNED_DROPS = {
    "p2:4": "1377 completions (boundary-weight=1322, disconnected=55)",
    "square": "7843 completions (boundary-weight=7370, disconnected=165, line-component=308)",
}


def _name(poly) -> str:
    return {str(p2(4)): "p2:4", str(SQUARE): "square"}.get(str(poly), str(poly))


@pytest.mark.parametrize("poly", HULLS + [polygon([(0, 0), (4, 0), (4, 2), (0, 2)]), TRAPEZOID], ids=_name)
def test_count_logs_the_lines_of_the_enumeration(poly, caplog):
    # the count counts a left side without summaries where the right side has
    # no light completion, and multiplies each left summary by the sum of its
    # kept right partners: term for term it must give the enumeration's total
    logs, outs = [], []
    for run in (count_invariants, enumerate_curves):
        caplog.clear()
        with caplog.at_level("INFO", logger="gwcurves.tropical"):
            outs.append(run(poly))
        logs.append(caplog.messages)
    inv, enum = outs
    assert inv.motivic.terms == enum.motivic_total().terms
    assert logs[0] == logs[1]
    drops = ", ".join(f"{k}={v}" for k, v in sorted(enum.dropped.items()))
    drops = f"{sum(enum.dropped.values())} completions ({drops})"
    assert drops == PINNED_DROPS.get(_name(poly), drops)
    assert logs[0][:-1] == ([f"{poly}: dropped {drops}"] if enum.dropped else [])


@pytest.mark.parametrize("poly", HULLS, ids=str)
def test_doomed_test_matches_boundary_steps(poly):
    comp = _Completer(poly)
    for path in enumerate_paths(poly):
        assert _heavy_steps(comp.steps, _ids(comp, path)) == doomed(path, poly), path


@pytest.mark.parametrize("poly", HULLS, ids=str)
def test_boundary_steps_match_edge_scan(poly):
    # the completer's table of steps by point id, from its boundary walk;
    # distinct points only: a single point is no step
    comp = _Completer(poly)
    for a, b in itertools.permutations(poly.lattice_points, 2):
        want = lattice_length(a, b) != 1 if segment_on_boundary_scan(poly, a, b) else None
        assert comp.steps.get(_ids(comp, (a, b))) == want, (a, b)


@pytest.mark.parametrize("poly", HULLS, ids=str)
def test_doomed_paths_have_no_light_pair(poly):
    for path in enumerate_paths(poly):
        if not doomed(path, poly):
            continue
        light = [
            [c for c in complete_path(path, side, poly) if not heavy_boundary(c, poly)]
            for side in (1, -1)
        ]
        assert not light[0] or not light[1], path


@pytest.mark.parametrize("poly", HULLS, ids=str)
def test_contains_matches_half_planes(poly):
    xs = [v[0] for v in poly.vertices]
    ys = [v[1] for v in poly.vertices]
    points = set(poly.lattice_points)
    for x in range(min(xs) - 1, max(xs) + 2):
        for y in range(min(ys) - 1, max(ys) + 2):
            inside = all(_orient(a, b, (x, y)) >= 0 for a, b in poly.edges)
            assert ((x, y) in points) == inside, (x, y)


@pytest.mark.parametrize("poly", HULLS, ids=str)
def test_lattice_points_match_box_scan(poly):
    # the row scan runs along the shorter side: the columns of a tall hull
    xs = [v[0] for v in poly.vertices]
    ys = [v[1] for v in poly.vertices]
    box = tuple(
        (x, y)
        for y in range(min(ys), max(ys) + 1)
        for x in range(min(xs), max(xs) + 1)
        if all(_orient(a, b, (x, y)) >= 0 for a, b in poly.edges)
    )
    assert poly.lattice_points == box


@pytest.mark.parametrize("poly", HULLS, ids=str)
def test_arc_areas_match_boundary_walk(poly):
    from gwcurves.polygon import _area2

    comp = _Completer(poly)
    walks = arc_potentials_walk(poly)
    for side, pot in _boundary_tables(poly, comp.ids)[0].items():
        assert {comp.points[k]: v for k, v in enumerate(pot) if v is not None} == walks[side], side
    # the left arc runs clockwise, so its closed shoelace sum is minus its
    # area; a path with closed shoelace sum s adds s to the left and takes
    # it from the right
    s_left, s_right = arc_shoelaces_walk(poly)
    for path in enumerate_paths(poly):
        s = _area2(path)
        assert _root(comp, path)[1] == {1: -s_left + s, -1: s_right - s}, path


def test_parallelogram_cycle_matches_search():
    rng = random.Random(11)
    seen = 0
    while seen < 60:
        p, u, v = ((rng.randrange(-4, 5), rng.randrange(-4, 5)) for _ in range(3))
        if _orient((0, 0), u, v) == 0:
            continue
        seen += 1
        pts = [p, (p[0] + u[0], p[1] + u[1]), (p[0] + v[0], p[1] + v[1])]
        pts.append((pts[1][0] + v[0], pts[1][1] + v[1]))
        want = par_cycle_search(tuple(sorted(pts)))
        assert want is not None
        for order in itertools.permutations(pts):
            assert parallelogram(*order).cycle == want


def test_sides_and_area_follow_the_cycle():
    # sides() and area2() read the sorted vertices; the cycle is the reference
    rng = random.Random(12)
    seen = 0
    while seen < 60:
        p, u, v = ((rng.randrange(-4, 5), rng.randrange(-4, 5)) for _ in range(3))
        if _orient((0, 0), u, v) == 0:
            continue
        seen += 1
        q, r = (p[0] + u[0], p[1] + u[1]), (p[0] + v[0], p[1] + v[1])
        for cell in (triangle(p, q, r), parallelogram(p, q, r, (q[0] + v[0], q[1] + v[1]))):
            cycle = cell.cycle
            assert cell.sides() == tuple(tuple(sorted((cycle[i - 1], cycle[i]))) for i in range(len(cycle)))
            assert cell.area2() == abs(sum(a[0] * b[1] - b[0] * a[1] for a, b in zip(cycle, cycle[1:] + cycle[:1])))


@pytest.mark.parametrize(
    "pts",
    [
        ((0, 0), (1, 0), (2, 0), (3, 0)),  # collinear, p + s == q + r
        ((0, 0), (1, 0), (0, 1), (2, 2)),  # a quadrilateral, not a parallelogram
    ],
)
def test_parallelogram_rejects_what_the_search_rejects(pts):
    assert par_cycle_search(tuple(sorted(pts))) is None
    with pytest.raises(InternalInvariantError):
        parallelogram(*pts)


@pytest.mark.parametrize(
    "pts",
    [
        ((0, 0), (1, 0), (2, 0)),  # a flat triangle
        ((0, 0), (1, 0), (2, 0), (3, 0)),
        ((0, 0), (1, 0), (0, 1), (2, 2)),
        ((0, 0), (1, 0), (1, 1), (2, 1)),  # a parallelogram, but not in cycle order
    ],
)
def test_cell_table_rejects_what_the_cells_reject(pts):
    # the table's integer checks stand in for triangle() and parallelogram()
    comp = _Completer(SQUARE)
    with pytest.raises(InternalInvariantError):
        comp.cell(tuple(map(comp.ids.__getitem__, pts)))
    ids = tuple(map(comp.ids.__getitem__, [(0, 0), (1, 0), (2, 1), (1, 1)]))
    assert comp.cell(ids) == (False, ids, None)


@pytest.mark.parametrize("poly", HULLS, ids=str)
def test_classifier_matches_strand_walk(poly):
    # every glued pair, heavy completions included
    for path in enumerate_paths(poly):
        for cl in complete_path(path, 1, poly):
            for cr in complete_path(path, -1, poly):
                sub = MarkedSubdivision(tuple(path), tuple(sorted(cl + cr)))
                assert validate_subdivision(sub, poly) == strand_walk_reason(sub.cells), sub


@pytest.mark.parametrize("poly", HULLS, ids=str)
def test_pair_reason_matches_validate_subdivision(poly, monkeypatch):
    # every glued pair, heavy completions included
    _no_heavy_steps(monkeypatch)
    comp = _Completer(poly)
    for path in enumerate_paths(poly):
        left, right = (_light_completions(comp, _root(comp, path), side)[1] for side in (1, -1))
        assert [summary_cells(s, poly) for s in left] == complete_path(path, 1, poly)
        assert [summary_cells(s, poly) for s in right] == complete_path(path, -1, poly)
        for cl in left:
            for cr in right:
                cells = summary_cells(cl, poly) + summary_cells(cr, poly)
                sub = MarkedSubdivision(path, tuple(sorted(cells)))
                valid = validate_subdivision(sub, poly)
                if valid == "boundary-weight":
                    # end weight is decided per side, before gluing; a heavy pair breaks
                    # T = B - 2 by twice its boundary points less its boundary sides
                    assert heavy_boundary(sub.cells, poly), sub
                    with pytest.raises(InternalInvariantError, match="slot count"):
                        _pair_reason(comp, _ids(comp, path), cl, cr)
                else:
                    # a light pair's curve is G one-ray trees a side, joined by the G - 1 path edges
                    # both sides own: T = B - 2 holds, and connected, it is a tree
                    reason = _pair_reason(comp, _ids(comp, path), cl, cr)
                    assert reason == valid and valid != "positive-genus", sub
                    assert cl.motivic * cr.motivic == curve_mult(sub), sub


def _kept_pair(poly):
    """The first path of ``poly`` with a pair of completions that is a curve,
    with the completer that made the pair."""
    comp = _Completer(poly)
    for path in enumerate_paths(poly):
        left, right = (_light_completions(comp, _root(comp, path), side)[1] for side in (1, -1))
        for cl in left:
            for cr in right:
                if _pair_reason(comp, _ids(comp, path), cl, cr) is None:
                    return comp, path, cl, cr
    raise AssertionError("no curve")


def test_fabricated_summaries_raise():
    poly = p2(3)
    comp, path, cl, cr = _kept_pair(poly)
    shared = next(i for i, (a, b) in enumerate(zip(cl.labels, cr.labels)) if a >= 0 and b >= 0)
    assert not segment_on_boundary_scan(poly, path[shared], path[shared + 1])

    def unowned(side):
        labels = list(side.labels)
        labels[shared] = -1
        return side._replace(labels=tuple(labels))

    bad = [
        ("do not tile", cl._replace(area2=cl.area2 + 2), cr),
        ("owned by neither side", unowned(cl), unowned(cr)),
        ("has a single cell", cl, unowned(cr)),
        ("slot count", cl._replace(triangles=cl.triangles + 1), cr),
        # an even slip: the parity of 3T + B holds, T = B - 2 does not
        ("slot count", cl._replace(triangles=cl.triangles + 2), cr),
    ]
    for message, left, right in bad:
        with pytest.raises(InternalInvariantError, match=message):
            _pair_reason(comp, _ids(comp, path), left, right)


@pytest.mark.parametrize(
    "corners, message",
    [
        ([((0, 0), (1, 0), (0, 1))], "cells do not tile the polygon"),
        (
            [((0, 0), (1, 0), (0, 1)), ((0, 0), (1, 0), (1, 1)), ((0, 0), (1, 0), (0, 2))],
            "edge ((0, 0), (1, 0)) shared by 3 cells",
        ),
        (
            [((0, 0), (1, 0), (0, 1)), ((1, 0), (2, 0), (1, 1)), ((0, 1), (1, 1), (0, 2)), ((0, 0), (1, 0), (1, 1))],
            "interior edge ((0, 1), (1, 0)) has a single cell",
        ),
    ],
    ids=["area", "side-shared-thrice", "interior-side-alone"],
)
def test_fabricated_tilings_raise(corners, message):
    # the reference classifier's own tiling checks, on cells of p2:2 that do not tile it
    poly = p2(2)
    cells = tuple(sorted(triangle(*c) for c in corners))
    with pytest.raises(InternalInvariantError) as exc:
        validate_subdivision(MarkedSubdivision(next(enumerate_paths(poly)), cells), poly)
    assert str(exc.value) == message


def test_completion_with_an_interior_ray_raises(monkeypatch):
    # with no boundary at all, the first child edge no cell owns is interior
    poly = p2(3)
    _without_boundary(monkeypatch)
    with pytest.raises(InternalInvariantError, match="single cell"):
        for path in enumerate_paths(poly):
            comp = _Completer(poly)
            _light_completions(comp, _root(comp, path), 1)


def test_count_refuses_a_negative_or_unclosed_area(monkeypatch):
    poly = p2(3)
    paths = list(enumerate_paths(poly))
    comp = _Completer(poly)
    with pytest.raises(InternalInvariantError, match="escaped its completion region"):
        _count_path(comp, 1, _ids(comp, paths[0]), -2)
    # with no boundary at all, a piece left with no area is not on the arc
    _without_boundary(monkeypatch)
    with pytest.raises(InternalInvariantError, match="single cell"):
        for path in paths:
            for side in (1, -1):
                comp = _Completer(poly)
                _count_path(comp, side, _ids(comp, path))


@pytest.mark.parametrize("enabled", [True, False])
def test_batch_pauses_the_collector_and_restores_it(gc_state, monkeypatch, enabled):
    from gwcurves import tropical

    seen = []
    pair_reason = tropical._pair_reason

    def spy(*args):
        seen.append(gc.isenabled())
        return pair_reason(*args)

    monkeypatch.setattr(tropical, "_pair_reason", spy)
    (gc.enable if enabled else gc.disable)()
    enum = enumerate_curves(p2(3))
    assert len(enum.curves) == 9 and dict(enum.dropped) == {"boundary-weight": 6}
    assert seen and not any(seen)
    assert gc.isenabled() == enabled


def test_collector_restored_after_an_invariant_error(gc_state, monkeypatch):
    poly = p2(3)
    _without_boundary(monkeypatch)
    gc.enable()
    with pytest.raises(InternalInvariantError, match="single cell"):
        enumerate_curves(poly)
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_restored_after_an_error_in_the_count(gc_state, monkeypatch, enabled):
    def boom(x, y):
        raise InternalInvariantError("multiplicity factorization failed")

    monkeypatch.setattr(GWElement, "__mul__", boom)  # a kept pair's product, formed in the paused loop
    (gc.enable if enabled else gc.disable)()
    with pytest.raises(InternalInvariantError, match="factorization"):
        count_invariants(p2(3))
    assert gc.isenabled() == enabled
