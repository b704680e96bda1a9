"""Lattice polygon counts, Pick's identity, corner chops, equivalence."""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gwcurves.gw import DomainError
from gwcurves.polygon import LatticePolygon, lattice_length, normal_form, p2, polygon, preset, preset_names
from gwcurves.tropical import _Completer

from oracles import convex_hull, segment_on_boundary_scan, two_edge_sl2z_equivalent


def same_form(a: LatticePolygon, b: LatticePolygon) -> bool:
    """Whether a GL(2,Z) map and a translation send one polygon onto the other."""
    return normal_form(a)[0] == normal_form(b)[0]


class TestConstruction:
    def test_rejects_collinear(self):
        with pytest.raises(DomainError):
            polygon([(0, 0), (1, 0), (2, 0)])

    def test_rejects_consecutive_collinear(self):
        with pytest.raises(DomainError):
            polygon([(0, 0), (1, 0), (2, 0), (0, 2)])

    def test_accepts_clockwise_and_rotates(self):
        q = polygon([(2, 0), (0, 2), (0, 0)])
        assert q.vertices[0] == (0, 0)
        assert q.area2 > 0

    def test_clockwise_gives_the_counterclockwise_polygon(self):
        q = polygon([(0, 0), (0, 2), (2, 0)])
        assert q.vertices == ((0, 0), (2, 0), (0, 2))
        assert q == p2(2)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: polygon([(0, 0), (1, 0), (0, 1), (1, 0)]), "repeated vertices"),
            (lambda: LatticePolygon(((0, 0), [1, 0], (0, 1))), "bad vertex [1, 0]: not a tuple"),
            (
                lambda: LatticePolygon(((1, 0), (0, 1), (0, 0))),
                "vertex cycle must start at the lexicographic minimum",
            ),
            (lambda: p2(2).chop_corner((0, 0), 0), "chop depth must be positive"),
        ],
        ids=["repeated-vertex", "list-vertex", "cycle-not-at-minimum", "chop-depth-0"],
    )
    def test_refusal_message(self, build, message):
        with pytest.raises(DomainError) as exc:
            build()
        assert str(exc.value) == message

    def test_refuses_a_list_of_vertices(self):
        with pytest.raises(DomainError) as exc:
            LatticePolygon([(0, 0), (1, 0), (0, 1)])
        assert str(exc.value) == "vertices must be a tuple, not list"

    def test_json_roundtrip(self):
        q = preset("f1_4_2e")
        assert LatticePolygon.from_json(q.to_json()) == q

    @pytest.mark.parametrize("bad", [2.7, 2.0, True, "2", None])
    def test_rejects_non_integer_coordinates(self, bad):
        # int() would silently turn 2.7 into 2 and True into 1
        with pytest.raises(DomainError, match="integer"):
            polygon([(0, 0), (bad, 0), (0, 2)])
        with pytest.raises(DomainError, match="integer"):
            convex_hull([(0, 0), (bad, 0), (0, 2), (1, 1)])

    @pytest.mark.parametrize(
        "data", [[[0, 0], [1, 0], [0, 1]], {"vertices": 5}, {"vertices": "abc"}]
    )
    def test_from_json_rejects_malformed_files(self, data):
        with pytest.raises(DomainError):
            LatticePolygon.from_json(data)

    @pytest.mark.parametrize("bad", [(2, 0, 1), (2,), 5])
    def test_rejects_malformed_vertices(self, bad):
        with pytest.raises(DomainError, match="integer"):
            polygon([(0, 0), bad, (0, 2)])
        with pytest.raises(DomainError, match="integer"):
            convex_hull([(0, 0), bad, (0, 2), (1, 1)])


def interior_scan(q):
    return {p for p in q.lattice_points if q.strictly_contains(p)}


class TestPresets:
    def test_p2_4(self):
        q = p2(4)
        assert q.boundary_count() == 12
        assert q.interior_count() == 3
        assert q.point_budget() == 11
        assert interior_scan(q) == {(1, 1), (1, 2), (2, 1)}

    def test_f1(self):
        q = preset("f1_4_2e")
        assert q.boundary_count() == 10
        assert q.point_budget() == 9
        assert q.interior_count() == 2
        assert interior_scan(q) == {(1, 1), (2, 1)}

    def test_blf1(self):
        q = preset("blf1")
        assert q.boundary_count() == 8
        assert q.interior_count() == 1
        assert interior_scan(q) == {(1, 1)}

    def test_bl2f1(self):
        q = preset("bl2f1")
        assert q.point_budget() == 5
        assert q.interior_count() == 0

    def test_p2_3(self):
        q = p2(3)
        assert q.boundary_count() == 9
        assert q.interior_count() == 1

    def test_unknown_name(self):
        with pytest.raises(DomainError):
            preset("p3:2")
        assert "p2:<d>" in preset_names()


points_strategy = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=3, max_size=12
)


class TestPick:
    @given(points_strategy)
    @settings(max_examples=150, deadline=None)
    def test_pick_identity_on_random_hulls(self, pts):
        try:
            q = convex_hull(pts)
        except DomainError:
            return
        # the lattice point scan cross-checks its boundary count against the
        # edge gcds and Pick's identity; reaching the return is the assertion.
        b = q.boundary_count()
        assert q.area2 == 2 * q.interior_count() + b - 2
        assert q.point_count() == len(q.lattice_points)

    @given(points_strategy)
    @settings(max_examples=150, deadline=None)
    def test_interior_count_matches_the_scan(self, pts):
        # interior_count is Pick's formula; the scan is independent of it
        try:
            q = convex_hull(pts)
        except DomainError:
            return
        assert q.interior_count() == len(interior_scan(q))

    def test_boundary_count_needs_no_scan(self):
        q = polygon([(0, 0), (10**9, 0), (3, 10**9)])
        assert q.boundary_count() == 10**9 + 1 + 1  # edge gcds 10**9, 1, 1
        assert q.point_budget() == 10**9 + 1
        assert q.point_count() == (10**18 + 10**9 + 2) // 2 + 1
        assert "lattice_points" not in vars(q)

    def test_scan_matches_direct_enumeration(self):
        q = preset("f1_4_2e")
        pts = {
            (x, y)
            for x in range(0, 5)
            for y in range(0, 3)
            if y <= 2 and x + y <= 4 and x >= 0
        }
        assert set(q.lattice_points) == pts


class TestChop:
    def test_p2_4_to_f1(self):
        chopped = p2(4).chop_corner((4, 0), 2)
        assert same_form(chopped, preset("f1_4_2e"))

    def test_f1_to_blf1(self):
        chopped = preset("f1_4_2e").chop_corner((4, 0), 2)
        assert same_form(chopped, preset("blf1"))

    def test_blf1_to_bl2f1(self):
        chopped = preset("blf1").chop_corner((2, 2), 2)
        assert same_form(chopped, preset("bl2f1"))

    def test_unimodular_chop_of_conic(self):
        q = p2(2).chop_corner((2, 0), 1)
        assert len(q.vertices) == 4
        assert q.point_budget() == 4

    def test_budget_drops_by_two(self):
        for q in [p2(4), p2(3), preset("f1_4_2e"), preset("blf1")]:
            for v in q.vertices:
                try:
                    chopped = q.chop_corner(v, 2)
                except DomainError:
                    continue
                assert chopped.point_budget() == q.point_budget() - 2

    def test_interior_decreases_along_quartic_chain(self):
        chain = [p2(4), preset("f1_4_2e"), preset("blf1"), preset("bl2f1")]
        assert [q.interior_count() for q in chain] == [3, 2, 1, 0]

    def test_too_deep_chop_rejected(self):
        with pytest.raises(DomainError):
            p2(2).chop_corner((2, 0), 3)
        with pytest.raises(DomainError):
            preset("bl2f1").chop_corner((2, 0), 2)  # would degenerate

    def test_not_a_vertex(self):
        with pytest.raises(DomainError):
            p2(4).chop_corner((1, 0), 1)


class TestEquivalence:
    def test_translation_invariance(self):
        a = polygon([(0, 0), (2, 0), (0, 2)])
        b = polygon([(5, 7), (7, 7), (5, 9)])
        assert same_form(a, b)

    def test_shear_invariance(self):
        # x -> x + y shear of the unit triangle
        a = polygon([(0, 0), (1, 0), (0, 1)])
        b = polygon([(0, 0), (1, 0), (1, 1)])
        assert same_form(a, b)

    def test_distinguishes_area(self):
        assert not same_form(p2(1), p2(2))

    def test_distinguishes_vertex_count(self):
        # a triangle and a quadrilateral of the same area and boundary count
        a, b = polygon([(0, 0), (4, 0), (0, 1)]), polygon([(0, 0), (2, 0), (2, 1), (0, 1)])
        assert (a.area2, a.boundary_count()) == (b.area2, b.boundary_count())
        assert not same_form(a, b) and not same_form(b, a)

    def test_distinguishes_shape(self):
        assert not same_form(preset("blf1"), polygon([(0, 0), (4, 0), (4, 1), (0, 1)]))

    def test_accepts_a_mirror_image(self):
        # no orientation-keeping map sends this quadrilateral onto its mirror image
        a = polygon([(0, 0), (2, 0), (3, 1), (0, 3)])
        b = polygon([(x, -y) for x, y in a.vertices])
        assert same_form(a, b) and not two_edge_sl2z_equivalent(a, b)

    @pytest.mark.parametrize("name", ["p2:1", "p2:4", "p2:5", "blf1", "bl2f1"])
    def test_presets_that_are_their_own_normal_form(self, name):
        q = preset(name)
        assert normal_form(q) == (q, ((1, 0), (0, 1)), (0, 0))

    def test_normal_form_of_f1_4_2e(self):
        form = normal_form(preset("f1_4_2e"))[0]
        assert form.vertices == ((0, 0), (2, 0), (2, 2), (0, 4))


# -- the normal form, on seeded images of random hulls ----------------------------

#: Generators of GL(2,Z): the two shears and their inverses, the swap, negation and the mirror.
GENERATORS = [
    ((1, 1), (0, 1)), ((1, -1), (0, 1)), ((1, 0), (1, 1)), ((1, 0), (-1, 1)),
    ((0, 1), (1, 0)), ((-1, 0), (0, -1)), ((1, 0), (0, -1)),
]
hull_points = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=3, max_size=10)
#: A lattice-affine map: a word in the generators, then a translation.
affine_maps = st.tuples(
    st.lists(st.sampled_from(GENERATORS), max_size=8), st.tuples(st.integers(-20, 20), st.integers(-20, 20))
)
seeded = settings(max_examples=300, deadline=None, derandomize=True)


def _apply(m, v):
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def _hull(points) -> LatticePolygon:
    try:
        return convex_hull(points)
    except DomainError:  # fewer than 3 distinct points, or all collinear
        assume(False)


def image_of(q: LatticePolygon, word, shift) -> LatticePolygon:
    vs = list(q.vertices)
    for g in word:
        vs = [_apply(g, v) for v in vs]
    return polygon([(x + shift[0], y + shift[1]) for x, y in vs])


def _det(word) -> int:
    det = 1
    for (a, b), (c, d) in word:
        det *= a * d - b * c
    return det


@seeded
@given(hull_points, affine_maps)
def test_an_image_has_the_normal_form_of_its_hull(points, f):
    q = _hull(points)
    assert normal_form(image_of(q, *f))[0] == normal_form(q)[0]


@seeded
@given(hull_points)
def test_the_normal_form_is_its_own(points):
    form = normal_form(_hull(points))[0]
    assert normal_form(form) == (form, ((1, 0), (0, 1)), (0, 0))


@seeded
@given(hull_points, affine_maps)
def test_the_map_sends_the_vertices_onto_the_form(points, f):
    q = image_of(_hull(points), *f)
    form, m, o = normal_form(q)
    assert abs(m[0][0] * m[1][1] - m[0][1] * m[1][0]) == 1 and o in q.vertices
    assert sorted(_apply(m, (x - o[0], y - o[1])) for x, y in q.vertices) == sorted(form.vertices)


@seeded
@given(hull_points, hull_points, affine_maps, st.booleans())
def test_verdict_is_the_two_edge_solve_up_to_the_mirror(points_a, points_b, f, same):
    a = _hull(points_a)
    b = image_of(a if same else _hull(points_b), *f)
    verdict = same_form(a, b)
    mirror = polygon([(x, -y) for x, y in b.vertices])
    assert verdict == (two_edge_sl2z_equivalent(a, b) or two_edge_sl2z_equivalent(a, mirror))
    if same and _det(f[0]) == 1:  # a pair that keeps orientation
        assert verdict and two_edge_sl2z_equivalent(a, b)


def _step(q: LatticePolygon, p, r):
    """The completer's boundary step table at ``p -> r``: True if heavy,
    False if light, None off the boundary."""
    comp = _Completer(q)
    return comp.steps.get((comp.ids[p], comp.ids[r]))


def test_segment_on_boundary():
    q = p2(3)
    assert _step(q, (0, 0), (2, 0)) is True
    assert _step(q, (2, 1), (1, 2)) is False
    assert _step(q, (0, 0), (1, 1)) is None
    assert _step(q, (1, 1), (2, 1)) is None


def _agrees_with_edge_scan(q: LatticePolygon) -> None:
    # the completer's table, by point id, over ordered pairs of distinct lattice points
    comp = _Completer(q)
    for p in q.lattice_points:
        for r in q.lattice_points:
            if p != r:
                on = segment_on_boundary_scan(q, p, r)
                want = lattice_length(p, r) != 1 if on else None
                assert comp.steps.get((comp.ids[p], comp.ids[r])) == want, (q, p, r)


@pytest.mark.parametrize(
    "q",
    [
        p2(4),
        preset("f1_4_2e"),
        preset("blf1"),
        preset("bl2f1"),
        polygon([(0, 0), (3, 0), (3, 3), (0, 3)]),
        polygon([(0, 0), (5, 0), (2, 3), (0, 3)]),
        polygon([(5, -1), (9, -1), (13, 3)]),
    ],
    ids=str,
)
def test_segment_on_boundary_matches_edge_scan(q):
    _agrees_with_edge_scan(q)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=3, max_size=7))
def test_segment_on_boundary_matches_edge_scan_on_random_hulls(points):
    try:
        q = convex_hull(points)
    except DomainError:  # fewer than 3 distinct points, or all collinear
        return
    _agrees_with_edge_scan(q)


def test_lattice_length():
    assert lattice_length((0, 0), (4, 6)) == 2
    assert lattice_length((1, 1), (1, 1)) == 0
