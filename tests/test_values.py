"""The value classes: read-only, hashed as they compare, shown and built by
position as the frozen dataclasses they replaced were."""

from __future__ import annotations

import copy
import pickle
from collections import Counter

import pytest

from gwcurves.betapoly import BetaPolynomial
from gwcurves.gw import ONE, ZERO, DomainError, GWElement
from gwcurves.polygon import LatticePolygon
from gwcurves.tropical import Cell, Enumeration, Invariants, MarkedSubdivision, TropicalCurve, triangle
from gwcurves.wallcross import InvariantTable, SurfaceChain

TRI = ((0, 0), (0, 1), (1, 0))
ONE_R = "GWElement(terms=((1, 1),))"
UNIT_R = "LatticePolygon(vertices=((0, 0), (1, 0), (0, 1)))"
CELL_R = f"Cell(kind='triangle', vertices={TRI!r})"
SUB_R = f"MarkedSubdivision(path=((0, 0), (1, 0)), cells=({CELL_R},))"
CURVE_R = f"TropicalCurve(subdivision={SUB_R}, motivic={ONE_R})"
CONST_R = f"BetaPolynomial(monomials=(((), {ONE_R}),))"

#: Each class: its fields in order, and the repr of the value ``build`` makes.
CLASSES = {
    GWElement: (("terms",), ONE_R),
    BetaPolynomial: (("monomials",), CONST_R),
    LatticePolygon: (("vertices",), UNIT_R),
    Cell: (("kind", "vertices"), CELL_R),
    MarkedSubdivision: (("path", "cells"), SUB_R),
    TropicalCurve: (("subdivision", "motivic"), CURVE_R),
    Enumeration: (
        ("polygon", "curves", "dropped"),
        f"Enumeration(polygon={UNIT_R}, curves=[{CURVE_R}], dropped=Counter({{'disconnected': 1}}))",
    ),
    Invariants: (("motivic", "canonical", "n", "w"), f"Invariants(motivic={ONE_R}, canonical={ONE_R}, n=1, w=1)"),
    SurfaceChain: (("polygons",), f"SurfaceChain(polygons=({UNIT_R},))"),
    InvariantTable: (("polygon", "rows"), f"InvariantTable(polygon={UNIT_R}, rows=({CONST_R},))"),
}


def build(cls):
    """A new value of ``cls``, built by position, as the traced enumeration
    of the benchmark builds MarkedSubdivision, TropicalCurve and Enumeration."""
    one = GWElement(((1, 1),))
    unit = LatticePolygon(((0, 0), (1, 0), (0, 1)))
    sub = MarkedSubdivision(((0, 0), (1, 0)), (triangle(*TRI),))
    curve = TropicalCurve(sub, one)
    return {
        GWElement: lambda: one,
        BetaPolynomial: lambda: BetaPolynomial((((), one),)),
        LatticePolygon: lambda: unit,
        Cell: lambda: Cell("triangle", TRI),
        MarkedSubdivision: lambda: sub,
        TropicalCurve: lambda: curve,
        Enumeration: lambda: Enumeration(unit, [curve], Counter(disconnected=1)),
        Invariants: lambda: Invariants(one, one, 1, 1),
        SurfaceChain: lambda: SurfaceChain((unit,)),
        InvariantTable: lambda: InvariantTable(unit, (BetaPolynomial((((), one),)),)),
    }[cls]()


params = pytest.mark.parametrize("cls", list(CLASSES), ids=lambda cls: cls.__name__)


@params
def test_fields_in_order(cls):
    assert cls._fields == CLASSES[cls][0]


@params
def test_repr_is_the_dataclass_text(cls):
    # also shows that ``build`` put each positional argument in its field
    assert repr(build(cls)) == CLASSES[cls][1]


@params
def test_fields_are_read_only(cls):
    value = build(cls)
    before = repr(value)
    for f in cls._fields:
        with pytest.raises(AttributeError):
            setattr(value, f, None)
        with pytest.raises(AttributeError):
            delattr(value, f)
    assert repr(value) == before


@params
def test_equal_values_hash_equal(cls):
    a, b = build(cls), build(cls)
    assert a is not b and a == b and not a != b
    if cls is Enumeration:  # its curves are a list, so it has no hash, as before
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@params
def test_pickle_round_trip(cls):
    value = build(cls)
    assert pickle.loads(pickle.dumps(value)) == value


def test_a_computed_value_rebuilds_without_factoring(quartic_tables):
    # the class 999999999989 * 999999999961 has 80 bits and two 40-bit
    # primes: past the factoring bound that GWElement(...) checks under
    value = quartic_tables[0].rows[2].specialize({1: 999999999989, 2: 999999999961})
    assert (999999999950000000000429, 8) in value.terms
    poly = BetaPolynomial.constant(value)
    for v in (value, poly):
        assert pickle.loads(pickle.dumps(v)) == v
        assert copy.deepcopy(v) == v
    with pytest.raises(DomainError, match="cannot factor"):
        GWElement(value.terms)


def test_cell_compares_on_kind_and_vertices():
    built = triangle(*TRI)
    assert built == Cell("triangle", TRI) and not built != Cell("triangle", TRI)
    assert hash(built) == hash(Cell("triangle", TRI))
    assert built != Cell("parallelogram", TRI)


def test_values_of_different_classes_differ():
    assert GWElement() == ZERO
    assert GWElement() != BetaPolynomial()
    assert ONE != (((1, 1),),)


def test_hot_values_have_no_dict():
    # the ring's elements and the polynomials are many; only the polygon
    # keeps a __dict__, for its cached properties
    for value in (ONE, BetaPolynomial.constant(ONE)):
        assert not hasattr(value, "__dict__")
    poly = build(LatticePolygon)
    assert poly.area2 == 1 and vars(poly)["area2"] == 1
    with pytest.raises(AttributeError):
        poly.area2 = 2
