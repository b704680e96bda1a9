"""Quadratically enriched counts of rational curves on toric del Pezzo
surfaces: exact GW(Q) arithmetic, tropical enumeration through stretched
point configurations, and the wall-crossing recursion over quadratic
extensions.

``gw`` and ``polygon`` load with the package.  The other re-exports load
their module on first use (PEP 562), so that a short command-line call
does not import the enumeration or the tables it never runs.  ``polygon``
stays eager because the function ``gwcurves.polygon`` shares its name with
the submodule, whose first import would otherwise rebind the attribute.
"""

import importlib

from .gw import (
    H,
    ONE,
    ZERO,
    DomainError,
    GWElement,
    InternalInvariantError,
    form,
    format_gw,
    gw_equal,
    square_class,
    trace_form,
)
from .polygon import LatticePolygon, p2, polygon, preset

#: The re-exports that load on first use, by the module that defines them.
_LAZY = {
    "betapoly": ("BetaPolynomial", "beta_symbol", "format_poly"),
    "expr": ("ExprError", "parse_expression", "parse_gw"),
    "tropical": (
        "Cell",
        "Enumeration",
        "MarkedSubdivision",
        "complete_path",
        "count_invariants",
        "curve_mult",
        "enumerate_curves",
        "enumerate_paths",
        "vertex_mult",
    ),
    "wallcross": (
        "InvariantTable",
        "SurfaceChain",
        "base_invariant",
        "build_tables",
        "chain_from",
        "kontsevich_nd",
        "quartic_chain",
        "wall_cross_step",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOME.keys())
