"""Quadratically enriched counts of rational curves on toric del Pezzo
surfaces: exact GW(Q) arithmetic, tropical enumeration through stretched
point configurations, and the wall-crossing recursion over quadratic
extensions."""

from .betapoly import BetaPolynomial, beta_symbol, format_poly
from .expr import ExprError, parse_expression, parse_gw
from .gw import (
    H,
    ONE,
    ZERO,
    DomainError,
    GWElement,
    beta,
    delta,
    form,
    format_gw,
    gw_equal,
    hilbert_symbol,
    square_class,
    trace_form,
)
from .polygon import LatticePolygon, convex_hull, p2, polygon, preset, sl2z_equivalent
from .tropical import (
    Cell,
    Enumeration,
    InternalInvariantError,
    MarkedSubdivision,
    MultiplicityBundle,
    complete_path,
    count_invariants,
    curve_mult,
    enumerate_curves,
    enumerate_paths,
    vertex_mult,
)
from .wallcross import (
    InvariantTable,
    SurfaceChain,
    base_invariant,
    build_tables,
    chain_from,
    kontsevich_nd,
    quartic_chain,
    wall_cross_step,
)
