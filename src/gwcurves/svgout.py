"""Static SVG figures of enumerated curves: the polygon outline with each
dual subdivision, triangles shaded by multiplicity class.

Triangles whose multiplicity (``vertex_mult``) contains a rank-one summand
(all edges odd) are filled differently from pure h-multiples, so real-count
contributors stand out.  h has rank 2, so the summand is there exactly when
the rank, the triangle's twice-area, is odd.  Output is plain SVG 1.1 text,
deterministic for a given enumeration.
"""

from __future__ import annotations

from .tropical import Cell, Enumeration, vertex_mult

_FILL_ODD = "#f4a460"  # rank-one summand present
_FILL_H = "#9ec9e2"  # pure hyperbolic multiple
_FILL_PAR = "#d8d8d8"

SCALE = 24  # pixels per lattice unit
COLUMNS = 6  # thumbnails per row


def _cell_fill(cell: Cell) -> str:
    if cell.kind == "parallelogram":
        return _FILL_PAR
    return _FILL_ODD if vertex_mult(cell).rank() % 2 else _FILL_H


def render_svg(enum: Enumeration) -> str:
    """One thumbnail per curve, laid out in a grid."""
    poly = enum.polygon
    xs = [v[0] for v in poly.vertices]
    ys = [v[1] for v in poly.vertices]
    x0, y1 = min(xs), max(ys)
    w = (max(xs) - x0) * SCALE
    h = (y1 - min(ys)) * SCALE
    pad = SCALE
    cell_w, cell_h = w + 2 * pad, h + 2 * pad
    count = max(1, len(enum.curves))
    cols = min(COLUMNS, count)
    rows = (count + cols - 1) // cols
    total_w, total_h = cols * cell_w, rows * cell_h

    def pt(p, ox, oy) -> str:
        # flip y so the polygon is drawn with height increasing upward
        x = ox + pad + (p[0] - x0) * SCALE
        y = oy + pad + (y1 - p[1]) * SCALE
        return f"{x},{y}"

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{total_w}" height="{total_h}" '
        f'viewBox="0 0 {total_w} {total_h}">',
    ]
    for idx, curve in enumerate(enum.curves):
        ox = (idx % cols) * cell_w
        oy = (idx // cols) * cell_h
        for cell in curve.subdivision.cells:
            pts = " ".join(pt(p, ox, oy) for p in cell.cycle)
            out.append(
                f'<polygon points="{pts}" fill="{_cell_fill(cell)}" '
                f'stroke="#555555" stroke-width="1"/>'
            )
        outline = " ".join(pt(p, ox, oy) for p in poly.vertices)
        out.append(
            f'<polygon points="{outline}" fill="none" stroke="#000000" stroke-width="2"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
