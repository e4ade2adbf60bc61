"""Deterministic SVG pictures of rank-2 affine arrangements.

The coroot-coordinate plane is embedded isometrically in the Euclidean
plane through the Cholesky factor of the coroot Gram matrix, so angles
between walls are faithful.
"""

from __future__ import annotations

import math

from .alcove import Face, alcove_vertices
from .rootdata import RootSystem
from .weylaff import point_reflection_subgroup

_SCALE = 160.0
_MARGIN = 20.0


def _embedding(rs: RootSystem) -> list[tuple[float, float]]:
    b = rs.inner_product_matrix
    d = [b[i][i] / 2 for i in range(2)]
    g = [[float(b[i][j] / (d[i] * d[j])) for j in range(2)] for i in range(2)]
    e0 = (math.sqrt(g[0][0]), 0.0)
    c = g[0][1] / e0[0]
    e1 = (c, math.sqrt(g[1][1] - c * c))
    return [e0, e1]


def _project(emb, x) -> tuple[float, float]:
    return (
        float(x[0]) * emb[0][0] + float(x[1]) * emb[1][0],
        float(x[0]) * emb[0][1] + float(x[1]) * emb[1][1],
    )


def render_svg(rs: RootSystem, region: int = 2,
               highlight: Face | None = None) -> str:
    """Hyperplanes with |level| <= region over a coroot-coordinate box,
    the fundamental alcove shaded, and optionally one face's star."""
    if rs.rank != 2:
        raise ValueError("SVG rendering requires rank 2")
    if rs.cartan_type.isogeny == "gl":
        raise ValueError("fundamental alcove requires sc or adjoint isogeny")
    if region < 1:
        raise ValueError("region must be at least 1")
    emb = _embedding(rs)
    lo, hi = -float(region), float(region)

    corners = [_project(emb, (x, y))
               for x in (lo, hi) for y in (lo, hi)]
    xs = [c[0] for c in corners]
    ys = [c[1] for c in corners]

    def to_screen(p):
        return (
            _MARGIN + (p[0] - min(xs)) * _SCALE,
            _MARGIN + (max(ys) - p[1]) * _SCALE,
        )

    width = 2 * _MARGIN + (max(xs) - min(xs)) * _SCALE
    height = 2 * _MARGIN + (max(ys) - min(ys)) * _SCALE
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{width:.0f}" height="{height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]

    def polygon(points, fill, opacity):
        pts = " ".join(f"{sx:.2f},{sy:.2f}"
                       for sx, sy in (to_screen(_project(emb, p))
                                      for p in points))
        out.append(f'<polygon points="{pts}" fill="{fill}" '
                   f'fill-opacity="{opacity}" stroke="none"/>')

    if highlight is not None:
        verts = alcove_vertices(rs)
        for u in point_reflection_subgroup(rs, highlight.witness).elements:
            polygon([u.apply(v) for v in verts], "#ffcc66", "0.6")
    polygon(alcove_vertices(rs), "#99bbee", "0.7")

    # clip each hyperplane grad.x = n against the coordinate box
    for p in rs.positive_indices:
        g0, g1 = rs.grads[p]
        bound = region * max(abs(g0), abs(g1))
        for n in range(-bound, bound + 1):
            pts = []
            for edge_val in (lo, hi):
                if g1 != 0:  # x0 fixed at edge_val
                    y = (n - g0 * edge_val) / g1
                    if lo - 1e-9 <= y <= hi + 1e-9:
                        pts.append((edge_val, y))
                if g0 != 0:  # x1 fixed at edge_val
                    x = (n - g1 * edge_val) / g0
                    if lo - 1e-9 <= x <= hi + 1e-9:
                        pts.append((x, edge_val))
            uniq = []
            for q in pts:
                if all(abs(q[0] - r[0]) + abs(q[1] - r[1]) > 1e-9
                       for r in uniq):
                    uniq.append(q)
            if len(uniq) >= 2:
                a = to_screen(_project(emb, uniq[0]))
                b = to_screen(_project(emb, uniq[1]))
                out.append(
                    f'<line x1="{a[0]:.2f}" y1="{a[1]:.2f}" '
                    f'x2="{b[0]:.2f}" y2="{b[1]:.2f}" '
                    f'stroke="#444444" stroke-width="1"/>'
                )
    out.append("</svg>")
    return "\n".join(out)
