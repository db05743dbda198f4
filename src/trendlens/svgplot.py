"""Deterministic SVG scatter plots of projected keywords.

The output is plain text built with fixed float formatting, so identical
input always produces identical bytes; that keeps plots diffable and
golden-testable without an imaging dependency.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Sequence

from .textprep import _replacing
from .trends import ProjectedPoint

__all__ = ["PALETTE", "render_scatter_svg", "emit_scatter_svg"]

# 12 fill colors, cycled by cluster id
PALETTE = (
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
    "#aec7e8",
    "#ffbb78",
)

_WIDTH = 1000
_HEIGHT = 800
_MARGIN = 0.05
_RADIUS = 5


def _axis_scale(values: Sequence[float], lo: float, hi: float):
    vmin, vmax = min(values), max(values)
    span = vmax - vmin
    if span == 0.0:
        mid = (lo + hi) / 2.0
        return lambda _v: mid
    return lambda v: lo + (v - vmin) / span * (hi - lo)


def render_scatter_svg(points: Sequence[ProjectedPoint], cluster_ids: Mapping[str, int]) -> str:
    """Render labeled, cluster-colored circles into an SVG document string."""
    if not points:
        raise ValueError("no points to plot")
    xs = [p.xy[0] for p in points]
    ys = [p.xy[1] for p in points]
    x_margin = _WIDTH * _MARGIN
    y_margin = _HEIGHT * _MARGIN
    to_x = _axis_scale(xs, x_margin, _WIDTH - x_margin)
    # screen y grows downward; flip so larger data y plots higher
    to_y = _axis_scale(ys, _HEIGHT - y_margin, y_margin)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
    ]
    for point in points:
        cx = to_x(point.xy[0])
        cy = to_y(point.xy[1])
        color = PALETTE[cluster_ids.get(point.keyword, 0) % len(PALETTE)]
        label = point.keyword.capitalize()
        parts.append(
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{_RADIUS}" fill="{color}" '
            f'stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{cx + _RADIUS + 3:.2f}" y="{cy + 4:.2f}" '
            f'font-family="sans-serif" font-size="12">{_escape(label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def emit_scatter_svg(
    points: Sequence[ProjectedPoint], cluster_ids: Mapping[str, int], path: str | Path
) -> None:
    """Write the scatter plot for one point set to ``path``."""
    with _replacing(path) as fh:
        fh.write(render_scatter_svg(points, cluster_ids))
