"""Hand-rolled SVG rendering of normalized Betti diagrams.

Rows are the strands q, the horizontal axis is the normalized position
p / r_d in [0, 1], and each nonzero cell is a rectangle centered at its
normalized position, shaded by log(1 + dim) relative to the largest entry
of the table.  Output is a deterministic byte string: same table and
options, same SVG, no timestamps.
"""

from __future__ import annotations

from math import log

from .betti import BettiTable

_ROW_H = 28
_MARGIN_LEFT = 46
_MARGIN_RIGHT = 12
_MARGIN_TOP = 14
_MARGIN_BOTTOM = 22


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def check_width(width_px: int) -> None:
    """Refuse a width too narrow for the margins and a plot."""
    if width_px < 100:
        raise ValueError(f"width_px too small: {width_px}")


def render_normalized_diagram(table: BettiTable, width_px: int = 640,
                              comment: str = None) -> str:
    """SVG text for a table; zero cells are blank, an all-zero table renders
    an empty frame rather than failing."""
    check_width(width_px)
    q_lo, q_hi = table.q_range
    n_rows = q_hi - q_lo + 1
    plot_w = width_px - _MARGIN_LEFT - _MARGIN_RIGHT
    height = _MARGIN_TOP + n_rows * _ROW_H + _MARGIN_BOTTOM
    r_d = max(table.r_d, 1)
    cell_w = plot_w / (r_d + 1)
    max_dim = table.max_dim()
    denom = log(1 + max_dim) if max_dim > 0 else 1.0

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width_px}" '
        f'height="{height}" viewBox="0 0 {width_px} {height}">',
    ]
    if comment:
        safe = comment.replace("--", "- -")
        lines.append(f"<!-- {safe} -->")
    lines.append(
        f'<rect x="{_fmt(_MARGIN_LEFT)}" y="{_fmt(_MARGIN_TOP)}" '
        f'width="{_fmt(plot_w)}" height="{_fmt(n_rows * _ROW_H)}" '
        f'fill="white" stroke="black" stroke-width="1"/>'
    )
    for i, q in enumerate(range(q_lo, q_hi + 1)):
        y = _MARGIN_TOP + i * _ROW_H
        lines.append(
            f'<text x="{_fmt(_MARGIN_LEFT - 6)}" y="{_fmt(y + _ROW_H / 2 + 4)}" '
            f'font-size="12" font-family="monospace" text-anchor="end">q={q}</text>'
        )
        if i:
            lines.append(
                f'<line x1="{_fmt(_MARGIN_LEFT)}" y1="{_fmt(y)}" '
                f'x2="{_fmt(_MARGIN_LEFT + plot_w)}" y2="{_fmt(y)}" '
                f'stroke="black" stroke-width="0.5"/>'
            )
        for (p, qq), cell in sorted(table.cells.items()):
            if qq != q or cell.dim <= 0:
                continue
            # Center of the cell sits at the normalized coordinate p / r_d.
            cx = _MARGIN_LEFT + (p / r_d) * plot_w
            x0 = max(_MARGIN_LEFT, cx - cell_w / 2)
            x1 = min(_MARGIN_LEFT + plot_w, cx + cell_w / 2)
            shade = log(1 + cell.dim) / denom
            gray = 235 - round(195 * shade)
            lines.append(
                f'<rect x="{_fmt(x0)}" y="{_fmt(y + 2)}" '
                f'width="{_fmt(x1 - x0)}" height="{_fmt(_ROW_H - 4)}" '
                f'fill="rgb({gray},{gray},{gray})"/>'
            )
    axis_y = _MARGIN_TOP + n_rows * _ROW_H
    for frac, label in ((0.0, "0"), (0.5, "p/r"), (1.0, "1")):
        x = _MARGIN_LEFT + frac * plot_w
        lines.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(axis_y)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(axis_y + 4)}" stroke="black" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{_fmt(x)}" y="{_fmt(axis_y + 16)}" font-size="11" '
            f'font-family="monospace" text-anchor="middle">{label}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
