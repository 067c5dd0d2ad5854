"""Deterministic inline-SVG charts for the HTML report.

Every coordinate is emitted through a fixed format string so the same
document always renders byte-identical markup, which the golden-file tests
rely on.  No external assets: the SVG goes straight into the HTML.
"""

from __future__ import annotations

import math

FONT = "font-family='Helvetica,Arial,sans-serif'"

PIE_SIZE = 240  # the pie's square, before its legend
PANEL_WIDTH, PANEL_HEIGHT = 300, 230

# what `html.escape` replaces, without loading `html` and its entity table
_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;", "'": "&#x27;"})


def escape(text: str) -> str:
    """`text` made safe for HTML text and quoted attributes."""
    return text.translate(_ESCAPES)


def _n(value: float) -> str:
    return f"{value:.2f}"


def _wedge_point(cx: float, cy: float, r: float, angle_deg: float) -> tuple[float, float]:
    rad = math.radians(angle_deg)
    return cx + r * math.cos(rad), cy + r * math.sin(rad)


def pie_chart(slices: list[tuple[str, float, str]]) -> str:
    """Render (label, fraction, color) slices as a pie with a legend.

    Wedges start at 12 o'clock and run clockwise in list order.  Fractions
    are normalized so a mix summing to 0.999 still closes the circle; a
    slice covering everything degenerates to a plain circle.
    """
    total = 0.0  # a loop, not sum(): from Python 3.12 sum() compensates float rounding
    for _, fraction, _ in slices:
        total += max(fraction, 0.0)
    if total <= 0:
        raise ValueError("pie chart needs at least one positive fraction")
    size = PIE_SIZE
    cx = cy = size / 2.0
    r = size / 2.0 - 6.0
    legend_h = 20 * len(slices) + 8
    parts = [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{size}' "
        f"height='{size + legend_h}' viewBox='0 0 {size} {size + legend_h}' "
        f"role='img'>"
    ]
    angle = -90.0
    for label, fraction, color in slices:
        frac = max(fraction, 0.0) / total
        if frac <= 0.0:
            continue
        if frac >= 0.999999:
            parts.append(
                f"<circle cx='{_n(cx)}' cy='{_n(cy)}' r='{_n(r)}' "
                f"fill='{color}' stroke='white' stroke-width='1'/>"
            )
            angle += 360.0
            continue
        sweep = frac * 360.0
        x1, y1 = _wedge_point(cx, cy, r, angle)
        x2, y2 = _wedge_point(cx, cy, r, angle + sweep)
        large = 1 if sweep > 180.0 else 0
        parts.append(
            f"<path d='M {_n(cx)} {_n(cy)} L {_n(x1)} {_n(y1)} "
            f"A {_n(r)} {_n(r)} 0 {large} 1 {_n(x2)} {_n(y2)} Z' "
            f"fill='{color}' stroke='white' stroke-width='1'/>"
        )
        angle += sweep
    y = size + 14
    for label, fraction, color in slices:
        frac = max(fraction, 0.0) / total
        parts.append(
            f"<rect x='8' y='{y - 9}' width='10' height='10' fill='{color}'/>"
            f"<text x='24' y='{y}' font-size='11' {FONT}>"
            f"{escape(label)}: {frac * 100:.1f}%</text>"
        )
        y += 20
    parts.append("</svg>")
    return "".join(parts)


def bar_panel(title: str, bars: list[tuple[str, float, str]]) -> str:
    """Render (label, value, color) bars on one shared linear scale.

    Bar heights are proportional to value; each bar carries its value in
    scientific notation above it and its label below the axis.
    """
    if not bars:
        raise ValueError("bar panel needs at least one bar")
    width, height = PANEL_WIDTH, PANEL_HEIGHT
    top, bottom, side = 40.0, 50.0, 14.0
    plot_h = height - top - bottom
    plot_w = width - 2 * side
    vmax = max(value for _, value, _ in bars)
    scale = plot_h / vmax if vmax > 0 else 0.0
    slot = plot_w / len(bars)
    bar_w = slot * 0.62
    axis_y = height - bottom
    parts = [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' "
        f"height='{height}' viewBox='0 0 {width} {height}' role='img'>",
        f"<text x='{_n(width / 2)}' y='18' font-size='12' font-weight='bold' "
        f"text-anchor='middle' {FONT}>{escape(title)}</text>",
    ]
    for i, (label, value, color) in enumerate(bars):
        if value < 0:
            raise ValueError(f"negative bar value: {value}")
        h = value * scale
        x = side + i * slot + (slot - bar_w) / 2
        y = axis_y - h
        cx = x + bar_w / 2
        parts.append(
            f"<rect x='{_n(x)}' y='{_n(y)}' width='{_n(bar_w)}' "
            f"height='{_n(h)}' fill='{color}'/>"
        )
        parts.append(
            f"<text x='{_n(cx)}' y='{_n(y - 5)}' font-size='9' "
            f"text-anchor='middle' {FONT}>{value:.2e}</text>"
        )
        parts.append(
            f"<text x='{_n(cx)}' y='{_n(axis_y + 14)}' font-size='10' "
            f"text-anchor='middle' {FONT}>{escape(label)}</text>"
        )
    parts.append(
        f"<line x1='{_n(side)}' y1='{_n(axis_y)}' x2='{_n(width - side)}' "
        f"y2='{_n(axis_y)}' stroke='#333333' stroke-width='1'/>"
    )
    parts.append("</svg>")
    return "".join(parts)
