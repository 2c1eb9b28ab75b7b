"""Deterministic SVG rendering of a tree selection in the phase plane.

Each quartile becomes one rectangle, time along the horizontal axis and
frequency along the vertical one.  Removed trees are colour keyed by
the slot of the selection pass that grabbed them; residual quartiles
stay grey underneath.  The output is a pure function of the selection,
so rendering the same input twice gives identical bytes.
"""

from __future__ import annotations

from ..geometry import Quartile, quartile_sort_key
from ..trees import SelectionResult

__all__ = ["selection_svg"]

_WIDTH, _HEIGHT, _MARGIN = 720.0, 480.0, 48.0
_PASS_COLORS = {1: "#1b9e77", 2: "#d95f02", 3: "#7570b3", 4: "#e7298a"}
_RESIDUAL_COLOR = "#9e9e9e"


def _fmt(value: float) -> str:
    return f"{value:.4f}"


def _rect(
    q: Quartile,
    time_extent: float,
    freq_extent: float,
    color: str,
) -> str:
    x = _MARGIN + float(q.time.left) / time_extent * _WIDTH
    w = float(q.time.length) / time_extent * _WIDTH
    top = _MARGIN + _HEIGHT - float(q.freq.right) / freq_extent * _HEIGHT
    h = float(q.freq.length) / freq_extent * _HEIGHT
    return (
        f'<rect x="{_fmt(x)}" y="{_fmt(top)}" width="{_fmt(w)}" '
        f'height="{_fmt(h)}" fill="{color}" fill-opacity="0.55" '
        f'stroke="#222222" stroke-width="0.5"/>'
    )


def selection_svg(selection: SelectionResult) -> str:
    """Render a selection as an SVG document string."""
    grabbed = [
        (q, _PASS_COLORS[grab.pass_slot])
        for grab in selection.grabs
        for q in sorted(grab.full.quartiles, key=quartile_sort_key)
    ]
    residual = list(selection.residual)
    everything = [q for q, _ in grabbed] + residual
    time_extent = max(
        (float(q.time.right) for q in everything), default=1.0
    )
    freq_extent = max(
        (float(q.freq.right) for q in everything), default=1.0
    )

    total_w = _WIDTH + 2 * _MARGIN
    total_h = _HEIGHT + 2 * _MARGIN
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(total_w)}" '
        f'height="{_fmt(total_h)}" viewBox="0 0 {_fmt(total_w)} {_fmt(total_h)}">',
        f'<rect x="0" y="0" width="{_fmt(total_w)}" height="{_fmt(total_h)}" '
        f'fill="#ffffff"/>',
    ]
    for q in residual:
        lines.append(_rect(q, time_extent, freq_extent, _RESIDUAL_COLOR))
    for q, color in grabbed:
        lines.append(_rect(q, time_extent, freq_extent, color))

    axis_y = _MARGIN + _HEIGHT
    lines.append(
        f'<line x1="{_fmt(_MARGIN)}" y1="{_fmt(axis_y)}" '
        f'x2="{_fmt(_MARGIN + _WIDTH)}" y2="{_fmt(axis_y)}" '
        f'stroke="#000000" stroke-width="1"/>'
    )
    lines.append(
        f'<line x1="{_fmt(_MARGIN)}" y1="{_fmt(_MARGIN)}" '
        f'x2="{_fmt(_MARGIN)}" y2="{_fmt(axis_y)}" '
        f'stroke="#000000" stroke-width="1"/>'
    )
    label_y = axis_y + 18.0
    lines.append(
        f'<text x="{_fmt(_MARGIN)}" y="{_fmt(label_y)}" font-size="11" '
        f'font-family="monospace">t=0</text>'
    )
    lines.append(
        f'<text x="{_fmt(_MARGIN + _WIDTH - 40)}" y="{_fmt(label_y)}" '
        f'font-size="11" font-family="monospace">t={_fmt(time_extent)}</text>'
    )
    lines.append(
        f'<text x="4" y="{_fmt(_MARGIN)}" font-size="11" '
        f'font-family="monospace">f={_fmt(freq_extent)}</text>'
    )
    caption = (
        f"slot={selection.slot} alpha={selection.alpha.to_text()} "
        f"trees={len(selection.grabs)} residual={len(residual)}"
    )
    lines.append(
        f'<text x="{_fmt(_MARGIN)}" y="{_fmt(_MARGIN - 14)}" font-size="12" '
        f'font-family="monospace">{caption}</text>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
