"""Boxplot rendering to standalone SVG.

The drawing is deliberately simple and fully deterministic: fixed canvas,
linear value axis, one box per series in input order. Element classes (box,
median, whisker, outlier, mean) keep the geometry machine-checkable.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

from .errors import UsageError
from .ratios import DescriptiveStats

CANVAS_WIDTH = 640
CANVAS_HEIGHT = 420
MARGIN_LEFT = 70
MARGIN_RIGHT = 70
MARGIN_TOP = 50
MARGIN_BOTTOM = 60
BOX_WIDTH = 42
N_TICKS = 5

_STYLE = """\
    text { font-family: sans-serif; font-size: 12px; fill: #222222; }
    .title { font-size: 15px; }
    .axis { stroke: #222222; stroke-width: 1; }
    .tick { stroke: #bbbbbb; stroke-width: 0.5; }
    .box { fill: #c6dbef; stroke: #2b5d8a; stroke-width: 1.5; }
    .median { stroke: #13334d; stroke-width: 2; }
    .whisker { stroke: #2b5d8a; stroke-width: 1.5; }
    .outlier { fill: none; stroke: #2b5d8a; stroke-width: 1; }
    .mean { fill: #ffffff; stroke: #b2332a; stroke-width: 1.5; }"""


@dataclass(frozen=True)
class BoxplotSeries:
    """One box: a label, its statistics, and an optional secondary-axis
    scale (right-axis units per left-axis unit, shared across series)."""

    label: str
    stats: DescriptiveStats
    secondary_axis_scale: float | None = None

    def __post_init__(self) -> None:
        if not self.label:
            raise UsageError("series label must be non-empty")


def _escape(text: str) -> str:
    """`&`, `>` and `<` as entities, in the order xml.sax.saxutils.escape
    replaces them; importing that module loads urllib.request, http.client,
    ssl and email, which would make every CLI call slower to start."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def render_boxplot(
    series: Sequence[BoxplotSeries],
    title: str,
    out: str | Path,
    y_label: str = "",
    secondary_label: str = "",
) -> None:
    """Write a boxplot SVG: per series a q1-q3 box, median line, 1.5-IQR
    whiskers with caps, outlier dots, and a marked mean.

    When the series carry a secondary axis scale, a right-hand axis shows
    each tick value multiplied by that scale.
    """
    if not series:
        raise UsageError("at least one series is required")
    scales = {s.secondary_axis_scale for s in series if s.secondary_axis_scale is not None}
    if len(scales) > 1:
        raise UsageError("secondary axis scales differ between series")
    secondary = scales.pop() if scales else None

    plot_w = CANVAS_WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = CANVAS_HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    values: list[float] = []
    for s in series:
        values.extend((s.stats.whisker_low, s.stats.whisker_high, s.stats.mean))
        values.extend(s.stats.outliers)
    lo = min(values)
    hi = max(values)
    pad = (hi - lo) * 0.05 if hi > lo else max(abs(hi), 1.0) * 0.05
    lo -= pad
    hi += pad

    def y(value: float) -> float:
        return MARGIN_TOP + (hi - value) / (hi - lo) * plot_h

    parts: list[str] = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS_WIDTH}" '
        f'height="{CANVAS_HEIGHT}" viewBox="0 0 {CANVAS_WIDTH} {CANVAS_HEIGHT}">',
        "  <style>",
        _STYLE,
        "  </style>",
        f'  <text class="title" x="{CANVAS_WIDTH / 2:.0f}" y="24" '
        f'text-anchor="middle">{_escape(title)}</text>',
        f'  <line class="axis" x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" '
        f'x2="{MARGIN_LEFT}" y2="{MARGIN_TOP + plot_h}"/>',
    ]
    if secondary is not None:
        parts.append(
            f'  <line class="axis" x1="{CANVAS_WIDTH - MARGIN_RIGHT}" '
            f'y1="{MARGIN_TOP}" x2="{CANVAS_WIDTH - MARGIN_RIGHT}" '
            f'y2="{MARGIN_TOP + plot_h}"/>'
        )
    for i in range(N_TICKS):
        tick = lo + (hi - lo) * i / (N_TICKS - 1)
        ty = y(tick)
        parts.append(
            f'  <line class="tick" x1="{MARGIN_LEFT}" y1="{_fmt(ty)}" '
            f'x2="{CANVAS_WIDTH - MARGIN_RIGHT}" y2="{_fmt(ty)}"/>'
        )
        parts.append(
            f'  <text x="{MARGIN_LEFT - 8}" y="{_fmt(ty + 4)}" '
            f'text-anchor="end">{tick:.2f}</text>'
        )
        if secondary is not None:
            parts.append(
                f'  <text x="{CANVAS_WIDTH - MARGIN_RIGHT + 8}" y="{_fmt(ty + 4)}" '
                f'text-anchor="start">{tick * secondary:.2f}</text>'
            )
    if y_label:
        parts.append(
            f'  <text x="16" y="{MARGIN_TOP + plot_h / 2:.0f}" text-anchor="middle" '
            f'transform="rotate(-90 16 {MARGIN_TOP + plot_h / 2:.0f})">'
            f"{_escape(y_label)}</text>"
        )
    if secondary is not None and secondary_label:
        x = CANVAS_WIDTH - 14
        parts.append(
            f'  <text x="{x}" y="{MARGIN_TOP + plot_h / 2:.0f}" text-anchor="middle" '
            f'transform="rotate(90 {x} {MARGIN_TOP + plot_h / 2:.0f})">'
            f"{_escape(secondary_label)}</text>"
        )

    slot = plot_w / len(series)
    cap = BOX_WIDTH * 0.6
    for index, s in enumerate(series):
        stats = s.stats
        cx = MARGIN_LEFT + slot * (index + 0.5)
        left = cx - BOX_WIDTH / 2
        y_q1, y_q3 = y(stats.q1), y(stats.q3)
        parts.append(
            f'  <line class="whisker" x1="{_fmt(cx)}" y1="{_fmt(y_q1)}" '
            f'x2="{_fmt(cx)}" y2="{_fmt(y(stats.whisker_low))}"/>'
        )
        parts.append(
            f'  <line class="whisker" x1="{_fmt(cx)}" y1="{_fmt(y_q3)}" '
            f'x2="{_fmt(cx)}" y2="{_fmt(y(stats.whisker_high))}"/>'
        )
        for value in (stats.whisker_low, stats.whisker_high):
            parts.append(
                f'  <line class="whisker" x1="{_fmt(cx - cap / 2)}" '
                f'y1="{_fmt(y(value))}" x2="{_fmt(cx + cap / 2)}" '
                f'y2="{_fmt(y(value))}"/>'
            )
        parts.append(
            f'  <rect class="box" x="{_fmt(left)}" y="{_fmt(y_q3)}" '
            f'width="{_fmt(BOX_WIDTH)}" height="{_fmt(y_q1 - y_q3)}"/>'
        )
        parts.append(
            f'  <line class="median" x1="{_fmt(left)}" y1="{_fmt(y(stats.median))}" '
            f'x2="{_fmt(left + BOX_WIDTH)}" y2="{_fmt(y(stats.median))}"/>'
        )
        for value in stats.outliers:
            parts.append(
                f'  <circle class="outlier" cx="{_fmt(cx)}" cy="{_fmt(y(value))}" '
                f'r="2.5"/>'
            )
        parts.append(
            f'  <circle class="mean" cx="{_fmt(cx)}" cy="{_fmt(y(stats.mean))}" '
            f'r="3.5"/>'
        )
        parts.append(
            f'  <text class="label" x="{_fmt(cx)}" '
            f'y="{MARGIN_TOP + plot_h + 20}" text-anchor="middle">'
            f"{_escape(s.label)}</text>"
        )
    parts.append("</svg>")
    Path(out).write_text("\n".join(parts) + "\n", encoding="utf-8", newline="\n")
