"""Boxplot rendering to standalone SVG.

The drawing is deliberately simple and fully deterministic: fixed canvas,
linear value axis, one box per series in input order. Element classes (box,
median, whisker, outlier, mean) keep the geometry machine-checkable.
"""

from __future__ import annotations

import math
import re
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
    """One box: a label and its statistics."""

    label: str
    stats: DescriptiveStats

    def __post_init__(self) -> None:
        if not self.label:
            raise UsageError("series label must be non-empty")


# What XML 1.0 allows in a document: tab, LF, CR and every other code point
# from U+0020 up, except the surrogates, U+FFFE and U+FFFF.
_NOT_XML = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def _check_text(what: str, text: str) -> None:
    """Reject figure text that an SVG cannot hold: a lone surrogate, which
    UTF-8 cannot encode, or another character that XML 1.0 forbids."""
    bad = _NOT_XML.search(text)
    if bad is not None:
        code = ord(bad.group())
        kind = "lone surrogate" if 0xD800 <= code <= 0xDFFF else "character"
        raise UsageError(
            f"figure {what} holds {kind} U+{code:04X}, which XML 1.0 does not allow"
        )


def _escape(text: str) -> str:
    """`&`, `>` and `<` as entities, in the order xml.sax.saxutils.escape
    replaces them; importing that module loads urllib.request, http.client,
    ssl and email, which would make every CLI call slower to start."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(value: float) -> str:
    """A computed position or value with two decimals; an int, which only
    the fixed layout gives, as it is."""
    return str(value) if isinstance(value, int) else f"{value:.2f}"


def _line(cls: str, x1: float, y1: float, x2: float, y2: float) -> str:
    return (
        f'  <line class="{cls}" x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
        f'x2="{_fmt(x2)}" y2="{_fmt(y2)}"/>'
    )


def _text(
    x: float, y: float, anchor: str, body: str, cls: str = "", rotate: int = 0
) -> str:
    """A text element; rotate turns it by that many degrees about (x, y)."""
    head = f' class="{cls}"' if cls else ""
    tail = f' transform="rotate({rotate} {_fmt(x)} {_fmt(y)})"' if rotate else ""
    return (
        f'  <text{head} x="{_fmt(x)}" y="{_fmt(y)}" text-anchor="{anchor}"{tail}>'
        f"{_escape(body)}</text>"
    )


def _circle(cls: str, cx: float, cy: float, r: float) -> str:
    return f'  <circle class="{cls}" cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{r}"/>'


def render_boxplot(
    series: Sequence[BoxplotSeries],
    title: str,
    out: str | Path,
    y_label: str = "",
    secondary: tuple[float, str] | None = None,
) -> None:
    """Write a boxplot SVG: per series a q1-q3 box, median line, 1.5-IQR
    whiskers with caps, outlier dots, and a marked mean.

    secondary=(scale, label) adds a right-hand axis, titled label, that
    shows each tick value multiplied by scale. Figure text an SVG cannot
    hold, or a right-hand tick label that is not a finite number, is a
    UsageError raised before `out` is opened.
    """
    if not series:
        raise UsageError("at least one series is required")
    _check_text("title", title)
    _check_text("axis label", y_label)
    if secondary is not None:
        _check_text("axis label", secondary[1])
    for s in series:
        _check_text("series label", s.label)

    plot_w = CANVAS_WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = CANVAS_HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    right = CANVAS_WIDTH - MARGIN_RIGHT
    bottom = MARGIN_TOP + plot_h
    middle = MARGIN_TOP + plot_h // 2
    values: list[float] = []
    for s in series:
        values.extend((s.stats.whisker_low, s.stats.whisker_high, s.stats.mean))
        values.extend(s.stats.outliers)
    lo = min(values)
    hi = max(values)
    pad = (hi - lo) * 0.05 if hi > lo else max(abs(hi), 1.0) * 0.05
    lo -= pad
    hi += pad
    ticks = [lo + (hi - lo) * i / (N_TICKS - 1) for i in range(N_TICKS)]
    if secondary is not None:
        scale, axis = secondary
        for tick in ticks:
            if not math.isfinite(tick * scale):
                raise UsageError(f"figure axis '{axis}' has tick label "
                                 f"{_fmt(tick * scale)}, which is not a finite number")

    def y(value: float) -> float:
        return MARGIN_TOP + (hi - value) / (hi - lo) * plot_h

    parts: list[str] = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS_WIDTH}" '
        f'height="{CANVAS_HEIGHT}" viewBox="0 0 {CANVAS_WIDTH} {CANVAS_HEIGHT}">',
        "  <style>",
        _STYLE,
        "  </style>",
        _text(CANVAS_WIDTH // 2, 24, "middle", title, cls="title"),
        _line("axis", MARGIN_LEFT, MARGIN_TOP, MARGIN_LEFT, bottom),
    ]
    if secondary is not None:
        parts.append(_line("axis", right, MARGIN_TOP, right, bottom))
    for tick in ticks:
        ty = y(tick)
        parts.append(_line("tick", MARGIN_LEFT, ty, right, ty))
        parts.append(_text(MARGIN_LEFT - 8, ty + 4, "end", _fmt(tick)))
        if secondary is not None:
            parts.append(_text(right + 8, ty + 4, "start", _fmt(tick * secondary[0])))
    if y_label:
        parts.append(_text(16, middle, "middle", y_label, rotate=-90))
    if secondary is not None:
        parts.append(_text(CANVAS_WIDTH - 14, middle, "middle", secondary[1], rotate=90))

    slot = plot_w / len(series)
    cap = BOX_WIDTH * 0.6
    for index, s in enumerate(series):
        stats = s.stats
        cx = MARGIN_LEFT + slot * (index + 0.5)
        left = cx - BOX_WIDTH / 2
        y_q1, y_q3 = y(stats.q1), y(stats.q3)
        parts.append(_line("whisker", cx, y_q1, cx, y(stats.whisker_low)))
        parts.append(_line("whisker", cx, y_q3, cx, y(stats.whisker_high)))
        for value in (stats.whisker_low, stats.whisker_high):
            parts.append(_line("whisker", cx - cap / 2, y(value), cx + cap / 2, y(value)))
        parts.append(
            f'  <rect class="box" x="{_fmt(left)}" y="{_fmt(y_q3)}" '
            f'width="{BOX_WIDTH:.2f}" height="{_fmt(y_q1 - y_q3)}"/>'
        )
        y_median = y(stats.median)
        parts.append(_line("median", left, y_median, left + BOX_WIDTH, y_median))
        for value in stats.outliers:
            parts.append(_circle("outlier", cx, y(value), 2.5))
        parts.append(_circle("mean", cx, y(stats.mean), 3.5))
        parts.append(_text(cx, bottom + 20, "middle", s.label, cls="label"))
    parts.append("</svg>")
    Path(out).write_text("\n".join(parts) + "\n", encoding="utf-8", newline="\n")
