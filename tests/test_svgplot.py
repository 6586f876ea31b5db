"""Boxplot SVG rendering: geometry, axes, escaping, determinism.

The tests re-derive the value-to-pixel map from the declared canvas
constants and check every drawn element against it. Coordinates in the
file carry two decimals, so comparisons allow 0.011 (one rounding step
on each of two values).
"""

from __future__ import annotations

import hashlib
import math
import xml.etree.ElementTree as ET
from dataclasses import replace
from xml.sax.saxutils import escape

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lingspace import svgplot
from lingspace.errors import UsageError
from lingspace.measures import SpaceMeasure
from lingspace.pipeline import plot_ratios
from lingspace.ratios import DescriptiveStats, RatioStats
from lingspace.svgplot import BoxplotSeries, render_boxplot
from textgen import MIXED_TEXT

NS = "{http://www.w3.org/2000/svg}"
COORD = 0.011

STATS = DescriptiveStats(
    n=9,
    mean=3.1,
    median=3.0,
    q1=2.0,
    q3=4.0,
    whisker_low=1.5,
    whisker_high=4.5,
    outliers=(0.5, 6.0),
)
PLAIN = DescriptiveStats(
    n=4, mean=2.0, median=2.0, q1=1.5, q3=2.5,
    whisker_low=1.0, whisker_high=3.0, outliers=(),
)


def _pixel_map(all_stats):
    """Value -> y coordinate, rebuilt from the documented layout rules:
    5% padding around the span of whiskers, means, and outliers."""
    values: list[float] = []
    for st in all_stats:
        values.extend((st.whisker_low, st.whisker_high, st.mean))
        values.extend(st.outliers)
    lo, hi = min(values), max(values)
    pad = (hi - lo) * 0.05 if hi > lo else max(abs(hi), 1.0) * 0.05
    lo, hi = lo - pad, hi + pad
    plot_h = svgplot.CANVAS_HEIGHT - svgplot.MARGIN_TOP - svgplot.MARGIN_BOTTOM

    def y(value: float) -> float:
        return svgplot.MARGIN_TOP + (hi - value) / (hi - lo) * plot_h

    return y


def _render(tmp_path, series, title="character ratios", **kwargs):
    out = tmp_path / "plot.svg"
    render_boxplot(series, title, out, **kwargs)
    return out, ET.parse(out).getroot()


def _by_class(root, tag: str, cls: str):
    return [el for el in root.iter(NS + tag) if el.get("class") == cls]


def _f(element, attr: str) -> float:
    return float(element.get(attr))


class TestSingleSeriesGeometry:
    @pytest.fixture()
    def root(self, tmp_path):
        return _render(tmp_path, [BoxplotSeries("eng", STATS)])[1]

    def test_canvas_dimensions_are_declared_on_the_root(self, root):
        assert root.tag == NS + "svg"
        assert root.get("width") == str(svgplot.CANVAS_WIDTH)
        assert root.get("height") == str(svgplot.CANVAS_HEIGHT)

    def test_box_spans_q1_to_q3(self, root):
        y = _pixel_map([STATS])
        (box,) = _by_class(root, "rect", "box")
        assert _f(box, "y") == pytest.approx(y(STATS.q3), abs=COORD)
        assert _f(box, "height") == pytest.approx(y(STATS.q1) - y(STATS.q3), abs=COORD)
        assert _f(box, "width") == pytest.approx(svgplot.BOX_WIDTH, abs=COORD)

    def test_box_is_centered_in_its_slot(self, root):
        # one series: slot center is the middle of the plot area
        cx = svgplot.MARGIN_LEFT + (svgplot.CANVAS_WIDTH - svgplot.MARGIN_LEFT - svgplot.MARGIN_RIGHT) / 2
        (box,) = _by_class(root, "rect", "box")
        assert _f(box, "x") == pytest.approx(cx - svgplot.BOX_WIDTH / 2, abs=COORD)

    def test_median_line_is_horizontal_at_the_median(self, root):
        y = _pixel_map([STATS])
        (median,) = _by_class(root, "line", "median")
        assert _f(median, "y1") == _f(median, "y2")
        assert _f(median, "y1") == pytest.approx(y(STATS.median), abs=COORD)
        assert _f(median, "x2") - _f(median, "x1") == pytest.approx(svgplot.BOX_WIDTH, abs=COORD)

    def test_whisker_stems_and_caps(self, root):
        y = _pixel_map([STATS])
        whiskers = _by_class(root, "line", "whisker")
        assert len(whiskers) == 4
        stems = [w for w in whiskers if w.get("x1") == w.get("x2")]
        caps = [w for w in whiskers if w.get("y1") == w.get("y2")]
        assert len(stems) == 2 and len(caps) == 2
        stem_ends = sorted(_f(w, "y2") for w in stems)
        assert stem_ends[0] == pytest.approx(y(STATS.whisker_high), abs=COORD)
        assert stem_ends[1] == pytest.approx(y(STATS.whisker_low), abs=COORD)
        cap_levels = sorted(_f(w, "y1") for w in caps)
        assert cap_levels[0] == pytest.approx(y(STATS.whisker_high), abs=COORD)
        assert cap_levels[1] == pytest.approx(y(STATS.whisker_low), abs=COORD)

    def test_each_outlier_gets_one_circle(self, root):
        y = _pixel_map([STATS])
        circles = _by_class(root, "circle", "outlier")
        assert len(circles) == len(STATS.outliers)
        drawn = sorted(_f(c, "cy") for c in circles)
        expected = sorted(y(v) for v in STATS.outliers)
        assert drawn == pytest.approx(expected, abs=COORD)
        assert {c.get("r") for c in circles} == {"2.5"}

    def test_mean_marker_sits_at_the_mean(self, root):
        y = _pixel_map([STATS])
        (mean,) = _by_class(root, "circle", "mean")
        assert _f(mean, "cy") == pytest.approx(y(STATS.mean), abs=COORD)

    def test_larger_values_map_to_smaller_y(self, root):
        # SVG y grows downward, so the q3 edge must sit above q1
        (box,) = _by_class(root, "rect", "box")
        y = _pixel_map([STATS])
        assert y(STATS.q3) < y(STATS.median) < y(STATS.q1)
        assert _f(box, "y") < y(STATS.median)


class TestMultipleSeries:
    def test_boxes_follow_input_order_left_to_right(self, tmp_path):
        series = [BoxplotSeries("eng", STATS), BoxplotSeries("jpn", PLAIN)]
        _, root = _render(tmp_path, series)
        boxes = _by_class(root, "rect", "box")
        assert len(boxes) == 2
        assert _f(boxes[0], "x") < _f(boxes[1], "x")
        labels = [t.text for t in _by_class(root, "text", "label")]
        assert labels == ["eng", "jpn"]

    def test_slot_centers_split_the_plot_evenly(self, tmp_path):
        series = [BoxplotSeries("eng", STATS), BoxplotSeries("jpn", PLAIN)]
        _, root = _render(tmp_path, series)
        plot_w = svgplot.CANVAS_WIDTH - svgplot.MARGIN_LEFT - svgplot.MARGIN_RIGHT
        boxes = _by_class(root, "rect", "box")
        for index, box in enumerate(boxes):
            cx = svgplot.MARGIN_LEFT + plot_w / 2 * (index + 0.5)
            assert _f(box, "x") == pytest.approx(cx - svgplot.BOX_WIDTH / 2, abs=COORD)

    def test_shared_value_axis_covers_both_series(self, tmp_path):
        series = [BoxplotSeries("eng", STATS), BoxplotSeries("jpn", PLAIN)]
        _, root = _render(tmp_path, series)
        y = _pixel_map([STATS, PLAIN])
        means = _by_class(root, "circle", "mean")
        drawn = sorted(_f(c, "cy") for c in means)
        expected = sorted(y(v) for v in (STATS.mean, PLAIN.mean))
        assert drawn == pytest.approx(expected, abs=COORD)

    def test_no_outliers_means_no_outlier_circles(self, tmp_path):
        _, root = _render(tmp_path, [BoxplotSeries("jpn", PLAIN)])
        assert _by_class(root, "circle", "outlier") == []


class TestSecondaryAxis:
    def test_without_scale_only_the_left_axis_is_drawn(self, tmp_path):
        _, root = _render(tmp_path, [BoxplotSeries("eng", STATS)])
        assert len(_by_class(root, "line", "axis")) == 1

    def test_scale_adds_a_right_axis_line(self, tmp_path):
        series = [BoxplotSeries("eng", STATS)]
        _, root = _render(tmp_path, series, secondary=(2.5, "eng-equivalent length"))
        axes = _by_class(root, "line", "axis")
        assert len(axes) == 2
        xs = sorted(_f(a, "x1") for a in axes)
        assert xs == [
            svgplot.MARGIN_LEFT,
            svgplot.CANVAS_WIDTH - svgplot.MARGIN_RIGHT,
        ]

    def test_right_ticks_are_left_ticks_times_the_scale(self, tmp_path):
        scale = 2.5
        series = [BoxplotSeries("eng", STATS)]
        _, root = _render(tmp_path, series, secondary=(scale, "eng-equivalent length"))
        left = [t for t in root.iter(NS + "text") if t.get("text-anchor") == "end"]
        right = [t for t in root.iter(NS + "text") if t.get("text-anchor") == "start"]
        assert len(left) == svgplot.N_TICKS
        assert len(right) == svgplot.N_TICKS
        for lt, rt in zip(left, right):
            assert lt.get("y") == rt.get("y")
            assert float(rt.text) == pytest.approx(float(lt.text) * scale, abs=0.02)

    def test_secondary_label_titles_the_right_axis(self, tmp_path):
        series = [BoxplotSeries("eng", STATS), BoxplotSeries("jpn", PLAIN)]
        _, root = _render(tmp_path, series, secondary=(2.5, "chars < 140 & more"))
        (label,) = [
            t for t in root.iter(NS + "text")
            if (t.get("transform") or "").startswith("rotate(90 ")
        ]
        assert label.text == "chars < 140 & more"
        assert _f(label, "x") == svgplot.CANVAS_WIDTH - 14


class TestValidationAndText:
    def test_empty_series_list_is_rejected(self, tmp_path):
        with pytest.raises(UsageError, match="at least one series is required"):
            render_boxplot([], "ratios", tmp_path / "plot.svg")

    def test_empty_label_is_rejected(self):
        with pytest.raises(UsageError, match="series label must be non-empty"):
            BoxplotSeries("", STATS)

    def test_title_and_axis_labels_are_escaped(self, tmp_path):
        out, root = _render(
            tmp_path,
            [BoxplotSeries("eng", STATS)],
            title='chars <ratio> & "quotes"',
            y_label="ratio a<b",
        )
        raw = out.read_text(encoding="utf-8")
        assert "&lt;ratio&gt; &amp;" in raw
        assert "a&lt;b" in raw
        titles = _by_class(root, "text", "title")
        assert titles[0].text == 'chars <ratio> & "quotes"'

    @given(st.lists(st.one_of(MIXED_TEXT, st.sampled_from("&<>\"'")), max_size=12))
    def test_escape_matches_the_standard_library(self, pieces):
        text = "".join(pieces)
        assert svgplot._escape(text) == escape(text)

    @pytest.mark.parametrize(
        "stats",
        [
            replace(PLAIN, q1=0.0, q3=1.5e308, whisker_low=0.0, whisker_high=1.75e308),
            replace(PLAIN, median=math.nan),
            replace(PLAIN, outliers=(math.inf,)),
        ],
        ids=["axis-past-the-float-range", "nan-median", "infinite-outlier"],
    )
    def test_number_that_is_not_finite_is_rejected_before_the_file(self, tmp_path, stats):
        """No coordinate or tick label may read nan or inf. The 5 % padding
        takes an axis that reaches 1.75e308 past the largest float."""
        out = tmp_path / "plot.svg"
        with pytest.raises(UsageError, match=(
            r"^figure has a coordinate or tick label nan, which is not a finite number$"
        )):
            render_boxplot([BoxplotSeries("a", stats)], "ric", out)
        assert not out.exists()

    def test_flat_series_still_renders_with_padding(self, tmp_path):
        flat = DescriptiveStats(
            n=3, mean=2.0, median=2.0, q1=2.0, q3=2.0,
            whisker_low=2.0, whisker_high=2.0, outliers=(),
        )
        _, root = _render(tmp_path, [BoxplotSeries("cmn_hans", flat)])
        y = _pixel_map([flat])
        (median,) = _by_class(root, "line", "median")
        assert _f(median, "y1") == pytest.approx(y(2.0), abs=COORD)
        (box,) = _by_class(root, "rect", "box")
        assert _f(box, "height") == pytest.approx(0.0, abs=COORD)

    def test_rendering_twice_is_byte_identical(self, tmp_path):
        series = [BoxplotSeries("eng", STATS), BoxplotSeries("jpn", PLAIN)]
        first = tmp_path / "a.svg"
        second = tmp_path / "b.svg"
        render_boxplot(series, "ratios", first, y_label="ratio")
        render_boxplot(series, "ratios", second, y_label="ratio")
        assert first.read_bytes() == second.read_bytes()


class TestPinnedBytes:
    """sha256 of two figures, recorded when each element kind was still
    written inline: a change to the renderer must keep every byte."""

    def test_ratio_figure_with_right_axis(self, tmp_path):
        out = tmp_path / "ratios.svg"
        ratio_stats = {
            lang: RatioStats(lang, "cmn_hant", SpaceMeasure.CHARACTERS, (), stats)
            for lang, stats in (("eng", STATS), ("jpn", PLAIN))
        }
        plot_ratios(
            ratio_stats, "cmn_hant", "characters", out,
            rescale_lang="eng", title='chars <ratio> & "quotes"',
        )
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "12a219c354b080ce2f72bfe67ccc1dcde890ae9176b5475bb702646fb666ff1f"
        )

    def test_figure_without_axis_labels(self, tmp_path):
        out = tmp_path / "plain.svg"
        series = [BoxplotSeries("a<b & c", STATS), BoxplotSeries("jpn", PLAIN)]
        render_boxplot(series, "plain", out)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "e19d5cdf28ba178f2dacba506aa59d54c9ce3371368cba128ef95cd194b70a30"
        )
