"""Ratio computation and boxplot statistics.

The quartile oracle below interpolates linearly between order statistics
(the R-7 / spreadsheet convention) and is written from that definition, not
from the implementation, so the two can disagree. Of the ways to write the
interpolation it takes the one `statistics.quantiles(method="inclusive")`
evaluates, so rounding alone cannot set them apart.
"""

import math
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lingspace.corpus import AlignedUnit, ParallelCorpus
from lingspace.errors import DataError, UsageError
from lingspace.measures import SpaceMeasure
from lingspace.ratios import RATIOS_TABLE, aggregate_ratios, describe, unit_ratio

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)
value_lists = st.lists(finite_floats, min_size=1, max_size=200)

# Non-blank unit texts; hypothesis may shrink toward short strings, which is
# exactly where off-by-one ratio bugs live.
unit_texts = st.text(min_size=1).filter(lambda t: t.strip())


def _quantile(data: list[float], i: int, n: int = 4) -> float:
    """The i-th of n quantiles of sorted data (0 < i < n): the order
    statistic at h = (len - 1) * i / n, or a linear interpolation between the
    two around it, each weighted in n-ths by its nearness to h."""
    if len(data) == 1:
        return data[0]
    j, delta = divmod((len(data) - 1) * i, n)
    return (data[j] * (n - delta) + data[j + 1] * delta) / n


def _tukey_oracle(values):
    data = sorted(float(v) for v in values)
    q1 = _quantile(data, 1)
    q3 = _quantile(data, 3)
    lo_fence = q1 - 1.5 * (q3 - q1)
    hi_fence = q3 + 1.5 * (q3 - q1)
    inside = [v for v in data if lo_fence <= v <= hi_fence]
    whisker_low = min(min(inside), q1) if inside else q1
    whisker_high = max(max(inside), q3) if inside else q3
    outliers = tuple(v for v in data if v < lo_fence or v > hi_fence)
    return q1, q3, whisker_low, whisker_high, outliers


class TestDescribe:
    def test_empty_input_rejected(self):
        with pytest.raises(UsageError, match="empty"):
            describe([])

    @pytest.mark.parametrize(
        ("values", "named"),
        [
            ([math.nan, 10.0, 1e308, 2.0, 2.0], "#0 (nan)"),
            ([1.0, math.inf], "#1 (inf)"),
            ([2.0, 3.0, -math.inf], "#2 (-inf)"),
            ([math.inf, -math.inf], "#0 (inf)"),
        ],
        ids=["nan", "inf", "-inf", "both-infinities"],
    )
    def test_first_non_finite_value_rejected(self, values, named):
        # NaN does not sort, so its quartiles and whiskers would be arbitrary;
        # an infinity gives an infinite box, or, with its opposite, no mean.
        with pytest.raises(UsageError, match=f"non-finite value {re.escape(named)}$"):
            describe(values)

    def test_two_values(self):
        stats = describe([2.0, 4.0])
        assert stats.mean == 3.0
        assert stats.median == 3.0
        assert stats.n == 2

    def test_values_whose_sum_passes_the_float_range(self):
        """The mean is still theirs; the interpolated box passes the range,
        and its nan fences leave the box edges as whiskers."""
        stats = describe([1.75e308, 1.75e308])
        assert stats.mean == 1.75e308
        assert (stats.q1, stats.q3) == (stats.whisker_low, stats.whisker_high)
        assert stats.outliers == ()

    def test_single_value_collapses_the_box(self):
        stats = describe([7.0])
        assert (stats.q1, stats.median, stats.q3) == (7.0, 7.0, 7.0)
        assert (stats.whisker_low, stats.whisker_high) == (7.0, 7.0)
        assert stats.outliers == ()

    def test_hand_computed_quartiles(self):
        # Sorted: 1 2 3 4 10; h1 = 1.0 -> q1 = 2, h3 = 3.0 -> q3 = 4.
        stats = describe([4.0, 1.0, 10.0, 2.0, 3.0])
        assert stats.q1 == 2.0
        assert stats.median == 3.0
        assert stats.q3 == 4.0
        # Fences at 2 - 3 = -1 and 4 + 3 = 7: the 10 is an outlier.
        assert stats.outliers == (10.0,)
        assert stats.whisker_low == 1.0
        assert stats.whisker_high == 4.0

    def test_interpolated_quartiles(self):
        # Sorted: 1 2 3 4; h1 = 0.75 -> 1.75, h3 = 2.25 -> 3.25.
        stats = describe([1.0, 2.0, 3.0, 4.0])
        assert stats.q1 == pytest.approx(1.75)
        assert stats.q3 == pytest.approx(3.25)

    def test_input_order_is_irrelevant(self):
        assert describe([3.0, 1.0, 2.0]) == describe([1.0, 2.0, 3.0])

    @given(value_lists)
    # q3 cancels to about -4.8e4, where half an ulp of the inputs is 6e-8
    @example([314944762.06202435, -945025948.0])
    # q1 0, q3 4: -6 and 10 lie exactly on the fences, -7 and 11 beyond them
    @example([11.0, -6.0, 0.0, 4.0, 0.0, -7.0, 4.0, 0.0, 10.0, 4.0])
    @example([3.0] * 5)  # all values equal: a box, fences and whiskers of width 0
    # A box edge overflows to -inf or inf, so the fences are -inf and inf, not nan
    @example([-1e308, -1e308, 1.0, 1.0])
    @example([-1.0, -1.0, 1e308, 1e308])
    # Rounding puts q1 one ulp above q3: the fences cross and both are outliers
    @example([30.274463837314222, 30.274463837314226])
    def test_matches_the_independent_oracle(self, values):
        # rel covers last-ulp differences in interpolation order at large
        # magnitudes; abs covers values straddling zero.
        close = lambda v: pytest.approx(v, rel=1e-12, abs=1e-9)  # noqa: E731
        stats = describe(values)
        q1, q3, wlo, whi, outliers = _tukey_oracle(values)
        assert stats.q1 == close(q1)
        assert stats.q3 == close(q3)
        assert stats.whisker_low == close(wlo)
        assert stats.whisker_high == close(whi)
        assert stats.outliers == close(outliers)

    @pytest.mark.parametrize("values", [[0.0, -0.0], [-0.0, 0.0], [1.0, 0.0, -0.0]])
    def test_whiskers_keep_the_first_of_equal_zeros(self, values):
        """Sorting keeps 0.0 and -0.0 in input order, and a whisker is the
        first of them, as min() and max() over the sorted data give it."""
        data = sorted(values)
        stats = describe(values)
        assert repr(stats.whisker_low) == repr(min(min(data), stats.q1))
        assert repr(stats.whisker_high) == repr(max(max(data), stats.q3))

    @given(value_lists)
    def test_boxplot_shape_invariants(self, values):
        stats = describe(values)
        eps = 1e-9 * max(1.0, max(abs(v) for v in values))
        assert stats.q1 <= stats.median + eps
        assert stats.median <= stats.q3 + eps
        assert stats.whisker_low <= stats.q1 + eps
        assert stats.q3 <= stats.whisker_high + eps
        iqr = stats.q3 - stats.q1
        assert stats.whisker_low >= stats.q1 - 1.5 * iqr - eps
        assert stats.whisker_high <= stats.q3 + 1.5 * iqr + eps
        for outlier in stats.outliers:
            assert outlier < stats.whisker_low or outlier > stats.whisker_high

    @given(value_lists)
    def test_mean_and_median_stay_within_range(self, values):
        stats = describe(values)
        # fmean rounds once per addition, so the mean can overshoot the
        # range by a few ulps (e.g. fmean([x, x, x]) > x when 3x rounds up)
        slack = len(values) * math.ulp(max(abs(v) for v in values))
        assert min(values) - slack <= stats.mean <= max(values) + slack
        assert min(values) <= stats.median <= max(values)


def _unit(eng: str, hans: str) -> AlignedUnit:
    return AlignedUnit("u1", {"eng": eng, "cmn_hans": hans})


class TestUnitRatio:
    def test_four_to_one(self):
        unit = _unit("x" * 100, "中" * 25)
        assert unit_ratio(unit, "eng", "cmn_hans", SpaceMeasure.CHARACTERS) == 4.0

    def test_identity_is_exactly_one(self):
        unit = _unit("hello", "中")
        assert unit_ratio(unit, "eng", "eng", SpaceMeasure.CHARACTERS) == 1.0

    def test_reciprocity_on_the_example(self):
        unit = _unit("x" * 100, "中" * 25)
        forward = unit_ratio(unit, "eng", "cmn_hans", SpaceMeasure.CHARACTERS)
        backward = unit_ratio(unit, "cmn_hans", "eng", SpaceMeasure.CHARACTERS)
        assert forward == 4.0
        assert backward == 0.25
        assert forward * backward == 1.0

    def test_missing_language_is_a_data_error(self):
        unit = _unit("hello", "中")
        with pytest.raises(DataError, match="has no jpn text"):
            unit_ratio(unit, "jpn", "eng", SpaceMeasure.CHARACTERS)

    @given(unit_texts, unit_texts)
    def test_reciprocity(self, a, b):
        unit = AlignedUnit("u", {"eng": a, "jpn": b})
        forward = unit_ratio(unit, "eng", "jpn", SpaceMeasure.CHARACTERS)
        backward = unit_ratio(unit, "jpn", "eng", SpaceMeasure.CHARACTERS)
        assert abs(forward * backward - 1.0) < 1e-9

    @given(unit_texts, unit_texts)
    def test_identity(self, a, b):
        unit = AlignedUnit("u", {"eng": a, "jpn": b})
        assert unit_ratio(unit, "eng", "eng", SpaceMeasure.CHARACTERS) == 1.0
        assert unit_ratio(unit, "jpn", "jpn", SpaceMeasure.UTF8_BYTES) == 1.0

    @given(unit_texts, unit_texts, st.integers(min_value=1, max_value=5))
    def test_repetition_invariance(self, a, b, k):
        base = AlignedUnit("u", {"eng": a, "jpn": b})
        repeated = AlignedUnit("u", {"eng": a * k, "jpn": b * k})
        for measure in (SpaceMeasure.CHARACTERS, SpaceMeasure.UTF8_BYTES):
            one = unit_ratio(base, "eng", "jpn", measure)
            many = unit_ratio(repeated, "eng", "jpn", measure)
            assert abs(one - many) < 1e-9


def _corpus(pairs, *, name="c") -> ParallelCorpus:
    units = tuple(
        AlignedUnit(str(i), dict(texts)) for i, texts in enumerate(pairs)
    )
    return ParallelCorpus(name, ("eng", "cmn_hans"), units)


class TestAggregateRatios:
    def test_mean_and_median_of_two_units(self):
        corpus = _corpus(
            [
                {"eng": "x" * 10, "cmn_hans": "中" * 5},
                {"eng": "x" * 20, "cmn_hans": "中" * 5},
            ]
        )
        stats = aggregate_ratios(
            corpus, "eng", "cmn_hans", SpaceMeasure.CHARACTERS
        )
        assert [r for _, r in stats.per_unit] == [2.0, 4.0]
        assert stats.stats.mean == 3.0
        assert stats.stats.median == 3.0

    def test_mean_weighs_every_unit_equally(self):
        # per-unit ratios 2 and 8; the ratio of total lengths would be 90/15 = 6
        corpus = _corpus(
            [
                {"eng": "x" * 10, "cmn_hans": "中" * 5},
                {"eng": "x" * 80, "cmn_hans": "中" * 10},
            ]
        )
        mean = aggregate_ratios(
            corpus, "eng", "cmn_hans", SpaceMeasure.CHARACTERS
        ).stats.mean
        assert mean == 5.0

    def test_per_unit_follows_corpus_order(self, udhr_corpus):
        stats = aggregate_ratios(
            udhr_corpus, "eng", "cmn_hant", SpaceMeasure.CHARACTERS
        )
        assert [unit_id for unit_id, _ in stats.per_unit] == [
            u.unit_id for u in udhr_corpus.units
        ]

    def test_stats_recomputable_from_per_unit(self, udhr_corpus):
        stats = aggregate_ratios(
            udhr_corpus, "jpn", "cmn_hant", SpaceMeasure.CHARACTERS
        )
        assert describe([r for _, r in stats.per_unit]) == stats.stats

    def test_empty_corpus_rejected(self):
        corpus = ParallelCorpus("empty", ("eng", "cmn_hans"), ())
        with pytest.raises(UsageError, match="has no units"):
            aggregate_ratios(corpus, "eng", "cmn_hans", SpaceMeasure.CHARACTERS)

    def test_language_not_in_corpus_rejected(self):
        corpus = _corpus([{"eng": "x", "cmn_hans": "中"}])
        with pytest.raises(UsageError, match="jpn is not in corpus"):
            aggregate_ratios(corpus, "jpn", "eng", SpaceMeasure.CHARACTERS)

    def test_units_missing_a_language_are_skipped_with_warning(self, caplog):
        corpus = _corpus(
            [{"eng": "x" * 10, "cmn_hans": "中" * 5}, {"eng": "y" * 10}]
        )
        with caplog.at_level("WARNING", logger="lingspace.ratios"):
            stats = aggregate_ratios(
                corpus, "eng", "cmn_hans", SpaceMeasure.CHARACTERS
            )
        assert [unit_id for unit_id, _ in stats.per_unit] == ["0"]
        assert stats.stats.n == 1
        # one summary line, not one line per skipped unit
        assert caplog.messages == ["1 of 2 units skipped for eng vs cmn_hans"]

    def test_no_measurable_units_is_a_usage_error(self):
        units = (AlignedUnit("1", {"eng": "x"}), AlignedUnit("2", {"jpn": "あ"}))
        corpus = ParallelCorpus("c", ("eng", "jpn"), units)
        with pytest.raises(UsageError, match="no measurable units"):
            aggregate_ratios(corpus, "eng", "jpn", SpaceMeasure.CHARACTERS)


def test_ratio_table_row_matches_schema(udhr_corpus):
    stats = aggregate_ratios(udhr_corpus, "eng", "cmn_hant", SpaceMeasure.CHARACTERS)
    cells = RATIOS_TABLE.cells(stats)
    assert len(cells) == len(RATIOS_TABLE.fields)
    row = dict(zip(RATIOS_TABLE.fields, cells))
    assert row["lang_b"] == "eng"
    assert row["lang_a"] == "cmn_hant"
    assert row["measure"] == "characters"
    assert row["n"] == stats.stats.n
    assert row["outlier_count"] == len(stats.stats.outliers)
    assert RATIOS_TABLE.read(row) == (("eng", "cmn_hant"), stats.stats.mean)
