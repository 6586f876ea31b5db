"""Cross-lingual space ratios over a parallel corpus, with boxplot statistics.

The per-unit ratio of language B against baseline A is the space the B text
needs divided by the space the A text needs, so a value near 4 means B is
four times as long. Aggregation averages per-unit ratios, so every unit
weighs the same whatever its length.
"""

from __future__ import annotations

import logging
import math
import statistics
from bisect import bisect_left, bisect_right
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .corpus import AlignedUnit, ParallelCorpus
from .errors import DataError, UsageError
from .langtags import LanguageTag, parse_language_tag
from .measures import SpaceMeasure, count_units
from .tables import Table, table_number

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DescriptiveStats:
    """Tukey boxplot numbers: quartiles, 1.5-IQR whiskers, outliers."""

    n: int
    mean: float
    median: float
    q1: float
    q3: float
    whisker_low: float
    whisker_high: float
    outliers: tuple[float, ...]


def describe(values: Sequence[float]) -> DescriptiveStats:
    """Summary statistics for a non-empty sequence of finite reals.

    Quartiles interpolate linearly between order statistics. Whiskers reach
    the most extreme data points within 1.5 IQR of the box; points beyond
    the fences are outliers, listed in ascending order.
    """
    data = list(map(float, values))
    if not data:
        raise UsageError("cannot summarize an empty value list")
    if not all(map(math.isfinite, data)):  # NaN does not sort; inf has no box
        index, value = next((i, v) for i, v in enumerate(data) if not math.isfinite(v))
        raise UsageError(f"cannot summarize non-finite value #{index} ({value})")
    data.sort()
    try:
        mean = statistics.fmean(data)
    except OverflowError:  # the sum passes the float range, the mean does not
        mean = math.fsum(v / len(data) for v in data)
    median = statistics.median(data)
    if len(data) >= 2:
        q1, _, q3 = statistics.quantiles(data, n=4, method="inclusive")
    else:
        q1 = q3 = data[0]
    iqr = q3 - q1
    if iqr != iqr:  # a box past the float range has nan fences
        whisker_low, whisker_high, outliers = q1, q3, ()
    else:
        # In the sorted data, the values below the low fence end at `lo` and
        # those above the high fence start at `hi`. A heavily skewed tail can
        # leave no data between a fence and the box; the box edge then
        # doubles as the whisker. Rounding can put q1 an ulp above q3, and
        # the fences then cross (lo > hi): every value is an outlier.
        lo = bisect_left(data, q1 - 1.5 * iqr)
        hi = bisect_right(data, q3 + 1.5 * iqr)
        whisker_low = min(data[lo], q1) if lo < len(data) else q1
        # The first of equal values, as max() over the data returned it:
        # 0.0 before -0.0 stays 0.0.
        whisker_high = max(data[bisect_left(data, data[hi - 1])], q3) if hi else q3
        outliers = tuple(data[:lo] + data[max(lo, hi):])
    return DescriptiveStats(
        len(data), mean, median, q1, q3, whisker_low, whisker_high, outliers
    )


@dataclass(frozen=True)
class RatioStats:
    """Per-unit ratios of lang_b against baseline lang_a plus their summary."""

    lang_b: LanguageTag
    lang_a: LanguageTag
    measure: SpaceMeasure
    per_unit: tuple[tuple[str, float], ...]
    stats: DescriptiveStats


def unit_ratio(
    unit: AlignedUnit,
    lang_b: LanguageTag,
    lang_a: LanguageTag,
    measure: SpaceMeasure,
) -> float:
    """Space the lang_b text occupies per unit of lang_a space.

    Unit texts are never blank, so no measure of them reads zero.
    """
    texts = unit.texts
    for lang in (lang_b, lang_a):
        if lang not in texts:
            raise DataError(f"unit {unit.unit_id!r} has no {lang} text")
    return count_units(texts[lang_b], measure) / count_units(texts[lang_a], measure)


def aggregate_ratios(
    corpus: ParallelCorpus,
    lang_b: LanguageTag,
    lang_a: LanguageTag,
    measure: SpaceMeasure,
) -> RatioStats:
    """Per-unit ratios in corpus order plus Tukey statistics.

    Units missing either language are skipped, and one warning counts them,
    instead of failing the whole aggregation.
    """
    if not corpus.units:
        raise UsageError(f"corpus {corpus.name!r} has no units")
    for lang in (lang_b, lang_a):
        if lang not in corpus.languages:
            raise UsageError(f"language {lang} is not in corpus {corpus.name!r}")
    per_unit = tuple(
        (unit.unit_id, unit_ratio(unit, lang_b, lang_a, measure))
        for unit in corpus.units
        if lang_b in unit.texts and lang_a in unit.texts
    )
    if not per_unit:
        raise UsageError(
            f"no measurable units for {lang_b} vs {lang_a} in corpus {corpus.name!r}"
        )
    skipped = len(corpus.units) - len(per_unit)
    if skipped:
        log.warning(
            "%d of %d units skipped for %s vs %s",
            skipped,
            len(corpus.units),
            lang_b,
            lang_a,
        )
    values = [ratio for _, ratio in per_unit]
    return RatioStats(lang_b, lang_a, measure, per_unit, describe(values))


def _ratio_cells(ratio_stats: RatioStats) -> tuple:
    stats = ratio_stats.stats
    # A mean that four decimals round to 0 is not written: _read_ratio would
    # reject it, since ric divides by it.
    if not float(f"{stats.mean:.4f}"):
        raise DataError(
            f"ratio({ratio_stats.lang_b}, {ratio_stats.lang_a}) has mean "
            f"{stats.mean:.6g}, which a table would write as 0.0000 and ric "
            "could not divide by"
        )
    return (
        ratio_stats.lang_b,
        ratio_stats.lang_a,
        ratio_stats.measure.value,
        stats.n,
        stats.mean,
        stats.median,
        stats.q1,
        stats.q3,
        stats.whisker_low,
        stats.whisker_high,
        len(stats.outliers),
    )


def _read_ratio(row: Mapping[str, object]) -> tuple[tuple[str, str], float]:
    """`((lang_b, lang_a), mean)` of a ratios row, the mean `ric` divides by."""
    lang_b, lang_a = (parse_language_tag(str(row[n])) for n in ("lang_b", "lang_a"))
    mean = table_number(row["mean"])
    if not mean:
        raise ValueError(f"{row['mean']} is not a finite number > 0")
    return (lang_b, lang_a), mean


RATIOS_TABLE = Table(
    "ratios",
    ("lang_b", "lang_a", "measure", "n", "mean", "median", "q1", "q3",
     "whisker_low", "whisker_high", "outlier_count"),
    _ratio_cells,
    _read_ratio,
    unique=lambda ratio: "({}, {})".format(*ratio[0]),
)
