"""Cross-lingual space ratios over a parallel corpus, with boxplot statistics.

The per-unit ratio of language B against baseline A is the space the B text
needs divided by the space the A text needs, so a value near 4 means B is
four times as long. Aggregation averages per-unit ratios, so every unit
weighs the same whatever its length.
"""

from __future__ import annotations

import logging
import statistics
from collections.abc import Sequence
from dataclasses import dataclass

from .corpus import AlignedUnit, ParallelCorpus
from .errors import DataError, UsageError
from .langtags import LanguageTag
from .measures import SpaceMeasure, count_units

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
    """Summary statistics for a non-empty sequence of reals.

    Quartiles interpolate linearly between order statistics. Whiskers reach
    the most extreme data points within 1.5 IQR of the box; points beyond
    the fences are outliers, listed in ascending order.
    """
    data = sorted(float(v) for v in values)
    if not data:
        raise UsageError("cannot summarize an empty value list")
    mean = statistics.fmean(data)
    median = statistics.median(data)
    if len(data) >= 2:
        q1, _, q3 = statistics.quantiles(data, n=4, method="inclusive")
    else:
        q1 = q3 = data[0]
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    whisker_low = min(v for v in data if v >= lo_fence)
    whisker_high = max(v for v in data if v <= hi_fence)
    # A heavily skewed tail can leave no data between a fence and the box;
    # the box edge then doubles as the whisker.
    whisker_low = min(whisker_low, q1)
    whisker_high = max(whisker_high, q3)
    outliers = tuple(v for v in data if v < lo_fence or v > hi_fence)
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


RATIO_TABLE_FIELDS = (
    "lang_b",
    "lang_a",
    "measure",
    "n",
    "mean",
    "median",
    "q1",
    "q3",
    "whisker_low",
    "whisker_high",
    "outlier_count",
)


def ratio_table_row(ratio_stats: RatioStats) -> dict[str, object]:
    """Flatten RatioStats into the ratios table schema."""
    stats = ratio_stats.stats
    return {
        "lang_b": ratio_stats.lang_b,
        "lang_a": ratio_stats.lang_a,
        "measure": ratio_stats.measure.value,
        "n": stats.n,
        "mean": stats.mean,
        "median": stats.median,
        "q1": stats.q1,
        "q3": stats.q3,
        "whisker_low": stats.whisker_low,
        "whisker_high": stats.whisker_high,
        "outlier_count": len(stats.outliers),
    }
