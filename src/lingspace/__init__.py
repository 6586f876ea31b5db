"""Cross-lingual text-length analysis.

Measures how much content fits in length-limited messages across languages:
parallel-corpus space ratios, microblog length statistics with relative
information content, and exact models of platform length limits.
"""

from .corpus import (
    AlignedUnit,
    CorpusFilterPolicy,
    ExclusionReport,
    ParallelCorpus,
    build_parallel_corpus,
    load_corpus,
    load_subtitle_directory,
    load_udhr_directory,
    parse_udhr_language_file,
    save_corpus,
)
from .errors import (
    DataError,
    GbkEncodingError,
    GsmNotRepresentableError,
    LingspaceError,
    SubtitleParseError,
    UsageError,
)
from .langtags import (
    CMN_HANS,
    CMN_HANT,
    ENG,
    JPN,
    LanguageTag,
    parse_language_list,
    parse_language_tag,
    register_language,
    registered_languages,
)
from .limits import (
    PRESETS,
    SMS,
    TWITTER,
    WEIBO,
    CharLimit,
    EncodedUnitLimit,
    FitResult,
    LimitSpec,
    SingleSms,
    check_fit,
)
from .measures import (
    GbkFallback,
    SpaceMeasure,
    count_units,
    count_urls,
    detect_language,
    nfc,
    strip_urls,
)
from .microblog import (
    AccountMeta,
    AccountStats,
    Post,
    RicResult,
    account_length_stats,
    assign_posts,
    cell_key,
    compute_ric,
    load_accounts,
    load_posts,
)
from .pipeline import run_pipeline
from .ratios import (
    DescriptiveStats,
    RatioStats,
    aggregate_ratios,
    describe,
    equivalent_length,
    unit_ratio,
)
from .subtitles import parse_subtitle
from .svgplot import BoxplotSeries, render_boxplot
from .tables import emit_table, read_records

__version__ = "0.1.0"

__all__ = [
    "AccountMeta",
    "AccountStats",
    "AlignedUnit",
    "BoxplotSeries",
    "CMN_HANS",
    "CMN_HANT",
    "CharLimit",
    "CorpusFilterPolicy",
    "DataError",
    "DescriptiveStats",
    "ENG",
    "EncodedUnitLimit",
    "ExclusionReport",
    "FitResult",
    "GbkEncodingError",
    "GbkFallback",
    "GsmNotRepresentableError",
    "JPN",
    "LanguageTag",
    "LimitSpec",
    "LingspaceError",
    "ParallelCorpus",
    "Post",
    "PRESETS",
    "RatioStats",
    "RicResult",
    "SMS",
    "SingleSms",
    "SpaceMeasure",
    "SubtitleParseError",
    "TWITTER",
    "UsageError",
    "WEIBO",
    "account_length_stats",
    "aggregate_ratios",
    "assign_posts",
    "build_parallel_corpus",
    "cell_key",
    "check_fit",
    "compute_ric",
    "count_units",
    "count_urls",
    "describe",
    "detect_language",
    "emit_table",
    "equivalent_length",
    "load_accounts",
    "load_corpus",
    "load_posts",
    "load_subtitle_directory",
    "load_udhr_directory",
    "nfc",
    "parse_language_list",
    "parse_language_tag",
    "parse_subtitle",
    "parse_udhr_language_file",
    "read_records",
    "register_language",
    "registered_languages",
    "render_boxplot",
    "run_pipeline",
    "save_corpus",
    "strip_urls",
    "unit_ratio",
]
