"""Cross-lingual text-length analysis.

Measures how much content fits in length-limited messages across languages:
parallel-corpus space ratios, microblog length statistics with relative
information content, and exact models of platform length limits.

Every name in `__all__` is importable from this package, but the module that
defines it loads on first access (PEP 562). So `import lingspace` alone loads
no module, and importing one, such as `lingspace.cli` or `lingspace.limits`,
loads only what that module imports.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# Each defining module and the public names it exports.
_EXPORTS = {
    "corpus": (
        "AlignedUnit", "ExclusionReport", "ParallelCorpus", "load_corpus",
        "load_subtitle_directory", "load_udhr_directory", "save_corpus",
    ),
    "errors": (
        "DataError", "GsmNotRepresentableError", "LingspaceError",
        "SubtitleParseError", "UsageError",
    ),
    "langtags": (
        "CMN_HANS", "CMN_HANT", "ENG", "JPN", "LanguageTag", "parse_language_list",
        "parse_language_tag", "register_language",
    ),
    "limits": (
        "PRESETS", "SMS", "CharLimit", "EncodedUnitLimit", "FitResult", "LimitSpec",
        "SingleSms", "check_fit",
    ),
    "measures": (
        "SpaceMeasure", "count_units", "count_urls", "detect_language", "nfc",
        "strip_urls",
    ),
    "microblog": (
        "AccountMeta", "AccountStats", "Post", "RicResult", "account_length_stats",
        "assign_posts", "cell_key", "compute_ric", "load_accounts", "load_posts",
    ),
    "pipeline": ("run_pipeline",),
    "ratios": (
        "DescriptiveStats", "RatioStats", "aggregate_ratios", "describe", "unit_ratio",
    ),
    "subtitles": ("parse_subtitle",),
    "svgplot": ("BoxplotSeries", "render_boxplot"),
    "tables": ("emit_table", "read_table"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> object:
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MODULE_OF.keys())
