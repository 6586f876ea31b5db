"""End-to-end pipeline: ingest, ratios, post statistics, RIC, figures.

Each stage is a public function that takes inputs and returns results; the
CLI subcommands call the same functions and only add argument parsing and
file I/O around them.

Configuration is one INI document; every output lands in a single directory
and is byte-stable across reruns on unchanged inputs. Sections:

    [corpus]   format (udhr|ted), input (dir), langs (comma list),
               min_chars (optional; 0 for udhr, 1000 for ted by default)
    [ratios]   base, others (comma list), measure (characters|utf8|gbk),
               rescale_lang (optional, default eng when present),
               rescale_limit (default 140)
    [posts]    posts (file), posts_format (jsonl|csv, default by suffix),
               accounts (csv file), min_posts (default 50)
    [ric]      base (default: the ratios base)
    [output]   dir, format (csv|json, default csv)

Relative paths resolve against the config file's directory.
"""

from __future__ import annotations

import configparser
import logging
import sys
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from pathlib import Path

# perfbench/spans.py times each layer by wrapping the names the stages call
# through this module: the loaders, aggregate_ratios, describe, emit_table...
from .corpus import (
    ParallelCorpus,
    load_subtitle_directory,
    load_udhr_directory,
    save_corpus,
)
from .errors import LingspaceError, UsageError
from .langtags import ENG, LanguageTag, parse_language_list, parse_language_tag
from .measures import MEASURES_BY_CLI_NAME
from .microblog import (
    DEFAULT_MIN_POSTS,
    RIC_TABLE_FIELDS,
    STATS_TABLE_FIELDS,
    AccountStats,
    RicResult,
    account_length_stats,
    assign_posts,
    cell_key,
    compute_ric,
    load_accounts,
    load_posts,
    ric_table_row,
    stats_table_row,
)
from .ratios import (
    RATIO_TABLE_FIELDS,
    RatioStats,
    aggregate_ratios,
    describe,
    ratio_table_row,
)
from .svgplot import BoxplotSeries, render_boxplot
from .tables import emit_table

log = logging.getLogger(__name__)

# Characters of the rescale language that anchor the ratio plot's right axis:
# the classic 140-character microblog limit.
DEFAULT_RESCALE_LIMIT = 140.0


@dataclass(frozen=True)
class PipelineConfig:
    corpus_format: str
    corpus_input: Path
    langs: tuple[LanguageTag, ...]
    min_chars: int | None
    ratio_base: LanguageTag
    ratio_others: tuple[LanguageTag, ...]
    measure_name: str
    rescale_lang: LanguageTag | None
    rescale_limit: float
    posts_path: Path
    posts_format: str | None
    accounts_path: Path
    min_posts: int
    ric_base: LanguageTag
    out_dir: Path
    table_format: str


def load_pipeline_config(path: str | Path) -> PipelineConfig:
    path = Path(path)
    if not path.is_file():
        raise UsageError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    parser.read(path, encoding="utf-8")
    base_dir = path.parent

    def need(section: str, key: str) -> str:
        if not parser.has_option(section, key):
            raise UsageError(f"config lacks [{section}] {key}")
        return parser.get(section, key)

    def resolve(value: str) -> Path:
        candidate = Path(value)
        return candidate if candidate.is_absolute() else base_dir / candidate

    def number(section: str, key: str, kind: Callable[[str], float], default):
        raw = parser.get(section, key, fallback=None)
        try:
            return default if raw is None else kind(raw)
        except ValueError as exc:
            raise UsageError(
                f"[{section}] {key} is not a valid {kind.__name__}: {raw!r}"
            ) from exc

    corpus_format = need("corpus", "format").strip()
    if corpus_format not in ("udhr", "ted"):
        raise UsageError(f"[corpus] format must be udhr or ted, got {corpus_format!r}")
    langs = parse_language_list(need("corpus", "langs"))
    min_chars = number("corpus", "min_chars", int, None)

    ratio_base = parse_language_tag(need("ratios", "base").strip())
    ratio_others = parse_language_list(need("ratios", "others"))
    measure_name = parser.get("ratios", "measure", fallback="characters").strip()
    if measure_name not in MEASURES_BY_CLI_NAME:
        raise UsageError(
            f"[ratios] measure must be one of "
            f"{', '.join(MEASURES_BY_CLI_NAME)}, got {measure_name!r}"
        )
    rescale_raw = parser.get(
        "ratios", "rescale_lang", fallback=ENG if ENG in ratio_others else ""
    ).strip()
    rescale_lang: LanguageTag | None = None
    if rescale_raw:
        rescale_lang = parse_language_tag(rescale_raw)
        if rescale_lang not in ratio_others:
            raise UsageError(
                f"[ratios] rescale_lang {rescale_lang} is not among others"
            )
    rescale_limit = number("ratios", "rescale_limit", float, DEFAULT_RESCALE_LIMIT)

    posts_path = resolve(need("posts", "posts"))
    posts_format = parser.get("posts", "posts_format", fallback=None)
    accounts_path = resolve(need("posts", "accounts"))
    min_posts = number("posts", "min_posts", int, DEFAULT_MIN_POSTS)

    ric_base = parse_language_tag(
        parser.get("ric", "base", fallback=ratio_base).strip()
    )

    out_dir = resolve(need("output", "dir"))
    table_format = parser.get("output", "format", fallback="csv").strip()
    if table_format not in ("csv", "json"):
        raise UsageError(
            f"[output] format must be csv or json, got {table_format!r}"
        )

    return PipelineConfig(
        corpus_format=corpus_format,
        corpus_input=resolve(need("corpus", "input")),
        langs=langs,
        min_chars=min_chars,
        ratio_base=ratio_base,
        ratio_others=ratio_others,
        measure_name=measure_name,
        rescale_lang=rescale_lang,
        rescale_limit=rescale_limit,
        posts_path=posts_path,
        posts_format=posts_format,
        accounts_path=accounts_path,
        min_posts=min_posts,
        ric_base=ric_base,
        out_dir=out_dir,
        table_format=table_format,
    )


def ingest_corpus(
    corpus_format: str,
    input_dir: str | Path,
    langs: tuple[LanguageTag, ...],
    min_chars: int | None,
) -> ParallelCorpus:
    """Parse and align a udhr or ted directory; logs what the filter kept.
    A min_chars of None keeps the loader's default."""
    load = load_udhr_directory if corpus_format == "udhr" else load_subtitle_directory
    if min_chars is None:
        corpus, report = load(input_dir, langs)
    else:
        corpus, report = load(input_dir, langs, min_chars)
    log.info(
        "kept %d of %d units (%d missing languages, %d too short)",
        report.kept,
        report.total_ids,
        report.missing_language,
        report.too_short,
    )
    return corpus


def compute_ratios(
    corpus: ParallelCorpus,
    base: LanguageTag,
    others: tuple[LanguageTag, ...],
    measure_name: str,
) -> dict[LanguageTag, RatioStats]:
    """Ratio statistics of each language in others against base, in order."""
    measure = MEASURES_BY_CLI_NAME[measure_name]
    return {lang: aggregate_ratios(corpus, lang, base, measure) for lang in others}


def analyze_posts(
    posts_path: str | Path,
    posts_format: str | None,
    accounts_path: str | Path,
    min_posts: int = DEFAULT_MIN_POSTS,
) -> list[AccountStats]:
    """Per-account statistics, in accounts-file order, of the accounts with
    more than min_posts posts. A posts_format of None means csv for a .csv
    file and jsonl otherwise."""
    if min_posts < 0:
        raise UsageError("min_posts must be >= 0")
    if posts_format is None:
        posts_format = "csv" if Path(posts_path).suffix.lower() == ".csv" else "jsonl"
    posts = load_posts(posts_path, posts_format)
    accounts = load_accounts(accounts_path)
    assigned, dropped = assign_posts(posts, accounts)
    if dropped:
        log.info("dropped %d unattributable posts", dropped)
    stats_list = []
    for meta in accounts:
        stats = account_length_stats(assigned[meta], meta, min_posts)
        if stats is None:
            log.info(
                "excluding %s@%s (%s): %d posts (need more than %d)",
                meta.screen_name,
                meta.platform,
                meta.language,
                len(assigned[meta]),
                min_posts,
            )
            continue
        stats_list.append(stats)
    return stats_list


def analyze_ric(
    stats_list: Iterable[AccountStats],
    ratio_means: Mapping[tuple[LanguageTag, LanguageTag], float],
    base: LanguageTag,
) -> list[RicResult]:
    """RIC of each account, from mean ratios keyed (language, base)."""
    return [compute_ric(stats, ratio_means, base) for stats in stats_list]


def plot_ratios(
    ratio_stats: Mapping[LanguageTag, RatioStats],
    base: LanguageTag,
    measure_name: str,
    out: str | Path,
    rescale_lang: LanguageTag | None = None,
    rescale_limit: float = DEFAULT_RESCALE_LIMIT,
    title: str | None = None,
) -> None:
    """One box per language; with rescale_lang, a right axis in characters
    equivalent to rescale_limit characters of that language."""
    scale, secondary_label = None, ""
    if rescale_lang is not None:
        scale = rescale_limit / ratio_stats[rescale_lang].stats.mean
        secondary_label = f"chars equivalent to {rescale_limit:g} {rescale_lang}"
    render_boxplot(
        [BoxplotSeries(lang, r.stats, scale) for lang, r in ratio_stats.items()],
        title or f"Space ratio vs {base} ({measure_name})",
        out,
        y_label=f"ratio to {base}",
        secondary_label=secondary_label,
    )


def plot_ric(
    cells: Iterable[tuple[tuple[str, str, str], Iterable[float]]],
    base_note: str,
    out: str | Path,
    title: str | None = None,
) -> None:
    """One box per (platform, language, org_type) cell, in sorted order,
    over the per-post RIC values of every account in the cell."""
    grouped: dict[tuple[str, str, str], list[float]] = {}
    for key, values in cells:
        grouped.setdefault(key, []).extend(values)
    render_boxplot(
        [
            BoxplotSeries("/".join(key), describe(values))
            for key, values in sorted(grouped.items())
        ],
        title or f"Relative information content (base {base_note})",
        out,
        y_label=f"{base_note}-equivalent characters",
    )


_TABLES = {
    "ratios": (ratio_table_row, RATIO_TABLE_FIELDS),
    "stats": (stats_table_row, STATS_TABLE_FIELDS),
    "ric": (ric_table_row, RIC_TABLE_FIELDS),
}


def emit_stage_table(
    name: str, results: Iterable, format: str, destination: str | Path | None
) -> None:
    """Write stage results as the ratios (RatioStats), stats (AccountStats)
    or ric (RicResult) table; a destination of None means standard output."""
    to_row, fields = _TABLES[name]
    emit_table(
        [to_row(result) for result in results],
        format=format,
        destination=destination,
        fieldnames=fields,
    )


def run_pipeline(config_path: str | Path) -> int:
    """Run every stage; returns 0 on success, 1 naming the failed stage."""
    stage = "config"
    try:
        cfg = load_pipeline_config(config_path)
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        out, ext = cfg.out_dir, cfg.table_format

        stage = "corpus ingest"
        corpus = ingest_corpus(
            cfg.corpus_format, cfg.corpus_input, cfg.langs, cfg.min_chars
        )
        save_corpus(corpus, out / "corpus.jsonl")

        stage = "ratios"
        ratio_stats = compute_ratios(
            corpus, cfg.ratio_base, cfg.ratio_others, cfg.measure_name
        )
        emit_stage_table("ratios", ratio_stats.values(), ext, out / f"ratios.{ext}")

        stage = "posts analyze"
        stats_list = analyze_posts(
            cfg.posts_path, cfg.posts_format, cfg.accounts_path, cfg.min_posts
        )
        emit_stage_table("stats", stats_list, ext, out / f"stats.{ext}")

        stage = "ric"
        ratio_means = {
            (stats.lang_b, stats.lang_a): stats.stats.mean
            for stats in ratio_stats.values()
        }
        ric_results = analyze_ric(stats_list, ratio_means, cfg.ric_base)
        emit_stage_table("ric", ric_results, ext, out / f"ric.{ext}")

        stage = "plot"
        plot_ratios(
            ratio_stats,
            cfg.ratio_base,
            cfg.measure_name,
            out / "ratios_box.svg",
            cfg.rescale_lang,
            cfg.rescale_limit,
        )
        if ric_results:
            plot_ric(
                ((cell_key(r.meta), r.per_post_ric) for r in ric_results),
                cfg.ric_base,
                out / "ric_box.svg",
            )
    except (LingspaceError, OSError, configparser.Error) as exc:
        print(f"pipeline failed at stage '{stage}': {exc}", file=sys.stderr)
        return 1
    log.info("pipeline finished; outputs in %s", cfg.out_dir)
    return 0
