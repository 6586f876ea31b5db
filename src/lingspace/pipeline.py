"""End-to-end pipeline: ingest, ratios, post statistics, RIC, figures.

Each stage is a public function that takes inputs and returns results; the
CLI subcommands call the same functions and only add argument parsing and
file I/O around them. The RIC stage is `compute_ric` for each account, and
each stage's table is written by `tables.emit_table` from its declaration:
`RATIOS_TABLE`, `STATS_TABLE` or `RIC_TABLE`.

Configuration is one INI document; every output lands in a single directory
and is byte-stable across reruns on unchanged inputs. Its keys are the
settings `options.SETTINGS` declares, read as the CLI flags are:

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
from collections.abc import Callable, Mapping, Sequence
from dataclasses import make_dataclass
from pathlib import Path

# perfbench/spans.py times each layer by wrapping the names the stages call
# through this module: the loaders, aggregate_ratios, describe, emit_table...
# It counts the bytes of each table at emit_table's third argument, so the
# destination is passed by position.
from .corpus import (
    ParallelCorpus,
    load_subtitle_directory,
    load_udhr_directory,
    save_corpus,
)
from .errors import LingspaceError, UsageError
from .langtags import ENG, LanguageTag
from .measures import MEASURES_BY_CLI_NAME
from .microblog import (
    RIC_TABLE,
    STATS_TABLE,
    AccountStats,
    RicResult,
    account_length_stats,
    assign_posts,
    cell_key,
    compute_ric,
    load_accounts,
    load_posts,
)
from .options import (
    CORPUS_FORMAT,
    MEASURE,
    MIN_POSTS,
    OTHERS,
    RESCALE_LANG,
    RESCALE_LIMIT,
    SETTINGS,
    Setting,
)
from .ratios import RATIOS_TABLE, RatioStats, aggregate_ratios, describe
from .svgplot import BoxplotSeries, render_boxplot
from .tables import emit_table, read_text

log = logging.getLogger(__name__)


# A loaded config: one field per setting, named by the setting's `name`.
PipelineConfig = make_dataclass("PipelineConfig", [s.name for s in SETTINGS],
                                frozen=True, namespace={"__module__": __name__})


def load_pipeline_config(path: str | Path) -> PipelineConfig:
    """Each setting read from its config key, or its default; a relative path
    resolves against the config file's directory."""
    path = Path(path)
    if not path.is_file():
        raise UsageError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    parser.read_string(read_text(path, UsageError), str(path))
    values = {}
    for setting in SETTINGS:
        text = parser.get(setting.section, setting.key, fallback=None)
        if text is not None:
            value = setting.parse(text, setting.config_name)
        elif setting.required:
            raise UsageError(f"config lacks {setting.config_name}")
        else:
            value = setting.default
        values[setting.name] = path.parent / value if isinstance(value, Path) else value
    # The two defaults only a config has.
    rescale = RESCALE_LANG.section, RESCALE_LANG.key
    if ENG in values["ratio_others"] and not parser.has_option(*rescale):
        values["rescale_lang"] = ENG
    values["ric_base"] = values["ric_base"] or values["ratio_base"]
    check_rescale_lang(values["rescale_lang"], values["ratio_others"],
                       lambda setting: setting.config_name)
    return PipelineConfig(**values)


def check_rescale_lang(
    rescale_lang: LanguageTag | None,
    others: tuple[LanguageTag, ...],
    name: Callable[[Setting], str],
) -> None:
    """The one check across settings: the language that anchors a ratio
    plot's right axis is plotted, so it is among the others. `name` names a
    setting by its flag or by its config key."""
    if rescale_lang is not None and rescale_lang not in others:
        raise UsageError(f"{name(RESCALE_LANG)} {rescale_lang} is not in {name(OTHERS)}")


def ingest_corpus(
    corpus_format: str,
    input_dir: str | Path,
    langs: tuple[LanguageTag, ...],
    min_chars: int | None,
) -> ParallelCorpus:
    """Parse and align a udhr or ted directory; logs what the filter kept.
    A min_chars of None keeps the loader's default."""
    corpus_format = CORPUS_FORMAT.parse(corpus_format, "corpus format")
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
    measure = MEASURES_BY_CLI_NAME[MEASURE.parse(measure_name, "measure")]
    return {lang: aggregate_ratios(corpus, lang, base, measure) for lang in others}


def analyze_posts(
    posts_path: str | Path,
    posts_format: str | None,
    accounts_path: str | Path,
    min_posts: int = MIN_POSTS.default,
) -> list[AccountStats]:
    """Per-account statistics, in accounts-file order, of the accounts with
    more than min_posts posts. A posts_format of None means csv for a .csv
    file and jsonl otherwise."""
    MIN_POSTS.parse(min_posts, "min_posts")
    if posts_format is None:
        posts_format = "csv" if Path(posts_path).suffix.lower() == ".csv" else "jsonl"
    posts = load_posts(posts_path, posts_format)
    accounts = load_accounts(accounts_path)
    assigned, _ = assign_posts(posts, accounts)
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


def plot_ratios(
    ratio_stats: Mapping[LanguageTag, RatioStats],
    base: LanguageTag,
    measure_name: str,
    out: str | Path,
    rescale_lang: LanguageTag | None = None,
    rescale_limit: float = RESCALE_LIMIT.default,
    title: str | None = None,
) -> None:
    """One box per language; with rescale_lang, a right axis in characters
    equivalent to rescale_limit characters of that language."""
    secondary = None
    if rescale_lang is not None:
        secondary = (
            rescale_limit / ratio_stats[rescale_lang].stats.mean,
            f"chars equivalent to {rescale_limit:g} {rescale_lang}",
        )
    render_boxplot(
        [BoxplotSeries(lang, r.stats) for lang, r in ratio_stats.items()],
        title or f"Space ratio vs {base} ({measure_name})",
        out,
        y_label=f"ratio to {base}",
        secondary=secondary,
    )


def plot_ric(
    results: Sequence[RicResult], out: str | Path, title: str | None = None
) -> None:
    """One box per (platform, language, org_type) cell, in sorted order,
    over the per-post RIC values of every account in the cell; the title and
    axis name the results' base languages, joined by /."""
    grouped: dict[tuple[str, str, str], list[float]] = {}
    for result in results:
        grouped.setdefault(cell_key(result.meta), []).extend(result.per_post_ric)
    base_note = "/".join(sorted({result.base_lang for result in results}))
    render_boxplot(
        [
            BoxplotSeries("/".join(key), describe(values))
            for key, values in sorted(grouped.items())
        ],
        title or f"Relative information content (base {base_note})",
        out,
        y_label=f"{base_note}-equivalent characters",
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
        emit_table(RATIOS_TABLE, ratio_stats.values(), out / f"ratios.{ext}", ext)

        stage = "posts analyze"
        stats_list = analyze_posts(
            cfg.posts_path, cfg.posts_format, cfg.accounts_path, cfg.min_posts
        )
        emit_table(STATS_TABLE, stats_list, out / f"stats.{ext}", ext)

        stage = "ric"
        ratio_means = {
            (stats.lang_b, stats.lang_a): stats.stats.mean
            for stats in ratio_stats.values()
        }
        ric_results = [compute_ric(stats, ratio_means, cfg.ric_base)
                       for stats in stats_list]
        emit_table(RIC_TABLE, ric_results, out / f"ric.{ext}", ext)

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
            plot_ric(ric_results, out / "ric_box.svg")
    except (LingspaceError, OSError, configparser.Error) as exc:
        print(f"pipeline failed at stage '{stage}': {exc}", file=sys.stderr)
        return 1
    log.info("pipeline finished; outputs in %s", cfg.out_dir)
    return 0
