"""Command-line interface.

Subcommands: corpus ingest, ratios, posts analyze, ric, limit check,
plot box, pipeline run. Table-emitting commands take --out/--format/--quiet;
exit code 2 marks usage errors, 1 data or I/O errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

# Only what `limit check` runs is imported here; every other handler imports
# its stages when it runs, so a check does not pay for loading them.
from . import options
from .errors import LingspaceError, UsageError
from .limits import PRESETS, check_fit
from .tables import emit_table, read_table, read_text, surrogate_problem

if TYPE_CHECKING:
    from .ratios import RatioStats


def _add(parser: argparse.ArgumentParser, setting: options.Setting, help: str,
         **kwargs) -> None:
    """Add the setting's flag: its conversion, choices and default come from
    the declaration. A text the setting rejects raises the UsageError that
    `main` reports."""
    parser.add_argument(setting.flag, type=lambda text: setting.parse(text, setting.flag),
                        choices=setting.choices, default=setting.default, help=help,
                        **kwargs)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as the UsageError that `main` prints on one
    line, naming the (sub)command, where argparse prints its usage block
    first. Subparsers are made of the parser's own class, so they inherit it."""

    def error(self, message: str) -> NoReturn:
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    quiet = argparse.ArgumentParser(add_help=False)
    quiet.add_argument(
        "--quiet", action="store_true", help="suppress informational logging"
    )
    table = argparse.ArgumentParser(add_help=False, parents=[quiet])
    table.add_argument(
        "--out", type=Path, default=None, help="output file (default: stdout)"
    )
    _add(table, options.TABLE_FORMAT, "table format")

    parser = _Parser(
        prog="lingspace",
        description=(
            "Cross-lingual text-length ratios, microblog length analysis, "
            "and platform message-limit models."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    corpus = sub.add_parser("corpus", help="parallel corpus operations")
    corpus_sub = corpus.add_subparsers(dest="subcommand", required=True)
    ingest = corpus_sub.add_parser(
        "ingest", parents=[quiet], help="parse and align a corpus directory"
    )
    _add(ingest, options.CORPUS_FORMAT,
         "input layout: <dir>/<lang>.txt or <dir>/<talk_id>/<lang>.*",
         dest="corpus_format", required=True)
    _add(ingest, options.CORPUS_INPUT, "corpus directory", required=True)
    _add(ingest, options.LANGS, "comma-separated language tags", required=True)
    _add(ingest, options.MIN_CHARS, "minimum reference-language characters per unit "
         "(default: 0 for udhr, 1000 for ted)")
    ingest.add_argument("--out", type=Path, required=True, help="corpus output file")
    ingest.set_defaults(handler=_cmd_corpus_ingest)

    ratios = sub.add_parser(
        "ratios", parents=[table], help="aggregate space ratios over a corpus"
    )
    ratios.add_argument("--corpus", type=Path, required=True, help="corpus file")
    _add(ratios, options.RATIO_BASE, "baseline language tag", required=True)
    _add(ratios, options.OTHERS, "comma-separated language tags", required=True)
    _add(ratios, options.MEASURE, "space measure")
    ratios.set_defaults(handler=_cmd_ratios)

    posts = sub.add_parser("posts", help="microblog post operations")
    posts_sub = posts.add_subparsers(dest="subcommand", required=True)
    analyze = posts_sub.add_parser(
        "analyze", parents=[table], help="per-account length statistics"
    )
    _add(analyze, options.POSTS, "posts file", required=True)
    _add(analyze, options.POSTS_FORMAT, "posts file format (default: by suffix)")
    _add(analyze, options.ACCOUNTS, "accounts CSV file", required=True)
    _add(analyze, options.MIN_POSTS, "accounts need strictly more posts than this")
    analyze.set_defaults(handler=_cmd_posts_analyze)

    ric = sub.add_parser(
        "ric",
        parents=[table],
        help="relative information content from stats and ratios tables",
    )
    ric.add_argument("--stats", type=Path, required=True, help="stats table")
    ric.add_argument("--ratios", type=Path, required=True, help="ratios table")
    _add(ric, options.RIC_BASE, "baseline language tag", required=True)
    ric.set_defaults(handler=_cmd_ric)

    limit = sub.add_parser("limit", help="platform length limits")
    limit_sub = limit.add_subparsers(dest="subcommand", required=True)
    check = limit_sub.add_parser(
        "check", parents=[table], help="check a text against a platform limit"
    )
    check.add_argument(
        "--platform", choices=tuple(PRESETS), required=True, help="limit preset"
    )
    source = check.add_mutually_exclusive_group(required=True)
    source.add_argument("--text", help="text to check")
    source.add_argument(
        "--file", type=Path, help="file whose contents to check (UTF-8)"
    )
    check.set_defaults(handler=_cmd_limit_check)

    plot = sub.add_parser("plot", help="figure rendering")
    plot_sub = plot.add_subparsers(dest="subcommand", required=True)
    box = plot_sub.add_parser(
        "box", parents=[quiet], help="boxplot from a corpus or a RIC table"
    )
    box.add_argument("--corpus", type=Path, help="corpus file (ratio boxplots)")
    _add(box, options.RATIO_BASE, "baseline language tag (with --corpus)")
    _add(box, options.OTHERS, "comma-separated language tags (with --corpus)")
    _add(box, options.MEASURE, "space measure (with --corpus)")
    _add(box, options.RESCALE_LANG,
         "language whose mean anchors the secondary axis (with --corpus)")
    _add(box, options.RESCALE_LIMIT,
         f"secondary-axis anchor value (default {options.RESCALE_LIMIT.default:g})")
    box.add_argument("--ric", type=Path, help="RIC table (per-cell boxplots)")
    box.add_argument("--title", default=None, help="figure title")
    box.add_argument("--out", type=Path, required=True, help="SVG output file")
    box.set_defaults(handler=_cmd_plot_box)

    pipeline = sub.add_parser("pipeline", help="end-to-end runs")
    pipeline_sub = pipeline.add_subparsers(dest="subcommand", required=True)
    run = pipeline_sub.add_parser(
        "run", parents=[quiet], help="run ingest, ratios, posts, ric, and plots"
    )
    run.add_argument("--config", type=Path, required=True, help="INI config file")
    run.set_defaults(handler=_cmd_pipeline_run)

    return parser


def _cmd_corpus_ingest(args: argparse.Namespace) -> int:
    from .corpus import save_corpus
    from .pipeline import ingest_corpus

    corpus = ingest_corpus(args.corpus_format, args.input, args.langs, args.min_chars)
    save_corpus(corpus, args.out)
    return 0


def _ratio_stats(args: argparse.Namespace) -> dict[str, RatioStats]:
    from .corpus import load_corpus
    from .pipeline import compute_ratios

    return compute_ratios(load_corpus(args.corpus), args.base, args.others, args.measure)


def _cmd_ratios(args: argparse.Namespace) -> int:
    from .ratios import RATIOS_TABLE

    emit_table(RATIOS_TABLE, _ratio_stats(args).values(), args.out, args.format)
    return 0


def _cmd_posts_analyze(args: argparse.Namespace) -> int:
    from .microblog import STATS_TABLE
    from .pipeline import analyze_posts

    stats_list = analyze_posts(
        args.posts, args.posts_format, args.accounts, args.min_posts
    )
    emit_table(STATS_TABLE, stats_list, args.out, args.format)
    return 0


def _cmd_ric(args: argparse.Namespace) -> int:
    from .microblog import RIC_TABLE, STATS_TABLE, compute_ric
    from .ratios import RATIOS_TABLE

    ratio_means = dict(read_table(args.ratios, RATIOS_TABLE))
    results = [compute_ric(stats, ratio_means, args.base)
               for stats in read_table(args.stats, STATS_TABLE)]
    emit_table(RIC_TABLE, results, args.out, args.format)
    return 0


def _cmd_limit_check(args: argparse.Namespace) -> int:
    if args.text is not None:
        text = args.text
        # Python decodes argv bytes that are not UTF-8 to lone surrogates.
        problem = surrogate_problem(text)
        if problem is not None:
            raise UsageError(f"--text is not UTF-8: it {problem}")
    else:
        text = read_text(args.file)
        # A trailing newline is a file-format artifact, not message content.
        if text.endswith("\n"):
            text = text[:-1]
    result = check_fit(text, PRESETS[args.platform])
    fields = {
        "fits": result.fits,
        "units_used": result.units_used,
        "units_max": result.units_max,
        "unit_kind": result.unit_kind,
    }
    if result.encoding_chosen is not None:
        fields["encoding"] = result.encoding_chosen
    if args.format == "json":
        output = json.dumps({"platform": args.platform, **fields}, indent=2) + "\n"
    else:
        fields["fits"] = "yes" if result.fits else "no"
        output = "".join(f"{name}: {value}\n" for name, value in fields.items())
    if args.out is None:
        sys.stdout.write(output)
    else:
        args.out.write_text(output, encoding="utf-8", newline="")
    return 0


def _cmd_plot_box(args: argparse.Namespace) -> int:
    from .microblog import RIC_TABLE
    from .pipeline import check_rescale_lang, plot_ratios, plot_ric

    if (args.corpus is None) == (args.ric is None):
        raise UsageError("give exactly one of --corpus or --ric")
    if args.corpus is not None:
        if not args.base or not args.others:
            raise UsageError("--corpus plots need --base and --others")
        check_rescale_lang(args.rescale_lang, args.others, lambda s: s.flag)
        plot_ratios(
            _ratio_stats(args),
            args.base,
            args.measure,
            args.out,
            args.rescale_lang,
            args.rescale_limit,
            args.title,
        )
        return 0

    rows = read_table(args.ric, RIC_TABLE)
    if not rows:
        raise UsageError("no RIC rows to plot", args.ric)
    cells = [(key, values) for key, values, _ in rows]
    plot_ric(cells, "/".join(sorted({base for *_, base in rows})), args.out, args.title)
    return 0


def _cmd_pipeline_run(args: argparse.Namespace) -> int:
    from .pipeline import run_pipeline

    return run_pipeline(args.config)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        # A flag whose setting rejects its text, or any other usage error,
        # raises here as a UsageError.
        args = build_parser().parse_args(argv)
        if args.handler is not _cmd_limit_check:  # which logs nothing
            import logging
            logging.basicConfig(level=logging.ERROR if args.quiet else logging.INFO,
                                format="%(levelname)s %(name)s: %(message)s",
                                stream=sys.stderr, force=True)
        return args.handler(args)
    except (LingspaceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


if __name__ == "__main__":
    raise SystemExit(main())
