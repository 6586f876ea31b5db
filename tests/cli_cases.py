"""The CLI's error contract as data: one table of cases, one runner.

A malformed input ends in exit 1 (bad data or I/O) or exit 2 (bad usage),
with one `error:` line and no traceback. Each `Case` gives a command line,
the files it writes first, the exit code and the error: the whole of stderr,
one line, or with `prefix=True` the start of its first line. `run_case`
checks that code and error, that stderr holds no traceback, and that the
command wrote nothing: stdout is empty and the working directory holds only
the case's files. Paths are relative to that directory, so a message reads
the same under every invoker; `{fixtures}` in an argument or a text file
stands for `tests/fixtures`.

A case's id is the test it runs as in `tests/test_cli.py`,
`Class::test_name[param]`. The cases of `TestInstallSmoke` came from the CI
install smoke step; Tier-1 also runs them through a subprocess. To add a
check, add a case.

Run as a script (`python tests/cli_cases.py`) it runs every case against
the `lingspace` console script on PATH, each in a new temporary directory,
and exits 1 if any fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from collections.abc import Callable, Mapping, Sequence
from pathlib import Path
from typing import NamedTuple

FIXTURES = Path(__file__).resolve().parent / "fixtures"

# An invoker runs an argv in a directory: (exit code, stdout, stderr).
Invoke = Callable[[Sequence[str], Path], tuple[int, str, str]]


class Case(NamedTuple):
    id: str
    argv: str | tuple[str, ...]  # a str is split on whitespace
    code: int
    error: str
    files: Mapping[str, str | bytes] = {}
    prefix: bool = False


def run_case(case: Case, workdir: Path, invoke: Invoke) -> None:
    """Write the case's files in `workdir`, run its argv there and check
    the contract; AssertionError names what broke."""
    for name, content in case.files.items():
        path = workdir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(content, str):
            path.write_text(content.replace("{fixtures}", str(FIXTURES)), encoding="utf-8")
        else:
            path.write_bytes(content)
    before = sorted(workdir.rglob("*"))
    argv = case.argv.split() if isinstance(case.argv, str) else case.argv
    code, out, err = invoke([arg.replace("{fixtures}", str(FIXTURES)) for arg in argv],
                            workdir)
    first = err.partition("\n")[0]
    assert "Traceback" not in err, err
    assert code == case.code, f"exit {code}, stderr {err!r}"
    if case.prefix:
        assert first.startswith(case.error), f"first stderr line {first!r}"
    else:
        assert err == case.error + "\n", f"stderr {err!r}"
    assert out == "", f"stdout {out!r}"
    assert sorted(workdir.rglob("*")) == before, "the command wrote a file"


def subprocess_invoker(prefix: Sequence[str],
                       env: Mapping[str, str] | None = None) -> Invoke:
    """Run `[*prefix, *argv]` as a new process."""
    def invoke(argv: Sequence[str], workdir: Path) -> tuple[int, str, str]:
        proc = subprocess.run([*prefix, *argv], cwd=workdir, env=env, capture_output=True)
        return (proc.returncode, proc.stdout.decode("utf-8", "backslashreplace"),
                proc.stderr.decode("utf-8", "backslashreplace"))
    return invoke


RATIOS_HEADER = "lang_b,lang_a,measure,n,mean,median,q1,q3,whisker_low,whisker_high,outlier_count"
STATS_HEADER = ("screen_name,platform,language,org_type,n_posts,mean_chars_with_urls,"
                "mean_chars_without_urls,url_count_histogram,per_post_lengths")
RIC_HEADER = "screen_name,platform,language,org_type,base_lang,ratio_used,mean_ric,per_post_ric"


def _ratios_csv(*rows: str) -> str:
    """A ratios table of `lang_b,lang_a,mean` rows, the cells `ric` reads;
    the other declared columns hold the mean or a count of 1 or 0."""
    lines = [RATIOS_HEADER]
    for row in rows:
        lang_b, lang_a, mean = row.split(",")
        lines.append(f"{lang_b},{lang_a},characters,1,{f'{mean},' * 6}0")
    return "\n".join(lines) + "\n"


def _table(header: str, *rows: str) -> str:
    return "".join(f"{line}\n" for line in (header, *rows))


def _json_rows(header: str, *rows: str) -> list[dict[str, str]]:
    return [dict(zip(header.split(","), row.split(","))) for row in rows]


RATIOS = _ratios_csv("eng,cmn_hans,3.21", "jpn,cmn_hans,1.30")
STATS_ROW = "usnews_tw,twitter,eng,news,2,81.0,81.0,0:2,81 81"
RIC_ROW = "usnews_tw,twitter,eng,news,cmn_hans,3.21,1.5,1.0 2.0"
ACCOUNTS = "screen_name,platform,language,org_type\nusnews_tw,twitter,eng,news\n"
POST = {"id": "1", "account": "usnews_tw", "platform": "twitter", "text": "hello",
        "created_at": "2015-01-01T00:00:00Z"}
# A two-unit corpus in the four languages: the declaration's title and a heading.
CORPUS = "\n".join(json.dumps(record, ensure_ascii=False) for record in [
    {"name": "c", "languages": ["eng", "jpn", "cmn_hans", "cmn_hant"], "provenance": ""},
    {"unit_id": "0", "eng": "Universal Declaration of Human Rights", "jpn": "世界人権宣言",
     "cmn_hans": "世界人权宣言", "cmn_hant": "世界人權宣言"},
    {"unit_id": "1", "eng": "Article 1", "jpn": "第一条", "cmn_hans": "第一条",
     "cmn_hant": "第一條"},
]) + "\n"

TED = "corpus ingest --format ted --input talks --langs eng,jpn --out out.jsonl --quiet"
RIC = "ric --stats stats.csv --ratios ratios.csv --base cmn_hans --out ric.csv --quiet"
PLOT_RIC = "plot box --ric ric.csv --out ric.svg --quiet"
PLOT = "plot box --corpus corpus.jsonl --out plot.svg --quiet"
ANALYZE = "posts analyze --posts posts.csv --accounts accounts.csv"
EOLS = {"lf": "\n", "cr": "\r", "crlf": "\r\n"}
CUES = ["1", "00:00:01,000 --> 00:00:02,000", "hello", "",
        "2", "00:00:03,000 --> 00:00:04,000", "ca\xe7a", ""]


def _ric(id: str, code: int, error: str, stats: str = _table(STATS_HEADER, STATS_ROW),
         ratios: str = RATIOS, name: str = "stats.csv") -> Case:
    """A `ric` case reading the stats table `name` and `ratios.csv`."""
    return Case(f"TestRic::{id}", RIC.replace("stats.csv", name), code, error,
                {name: stats, "ratios.csv": ratios})


def _plot_ric(id: str, code: int, error: str, ric: str, name: str = "ric.csv") -> Case:
    """A `plot box --ric` case reading the RIC table `name`."""
    return Case(f"TestPlotBox::{id}", PLOT_RIC.replace("ric.csv", name), code, error,
                {name: ric})


def _plot(id: str, argv: str | tuple[str, ...], error: str) -> Case:
    """A `plot box --corpus` case, exit 2, on the two-unit corpus; a str
    `argv` holds the flags after PLOT."""
    if isinstance(argv, str):
        argv = f"{PLOT} {argv}"
    return Case(f"TestPlotBox::{id}", argv, 2, error, {"corpus.jsonl": CORPUS})


CASES: list[Case] = [
    # corpus ingest
    Case("TestCorpusIngest::test_missing_directory_is_a_data_error",
         "corpus ingest --format udhr --input nowhere --langs eng,cmn_hant --out out.jsonl "
         "--quiet", 1, "error: missing translation file: nowhere/eng.txt"),
    Case("TestCorpusIngest::test_unknown_language_tag_is_a_usage_error",
         "corpus ingest --format udhr --input {fixtures}/udhr --langs eng,klingon "
         "--out out.jsonl --quiet", 2, "error: unknown language tag 'klingon' (registered: ",
         prefix=True),
    *(Case(f"TestCorpusIngest::test_json_caption_past_the_decoder_limits_is_a_data_error"
           f"[{param}]", TED, 1, "error: talks/t1/eng.json:1: invalid JSON",
           {"talks/t1/eng.json": content}, prefix=True)
      for param, content in [("deep-nesting", "[" * 200_000),
                             ("huge-integer", '[{"text": ' + "9" * 5000 + "}]")]),
    *(Case(f"TestCorpusIngest::test_one_language_is_a_usage_error[{fmt}]",
           f"corpus ingest --format {fmt} --input {input} --langs eng --out out.jsonl "
           "--quiet", 2, "error: need at least two languages to build a parallel corpus",
           files)
      for fmt, input, files in [("udhr", "{fixtures}/udhr", {}),
                                ("ted", "talks", {"talks/t1/eng.srt": "\n".join(CUES)})]),
    *(Case(f"TestCorpusIngest::test_length_filter_without_eng_is_a_usage_error[{fmt}]",
           f"corpus ingest --format {fmt} --input {input} --langs jpn,cmn_hans "
           "--min-chars 5 --out out.jsonl --quiet", 2,
           "error: reference language eng is not among the supplied languages; "
           "set min_chars=0", files)
      for fmt, input, files in [("udhr", "{fixtures}/udhr", {}),
                                ("ted", "talks", {"talks/t1/jpn.srt": "\n".join(CUES)})]),
    Case("TestCorpusIngest::test_paragraph_count_mismatch_is_a_data_error",
         "corpus ingest --format udhr --input in --langs eng,jpn --out out.jsonl --quiet", 1,
         "error: in: paragraph counts differ across languages (eng=2, jpn=1); "
         "positional alignment is impossible",
         {"in/eng.txt": "A\n\nB\n", "in/jpn.txt": "あ\n"}),
    Case("TestCorpusIngest::test_json_cue_error_names_the_file_and_the_cue", TED, 1,
         "error: talks/t1/eng.json: cue #1 text is not a string",
         {"talks/t1/eng.json": '[{"content": "ok"},\n {"content": 5}]'}),
    Case("TestCorpusIngest::test_undecodable_caption_file_names_its_line", TED, 1,
         "error: talks/t1/eng.srt:3: not UTF-8 (invalid continuation byte)",
         {"talks/t1/eng.srt": b"1\n00:00:01,000 --> 00:00:02,000\nca\xe7a\n"}),
    *(Case(f"TestCorpusIngest::test_undecodable_caption_line_counts_every_line_end[{param}]",
           TED, 1, "error: talks/t1/eng.srt:7: not UTF-8 (invalid continuation byte)",
           {"talks/t1/eng.srt": eol.join(CUES).encode("latin-1")})
      for param, eol in EOLS.items()),
    # ratios
    Case("TestRatios::test_escaped_lone_surrogate_in_the_corpus_is_a_data_error",
         "ratios --corpus c.jsonl --base eng --others jpn --measure utf8 --quiet", 1,
         "error: c.jsonl:2: invalid unit record: 'jpn' holds lone surrogate U+D800",
         {"c.jsonl": '{"name": "c", "languages": ["eng", "jpn"], "provenance": ""}\n'
                     '{"unit_id": "1", "eng": "hello there", "jpn": "abc\\ud800def"}\n'}),
    Case("TestRatios::test_unregistered_language_in_the_header_is_a_data_error",
         "ratios --corpus q.jsonl --base eng --others eng --quiet", 1,
         "error: q.jsonl:2: unknown language tag 'qqz' (registered: ",
         {"q.jsonl": '\n{"name":"q","languages":["eng","qqz"],"provenance":"p"}\n'},
         prefix=True),
    Case("TestRatios::test_language_missing_from_corpus_is_a_usage_error",
         "ratios --corpus c.jsonl --base cmn_hant --others jpn --quiet", 2,
         "error: language jpn is not in corpus 'c'",
         {"c.jsonl": '{"name": "c", "languages": ["eng", "cmn_hant"], "provenance": ""}\n'
                     '{"unit_id": "1", "eng": "hello there", "cmn_hant": "你好"}\n'}),
    # limit check
    Case("TestLimitCheck::test_text_with_a_lone_surrogate_is_a_usage_error",
         # the lone surrogate Python makes of the argv byte 0xFF
         ("limit", "check", "--platform", "sms", "--text", "a\udcffb"), 2,
         "error: --text is not UTF-8: it holds lone surrogate U+DCFF"),
    Case("TestLimitCheck::test_undecodable_file_names_its_line",
         "limit check --platform sms --file bad.txt", 1,
         "error: bad.txt:2: not UTF-8 (invalid start byte)", {"bad.txt": b"ab\n\xffcd\n"}),
    Case("TestLimitCheck::test_missing_file_is_an_io_error",
         "limit check --platform twitter --file absent.txt --quiet", 1,
         "error: [Errno 2] No such file or directory: 'absent.txt'"),
    Case("TestLimitCheck::test_directory_is_an_io_error_naming_it",
         "limit check --platform twitter --file talks --quiet", 1,
         "error: [Errno 21] Is a directory: 'talks'", {"talks/eng.srt": "x"}),
    Case("TestLimitCheck::test_non_utf8_file_is_a_data_error_naming_the_file",
         "limit check --platform twitter --file latin1.txt --quiet", 1,
         "error: latin1.txt:1: not UTF-8 (unexpected end of data)",
         {"latin1.txt": "caf\xe9".encode("latin-1")}),
    Case("TestLimitCheck::test_text_and_file_are_mutually_exclusive",
         "limit check --platform twitter --text hi --file x", 2,
         "error: lingspace limit check: argument --file: not allowed with argument --text"),
    # posts analyze
    Case("TestPostsAnalyze::test_unreadable_posts_file_is_a_data_error",
         "posts analyze --posts posts.jsonl --accounts accounts.csv --out stats.csv --quiet",
         1, "error: posts.jsonl:1: invalid JSON (Expecting value)",
         {"posts.jsonl": "not json\n", "accounts.csv": ACCOUNTS}),
    Case("TestPostsAnalyze::test_non_utf8_csv_is_a_data_error_naming_the_line", ANALYZE, 1,
         "error: posts.csv:2: not UTF-8 (invalid continuation byte)",
         {"posts.csv": b"id,account,platform,text,created_at\n"
                       b"1,usnews_tw,twitter,caf\xe9,2015-01-01T00:00:00Z\n",
          "accounts.csv": ACCOUNTS}),
    *(Case(f"TestPostsAnalyze::test_non_utf8_csv_line_counts_every_line_end[{param}]",
           ANALYZE, 1, "error: posts.csv:2: not UTF-8 (invalid continuation byte)",
           {"posts.csv": eol.join(["id,account,platform,text,created_at",
                                   "1,usnews_tw,twitter,caf\xe9,2015-01-01T00:00:00Z",
                                   ""]).encode("latin-1"),
            "accounts.csv": ACCOUNTS})
      for param, eol in EOLS.items()),
    # fromisoformat takes any character after the date as the separator
    *(Case(f"TestPostsAnalyze::test_date_joined_to_a_non_time_is_a_data_error[{param}]",
           "posts analyze --posts posts.jsonl --accounts accounts.csv", 1,
           f"error: posts.jsonl:2: unparseable created_at '{created_at}'",
           {"posts.jsonl": json.dumps(POST) + "\n"
                           + json.dumps({**POST, "id": "2", "created_at": created_at}) + "\n",
            "accounts.csv": ACCOUNTS})
      for param, created_at in [("offset", "2015-03-01+05:00"), ("letter", "2015-03-01x05:00"),
                                ("week", "2015-W09-1T05:00"),
                                ("offset-minutes", "2015-03-01T05:00+05:99")]),
    # an account with no posts at all: -1 would let it through to fmean([])
    Case("TestPostsAnalyze::test_negative_min_posts_is_a_usage_error",
         "posts analyze --posts posts.jsonl --accounts accounts.csv --min-posts -1", 2,
         "error: --min-posts must be >= 0, got -1",
         {"posts.jsonl": json.dumps(POST) + "\n",
          "accounts.csv": "screen_name,platform,language,org_type\nquiet,twitter,eng,news\n"}),
    Case("TestPostsAnalyze::test_empty_accounts_file_lacks_every_column",
         "posts analyze --posts posts.jsonl --accounts accounts.csv", 1,
         "error: accounts.csv: missing columns: screen_name, platform, language, org_type",
         {"posts.jsonl": json.dumps(POST) + "\n", "accounts.csv": ""}),
    Case("TestPostsAnalyze::test_empty_csv_posts_file_lacks_every_column", ANALYZE, 1,
         "error: posts.csv: missing columns: id, account, platform, text, created_at",
         {"posts.csv": "", "accounts.csv": ACCOUNTS}),
    # ric
    _ric("test_missing_ratio_pair_is_a_usage_error", 2,
         "error: no ratio available for (jpn, cmn_hans); supply ratio(jpn, cmn_hans)",
         _table(STATS_HEADER, STATS_ROW, "jpnews_tw,twitter,jpn,news,2,78.0,78.0,0:2,78 78"),
         _ratios_csv("eng,cmn_hans,3.21")),
    *(_ric(f"test_malformed_stats_row_is_a_data_error[{param}]", 1,
           f"error: {where} malformed stats row: {problem}", stats, name=where.split(":")[0])
      for param, where, stats, problem in [
          # n_posts says 5 but only two lengths follow
          ("n_posts-mismatch", "stats.csv:2:",
           _table(STATS_HEADER, "usnews_tw,twitter,eng,news,5,81.0,81.0,0:2,81 81"),
           "n_posts is 5 but per_post_lengths holds 2 values"),
          ("n_posts-null", "stats.json: JSON table row #0:",
           json.dumps([{**_json_rows(STATS_HEADER, STATS_ROW)[0], "n_posts": None}]),
           "invalid literal for int() with base 10: 'None'"),
          ("n_posts-not-a-number", "stats.csv:2:",
           _table(STATS_HEADER, "usnews_tw,twitter,eng,news,x,81.0,81.0,0:2,81 81"),
           "invalid literal for int() with base 10: 'x'"),
          # counts are whole numbers: neither truncated nor read from a bool
          ("n_posts-fraction", "stats.json: JSON table row #0:",
           json.dumps([{**_json_rows(STATS_HEADER, STATS_ROW)[0], "n_posts": 2.7}]),
           "invalid literal for int() with base 10: '2.7'"),
          ("n_posts-bool", "stats.json: JSON table row #0:",
           json.dumps([{**_json_rows(STATS_HEADER, STATS_ROW)[0], "n_posts": True,
                        "per_post_lengths": "81"}]),
           "invalid literal for int() with base 10: 'True'"),
      ]),
    *(_ric(f"test_stats_number_out_of_range_is_a_data_error[{param}]", 1,
           f"error: stats.csv:2: malformed stats row: {problem}", _table(STATS_HEADER, row))
      for param, row, problem in [
          ("negative-length", "usnews_tw,twitter,eng,news,2,81.0,81.0,0:2,-9 9",
           "-9 is not a finite number >= 0"),
          ("nan-mean", "usnews_tw,twitter,eng,news,2,81.0,nan,0:2,81 81",
           "nan is not a finite number >= 0"),
      ]),
    _ric("test_non_finite_ratio_mean_is_a_data_error", 1,
         "error: ratios.csv:2: malformed ratios row: nan is not a finite number >= 0",
         ratios=_ratios_csv("eng,cmn_hans,nan", "jpn,cmn_hans,1.30")),
    _ric("test_zero_ratio_mean_is_a_data_error", 1,
         "error: ratios.csv:2: malformed ratios row: 0 is not a finite number > 0",
         ratios=_ratios_csv("eng,cmn_hans,0", "jpn,cmn_hans,1.30")),
    # A positive mean so small that the RICs overflow to inf, which no RIC
    # table may hold: `plot box --ric` would reject the file.
    _ric("test_tiny_ratio_mean_is_a_usage_error", 2,
         "error: ratio(eng, cmn_hans) must give finite RICs, got 1e-320",
         ratios=_ratios_csv("eng,cmn_hans,1e-320", "jpn,cmn_hans,1.30")),
    # a row of two cells under the full header
    _ric("test_malformed_ratios_table_is_a_data_error", 1,
         "error: ratios.csv:2: malformed ratios row: could not convert string to float: "
         "'None'", ratios=_table(RATIOS_HEADER, "eng,cmn_hans")),
    *(Case(f"TestRic::test_ratios_row_tags_are_parsed_and_pairs_unique[{param}]",
           f"ric --stats stats.csv --ratios {name} --base eng --out ric.csv --quiet", 1,
           f"error: {name}{problem}",
           {"stats.csv": _table(STATS_HEADER, STATS_ROW), name: ratios}, prefix=prefix)
      for param, name, ratios, problem, prefix in [
          ("tag-case", "ratios.csv", _ratios_csv("CMN_HANS,eng,0.5"),
           ":2: malformed ratios row: unknown language tag 'CMN_HANS' (registered: ", True),
          ("unregistered-tag", "ratios.csv", _ratios_csv("eng,cmn_hans,3.21", "eng,klingon,0.5"),
           ":3: malformed ratios row: unknown language tag 'klingon' (registered: ", True),
          # no writer emits two rows for one pair, so the second is not
          # silently taken in place of the first
          ("duplicate-pair", "ratios.csv", _ratios_csv("cmn_hans,eng,0.5", "cmn_hans,eng,0.25"),
           ":3: duplicate ratios row (cmn_hans, eng)", False),
          ("json-duplicate-pair", "ratios.json",
           json.dumps(_json_rows(RATIOS_HEADER, *_ratios_csv("cmn_hans,eng,0.5").split()[1:])
                      * 2),
           ": JSON table row #1: duplicate ratios row (cmn_hans, eng)", False),
      ]),
    # analyze_posts never writes an account with no posts, and a RIC row made
    # from one would hold no per-post value to draw
    _ric("test_stats_row_without_posts_is_a_data_error", 1,
         "error: stats.csv:2: malformed stats row: "
         "n_posts is 0: a stats row needs at least one post",
         _table(STATS_HEADER, "usnews_tw,twitter,eng,news,0,0.0,0.0,,")),
    # A row's counts and mean summarise its own per-post values; with no
    # --out, nothing reaches stdout either.
    *(Case(f"TestRic::test_stats_row_must_agree_with_its_per_post_values[{param}]",
           RIC.replace(" --out ric.csv", ""), 1,
           f"error: stats.csv:2: malformed stats row: {problem}",
           {"stats.csv": _table(STATS_HEADER, row), "ratios.csv": RATIOS})
      for param, row, problem in [
          ("histogram-count", "a,weibo,eng,news,1,1.0,500.0,0:7 3:9,1",
           "n_posts is 1 but url_count_histogram counts 16 posts"),
          # a repeat would be read as its last count alone
          ("histogram-repeat", "a,weibo,eng,news,1,1.0,1.0,0:1 0:1,1",
           "url_count_histogram repeats url count 0"),
          ("mean", "a,weibo,eng,news,1,1.0,500.0,0:1,1",
           "mean_chars_without_urls is 500.0000 but per_post_lengths average 1.0000"),
          # deleting URLs never lengthens a post
          ("mean-with-urls", "a,weibo,eng,news,1,0.5,1.0,0:1,1",
           "mean_chars_with_urls is 0.5000, less than mean_chars_without_urls 1.0000"),
          # a mean is written with four decimals, so a fifth is not written back
          ("mean-decimals", "a,weibo,eng,news,1,1.46875,1.0,0:1,1",
           "mean_chars_with_urls 1.46875 has more than four decimals"),
      ]),
    # posts analyze lists each account once
    _ric("test_repeated_stats_row_is_a_data_error", 1,
         "error: stats.csv:3: duplicate stats row a@weibo (eng)",
         _table(STATS_HEADER, *["a,weibo,eng,news,1,1.0,1.0,0:1,1"] * 2)),
    # compute_ric rescales each length as a float
    *(_ric(f"test_stats_lengths_past_the_float_range_are_a_data_error[{param}]", 1,
           "error: stats.csv:2: malformed stats row: per_post_lengths sum past the float "
           "range", _table(STATS_HEADER, row))
      for param, row in [
          ("one-length", f"a,weibo,eng,news,1,1.0,1.0,0:1,{10**400}"),
          ("sum", f"a,weibo,eng,news,2,1e308,1e308,0:2,{10**308} {10**308}"),
      ]),
    _ric("test_empty_stats_file_lacks_every_column", 1,
         f"error: stats.csv: missing columns: {STATS_HEADER.replace(',', ', ')}", ""),
    _ric("test_empty_ratios_file_lacks_every_column", 1,
         f"error: ratios.csv: missing columns: {RATIOS_HEADER.replace(',', ', ')}",
         ratios=""),
    *(Case(f"TestRic::test_ratios_table_lacking_declared_columns_is_a_data_error[{name}]",
           RIC.replace("ratios.csv", name), 1,
           f"error: {name}{where} missing columns: "
           "measure, n, median, q1, q3, whisker_low, whisker_high, outlier_count",
           {"stats.csv": _table(STATS_HEADER, STATS_ROW), name: ratios})
      for name, where, ratios in [
          ("ratios.csv", ":", "lang_b,lang_a,mean\neng,cmn_hans,3.21\n"),
          ("ratios.json", ": JSON table row #0:",
           json.dumps(_json_rows("lang_b,lang_a,mean", "eng,cmn_hans,3.21"))),
      ]),
    _ric("test_lone_surrogate_in_a_json_stats_table_is_a_data_error", 1,
         "error: stats.json: JSON table row #1 holds lone surrogate U+D800",
         json.dumps(_json_rows(STATS_HEADER, STATS_ROW,
                               STATS_ROW.replace("usnews_tw", "ab\ud800"))),
         name="stats.json"),
    # plot box --ric
    _plot_ric("test_lone_surrogate_in_a_json_ric_table_is_a_data_error", 1,
              "error: ric.json: JSON table row #0 holds lone surrogate U+D800",
              json.dumps(_json_rows(RIC_HEADER, RIC_ROW.replace("twitter", "twit\ud800"))),
              "ric.json"),
    # ric writes each account once
    _plot_ric("test_repeated_ric_row_is_a_data_error", 1,
              "error: ric.csv:3: duplicate RIC row a@weibo (eng)",
              _table(RIC_HEADER, *["a,weibo,eng,news,eng,1.0,1.0,1.0"] * 2)),
    _plot_ric("test_malformed_ric_row_is_a_data_error", 1,
              "error: ric.csv:2: malformed RIC row: could not convert string to float: 'abc'",
              _table(RIC_HEADER, "usnews_tw,twitter,eng,news,cmn_hans,3.21,1.5,1.0 abc")),
    # Each value is finite, but the upper quartile, interpolated as
    # 3 * 1.75e308 / 4, passes the largest float.
    _plot_ric("test_values_past_the_float_range_are_a_usage_error", 2,
              "error: figure has a coordinate or tick label nan, which is not a finite number",
              _table(RIC_HEADER, "usnews_tw,twitter,eng,news,cmn_hans,3.21,8.75e307,1.75e308 0")),
    # Each value, and their mean, is finite, but their sum is not.
    _plot_ric("test_values_whose_sum_passes_the_float_range_are_a_usage_error", 2,
              "error: figure has a coordinate or tick label nan, which is not a finite number",
              _table(RIC_HEADER, "a,weibo,cmn_hans,news,cmn_hans,1.0,1.75e308,1.75e308 1.75e308")),
    *(_plot_ric(f"test_ric_value_out_of_range_is_a_data_error[{value}]", 1,
                f"error: ric.csv:2: malformed RIC row: {value} is not a finite number >= 0",
                _table(RIC_HEADER, f"usnews_tw,twitter,eng,news,cmn_hans,3.21,1.5,1.0 {value}"))
      for value in ["nan", "inf", "-1.5"]),
    *(_plot_ric(f"test_ric_ratio_and_mean_are_read_as_numbers[{param}]", 1,
                f"error: ric.csv:2: malformed RIC row: {problem}", _table(RIC_HEADER, row))
      for param, row, problem in [
          ("ratio_used", RIC_ROW.replace("3.21", "abc"),
           "could not convert string to float: 'abc'"),
          ("mean_ric", RIC_ROW.replace(",1.5,", ",-5,"), "-5 is not a finite number >= 0"),
      ]),
    # A row's ratio and mean agree with its language and per-post values.
    *(_plot_ric(f"test_ric_row_must_agree_with_its_per_post_values[{param}]", 1,
                f"error: ric.csv:2: malformed RIC row: {problem}", _table(RIC_HEADER, row))
      for param, row, problem in [
          ("base-ratio", "usnews_tw,twitter,eng,news,eng,3.21,1.5,1.0 2.0",
           "ratio_used is 3.2100 but language and base_lang are both eng"),
          ("mean", RIC_ROW.replace(",1.5,", ",500,"),
           "mean_ric is 500.0000 but per_post_ric average 1.5000"),
      ]),
    _plot_ric("test_unregistered_base_lang_is_a_data_error", 1,
              "error: ric.csv:2: malformed RIC row: unknown language tag 'klingon' "
              "(registered: cmn_hans, cmn_hant, eng, jpn)",
              _table(RIC_HEADER, RIC_ROW.replace("cmn_hans", "klingon"))),
    _plot_ric("test_ric_row_without_values_is_a_data_error", 1,
              "error: ric.csv:2: malformed RIC row: per_post_ric holds no values",
              _table(RIC_HEADER, "usnews_tw,twitter,eng,news,cmn_hans,3.21,0,")),
    *(_plot_ric(f"test_ric_table_lacking_declared_columns_is_a_data_error[{name}]", 1,
                f"error: {name}{where} missing columns: ratio_used, mean_ric", ric, name)
      for name, where, ric in [
          ("ric.csv", ":", _table("screen_name,platform,language,org_type,base_lang,"
                                  "per_post_ric", "usnews_tw,twitter,eng,news,cmn_hans,1.0 2.0")),
          ("ric.json", ": JSON table row #0:", json.dumps(_json_rows(
              "screen_name,platform,language,org_type,base_lang,per_post_ric",
              "usnews_tw,twitter,eng,news,cmn_hans,1.0 2.0"))),
      ]),
    _plot_ric("test_header_only_ric_table_is_a_usage_error", 2,
              "error: ric.csv: no RIC rows to plot", _table(RIC_HEADER)),
    # plot box --corpus
    _plot("test_corpus_and_ric_together_is_a_usage_error", "--ric ric.csv",
          "error: give exactly one of --corpus or --ric"),
    Case("TestPlotBox::test_neither_source_is_a_usage_error", "plot box --out plot.svg --quiet",
         2, "error: give exactly one of --corpus or --ric"),
    _plot("test_corpus_plot_requires_base_and_others", "",
          "error: --corpus plots need --base and --others"),
    *(_plot(f"test_rescale_limit_must_be_finite_and_positive[{value}]",
            f"--base cmn_hant --others eng --rescale-lang eng --rescale-limit {value}",
            f"error: --rescale-limit must be a finite number > 0, got {value}")
      for value in ["nan", "inf", "0", "-5"]),
    # A finite anchor can still scale a tick past the largest float; the
    # figure is refused before its file is opened.
    *(_plot(f"test_right_hand_label_past_the_float_range_is_a_usage_error[{param}]",
            f"--base {base} --others {others} --rescale-lang {lang} --rescale-limit {limit}",
            f"error: figure axis 'chars equivalent to {axis}' has tick label inf, "
            "which is not a finite number")
      for param, base, others, lang, limit, axis in [
          ("infinite-scale", "eng", "jpn,cmn_hans", "jpn", "1e308", "1e+308 jpn"),
          ("finite-scale", "jpn", "eng", "eng", "1.7e308", "1.7e+308 eng"),
          ("finite-scale-cmn_hant", "cmn_hant", "eng", "eng", "1.7e308", "1.7e+308 eng"),
      ]),
    # A lone surrogate is what Python makes of argv bytes that are not UTF-8.
    *(_plot(f"test_title_that_xml_forbids_is_a_usage_error[{param}]",
            (*PLOT.split(), "--base", "cmn_hant", "--others", "eng", "--title", title),
            f"error: figure title holds {problem}, which XML 1.0 does not allow")
      for param, title, problem in [
          ("soh", "a\x01b", "character U+0001"),
          ("form-feed", "form\x0cfeed", "character U+000C"),
          ("surrogate", "caf\udce9", "lone surrogate U+DCE9"),
          ("non-character", "\ufffe", "character U+FFFE"),
      ]),
    _plot("test_rescale_language_must_be_plotted",
          "--base cmn_hant --others jpn --rescale-lang eng",
          "error: --rescale-lang eng is not in --others"),
    # The stats and RIC tables' account columns are read by the rules of
    # `load_accounts`: a valid row, then the same row with one bad cell.
    *(Case(f"test_account_columns_follow_the_accounts_file_rules[{command}-{column}]",
           argv, 1, f"error: table.csv:3: malformed {name} row: {problem}",
           {"table.csv": _table(header, row, row.replace(old, new, 1)), "ratios.csv": RATIOS},
           prefix=column == "language")
      for command, argv, name, header, row in [
          ("ric", RIC.replace("stats.csv", "table.csv"), "stats", STATS_HEADER, STATS_ROW),
          ("plot-box", PLOT_RIC.replace("ric.csv", "table.csv"), "RIC", RIC_HEADER,
           "usnews_tw,twitter,eng,news,cmn_hans,3.2100,25.2336,25.2336 25.2336"),
      ]
      for column, old, new, problem in [
          ("platform", ",twitter,", ",myspace,", "unknown platform 'myspace'"),
          ("org_type", ",news,", ",blog,", "unknown org_type 'blog'"),
          ("language", ",eng,", ",klingon,", "unknown language tag 'klingon' (registered: "),
          ("screen_name", "usnews_tw,", " ,", "empty screen_name"),
      ]),
    # argument parsing: a flag's text goes through its setting's declaration
    # while the arguments are parsed, so nothing is read or written
    Case("TestParserContract::test_missing_subcommand_exits_two", (), 2,
         "error: lingspace: the following arguments are required: command"),
    Case("TestParserContract::test_unknown_platform_exits_two",
         "limit check --platform myspace --text hi", 2,
         "error: lingspace limit check: argument --platform: invalid choice: 'myspace' "
         "(choose from 'twitter', 'weibo', 'sms')"),
    Case("TestParserContract::test_missing_required_flag_names_the_subcommand",
         "ric --stats stats.csv --base eng", 2,
         "error: lingspace ric: the following arguments are required: --ratios"),
    *(Case(f"TestParserContract::test_bad_flag_is_named_by_its_setting[{param}]",
           f"{argv} --quiet", 2, f"error: {error}")
      for param, argv, error in [
          ("corpus-format", "corpus ingest --format xml --input in --langs eng,jpn "
           "--out c.jsonl", "--format must be udhr or ted, got 'xml'"),
          ("min-chars", "corpus ingest --format udhr --input in --langs eng,jpn "
           "--min-chars -3 --out c.jsonl", "--min-chars must be >= 0, got -3"),
          ("measure", "ratios --corpus c.jsonl --base eng --others jpn --measure words",
           "--measure must be one of characters, utf8, gbk, got 'words'"),
          ("min-posts", "posts analyze --posts p.jsonl --accounts a.csv --min-posts abc",
           "--min-posts is not a valid int: 'abc'"),
          ("posts-format", "posts analyze --posts p.jsonl --accounts a.csv "
           "--posts-format xml", "--posts-format must be jsonl or csv, got 'xml'"),
          ("rescale-limit", "plot box --corpus c.jsonl --rescale-limit abc --out o.svg",
           "--rescale-limit is not a valid float: 'abc'"),
          ("table-format", "limit check --platform sms --text x --format tsv",
           "--format must be csv or json, got 'tsv'"),
      ]),
    # The install smoke step's cases, without --quiet: each ends in its one
    # error line, and nothing is logged before it.
    Case("TestInstallSmoke::test_posts_file_whose_line_2_is_bad",
         "posts analyze --posts bad_posts.jsonl --accounts accounts.csv", 1,
         "error: bad_posts.jsonl:2: missing 'account'",
         {"bad_posts.jsonl": json.dumps(POST) + '\n{"id": "2"}\n',
          "accounts.csv": ACCOUNTS}),
    Case("TestInstallSmoke::test_stats_table_whose_line_2_is_bad",
         "ric --stats stats.csv --ratios ratios.csv --base cmn_hans", 1,
         "error: stats.csv:2: malformed stats row: unknown language tag 'klingon'",
         {"ratios.csv": _ratios_csv("eng,cmn_hans,3.21"),
          "stats.csv": _table(STATS_HEADER, "a,weibo,klingon,news,1,1.0,1.0,0:1,1")},
         prefix=True),
    *(Case(f"TestInstallSmoke::test_ratio_figure_with_rescale_limit_{name}",
           f"plot box --corpus corpus.jsonl --base cmn_hant --others eng --rescale-lang eng "
           f"--rescale-limit {limit} --out {name}_box.svg", 2, error, {"corpus.jsonl": CORPUS})
      for name, limit, error in [
          ("nan", "nan", "error: --rescale-limit must be a finite number > 0, got nan"),
          ("huge", "1.7e308", "error: figure axis 'chars equivalent to 1.7e+308 eng' has "
           "tick label inf, which is not a finite number"),
      ]),
    Case("TestInstallSmoke::test_ric_figure_past_the_float_range",
         "plot box --ric huge_ric.csv --out huge_ric_box.svg", 2,
         "error: figure has a coordinate or tick label nan, which is not a finite number",
         {"huge_ric.csv": _table(RIC_HEADER, "a,weibo,cmn_hans,news,cmn_hans,1.0,8.75e307,"
                                             "1.75e308 0")}),
    Case("TestInstallSmoke::test_pipeline_config_with_negative_min_posts",
         "pipeline run --config run.ini", 1,
         "pipeline failed at stage 'config': [posts] min_posts must be >= 0, got -1",
         {"run.ini": "[corpus]\nformat = udhr\ninput = {fixtures}/udhr\nlangs = eng,jpn\n"
                     "[ratios]\nbase = eng\nothers = jpn\n[posts]\nposts = bad_posts.jsonl\n"
                     "accounts = accounts.csv\nmin_posts = -1\n[output]\ndir = run_out\n"}),
]


if __name__ == "__main__":
    invoke = subprocess_invoker(["lingspace"])
    failed = 0
    for case in CASES:
        with tempfile.TemporaryDirectory() as workdir:
            try:
                run_case(case, Path(workdir), invoke)
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {case.id}: {exc}")
    print(f"{len(CASES) - failed} of {len(CASES)} CLI cases pass")
    sys.exit(1 if failed else 0)
