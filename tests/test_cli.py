"""End-to-end command-line checks, run in-process through main().

Covers every subcommand, stdout table emission, and the chaining of
commands into the ingest -> ratios -> plot and analyze -> ric -> plot
workflows. The exit-code contract (1 data/IO, 2 usage, one error line) is
the case table of `cli_cases.py`: each case runs here as the test its id
names, and the install smoke cases also run as a subprocess.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import re
import sys
import xml.etree.ElementTree as ET
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cli_cases import CASES, RATIOS, run_case, subprocess_invoker
from lingspace.cli import main
from lingspace.corpus import load_corpus
from lingspace.microblog import RIC_TABLE, STATS_TABLE, AccountMeta, RicResult
from lingspace.options import MEASURE, POSTS_FORMAT, TABLE_FORMAT
from lingspace.ratios import RATIOS_TABLE
from lingspace.tables import emit_table, read_table

SVG = "{http://www.w3.org/2000/svg}"


def _read_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


@pytest.fixture(scope="module")
def udhr_corpus_file(tmp_path_factory, udhr_dir):
    out = tmp_path_factory.mktemp("cli") / "udhr.jsonl"
    code = main(
        [
            "corpus",
            "ingest",
            "--format",
            "udhr",
            "--input",
            str(udhr_dir),
            "--langs",
            "eng,jpn,cmn_hans,cmn_hant",
            "--out",
            str(out),
            "--quiet",
        ]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def stats_file(tmp_path_factory, post_dump):
    posts_path, accounts_path = post_dump
    out = tmp_path_factory.mktemp("cli_stats") / "stats.csv"
    code = main(
        [
            "posts",
            "analyze",
            "--posts",
            str(posts_path),
            "--accounts",
            str(accounts_path),
            "--out",
            str(out),
            "--quiet",
        ]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def ratios_for_ric(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_ric") / "ratios.csv"
    path.write_text(RATIOS, encoding="utf-8")
    return path


class TestCorpusIngest:
    def test_writes_a_loadable_corpus(self, udhr_corpus_file):
        corpus = load_corpus(udhr_corpus_file)
        assert len(corpus.units) == 39
        assert corpus.languages == ("eng", "jpn", "cmn_hans", "cmn_hant")

    def test_reports_the_keep_counts(self, udhr_dir, tmp_path, capsys):
        out = tmp_path / "udhr.jsonl"
        code = main(
            [
                "corpus",
                "ingest",
                "--format",
                "udhr",
                "--input",
                str(udhr_dir),
                "--langs",
                "eng,cmn_hant",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        # The whole report, in main's `LEVEL logger: message` log format.
        assert capsys.readouterr().err == (
            "INFO lingspace.pipeline: kept 39 of 39 units "
            "(0 missing languages, 0 too short)\n"
        )

    def test_quiet_silences_the_report(self, udhr_dir, tmp_path, capsys):
        out = tmp_path / "udhr.jsonl"
        code = main(
            [
                "corpus",
                "ingest",
                "--format",
                "udhr",
                "--input",
                str(udhr_dir),
                "--langs",
                "eng,cmn_hant",
                "--out",
                str(out),
                "--quiet",
            ]
        )
        assert code == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "jpn, error",
        [("abc\\ud800", "cue #0 text holds lone surrogate U+D800"),
         ("abc \\ud83d\\ude00", None)],
        ids=["lone-surrogate", "surrogate-pair"],
    )
    def test_json_caption_surrogate_escapes(self, tmp_path, capsys, jpn, error):
        talk = tmp_path / "talks" / "t1"
        talk.mkdir(parents=True)
        (talk / "eng.json").write_text('[{"content": "hello there"}]', encoding="utf-8")
        (talk / "jpn.json").write_text(f'[{{"content": "{jpn}"}}]', encoding="utf-8")
        out = tmp_path / "out.jsonl"
        code = main(
            ["corpus", "ingest", "--format", "ted", "--input", str(tmp_path / "talks"),
             "--langs", "eng,jpn", "--min-chars", "0", "--out", str(out), "--quiet"]
        )
        if error is None:
            assert code == 0
            assert "\U0001f600" in out.read_text(encoding="utf-8")
        else:
            assert code == 1
            assert f"{talk / 'jpn.json'}: {error}" in capsys.readouterr().err
            assert not out.exists()

class TestRatios:
    def test_mean_written_as_zero_is_a_data_error(self, tmp_path, capsys):
        """A mean of 1/20000 is written as 0.0001; one below 0.00005 would be
        written as 0.0000, which `ric` rejects, so it is not written."""
        corpus, out = tmp_path / "c.jsonl", tmp_path / "ratios.csv"

        def ratios(base_chars: int) -> int:
            corpus.write_text(
                '{"name": "c", "languages": ["eng", "jpn"], "provenance": ""}\n'
                + json.dumps({"unit_id": "1", "eng": "a", "jpn": "x" * base_chars}) + "\n",
                encoding="utf-8",
            )
            return main(["ratios", "--corpus", str(corpus), "--base", "jpn", "--others",
                         "eng", "--out", str(out), "--quiet"])

        assert ratios(20_000) == 0
        assert _read_csv(out.read_text(encoding="utf-8"))[0]["mean"] == "0.0001"
        out.unlink()
        assert ratios(20_001) == 1
        assert capsys.readouterr().err == (
            "error: ratio(eng, jpn) has mean 4.99975e-05, which a table would write "
            "as 0.0000 and ric could not divide by\n"
        )
        assert not out.exists()

    def test_csv_to_stdout(self, udhr_corpus_file, capsys):
        code = main(
            [
                "ratios",
                "--corpus",
                str(udhr_corpus_file),
                "--base",
                "cmn_hant",
                "--others",
                "eng,jpn,cmn_hans",
                "--quiet",
            ]
        )
        assert code == 0
        rows = _read_csv(capsys.readouterr().out)
        assert [tuple(r) for r in rows] == [RATIOS_TABLE.fields] * 3
        by_lang = {r["lang_b"]: r for r in rows}
        assert set(by_lang) == {"eng", "jpn", "cmn_hans"}
        assert all(r["lang_a"] == "cmn_hant" for r in rows)
        assert all(r["n"] == "39" for r in rows)
        assert 3.75 <= float(by_lang["eng"]["mean"]) <= 4.15
        assert 1.48 <= float(by_lang["jpn"]["mean"]) <= 1.72
        assert 0.95 <= float(by_lang["cmn_hans"]["mean"]) <= 1.05

    def test_json_to_file(self, udhr_corpus_file, tmp_path):
        out = tmp_path / "ratios.json"
        code = main(
            [
                "ratios",
                "--corpus",
                str(udhr_corpus_file),
                "--base",
                "cmn_hant",
                "--others",
                "eng",
                "--format",
                "json",
                "--out",
                str(out),
                "--quiet",
            ]
        )
        assert code == 0
        (row,) = json.loads(out.read_text(encoding="utf-8"))
        assert row["lang_b"] == "eng"
        assert isinstance(row["mean"], float)

    def test_utf8_measure_shrinks_the_english_ratio(self, udhr_corpus_file, capsys):
        # per byte the Chinese text is far less compact than per character
        means = {}
        for measure in ("characters", "utf8"):
            code = main(
                [
                    "ratios",
                    "--corpus",
                    str(udhr_corpus_file),
                    "--base",
                    "cmn_hant",
                    "--others",
                    "eng",
                    "--measure",
                    measure,
                    "--quiet",
                ]
            )
            assert code == 0
            (row,) = _read_csv(capsys.readouterr().out)
            means[measure] = float(row["mean"])
        assert means["utf8"] < means["characters"] / 2

class TestLimitCheck:
    def test_text_report_for_a_character_platform(self, capsys):
        code = main(
            ["limit", "check", "--platform", "twitter", "--text", "hello", "--quiet"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out == (
            "fits: yes\nunits_used: 5\nunits_max: 140\nunit_kind: chars\n"
        )

    def test_sms_report_names_the_encoding(self, capsys):
        code = main(
            ["limit", "check", "--platform", "sms", "--text", "hello", "--quiet"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "unit_kind: gsm7_septets" in out
        assert "encoding: gsm7" in out

    def test_json_report(self, capsys):
        code = main(
            [
                "limit",
                "check",
                "--platform",
                "sms",
                "--text",
                "中文短信",
                "--format",
                "json",
                "--quiet",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "platform": "sms",
            "fits": True,
            "units_used": 4,
            "units_max": 70,
            "unit_kind": "ucs2_chars",
            "encoding": "ucs2",
        }

    def test_json_report_omits_encoding_without_a_choice(self, capsys):
        code = main(
            [
                "limit",
                "check",
                "--platform",
                "twitter",
                "--text",
                "hi",
                "--format",
                "json",
                "--quiet",
            ]
        )
        assert code == 0
        assert "encoding" not in json.loads(capsys.readouterr().out)

    def test_file_input_ignores_one_trailing_newline(self, tmp_path, capsys):
        message = tmp_path / "message.txt"
        message.write_text("a" * 140 + "\n", encoding="utf-8")
        code = main(
            ["limit", "check", "--platform", "twitter", "--file", str(message), "--quiet"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fits: yes" in out
        assert "units_used: 140" in out

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_file_line_ends_read_as_lf(self, tmp_path, capsys, end):
        counts = []
        for name, line_end in (("lf.txt", "\n"), ("other.txt", end)):
            message = tmp_path / name
            message.write_bytes(f"one{line_end}two €{line_end}".encode("utf-8"))
            argv = ["limit", "check", "--platform", "sms", "--file", str(message)]
            assert main([*argv, "--format", "json", "--quiet"]) == 0
            counts.append(json.loads(capsys.readouterr().out)["units_used"])
        assert counts[0] == counts[1] == 10

    @pytest.mark.parametrize("quiet", [[], ["--quiet"]], ids=["logging", "quiet"])
    def test_writes_nothing_to_stderr(self, capsys, quiet):
        assert main(["limit", "check", "--platform", "weibo", "--text", "中文", *quiet]) == 0
        assert capsys.readouterr().err == ""

    def test_overflow_reports_no(self, capsys):
        code = main(
            [
                "limit",
                "check",
                "--platform",
                "twitter",
                "--text",
                "a" * 141,
                "--quiet",
            ]
        )
        assert code == 0
        assert "fits: no" in capsys.readouterr().out

    # any --format but json writes the text report
    @pytest.mark.parametrize("fmt", [pytest.param("csv", id="text"), "json"])
    def test_out_writes_the_report_instead_of_stdout(self, tmp_path, capsys, fmt):
        command = ["limit", "check", "--platform", "sms", "--text", "中文短信",
                   "--format", fmt, "--quiet"]
        assert main(command) == 0
        expected = capsys.readouterr().out
        out = tmp_path / "report.txt"
        assert main([*command, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text(encoding="utf-8") == expected


class TestPostsAnalyze:
    def test_emits_one_row_per_qualifying_account(self, stats_file):
        rows = _read_csv(stats_file.read_text(encoding="utf-8"))
        assert len(rows) == 8
        assert tuple(rows[0]) == STATS_TABLE.fields
        names = {r["screen_name"] for r in rows}
        assert "smallfry_tw" not in names
        assert {r["n_posts"] for r in rows} == {"200"}

    def test_exclusion_is_logged(self, post_dump, tmp_path, capsys):
        posts_path, accounts_path = post_dump
        code = main(
            [
                "posts",
                "analyze",
                "--posts",
                str(posts_path),
                "--accounts",
                str(accounts_path),
                "--out",
                str(tmp_path / "stats.csv"),
            ]
        )
        assert code == 0
        assert capsys.readouterr().err == (
            "INFO lingspace.pipeline: excluding smallfry_tw@twitter (eng): "
            "50 posts (need more than 50)\n"
        )

    def test_quiet_silences_the_report(self, post_dump, tmp_path, capsys):
        posts_path, accounts_path = post_dump
        code = main(["posts", "analyze", "--posts", str(posts_path), "--accounts",
                     str(accounts_path), "--out", str(tmp_path / "stats.csv"), "--quiet"])
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_min_posts_zero_keeps_every_account(self, post_dump, tmp_path):
        posts_path, accounts_path = post_dump
        out = tmp_path / "stats.csv"
        code = main(
            [
                "posts",
                "analyze",
                "--posts",
                str(posts_path),
                "--accounts",
                str(accounts_path),
                "--min-posts",
                "0",
                "--out",
                str(out),
                "--quiet",
            ]
        )
        assert code == 0
        assert len(_read_csv(out.read_text(encoding="utf-8"))) == 9

class TestRic:
    def test_divides_lengths_by_the_language_ratio(
        self, stats_file, ratios_for_ric, capsys
    ):
        code = main(
            [
                "ric",
                "--stats",
                str(stats_file),
                "--ratios",
                str(ratios_for_ric),
                "--base",
                "cmn_hans",
                "--quiet",
            ]
        )
        assert code == 0
        rows = _read_csv(capsys.readouterr().out)
        assert tuple(rows[0]) == RIC_TABLE.fields
        by_name = {r["screen_name"]: r for r in rows}
        assert len(by_name) == 8
        # designed per-post lengths are flat, so mean RIC = length / ratio
        assert float(by_name["usnews_tw"]["mean_ric"]) == pytest.approx(
            81 / 3.21, abs=1e-3
        )
        assert float(by_name["jpnews_tw"]["mean_ric"]) == pytest.approx(
            78 / 1.30, abs=1e-3
        )
        assert by_name["cnnews_wb"]["ratio_used"] == "1.0000"
        assert float(by_name["cnnews_wb"]["mean_ric"]) == pytest.approx(60.0, abs=1e-3)

class TestPlotBox:
    def test_corpus_boxplot_with_secondary_axis(self, udhr_corpus_file, tmp_path):
        out = tmp_path / "ratios.svg"
        code = main(
            [
                "plot",
                "box",
                "--corpus",
                str(udhr_corpus_file),
                "--base",
                "cmn_hant",
                "--others",
                "eng,jpn,cmn_hans",
                "--rescale-lang",
                "eng",
                "--out",
                str(out),
                "--quiet",
            ]
        )
        assert code == 0
        root = ET.parse(out).getroot()
        boxes = [e for e in root.iter(SVG + "rect") if e.get("class") == "box"]
        axes = [e for e in root.iter(SVG + "line") if e.get("class") == "axis"]
        labels = [e.text for e in root.iter(SVG + "text") if e.get("class") == "label"]
        assert len(boxes) == 3
        assert len(axes) == 2
        assert labels == ["eng", "jpn", "cmn_hans"]

    def test_ric_boxplot_draws_one_box_per_cell(
        self, stats_file, ratios_for_ric, tmp_path
    ):
        ric_out = tmp_path / "ric.csv"
        assert (
            main(
                [
                    "ric",
                    "--stats",
                    str(stats_file),
                    "--ratios",
                    str(ratios_for_ric),
                    "--base",
                    "cmn_hans",
                    "--out",
                    str(ric_out),
                    "--quiet",
                ]
            )
            == 0
        )
        svg_out = tmp_path / "ric.svg"
        code = main(
            ["plot", "box", "--ric", str(ric_out), "--out", str(svg_out), "--quiet"]
        )
        assert code == 0
        root = ET.parse(svg_out).getroot()
        labels = [e.text for e in root.iter(SVG + "text") if e.get("class") == "label"]
        assert labels == [
            "twitter/cmn_hans/embassy",
            "twitter/cmn_hans/news",
            "twitter/eng/embassy",
            "twitter/eng/news",
            "twitter/jpn/embassy",
            "twitter/jpn/news",
            "weibo/cmn_hans/embassy",
            "weibo/cmn_hans/news",
        ]

    @pytest.mark.parametrize(("title", "expected"), [
        (None, "Relative information content (base cmn_hans/eng)"),
        ("Two bases", "Two bases"),
    ])
    def test_ric_figure_names_the_bases_of_its_rows(self, tmp_path, title, expected):
        """The title and value axis name each base language of the table's
        rows, joined by /; --title replaces the title alone."""
        ric, svg = tmp_path / "ric.csv", tmp_path / "ric.svg"
        emit_table(RIC_TABLE, [
            RicResult(AccountMeta("a", "weibo", "cmn_hans", "news"), "cmn_hans", 1.0,
                      2.0, (1.0, 3.0)),
            RicResult(AccountMeta("b", "twitter", "eng", "news"), "eng", 1.0, 4.0, (4.0,)),
        ], ric, "csv")
        argv = ["plot", "box", "--ric", str(ric), "--out", str(svg), "--quiet"]
        assert main([*argv, *(["--title", title] if title else [])]) == 0
        texts = list(ET.parse(svg).getroot().iter(SVG + "text"))
        (shown,) = [e.text for e in texts if e.get("class") == "title"]
        (axis,) = [e.text for e in texts if "rotate(-90" in e.get("transform", "")]
        assert (shown, axis) == (expected, "cmn_hans/eng-equivalent characters")

    def test_tables_past_the_csv_field_limit_chain(self, ratios_for_ric, tmp_path):
        """An account with 20,000 posts writes stats and RIC cells longer than
        the csv module's default 128 KiB field limit; they must read back."""
        posts = tmp_path / "posts.jsonl"
        with posts.open("w", encoding="utf-8") as fh:
            for i in range(20_000):
                record = {
                    "id": str(i),
                    "account": "busy",
                    "platform": "twitter",
                    "text": "word " * (i % 30 + 1),
                    "created_at": "2015-01-01T00:00:00Z",
                }
                fh.write(json.dumps(record) + "\n")
        accounts = tmp_path / "accounts.csv"
        accounts.write_text(
            "screen_name,platform,language,org_type\nbusy,twitter,eng,news\n",
            encoding="utf-8",
        )
        stats, ric, svg = (tmp_path / name for name in ("s.csv", "r.csv", "r.svg"))
        commands = [
            ["posts", "analyze", "--posts", str(posts), "--accounts", str(accounts),
             "--out", str(stats)],
            ["ric", "--stats", str(stats), "--ratios", str(ratios_for_ric),
             "--base", "cmn_hans", "--out", str(ric)],
            ["plot", "box", "--ric", str(ric), "--out", str(svg)],
        ]
        for command in commands:
            assert main([*command, "--quiet"]) == 0, command
        lines = ric.read_text(encoding="utf-8").splitlines()
        assert max(map(len, lines)) > 131_072
        root = ET.parse(svg).getroot()
        labels = [e.text for e in root.iter(SVG + "text") if e.get("class") == "label"]
        assert labels == ["twitter/eng/news"]

    def test_title_with_tab_line_ends_and_astral_text_parses(
        self, udhr_corpus_file, tmp_path
    ):
        out = tmp_path / "plot.svg"
        title = "a\tb\nc\rd \x7f\x85\ud7ff\ue000\ufffd\U0001f600 <&>"
        code = main(
            ["plot", "box", "--corpus", str(udhr_corpus_file), "--base", "cmn_hant",
             "--others", "eng", "--title", title, "--out", str(out), "--quiet"]
        )
        assert code == 0
        texts = [e.text for e in ET.parse(out).getroot().iter(SVG + "text")
                 if e.get("class") == "title"]
        assert texts == [title.replace("\r", "\n")]  # XML reads a CR as LF

@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory, udhr_corpus_file, stats_file, ratios_for_ric):
    """The files the property's commands read: a corpus, a small post dump
    with its accounts, and stats, ratios and RIC tables."""
    root = tmp_path_factory.mktemp("cli_inputs")
    posts, accounts = root / "posts.jsonl", root / "accounts.csv"
    posts.write_text("".join(
        json.dumps({"id": str(i), "account": name, "platform": "twitter",
                    "text": f"{name} post {i} https://t.co/x", "created_at":
                    "2015-01-01T00:00:00Z"}) + "\n"
        for i, name in enumerate(["usnews_tw"] * 3 + ["jpnews_tw"])
    ), encoding="utf-8")
    accounts.write_text("screen_name,platform,language,org_type\n"
                        "usnews_tw,twitter,eng,news\njpnews_tw,twitter,jpn,news\n",
                        encoding="utf-8")
    ric = root / "ric.csv"
    assert main(["ric", "--stats", str(stats_file), "--ratios", str(ratios_for_ric),
                 "--base", "cmn_hans", "--out", str(ric), "--quiet"]) == 0
    return {"corpus": str(udhr_corpus_file), "posts": str(posts),
            "accounts": str(accounts), "stats": str(stats_file),
            "ratios": str(ratios_for_ric), "ric": str(ric)}


# The commands the property runs, each giving generated texts to settings,
# a title, or both; `{out}` is the output file.
_COMMANDS = {
    "plot-corpus": ["plot", "box", "--corpus", "{corpus}", "--base", "cmn_hant",
                    "--others", "eng,jpn", "--rescale-lang", "eng",
                    "--rescale-limit={rescale}", "--measure={measure}",
                    "--title={title}", "--out", "{out}.svg"],
    "plot-ric": ["plot", "box", "--ric", "{ric}", "--title={title}", "--out",
                 "{out}.svg"],
    "ratios": ["ratios", "--corpus", "{corpus}", "--base", "cmn_hant", "--others",
               "eng,jpn", "--measure={measure}", "--format={format}", "--out",
               "{out}.table"],
    "posts": ["posts", "analyze", "--posts", "{posts}", "--accounts", "{accounts}",
              "--min-posts={count}", "--posts-format={posts_format}",
              "--format={format}", "--out", "{out}.table"],
    "ric": ["ric", "--stats", "{stats}", "--ratios", "{ratios}", "--base", "cmn_hans",
            "--format={format}", "--out", "{out}.table"],
}
_TABLE_OF = {"ratios": RATIOS_TABLE, "posts": STATS_TABLE, "ric": RIC_TABLE}
_ANY_TEXT = st.text(max_size=8)


def _named(choices):
    """A choice, a choice with outer whitespace, or any text."""
    padded = st.tuples(st.sampled_from(" \t\x1c\xa0"), st.sampled_from(choices))
    return st.one_of(st.sampled_from(choices), padded.map("".join), _ANY_TEXT)


@pytest.mark.deep
@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    command=st.sampled_from(sorted(_COMMANDS)),
    title=st.text(max_size=12),
    rescale=st.one_of(
        st.sampled_from(["140", " 2.5", "nan", "inf", "-inf", "1e400", "0", "-5"]),
        st.floats().map(repr), _ANY_TEXT),
    count=st.one_of(st.integers(-3, 5).map(str), _ANY_TEXT),
    measure=_named(MEASURE.choices),
    format=_named(TABLE_FORMAT.choices),
    posts_format=_named(POSTS_FORMAT.choices),
)
@example(command="plot-corpus", title="", rescale="1e308", count="0",
         measure="characters", format="csv", posts_format="jsonl")
@example(command="plot-corpus", title="", rescale="1.7e308", count="0",
         measure="characters", format="csv", posts_format="jsonl")
def test_main_writes_what_lingspace_reads_or_fails_with_one_error(
    cli_inputs, tmp_path_factory, command, **texts
):
    """Exit 0 writes an SVG that parses as XML, in which no coordinate or
    tick label reads nan or inf, or a table that reads back through its
    declaration. Exit 1 or 2 is reported on stderr, whose last line starts
    with `error:`, and no traceback: `main` raises nothing."""
    out = tmp_path_factory.mktemp("cli_property") / "out"
    argv = [arg.format(out=out, **cli_inputs, **texts) for arg in _COMMANDS[command]]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, "--quiet"])
    written = list(out.parent.iterdir())
    if code == 0:
        (path,) = written
        if path.suffix == ".svg":
            for element in ET.parse(path).getroot().iter():
                for value in element.attrib.values():
                    assert not re.search(r"\b(nan|inf)\b", value), value
                if element.get("text-anchor") in ("start", "end"):  # a tick label
                    assert math.isfinite(float(element.text)), element.text
        else:  # a table's format shows in its first byte
            if path.read_bytes().startswith(b"["):
                path = path.rename(path.with_suffix(".json"))
            read_table(path, _TABLE_OF[command])
    else:
        assert code in (1, 2)
        last = stderr.getvalue().splitlines()[-1]
        assert last.startswith("error: "), last
        assert "Traceback" not in stderr.getvalue()


def _in_process(monkeypatch):
    """An invoker that runs `main` in the case's directory."""
    def invoke(argv, workdir):
        monkeypatch.chdir(workdir)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()
    return invoke


def _case_test(cases):
    """One test that runs `cases` in process: parametrized by the ids'
    `[param]`, or the one case of an id without one."""
    if "[" not in cases[0].id:
        (case,) = cases

        def test(tmp_path, monkeypatch):
            run_case(case, tmp_path, _in_process(monkeypatch))
        return test

    @pytest.mark.parametrize("case", cases, ids=[c.id[c.id.index("[") + 1:-1] for c in cases])
    def test(case, tmp_path, monkeypatch):
        run_case(case, tmp_path, _in_process(monkeypatch))
    return test


def _register(cases):
    """Make each case the test its id names, `Class::test_name[param]`, in
    that class of this module (made if it is not defined above)."""
    by_test = defaultdict(list)
    for case in cases:
        owner, _, test = case.id.rpartition("::")
        by_test[owner, test.partition("[")[0]].append(case)
    for (owner, name), group in by_test.items():
        test = _case_test(group)
        if owner:
            setattr(globals().setdefault(owner, type(owner, (), {})), name, staticmethod(test))
        else:
            globals()[name] = test


_register(CASES)


@pytest.mark.parametrize(
    "case", [case for case in CASES if case.id.startswith("TestInstallSmoke::")],
    ids=lambda case: case.id.rpartition("::")[2])
def test_install_smoke_case_as_a_subprocess(case, tmp_path):
    """The cases that came from the CI install smoke step, run by a new
    interpreter on this checkout's source as CI runs every case against
    the installed script."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    run_case(case, tmp_path, subprocess_invoker([sys.executable, "-m", "lingspace.cli"], env))
