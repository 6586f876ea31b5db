"""End-to-end command-line checks, run in-process through main().

Covers every subcommand, the exit-code contract (0 ok, 1 data/IO,
2 usage), stdout table emission, and the chaining of commands into the
ingest -> ratios -> plot and analyze -> ric -> plot workflows.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import xml.etree.ElementTree as ET

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lingspace.cli import main
from lingspace.corpus import load_corpus
from lingspace.microblog import RIC_TABLE, STATS_TABLE
from lingspace.options import MEASURE, POSTS_FORMAT, TABLE_FORMAT
from lingspace.ratios import RATIOS_TABLE
from lingspace.tables import read_table

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


def _json_stats_row(n_posts: str, lengths: str) -> str:
    """A one-row JSON stats table whose n_posts is the JSON text `n_posts`."""
    return (
        '[{"screen_name": "usnews_tw", "platform": "twitter", "language": "eng", '
        f'"org_type": "news", "n_posts": {n_posts}, "mean_chars_with_urls": 81.0, '
        '"mean_chars_without_urls": 81.0, "url_count_histogram": "0:2", '
        f'"per_post_lengths": "{lengths}"}}]'
    )


def _ratios_csv(*rows: str) -> str:
    """A ratios table of `lang_b,lang_a,mean` rows, the cells `ric` reads;
    the other declared columns hold the mean or a count of 1 or 0."""
    lines = [",".join(RATIOS_TABLE.fields)]
    for row in rows:
        lang_b, lang_a, mean = row.split(",")
        lines.append(f"{lang_b},{lang_a},characters,1,{f'{mean},' * 6}0")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def ratios_for_ric(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_ric") / "ratios.csv"
    path.write_text(
        _ratios_csv("eng,cmn_hans,3.21", "jpn,cmn_hans,1.30"), encoding="utf-8"
    )
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

    def test_missing_directory_is_a_data_error(self, tmp_path, capsys):
        code = main(
            [
                "corpus",
                "ingest",
                "--format",
                "udhr",
                "--input",
                str(tmp_path / "nowhere"),
                "--langs",
                "eng,cmn_hant",
                "--out",
                str(tmp_path / "out.jsonl"),
                "--quiet",
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_language_tag_is_a_usage_error(self, udhr_dir, tmp_path, capsys):
        code = main(
            [
                "corpus",
                "ingest",
                "--format",
                "udhr",
                "--input",
                str(udhr_dir),
                "--langs",
                "eng,klingon",
                "--out",
                str(tmp_path / "out.jsonl"),
                "--quiet",
            ]
        )
        assert code == 2
        assert "unknown language tag" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content",
        ["[" * 200_000, '[{"text": ' + "9" * 5000 + "}]"],
        ids=["deep-nesting", "huge-integer"],
    )
    def test_json_caption_past_the_decoder_limits_is_a_data_error(
        self, tmp_path, capsys, content
    ):
        caption = tmp_path / "talks" / "t1" / "eng.json"
        caption.parent.mkdir(parents=True)
        caption.write_text(content, encoding="utf-8")
        code = main(
            [
                "corpus",
                "ingest",
                "--format",
                "ted",
                "--input",
                str(tmp_path / "talks"),
                "--langs",
                "eng,jpn",
                "--out",
                str(tmp_path / "out.jsonl"),
                "--quiet",
            ]
        )
        assert code == 1
        assert f"{caption}:1: invalid JSON" in capsys.readouterr().err

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

    def test_json_cue_error_names_the_file_and_the_cue(self, tmp_path, capsys):
        caption = tmp_path / "talks" / "t1" / "eng.json"
        caption.parent.mkdir(parents=True)
        caption.write_text('[{"content": "ok"},\n {"content": 5}]', encoding="utf-8")
        talks, out = str(tmp_path / "talks"), str(tmp_path / "out.jsonl")
        code = main(["corpus", "ingest", "--format", "ted", "--input", talks,
                     "--langs", "eng,jpn", "--out", out, "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {caption}: cue #1 text is not a string\n"

    def test_undecodable_caption_file_names_its_line(self, tmp_path, capsys):
        caption = tmp_path / "talks" / "t1" / "eng.srt"
        caption.parent.mkdir(parents=True)
        caption.write_bytes(b"1\n00:00:01,000 --> 00:00:02,000\nca\xe7a\n")
        code = main(
            [
                "corpus",
                "ingest",
                "--format",
                "ted",
                "--input",
                str(tmp_path / "talks"),
                "--langs",
                "eng,jpn",
                "--out",
                str(tmp_path / "out.jsonl"),
                "--quiet",
            ]
        )
        assert code == 1
        assert f"{caption}:3: not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("eol", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
    def test_undecodable_caption_line_counts_every_line_end(
        self, tmp_path, capsys, eol
    ):
        caption = tmp_path / "talks" / "t1" / "eng.srt"
        caption.parent.mkdir(parents=True)
        cues = ["1", "00:00:01,000 --> 00:00:02,000", "hello", "",
                "2", "00:00:03,000 --> 00:00:04,000", "ca\xe7a", ""]
        caption.write_bytes(eol.join(cues).encode("latin-1"))
        talks, out = str(tmp_path / "talks"), str(tmp_path / "out.jsonl")
        code = main(["corpus", "ingest", "--format", "ted", "--input", talks,
                     "--langs", "eng,jpn", "--out", out, "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{caption}:7: not UTF-8 (invalid continuation byte)" in err


class TestRatios:
    def test_escaped_lone_surrogate_in_the_corpus_is_a_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(
            '{"name": "c", "languages": ["eng", "jpn"], "provenance": ""}\n'
            '{"unit_id": "1", "eng": "hello there", "jpn": "abc\\ud800def"}\n',
            encoding="utf-8",
        )
        code = main(
            ["ratios", "--corpus", str(corpus), "--base", "eng", "--others", "jpn",
             "--measure", "utf8", "--quiet"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (
            f"{corpus}:2: invalid unit record: 'jpn' holds lone surrogate U+D800"
            in captured.err
        )

    def test_unregistered_language_in_the_header_is_a_data_error(
        self, tmp_path, capsys
    ):
        corpus = tmp_path / "q.jsonl"
        corpus.write_text(
            '\n{"name":"q","languages":["eng","qqz"],"provenance":"p"}\n',
            encoding="utf-8",
        )
        code = main(["ratios", "--corpus", str(corpus), "--base", "eng",
                     "--others", "eng", "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: {corpus}:2: unknown language tag 'qqz' (registered: "
        )

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

    def test_language_missing_from_corpus_is_a_usage_error(
        self, udhr_dir, tmp_path, capsys
    ):
        narrow = tmp_path / "two_lang.jsonl"
        assert (
            main(
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
                    str(narrow),
                    "--quiet",
                ]
            )
            == 0
        )
        code = main(
            [
                "ratios",
                "--corpus",
                str(narrow),
                "--base",
                "cmn_hant",
                "--others",
                "jpn",
                "--quiet",
            ]
        )
        assert code == 2
        assert "jpn is not in corpus" in capsys.readouterr().err


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

    def test_text_with_a_lone_surrogate_is_a_usage_error(self, capsys):
        # The lone surrogate Python makes of the argv byte 0xFF.
        code = main(["limit", "check", "--platform", "sms", "--text", "a\udcffb"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--text is not UTF-8: it holds lone surrogate U+DCFF" in captured.err

    def test_undecodable_file_names_its_line(self, tmp_path, capsys):
        message = tmp_path / "bad.txt"
        message.write_bytes(b"ab\n\xffcd\n")
        code = main(["limit", "check", "--platform", "sms", "--file", str(message)])
        assert code == 1
        assert f"{message}:2: not UTF-8 (invalid start byte)" in capsys.readouterr().err

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

    def test_missing_file_is_an_io_error(self, tmp_path, capsys):
        code = main(
            [
                "limit",
                "check",
                "--platform",
                "twitter",
                "--file",
                str(tmp_path / "absent.txt"),
                "--quiet",
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_file_is_a_data_error_naming_the_file(self, tmp_path, capsys):
        message = tmp_path / "latin1.txt"
        message.write_bytes("caf\xe9".encode("latin-1"))
        code = main(
            ["limit", "check", "--platform", "twitter", "--file", str(message), "--quiet"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}:1: not UTF-8 (unexpected end of data)\n"

    def test_text_and_file_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "limit",
                    "check",
                    "--platform",
                    "twitter",
                    "--text",
                    "hi",
                    "--file",
                    str(tmp_path / "x"),
                ]
            )
        assert excinfo.value.code == 2

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

    def test_unreadable_posts_file_is_a_data_error(self, post_dump, tmp_path, capsys):
        _, accounts_path = post_dump
        bad = tmp_path / "posts.jsonl"
        bad.write_text("not json\n", encoding="utf-8")
        code = main(
            [
                "posts",
                "analyze",
                "--posts",
                str(bad),
                "--accounts",
                str(accounts_path),
                "--out",
                str(tmp_path / "stats.csv"),
                "--quiet",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {bad}:1: invalid JSON (Expecting value)\n"


    def test_non_utf8_csv_is_a_data_error_naming_the_line(
        self, post_dump, tmp_path, capsys
    ):
        _, accounts_path = post_dump
        posts = tmp_path / "posts.csv"
        posts.write_bytes(
            b"id,account,platform,text,created_at\n"
            b"1,usnews_tw,twitter,caf\xe9,2015-01-01T00:00:00Z\n"
        )
        posts_arg, accounts_arg = str(posts), str(accounts_path)
        code = main(["posts", "analyze", "--posts", posts_arg, "--accounts", accounts_arg])
        assert code == 1
        assert "posts.csv:2: not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("eol", [b"\n", b"\r", b"\r\n"], ids=["lf", "cr", "crlf"])
    def test_non_utf8_csv_line_counts_every_line_end(
        self, post_dump, tmp_path, capsys, eol
    ):
        _, accounts_path = post_dump
        posts = tmp_path / "posts.csv"
        posts.write_bytes(eol.join([
            b"id,account,platform,text,created_at",
            b"1,usnews_tw,twitter,caf\xe9,2015-01-01T00:00:00Z",
            b"",
        ]))
        posts_arg, accounts_arg = str(posts), str(accounts_path)
        code = main(["posts", "analyze", "--posts", posts_arg, "--accounts", accounts_arg])
        assert code == 1
        assert f"{posts}:2: not UTF-8" in capsys.readouterr().err

    def test_negative_min_posts_is_a_usage_error(self, post_dump, tmp_path, capsys):
        posts_path, _ = post_dump
        # an account with no posts at all: -1 would let it through to fmean([])
        accounts = tmp_path / "accounts.csv"
        accounts.write_text(
            "screen_name,platform,language,org_type\nquiet,twitter,eng,news\n",
            encoding="utf-8",
        )
        code = main(
            [
                "posts",
                "analyze",
                "--posts",
                str(posts_path),
                "--accounts",
                str(accounts),
                "--min-posts",
                "-1",
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: --min-posts must be >= 0, got -1\n"


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

    def test_missing_ratio_pair_is_a_usage_error(
        self, stats_file, tmp_path, capsys
    ):
        ratios = tmp_path / "ratios.csv"
        ratios.write_text(_ratios_csv("eng,cmn_hans,3.21"), encoding="utf-8")
        code = main(
            [
                "ric",
                "--stats",
                str(stats_file),
                "--ratios",
                str(ratios),
                "--base",
                "cmn_hans",
                "--quiet",
            ]
        )
        assert code == 2
        assert "no ratio available for (jpn, cmn_hans)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, content",
        [
            # n_posts says 5 but only two lengths follow
            (
                "stats.csv",
                ",".join(STATS_TABLE.fields)
                + "\nusnews_tw,twitter,eng,news,5,81.0,81.0,0:2,81 81\n",
            ),
            ("stats.json", _json_stats_row("null", "81 81")),
            (
                "stats.csv",
                ",".join(STATS_TABLE.fields)
                + "\nusnews_tw,twitter,eng,news,x,81.0,81.0,0:2,81 81\n",
            ),
            # counts are whole numbers: neither truncated nor read from a bool
            ("stats.json", _json_stats_row("2.7", "81 81")),
            ("stats.json", _json_stats_row("true", "81")),
        ],
        ids=["n_posts-mismatch", "n_posts-null", "n_posts-not-a-number",
             "n_posts-fraction", "n_posts-bool"],
    )
    def test_malformed_stats_row_is_a_data_error(
        self, ratios_for_ric, tmp_path, capsys, name, content
    ):
        stats = tmp_path / name
        stats.write_text(content, encoding="utf-8")
        code = main(
            [
                "ric",
                "--stats",
                str(stats),
                "--ratios",
                str(ratios_for_ric),
                "--base",
                "cmn_hans",
                "--quiet",
            ]
        )
        assert code == 1
        where = ":2:" if name.endswith(".csv") else ": JSON table row #0:"
        err = capsys.readouterr().err
        assert err.startswith(f"error: {stats}{where} malformed stats row: ")

    @pytest.mark.parametrize(
        "column, cells, problem",
        [
            ("per_post_lengths", ("2", "-9 9"), "-9 is not a finite number >= 0"),
            ("mean_chars_without_urls", ("nan",), "nan is not a finite number >= 0"),
        ],
        ids=["negative-length", "nan-mean"],
    )
    def test_stats_number_out_of_range_is_a_data_error(
        self, stats_file, ratios_for_ric, tmp_path, capsys, column, cells, problem
    ):
        rows = _read_csv(stats_file.read_text(encoding="utf-8"))
        if column == "per_post_lengths":
            rows[0]["n_posts"], rows[0][column] = cells
        else:
            rows[0][column] = cells[0]
        stats = tmp_path / "stats.csv"
        with stats.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=STATS_TABLE.fields)
            writer.writeheader()
            writer.writerows(rows)
        out = tmp_path / "ric.csv"
        code = main(["ric", "--stats", str(stats), "--ratios", str(ratios_for_ric),
                     "--base", "cmn_hans", "--out", str(out), "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {stats}:2: malformed stats row: {problem}\n"
        assert not out.exists()

    def test_non_finite_ratio_mean_is_a_data_error(self, stats_file, tmp_path, capsys):
        ratios = tmp_path / "ratios.csv"
        ratios.write_text(
            _ratios_csv("eng,cmn_hans,nan", "jpn,cmn_hans,1.30"), encoding="utf-8"
        )
        out = tmp_path / "ric.csv"
        code = main(["ric", "--stats", str(stats_file), "--ratios", str(ratios),
                     "--base", "cmn_hans", "--out", str(out), "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: {ratios}:2: malformed ratios row: nan is not a finite number >= 0\n"
        )
        assert not out.exists()

    def test_zero_ratio_mean_is_a_data_error(self, stats_file, tmp_path, capsys):
        ratios = tmp_path / "ratios.csv"
        ratios.write_text(
            _ratios_csv("eng,cmn_hans,0", "jpn,cmn_hans,1.30"), encoding="utf-8"
        )
        out = tmp_path / "ric.csv"
        code = main(["ric", "--stats", str(stats_file), "--ratios", str(ratios),
                     "--base", "cmn_hans", "--out", str(out), "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: {ratios}:2: malformed ratios row: 0 is not a finite number > 0\n"
        )
        assert not out.exists()

    def test_tiny_ratio_mean_is_a_usage_error(self, stats_file, tmp_path, capsys):
        # A positive mean so small that the RICs overflow to inf, which no
        # RIC table may hold: `plot box --ric` would reject the file.
        ratios = tmp_path / "ratios.csv"
        ratios.write_text(
            _ratios_csv("eng,cmn_hans,1e-320", "jpn,cmn_hans,1.30"), encoding="utf-8"
        )
        out = tmp_path / "ric.csv"
        code = main(["ric", "--stats", str(stats_file), "--ratios", str(ratios),
                     "--base", "cmn_hans", "--out", str(out), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: ratio(eng, cmn_hans) must give finite RICs, got 1e-320\n"
        assert not out.exists()

    def test_malformed_ratios_table_is_a_data_error(self, stats_file, tmp_path, capsys):
        ratios = tmp_path / "ratios.csv"
        # a row of two cells under the full header
        header = ",".join(RATIOS_TABLE.fields)
        ratios.write_text(f"{header}\neng,cmn_hans\n", encoding="utf-8")
        code = main(
            [
                "ric",
                "--stats",
                str(stats_file),
                "--ratios",
                str(ratios),
                "--base",
                "cmn_hans",
                "--quiet",
            ]
        )
        assert code == 1
        assert "malformed ratios row" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, content, problem",
        [
            ("ratios.csv", _ratios_csv("CMN_HANS,eng,0.5"),
             ":2: malformed ratios row: unknown language tag 'CMN_HANS' (registered: "),
            ("ratios.csv", _ratios_csv("eng,cmn_hans,3.21", "eng,klingon,0.5"),
             ":3: malformed ratios row: unknown language tag 'klingon' (registered: "),
            # no writer emits two rows for one pair, so the second is not
            # silently taken in place of the first
            ("ratios.csv", _ratios_csv("cmn_hans,eng,0.5", "cmn_hans,eng,0.25"),
             ":3: duplicate ratios row (cmn_hans, eng)\n"),
            ("ratios.json", json.dumps(_read_csv(_ratios_csv("cmn_hans,eng,0.5")) * 2),
             ": JSON table row #1: duplicate ratios row (cmn_hans, eng)\n"),
        ],
        ids=["tag-case", "unregistered-tag", "duplicate-pair", "json-duplicate-pair"],
    )
    def test_ratios_row_tags_are_parsed_and_pairs_unique(
        self, stats_file, tmp_path, capsys, name, content, problem
    ):
        ratios = tmp_path / name
        ratios.write_text(content, encoding="utf-8")
        out = tmp_path / "ric.csv"
        code = main(["ric", "--stats", str(stats_file), "--ratios", str(ratios),
                     "--base", "eng", "--out", str(out), "--quiet"])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {ratios}{problem}")
        assert not out.exists()

    def test_stats_row_without_posts_is_a_data_error(
        self, ratios_for_ric, tmp_path, capsys
    ):
        """`analyze_posts` never writes an account with no posts, and a RIC
        row made from one would hold no per-post value to draw."""
        stats = tmp_path / "stats.csv"
        stats.write_text(
            ",".join(STATS_TABLE.fields) + "\nusnews_tw,twitter,eng,news,0,0.0,0.0,,\n",
            encoding="utf-8",
        )
        out = tmp_path / "ric.csv"
        code = main(["ric", "--stats", str(stats), "--ratios", str(ratios_for_ric),
                     "--base", "cmn_hans", "--out", str(out), "--quiet"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {stats}:2: malformed stats row: "
            "n_posts is 0: a stats row needs at least one post\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("name", ["ratios.csv", "ratios.json"])
    def test_ratios_table_lacking_declared_columns_is_a_data_error(
        self, stats_file, tmp_path, capsys, name
    ):
        ratios = tmp_path / name
        row = {"lang_b": "eng", "lang_a": "cmn_hans", "mean": "3.21"}
        if name.endswith(".csv"):
            ratios.write_text("lang_b,lang_a,mean\neng,cmn_hans,3.21\n", encoding="utf-8")
        else:
            ratios.write_text(json.dumps([row]), encoding="utf-8")
        out = tmp_path / "ric.csv"
        code = main(["ric", "--stats", str(stats_file), "--ratios", str(ratios),
                     "--base", "cmn_hans", "--out", str(out), "--quiet"])
        assert code == 1
        where = ":" if name.endswith(".csv") else ": JSON table row #0:"
        assert capsys.readouterr().err == (
            f"error: {ratios}{where} missing columns: "
            "measure, n, median, q1, q3, whisker_low, whisker_high, outlier_count\n"
        )
        assert not out.exists()

    def test_lone_surrogate_in_a_json_stats_table_is_a_data_error(
        self, stats_file, ratios_for_ric, tmp_path, capsys
    ):
        rows = _read_csv(stats_file.read_text(encoding="utf-8"))
        rows[1]["screen_name"] = "ab\ud800"
        stats = tmp_path / "stats.json"
        stats.write_text(json.dumps(rows), encoding="utf-8")  # escapes as \ud800
        out = tmp_path / "ric.csv"
        code = main(
            ["ric", "--stats", str(stats), "--ratios", str(ratios_for_ric),
             "--base", "cmn_hans", "--out", str(out), "--quiet"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {stats}: JSON table row #1 holds lone surrogate U+D800\n"
        assert not out.exists()


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

    def test_lone_surrogate_in_a_json_ric_table_is_a_data_error(
        self, stats_file, ratios_for_ric, tmp_path, capsys
    ):
        ric = tmp_path / "ric.json"
        code = main(
            ["ric", "--stats", str(stats_file), "--ratios", str(ratios_for_ric),
             "--base", "cmn_hans", "--format", "json", "--out", str(ric), "--quiet"]
        )
        assert code == 0
        rows = json.loads(ric.read_text(encoding="utf-8"))
        rows[0]["platform"] = "twit\ud800"
        ric.write_text(json.dumps(rows), encoding="utf-8")
        out = tmp_path / "ric.svg"
        code = main(["plot", "box", "--ric", str(ric), "--out", str(out), "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {ric}: JSON table row #0 holds lone surrogate U+D800\n"
        assert not out.exists()

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

    def test_malformed_ric_row_is_a_data_error(self, tmp_path, capsys):
        ric = tmp_path / "ric.csv"
        ric.write_text(
            ",".join(RIC_TABLE.fields) + "\n"
            "usnews_tw,twitter,eng,news,cmn_hans,3.21,1.5,1.0 abc\n",
            encoding="utf-8",
        )
        out = tmp_path / "ric.svg"
        code = main(["plot", "box", "--ric", str(ric), "--out", str(out), "--quiet"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {ric}:2: malformed RIC row: could not convert string to float: 'abc'\n"
        )
        assert not out.exists()

    def test_values_past_the_float_range_are_a_usage_error(self, tmp_path, capsys):
        """Each value is finite, but the upper quartile, interpolated as
        3 * 1.75e308 / 4, passes the largest float."""
        ric = tmp_path / "ric.csv"
        ric.write_text(
            ",".join(RIC_TABLE.fields) + "\n"
            "usnews_tw,twitter,eng,news,cmn_hans,3.21,1.5,1.75e308 0\n",
            encoding="utf-8",
        )
        out = tmp_path / "ric.svg"
        code = main(["plot", "box", "--ric", str(ric), "--out", str(out), "--quiet"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: figure has a coordinate or tick label nan, "
            "which is not a finite number\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-1.5"])
    def test_ric_value_out_of_range_is_a_data_error(self, tmp_path, capsys, value):
        ric = tmp_path / "ric.csv"
        ric.write_text(
            ",".join(RIC_TABLE.fields) + "\n"
            f"usnews_tw,twitter,eng,news,cmn_hans,3.21,1.5,1.0 {value}\n",
            encoding="utf-8",
        )
        out = tmp_path / "ric.svg"
        code = main(["plot", "box", "--ric", str(ric), "--out", str(out), "--quiet"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {ric}:2: malformed RIC row: {value} is not a finite number >= 0\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "column, cell, problem",
        [
            ("ratio_used", "abc", "could not convert string to float: 'abc'"),
            ("mean_ric", "-5", "-5 is not a finite number >= 0"),
        ],
        ids=["ratio_used", "mean_ric"],
    )
    def test_ric_ratio_and_mean_are_read_as_numbers(
        self, tmp_path, capsys, column, cell, problem
    ):
        row = {"screen_name": "usnews_tw", "platform": "twitter", "language": "eng",
               "org_type": "news", "base_lang": "cmn_hans", "ratio_used": "3.21",
               "mean_ric": "1.5", "per_post_ric": "1.0 2.0"}
        row[column] = cell
        ric = tmp_path / "ric.csv"
        ric.write_text(f"{','.join(row)}\n{','.join(row.values())}\n", encoding="utf-8")
        out = tmp_path / "ric.svg"
        code = main(["plot", "box", "--ric", str(ric), "--out", str(out), "--quiet"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {ric}:2: malformed RIC row: {problem}\n"
        assert not out.exists()

    def test_ric_row_without_values_is_a_data_error(self, tmp_path, capsys):
        ric = tmp_path / "ric.csv"
        ric.write_text(
            ",".join(RIC_TABLE.fields) + "\nusnews_tw,twitter,eng,news,cmn_hans,3.21,0,\n",
            encoding="utf-8",
        )
        out = tmp_path / "ric.svg"
        code = main(["plot", "box", "--ric", str(ric), "--out", str(out), "--quiet"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {ric}:2: malformed RIC row: per_post_ric holds no values\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("name", ["ric.csv", "ric.json"])
    def test_ric_table_lacking_declared_columns_is_a_data_error(
        self, tmp_path, capsys, name
    ):
        row = {"screen_name": "usnews_tw", "platform": "twitter", "language": "eng",
               "org_type": "news", "base_lang": "cmn_hans", "per_post_ric": "1.0 2.0"}
        ric = tmp_path / name
        if name.endswith(".csv"):
            ric.write_text(f"{','.join(row)}\n{','.join(row.values())}\n", "utf-8")
        else:
            ric.write_text(json.dumps([row]), encoding="utf-8")
        out = tmp_path / "ric.svg"
        code = main(["plot", "box", "--ric", str(ric), "--out", str(out), "--quiet"])
        assert code == 1
        where = ":" if name.endswith(".csv") else ": JSON table row #0:"
        assert capsys.readouterr().err == (
            f"error: {ric}{where} missing columns: ratio_used, mean_ric\n"
        )
        assert not out.exists()

    def test_header_only_ric_table_is_a_usage_error(self, tmp_path, capsys):
        ric = tmp_path / "ric.csv"
        ric.write_text(",".join(RIC_TABLE.fields) + "\n", encoding="utf-8")
        out = tmp_path / "ric.svg"
        code = main(["plot", "box", "--ric", str(ric), "--out", str(out), "--quiet"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {ric}: no RIC rows to plot\n"
        assert not out.exists()

    def test_corpus_and_ric_together_is_a_usage_error(
        self, udhr_corpus_file, tmp_path, capsys
    ):
        code = main(
            [
                "plot",
                "box",
                "--corpus",
                str(udhr_corpus_file),
                "--ric",
                str(tmp_path / "ric.csv"),
                "--out",
                str(tmp_path / "plot.svg"),
                "--quiet",
            ]
        )
        assert code == 2
        assert "exactly one of --corpus or --ric" in capsys.readouterr().err

    def test_neither_source_is_a_usage_error(self, tmp_path, capsys):
        code = main(
            ["plot", "box", "--out", str(tmp_path / "plot.svg"), "--quiet"]
        )
        assert code == 2
        assert "exactly one of --corpus or --ric" in capsys.readouterr().err

    def test_corpus_plot_requires_base_and_others(
        self, udhr_corpus_file, tmp_path, capsys
    ):
        code = main(
            [
                "plot",
                "box",
                "--corpus",
                str(udhr_corpus_file),
                "--out",
                str(tmp_path / "plot.svg"),
                "--quiet",
            ]
        )
        assert code == 2
        assert "--corpus plots need --base and --others" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-5"])
    def test_rescale_limit_must_be_finite_and_positive(
        self, udhr_corpus_file, tmp_path, capsys, value
    ):
        out = tmp_path / "plot.svg"
        code = main(
            ["plot", "box", "--corpus", str(udhr_corpus_file), "--base", "cmn_hant",
             "--others", "eng", "--rescale-lang", "eng", "--rescale-limit", value,
             "--out", str(out), "--quiet"]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: --rescale-limit must be a finite number > 0, got {value}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "base, others, rescale_lang, limit, axis",
        [
            ("eng", "jpn,cmn_hans", "jpn", "1e308", "1e+308 jpn"),
            ("jpn", "eng", "eng", "1.7e308", "1.7e+308 eng"),
            ("cmn_hant", "eng", "eng", "1.7e308", "1.7e+308 eng"),
        ],
        ids=["infinite-scale", "finite-scale", "finite-scale-cmn_hant"],
    )
    def test_right_hand_label_past_the_float_range_is_a_usage_error(
        self, udhr_corpus_file, tmp_path, capsys, base, others, rescale_lang, limit, axis
    ):
        """A finite anchor can still scale a tick past the largest float; the
        figure is refused before its file is opened."""
        out = tmp_path / "plot.svg"
        code = main(
            ["plot", "box", "--corpus", str(udhr_corpus_file), "--base", base,
             "--others", others, "--rescale-lang", rescale_lang,
             "--rescale-limit", limit, "--out", str(out), "--quiet"]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: figure axis 'chars equivalent to {axis}' has tick label inf, "
            "which is not a finite number\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "title, problem",
        [
            ("a\x01b", "character U+0001"),
            ("form\x0cfeed", "character U+000C"),
            ("caf\udce9", "lone surrogate U+DCE9"),
            ("\ufffe", "character U+FFFE"),
        ],
        ids=["soh", "form-feed", "surrogate", "non-character"],
    )
    def test_title_that_xml_forbids_is_a_usage_error(
        self, udhr_corpus_file, tmp_path, capsys, title, problem
    ):
        """A lone surrogate is what Python makes of argv bytes that are not
        UTF-8. No output file is opened, so none is left behind."""
        out = tmp_path / "plot.svg"
        code = main(
            ["plot", "box", "--corpus", str(udhr_corpus_file), "--base", "cmn_hant",
             "--others", "eng", "--title", title, "--out", str(out), "--quiet"]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: figure title holds {problem}, which XML 1.0 does not allow\n"
        )
        assert not out.exists()

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

    def test_rescale_language_must_be_plotted(
        self, udhr_corpus_file, tmp_path, capsys
    ):
        code = main(
            [
                "plot",
                "box",
                "--corpus",
                str(udhr_corpus_file),
                "--base",
                "cmn_hant",
                "--others",
                "jpn",
                "--rescale-lang",
                "eng",
                "--out",
                str(tmp_path / "plot.svg"),
                "--quiet",
            ]
        )
        assert code == 2
        assert "--rescale-lang eng is not in --others" in capsys.readouterr().err


@pytest.mark.parametrize(
    "column, cell, problem",
    [
        ("platform", "myspace", "unknown platform 'myspace'"),
        ("org_type", "blog", "unknown org_type 'blog'"),
        ("language", "klingon", "unknown language tag 'klingon' (registered: "),
        ("screen_name", " ", "empty screen_name"),
    ],
    ids=["platform", "org_type", "language", "screen_name"],
)
@pytest.mark.parametrize("command", ["ric", "plot-box"])
def test_account_columns_follow_the_accounts_file_rules(
    ratios_for_ric, tmp_path, capsys, command, column, cell, problem
):
    """The stats and RIC tables' account columns are read by the rules of
    `load_accounts`, so neither reader passes on an account it would reject."""
    account = {"screen_name": "usnews_tw", "platform": "twitter", "language": "eng",
               "org_type": "news"}
    if command == "ric":
        table, name, rest = STATS_TABLE, "stats", "2,81.0,81.0,0:2,81 81"
    else:
        table, name, rest = RIC_TABLE, "RIC", "cmn_hans,3.2100,25.2336,25.2336 25.2336"
    path = tmp_path / "table.csv"
    # a valid row, then the same row with the one bad cell
    rows = [",".join({**account, **bad}.values()) + f",{rest}\n"
            for bad in ({}, {column: cell})]
    path.write_text(",".join(table.fields) + "\n" + "".join(rows), encoding="utf-8")
    out = tmp_path / "out.svg"
    if command == "ric":
        argv = ["ric", "--stats", str(path), "--ratios", str(ratios_for_ric),
                "--base", "cmn_hans", "--out", str(out)]
    else:
        argv = ["plot", "box", "--ric", str(path), "--out", str(out)]
    assert main([*argv, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:3: malformed {name} row: {problem}")
    assert not out.exists()


class TestParserContract:
    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_platform_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["limit", "check", "--platform", "myspace", "--text", "hi"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["corpus", "ingest", "--format", "xml", "--input", "in", "--langs",
              "eng,jpn", "--out", "c.jsonl"], "--format must be udhr or ted, got 'xml'"),
            (["corpus", "ingest", "--format", "udhr", "--input", "in", "--langs",
              "eng,jpn", "--min-chars", "-3", "--out", "c.jsonl"],
             "--min-chars must be >= 0, got -3"),
            (["ratios", "--corpus", "c.jsonl", "--base", "eng", "--others", "jpn",
              "--measure", "words"],
             "--measure must be one of characters, utf8, gbk, got 'words'"),
            (["posts", "analyze", "--posts", "p.jsonl", "--accounts", "a.csv",
              "--min-posts", "abc"], "--min-posts is not a valid int: 'abc'"),
            (["posts", "analyze", "--posts", "p.jsonl", "--accounts", "a.csv",
              "--posts-format", "xml"], "--posts-format must be jsonl or csv, got 'xml'"),
            (["plot", "box", "--corpus", "c.jsonl", "--rescale-limit", "abc", "--out",
              "o.svg"], "--rescale-limit is not a valid float: 'abc'"),
            (["limit", "check", "--platform", "sms", "--text", "x", "--format", "tsv"],
             "--format must be csv or json, got 'tsv'"),
        ],
        ids=["corpus-format", "min-chars", "measure", "min-posts", "posts-format",
             "rescale-limit", "table-format"],
    )
    def test_bad_flag_is_named_by_its_setting(
        self, tmp_path, monkeypatch, capsys, argv, error
    ):
        """A flag's text goes through its setting's declaration while the
        arguments are parsed, so nothing is read or written."""
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--quiet"]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert list(tmp_path.iterdir()) == []


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
    with `error:` or argparse's `lingspace ...: error:`, and no traceback:
    `main` raises nothing but argparse's SystemExit."""
    out = tmp_path_factory.mktemp("cli_property") / "out"
    argv = [arg.format(out=out, **cli_inputs, **texts) for arg in _COMMANDS[command]]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main([*argv, "--quiet"])
        except SystemExit as exc:
            code = exc.code
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
        assert re.match(r"(lingspace [a-z ]+: )?error: ", last), last
        assert "Traceback" not in stderr.getvalue()
