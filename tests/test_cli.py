"""End-to-end command-line checks, run in-process through main().

Covers every subcommand, the exit-code contract (0 ok, 1 data/IO,
2 usage), stdout table emission, and the chaining of commands into the
ingest -> ratios -> plot and analyze -> ric -> plot workflows.
"""

from __future__ import annotations

import csv
import io
import json
import xml.etree.ElementTree as ET

import pytest

from lingspace.cli import main
from lingspace.corpus import load_corpus
from lingspace.microblog import RIC_TABLE_FIELDS, STATS_TABLE_FIELDS
from lingspace.ratios import RATIO_TABLE_FIELDS

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
    path.write_text(
        "lang_b,lang_a,mean\neng,cmn_hans,3.21\njpn,cmn_hans,1.30\n",
        encoding="utf-8",
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
        assert "kept 39 of 39 units" in capsys.readouterr().err

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


class TestRatios:
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
        assert [tuple(r) for r in rows] == [tuple(RATIO_TABLE_FIELDS)] * 3
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
        assert err.startswith(f"error: {message}: ")
        assert "utf-8" in err

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


class TestPostsAnalyze:
    def test_emits_one_row_per_qualifying_account(self, stats_file):
        rows = _read_csv(stats_file.read_text(encoding="utf-8"))
        assert len(rows) == 8
        assert tuple(rows[0]) == STATS_TABLE_FIELDS
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
        assert "excluding smallfry_tw@twitter" in capsys.readouterr().err

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
        assert "invalid post records" in capsys.readouterr().err


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
        assert "min_posts must be >= 0" in capsys.readouterr().err


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
        assert tuple(rows[0]) == RIC_TABLE_FIELDS
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
        ratios.write_text("lang_b,lang_a,mean\neng,cmn_hans,3.21\n", encoding="utf-8")
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
                ",".join(STATS_TABLE_FIELDS)
                + "\nusnews_tw,twitter,eng,news,5,81.0,81.0,0:2,81 81\n",
            ),
            (
                "stats.json",
                '[{"screen_name": "usnews_tw", "platform": "twitter", '
                '"language": "eng", "org_type": "news", "n_posts": null, '
                '"mean_chars_with_urls": 81.0, "mean_chars_without_urls": 81.0, '
                '"url_count_histogram": "0:2", "per_post_lengths": "81 81"}]',
            ),
        ],
        ids=["n_posts-mismatch", "n_posts-null"],
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
        assert "malformed stats row" in capsys.readouterr().err

    def test_malformed_ratios_table_is_a_data_error(self, stats_file, tmp_path, capsys):
        ratios = tmp_path / "ratios.csv"
        ratios.write_text("lang_b,lang_a\neng,cmn_hans\n", encoding="utf-8")
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


class TestParserContract:
    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_platform_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["limit", "check", "--platform", "myspace", "--text", "hi"])
        assert excinfo.value.code == 2
