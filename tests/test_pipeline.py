"""Pipeline runs driven by INI configs: outputs, determinism, failure stages."""

from __future__ import annotations

import configparser
import csv
import io
import json

import pytest

from lingspace.cli import main
from lingspace.corpus import load_corpus
from lingspace.pipeline import ingest_corpus, load_pipeline_config, run_pipeline

OUTPUT_NAMES = (
    "corpus.jsonl",
    "ratios.csv",
    "stats.csv",
    "ric.csv",
    "ratios_box.svg",
    "ric_box.svg",
)


def write_config(path, sections) -> None:
    parser = configparser.ConfigParser()
    parser.read_dict(sections)
    with path.open("w", encoding="utf-8") as handle:
        parser.write(handle)


def base_sections(udhr_dir, post_dump, out_dir="out"):
    posts_path, accounts_path = post_dump
    return {
        "corpus": {
            "format": "udhr",
            "input": str(udhr_dir),
            "langs": "eng,jpn,cmn_hans,cmn_hant",
        },
        "ratios": {"base": "cmn_hans", "others": "eng,jpn,cmn_hant"},
        "posts": {"posts": str(posts_path), "accounts": str(accounts_path)},
        "output": {"dir": out_dir},
    }


def _read_csv(path) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(path.read_text(encoding="utf-8"))))


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory, udhr_dir, post_dump):
    root = tmp_path_factory.mktemp("pipeline")
    config = root / "run.ini"
    write_config(config, base_sections(udhr_dir, post_dump))
    code = main(["pipeline", "run", "--config", str(config), "--quiet"])
    assert code == 0
    return root / "out"


class TestSuccessfulRun:
    def test_produces_every_output(self, pipeline_run):
        for name in OUTPUT_NAMES:
            assert (pipeline_run / name).is_file(), name

    def test_corpus_keeps_all_declaration_paragraphs(self, pipeline_run):
        # udhr default min_chars is 0: nothing is dropped for length
        corpus = load_corpus(pipeline_run / "corpus.jsonl")
        assert len(corpus.units) == 39

    def test_ratio_rows_cover_the_requested_languages(self, pipeline_run):
        rows = _read_csv(pipeline_run / "ratios.csv")
        assert [r["lang_b"] for r in rows] == ["eng", "jpn", "cmn_hant"]
        assert {r["lang_a"] for r in rows} == {"cmn_hans"}
        assert {r["n"] for r in rows} == {"39"}

    def test_stats_rows_exclude_the_small_account(self, pipeline_run):
        rows = _read_csv(pipeline_run / "stats.csv")
        names = [r["screen_name"] for r in rows]
        assert len(names) == 8
        assert "smallfry_tw" not in names

    def test_ric_reuses_the_ratio_table_means(self, pipeline_run):
        ratio_rows = {r["lang_b"]: r for r in _read_csv(pipeline_run / "ratios.csv")}
        ric_rows = {r["screen_name"]: r for r in _read_csv(pipeline_run / "ric.csv")}
        assert len(ric_rows) == 8
        # both files round the same float the same way
        assert ric_rows["usnews_tw"]["ratio_used"] == ratio_rows["eng"]["mean"]
        assert ric_rows["jpnews_tw"]["ratio_used"] == ratio_rows["jpn"]["mean"]
        assert ric_rows["cnnews_wb"]["ratio_used"] == "1.0000"
        eng_ratio = float(ratio_rows["eng"]["mean"])
        assert float(ric_rows["usnews_tw"]["mean_ric"]) == pytest.approx(
            81 / eng_ratio, abs=2e-4
        )

    def test_rerun_is_byte_identical(self, pipeline_run, udhr_dir, post_dump):
        before = {
            name: (pipeline_run / name).read_bytes() for name in OUTPUT_NAMES
        }
        config = pipeline_run.parent / "run.ini"
        assert main(["pipeline", "run", "--config", str(config), "--quiet"]) == 0
        for name in OUTPUT_NAMES:
            assert (pipeline_run / name).read_bytes() == before[name], name


class TestConfigHandling:
    def test_relative_paths_resolve_against_the_config_file(
        self, tmp_path, udhr_dir, post_dump, monkeypatch
    ):
        posts_path, accounts_path = post_dump
        sections = base_sections(udhr_dir, post_dump)
        # point at the fixture data through config-relative paths
        sections["corpus"]["input"] = "data/udhr"
        sections["posts"]["posts"] = f"data/{posts_path.name}"
        sections["posts"]["accounts"] = f"data/{accounts_path.name}"
        data = tmp_path / "data"
        data.mkdir()
        (data / "udhr").symlink_to(udhr_dir)
        (data / posts_path.name).symlink_to(posts_path)
        (data / accounts_path.name).symlink_to(accounts_path)
        config = tmp_path / "run.ini"
        write_config(config, sections)
        monkeypatch.chdir(tmp_path.parent)
        assert main(["pipeline", "run", "--config", str(config), "--quiet"]) == 0
        assert (tmp_path / "out" / "ric_box.svg").is_file()

    def test_json_output_format(self, tmp_path, udhr_dir, post_dump):
        sections = base_sections(udhr_dir, post_dump)
        sections["output"]["format"] = "json"
        config = tmp_path / "run.ini"
        write_config(config, sections)
        assert main(["pipeline", "run", "--config", str(config), "--quiet"]) == 0
        for stem in ("ratios", "stats", "ric"):
            payload = json.loads(
                (tmp_path / "out" / f"{stem}.json").read_text(encoding="utf-8")
            )
            assert isinstance(payload, list) and payload

    def test_default_min_chars_by_corpus_format(self, tmp_path):
        # the same 999- and 1000-character eng texts as declaration paragraphs
        # and as talks: only the talk filter (default 1000) drops the short one
        texts = {"eng": ("e" * 999, "e" * 1000), "jpn": ("あ", "い")}
        udhr, ted = tmp_path / "udhr", tmp_path / "ted"
        udhr.mkdir()
        for lang, (short, long) in texts.items():
            (udhr / f"{lang}.txt").write_text(f"{short}\n\n{long}\n", "utf-8")
            for talk, text in (("short", short), ("long", long)):
                (ted / talk).mkdir(parents=True, exist_ok=True)
                (ted / talk / f"{lang}.srt").write_text(
                    f"1\n00:00:01,000 --> 00:00:02,000\n{text}\n", "utf-8"
                )
        langs = ("eng", "jpn")
        assert len(ingest_corpus("udhr", udhr, langs, None)) == 2
        assert [u.unit_id for u in ingest_corpus("ted", ted, langs, None).units] == [
            "long"
        ]

    def test_loaded_config_fills_documented_defaults(
        self, tmp_path, udhr_dir, post_dump
    ):
        config = tmp_path / "run.ini"
        write_config(config, base_sections(udhr_dir, post_dump))
        cfg = load_pipeline_config(config)
        assert cfg.min_chars is None
        assert cfg.measure_name == "characters"
        assert cfg.rescale_lang == "eng"
        assert cfg.rescale_limit == 140.0
        assert cfg.min_posts == 50
        assert cfg.ric_base == "cmn_hans"
        assert cfg.table_format == "csv"
        assert cfg.out_dir == tmp_path / "out"

    @pytest.mark.parametrize(
        "section, key, value, error",
        [
            ("corpus", "min_chars", "abc", "'config': [corpus] min_chars is not a"),
            ("posts", "min_posts", "abc", "'config': [posts] min_posts is not a"),
            ("ratios", "rescale_limit", "abc", "'config': [ratios] rescale_limit is"),
            ("corpus", "min_chars", "-1", "'corpus ingest': min_chars must be >= 0"),
            ("posts", "min_posts", "-1", "'posts analyze': min_posts must be >= 0"),
        ],
        ids=[
            "corpus-min_chars",
            "posts-min_posts",
            "ratios-rescale_limit",
            "corpus-min_chars-negative",
            "posts-min_posts-negative",
        ],
    )
    def test_non_numeric_value_fails_in_config(
        self, tmp_path, udhr_dir, post_dump, capsys, section, key, value, error
    ):
        """Non-numbers fail while the config is read; negative counts fail
        in the stage that uses them."""
        sections = base_sections(udhr_dir, post_dump)
        sections[section][key] = value
        config = tmp_path / "run.ini"
        write_config(config, sections)
        assert run_pipeline(config) == 1
        assert f"pipeline failed at stage {error}" in capsys.readouterr().err

    def test_rescale_defaults_off_without_eng(self, tmp_path, udhr_dir, post_dump):
        sections = base_sections(udhr_dir, post_dump)
        sections["ratios"]["others"] = "jpn,cmn_hant"
        config = tmp_path / "run.ini"
        write_config(config, sections)
        assert load_pipeline_config(config).rescale_lang is None


def test_cli_commands_write_the_pipeline_outputs(
    tmp_path, pipeline_run, udhr_dir, post_dump
):
    """The CLI chain and `pipeline run` share one implementation per stage,
    so on the same inputs they write the same bytes. ric.csv is left out:
    the CLI `ric` command reads the ratio means rounded to four decimals
    from the ratios table, while the pipeline divides by the exact means."""
    posts_path, accounts_path = post_dump
    langs = ["--base", "cmn_hans", "--others", "eng,jpn,cmn_hant"]
    corpus = str(tmp_path / "corpus.jsonl")
    commands = [
        ["corpus", "ingest", "--format", "udhr", "--input", str(udhr_dir),
         "--langs", "eng,jpn,cmn_hans,cmn_hant", "--out", corpus],
        ["ratios", "--corpus", corpus, *langs, "--out", str(tmp_path / "ratios.csv")],
        ["posts", "analyze", "--posts", str(posts_path), "--accounts",
         str(accounts_path), "--out", str(tmp_path / "stats.csv")],
        ["plot", "box", "--corpus", corpus, *langs, "--rescale-lang", "eng",
         "--out", str(tmp_path / "ratios_box.svg")],
    ]
    for argv in commands:
        assert main([*argv, "--quiet"]) == 0, argv
    for name in ("corpus.jsonl", "ratios.csv", "stats.csv", "ratios_box.svg"):
        cli_bytes = (tmp_path / name).read_bytes()
        assert cli_bytes == (pipeline_run / name).read_bytes(), name


class TestFailureStages:
    def test_missing_config_file(self, tmp_path, capsys):
        code = run_pipeline(tmp_path / "absent.ini")
        assert code == 1
        err = capsys.readouterr().err
        assert "pipeline failed at stage 'config':" in err
        assert "config file not found" in err

    def test_config_without_required_key(self, tmp_path, udhr_dir, post_dump, capsys):
        sections = base_sections(udhr_dir, post_dump)
        del sections["output"]["dir"]
        config = tmp_path / "run.ini"
        write_config(config, sections)
        assert run_pipeline(config) == 1
        err = capsys.readouterr().err
        assert "pipeline failed at stage 'config':" in err
        assert "config lacks [output] dir" in err

    def test_unknown_measure_fails_in_config(
        self, tmp_path, udhr_dir, post_dump, capsys
    ):
        sections = base_sections(udhr_dir, post_dump)
        sections["ratios"]["measure"] = "words"
        config = tmp_path / "run.ini"
        write_config(config, sections)
        assert run_pipeline(config) == 1
        assert "measure must be one of" in capsys.readouterr().err

    def test_missing_posts_file_fails_in_the_posts_stage(
        self, tmp_path, udhr_dir, post_dump, capsys
    ):
        sections = base_sections(udhr_dir, post_dump)
        sections["posts"]["posts"] = str(tmp_path / "absent.jsonl")
        config = tmp_path / "run.ini"
        write_config(config, sections)
        assert run_pipeline(config) == 1
        assert "pipeline failed at stage 'posts analyze':" in capsys.readouterr().err

    def test_non_utf8_csv_posts_fail_in_the_posts_stage(
        self, tmp_path, udhr_dir, post_dump, capsys
    ):
        posts = tmp_path / "posts.csv"
        posts.write_bytes(
            b"id,account,platform,text,created_at\n"
            b"1,usnews_tw,twitter,caf\xe9,2015-01-01T00:00:00Z\n"
        )
        sections = base_sections(udhr_dir, post_dump)
        sections["posts"]["posts"] = str(posts)
        config = tmp_path / "run.ini"
        write_config(config, sections)
        assert run_pipeline(config) == 1
        err = capsys.readouterr().err
        assert "pipeline failed at stage 'posts analyze':" in err
        assert "posts.csv:2: not UTF-8" in err

    def test_overlong_min_chars_fails_in_the_ratios_stage(
        self, tmp_path, udhr_dir, post_dump, capsys
    ):
        # a filter nothing survives leaves the ratios stage an empty corpus
        sections = base_sections(udhr_dir, post_dump)
        sections["corpus"]["min_chars"] = "100000"
        config = tmp_path / "run.ini"
        write_config(config, sections)
        assert run_pipeline(config) == 1
        assert "pipeline failed at stage 'ratios':" in capsys.readouterr().err

    def test_earlier_stage_failures_leave_no_later_outputs(
        self, tmp_path, udhr_dir, post_dump
    ):
        sections = base_sections(udhr_dir, post_dump)
        sections["posts"]["posts"] = str(tmp_path / "absent.jsonl")
        config = tmp_path / "run.ini"
        write_config(config, sections)
        assert run_pipeline(config) == 1
        out = tmp_path / "out"
        assert (out / "ratios.csv").is_file()
        assert not (out / "ric.csv").exists()
        assert not (out / "ratios_box.svg").exists()


class TestSubtitleCorpusRun:
    def test_full_run_over_a_talk_tree(self, tmp_path, ted_fixture, post_dump):
        sections = base_sections(ted_fixture.root, post_dump)
        sections["corpus"] = {
            "format": "ted",
            "input": str(ted_fixture.root),
            "langs": "eng,jpn,cmn_hans,cmn_hant",
        }
        sections["ratios"]["others"] = "eng,jpn"
        config = tmp_path / "run.ini"
        write_config(config, sections)
        assert main(["pipeline", "run", "--config", str(config), "--quiet"]) == 0
        corpus = load_corpus(tmp_path / "out" / "corpus.jsonl")
        # the default ted min_chars (1000) drops the degenerate talks
        assert len(corpus.units) == len(ted_fixture.kept_ids)
        rows = _read_csv(tmp_path / "out" / "ratios.csv")
        assert [r["lang_b"] for r in rows] == ["eng", "jpn"]
        assert {r["n"] for r in rows} == {str(len(ted_fixture.kept_ids))}
