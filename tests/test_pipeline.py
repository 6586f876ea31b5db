"""Pipeline runs driven by INI configs: outputs, determinism, failure stages."""

from __future__ import annotations

import configparser
import csv
import io
import json
import shutil

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import microgen
import tedgen
from lingspace import options
from lingspace.cli import build_parser, main
from lingspace.corpus import load_corpus
from lingspace.errors import UsageError
from lingspace.microblog import PLATFORMS, assign_posts, load_accounts, load_posts
from lingspace.pipeline import (
    compute_ratios,
    ingest_corpus,
    load_pipeline_config,
    run_pipeline,
)

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

    def test_ric_figure_names_the_ric_base(self, pipeline_run):
        svg = (pipeline_run / "ric_box.svg").read_text(encoding="utf-8")
        assert ">Relative information content (base cmn_hans)</text>" in svg
        assert ">cmn_hans-equivalent characters</text>" in svg

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

    def test_unknown_corpus_format_is_a_usage_error(self, tmp_path):
        with pytest.raises(
            UsageError, match=r"^corpus format must be udhr or ted, got 'xml'$"
        ):
            ingest_corpus("xml", tmp_path, ("eng", "jpn"), None)

    def test_unknown_measure_is_a_usage_error(self, udhr_corpus):
        with pytest.raises(
            UsageError, match=r"^measure must be one of characters, utf8, gbk, got 'words'$"
        ):
            compute_ratios(udhr_corpus, "eng", ("jpn",), "words")

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

    @pytest.mark.parametrize("eol", [b"\r", b"\r\n"], ids=["cr", "crlf"])
    def test_config_line_ends_do_not_change_the_loaded_config(
        self, tmp_path, udhr_dir, post_dump, eol
    ):
        config = tmp_path / "run.ini"
        write_config(config, base_sections(udhr_dir, post_dump))
        expected = load_pipeline_config(config)
        config.write_bytes(config.read_bytes().replace(b"\n", eol))
        assert load_pipeline_config(config) == expected

    @pytest.mark.parametrize(
        "section, key, value, error",
        [
            ("corpus", "min_chars", "abc", "'config': [corpus] min_chars is not a"),
            ("posts", "min_posts", "abc", "'config': [posts] min_posts is not a"),
            ("ratios", "rescale_limit", "abc", "'config': [ratios] rescale_limit is"),
            ("corpus", "min_chars", "-1", "'config': [corpus] min_chars must be >= 0,"),
            ("posts", "min_posts", "-1", "'config': [posts] min_posts must be >= 0,"),
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
        """Non-numbers and negative counts fail while the config is read,
        before the output directory is made."""
        sections = base_sections(udhr_dir, post_dump)
        sections[section][key] = value
        config = tmp_path / "run.ini"
        write_config(config, sections)
        assert run_pipeline(config) == 1
        assert f"pipeline failed at stage {error}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_rescale_defaults_off_without_eng(self, tmp_path, udhr_dir, post_dump):
        sections = base_sections(udhr_dir, post_dump)
        sections["ratios"]["others"] = "jpn,cmn_hant"
        config = tmp_path / "run.ini"
        write_config(config, sections)
        assert load_pipeline_config(config).rescale_lang is None


# For each setting with a flag: a command that takes it, with every required
# flag given, and the attribute the parsed flag lands in. The flag given last
# wins, so the property appends its own.
_FLAG_COMMANDS = {
    "corpus ingest": (
        ["corpus", "ingest", "--format", "udhr", "--input", "in", "--langs", "eng,jpn",
         "--out", "c.jsonl"],
        {"corpus_format": "corpus_format", "corpus_input": "input", "langs": "langs",
         "min_chars": "min_chars"},
    ),
    "ratios": (
        ["ratios", "--corpus", "c.jsonl", "--base", "eng", "--others", "jpn"],
        {"ratio_base": "base", "ratio_others": "others", "measure_name": "measure",
         "table_format": "format"},
    ),
    "plot box": (
        ["plot", "box", "--out", "o.svg"],
        {"rescale_lang": "rescale_lang", "rescale_limit": "rescale_limit"},
    ),
    "posts analyze": (
        ["posts", "analyze", "--posts", "p.jsonl", "--accounts", "a.csv"],
        {"posts_path": "posts", "posts_format": "posts_format",
         "accounts_path": "accounts", "min_posts": "min_posts"},
    ),
    "ric": (["ric", "--stats", "s.csv", "--ratios", "r.csv", "--base", "eng"],
            {"ric_base": "base"}),
}
_FLAGGED = {name: (argv, dest) for argv, dests in _FLAG_COMMANDS.values()
            for name, dest in dests.items()}
# An INI value is one line, and `%` starts an interpolation, so neither a
# line end nor `%` can stand in one; UTF-8 cannot hold a lone surrogate.
_INI_TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                                  blacklist_characters="\n\r%"), max_size=10)
_CLOSE_TEXTS = [
    "udhr", "ted", "csv", "json", "jsonl", "characters", "utf8", "gbk", "eng",
    "cmn_hans", "eng,jpn", "jpn, eng,", "eng,eng", "", "0", "7", "-1", "+3", "1_000",
    "\u0665", "2.5", "1e400", "nan", "-inf", "0x10", "data/in", "UDHR", "EnG",
]
_SETTING_TEXT = st.one_of(
    st.sampled_from(_CLOSE_TEXTS),
    st.tuples(st.sampled_from(["", " ", "\t", "\x1c", "\xa0", "\u3000"]),
              st.sampled_from(_CLOSE_TEXTS),
              st.sampled_from(["", " ", "\x85", "\u2028"])).map("".join),
    _INI_TEXT,
)


def test_every_flag_has_its_command():
    assert sorted(_FLAGGED) == sorted(s.name for s in options.SETTINGS if s.flag)


@pytest.mark.deep
@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(setting=st.sampled_from([s for s in options.SETTINGS if s.flag]),
       text=_SETTING_TEXT)
@example(setting=options.MIN_POSTS, text="\x1c5")
@example(setting=options.MEASURE, text=" gbk\u2028")
@example(setting=options.POSTS, text="p\0.jsonl")
def test_flag_and_config_key_accept_the_same_texts_as_the_same_values(
    tmp_path_factory, setting, text
):
    """A text is accepted as a setting's flag exactly when it is accepted as
    its config key, and both give the same value. A path key is relative to
    the config's directory, and an INI value loses its outer whitespace, which
    a path flag keeps: a path text is compared without it."""
    is_path = setting.name in ("corpus_input", "posts_path", "accounts_path")
    if is_path:
        text = text.strip()
    argv, dest = _FLAGGED[setting.name]
    try:
        args = build_parser().parse_args([*argv, f"{setting.flag}={text}"])
        flag = (True, getattr(args, dest))
    except UsageError as exc:
        flag = (False, exc)
    root = tmp_path_factory.mktemp("setting")
    # every registered language among the others, so that any rescale
    # language passes the check across settings
    sections = {"corpus": {"format": "udhr", "input": "in", "langs": "eng,jpn"},
                "ratios": {"base": "eng", "others": "eng,jpn,cmn_hans,cmn_hant"},
                "posts": {"posts": "p.jsonl", "accounts": "a.csv"}, "ric": {},
                "output": {"dir": "out"}}
    sections[setting.section][setting.key] = text
    config = root / "run.ini"
    config.write_text("".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for name, keys in sections.items()
    ), encoding="utf-8")
    try:
        keyed = (True, getattr(load_pipeline_config(config), setting.name))
    except UsageError as exc:
        keyed = (False, exc)
    assert flag[0] == keyed[0], (flag, keyed)
    if flag[0]:
        value = root / flag[1] if is_path else flag[1]
        assert value == keyed[1]


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

    @pytest.mark.parametrize(
        "section, key, error",
        [
            ("corpus", "format", "[corpus] format must be udhr or ted"),
            ("posts", "posts_format", "[posts] posts_format must be jsonl or csv"),
            ("output", "format", "[output] format must be csv or json"),
        ],
        ids=["corpus", "posts", "output"],
    )
    def test_unknown_file_format_fails_in_config(
        self, tmp_path, udhr_dir, post_dump, capsys, section, key, error
    ):
        sections = base_sections(udhr_dir, post_dump)
        sections[section][key] = "xml"
        config = tmp_path / "run.ini"
        write_config(config, sections)
        assert run_pipeline(config) == 1
        err = capsys.readouterr().err
        assert err == f"pipeline failed at stage 'config': {error}, got 'xml'\n"
        assert not (tmp_path / "out").exists()

    def test_rescale_lang_outside_others_fails_in_config(
        self, tmp_path, udhr_dir, post_dump, capsys
    ):
        sections = base_sections(udhr_dir, post_dump)
        sections["ratios"]["others"] = "jpn,cmn_hant"
        sections["ratios"]["rescale_lang"] = "eng"
        config = tmp_path / "run.ini"
        write_config(config, sections)
        assert run_pipeline(config) == 1
        assert capsys.readouterr().err == (
            "pipeline failed at stage 'config': "
            "[ratios] rescale_lang eng is not in [ratios] others\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "value, shown",
        [("nan", "nan"), ("inf", "inf"), ("1e400", "inf"), ("0", "0"), ("-5", "-5")],
    )
    def test_rescale_limit_must_be_finite_and_positive(
        self, tmp_path, udhr_dir, post_dump, capsys, value, shown
    ):
        sections = base_sections(udhr_dir, post_dump)
        sections["ratios"]["rescale_limit"] = value
        config = tmp_path / "run.ini"
        write_config(config, sections)
        assert run_pipeline(config) == 1
        assert capsys.readouterr().err == (
            "pipeline failed at stage 'config': "
            f"[ratios] rescale_limit must be a finite number > 0, got {shown}\n"
        )
        assert not (tmp_path / "out").exists()

    def test_right_hand_label_past_the_float_range_fails_in_the_plot_stage(
        self, tmp_path, udhr_dir, post_dump, capsys
    ):
        """A finite `rescale_limit` passes the config check, but an anchor
        that scales a tick past the largest float draws no ratio figure."""
        sections = base_sections(udhr_dir, post_dump)
        sections["ratios"]["rescale_limit"] = "1.7e308"
        config = tmp_path / "run.ini"
        write_config(config, sections)
        assert run_pipeline(config) == 1
        assert capsys.readouterr().err == (
            "pipeline failed at stage 'plot': figure axis 'chars equivalent to "
            "1.7e+308 eng' has tick label inf, which is not a finite number\n"
        )
        assert (tmp_path / "out" / "ric.csv").is_file()
        assert not (tmp_path / "out" / "ratios_box.svg").exists()

    @pytest.mark.parametrize(
        "section, key",
        [("corpus", "input"), ("posts", "posts"), ("posts", "accounts"), ("output", "dir")],
    )
    def test_path_holding_nul_fails_in_config(
        self, tmp_path, udhr_dir, post_dump, capsys, section, key
    ):
        """No file system takes a NUL in a file name; `os.mkdir` raised
        ValueError for an output directory holding one."""
        sections = base_sections(udhr_dir, post_dump)
        sections[section][key] = "o\0ut"
        config = tmp_path / "run.ini"
        write_config(config, sections)
        assert run_pipeline(config) == 1
        assert capsys.readouterr().err == (
            "pipeline failed at stage 'config': "
            f"[{section}] {key} holds a NUL character: 'o\\x00ut'\n"
        )
        assert not (tmp_path / "out").exists()

    def test_undecodable_config_fails_in_config(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_bytes(b"\xff\xfe[corpus]\n")
        assert run_pipeline(config) == 1
        err = capsys.readouterr().err
        assert "pipeline failed at stage 'config':" in err
        assert f"{config}:1: not UTF-8" in err

    @pytest.mark.parametrize("eol", [b"\n", b"\r", b"\r\n"], ids=["lf", "cr", "crlf"])
    def test_undecodable_config_line_counts_every_line_end(self, tmp_path, capsys, eol):
        config = tmp_path / "run.ini"
        config.write_bytes(eol.join([b"[corpus]", b"format = ted", b"# caf\xe9", b""]))
        assert run_pipeline(config) == 1
        err = capsys.readouterr().err
        assert "pipeline failed at stage 'config':" in err
        assert f"{config}:3: not UTF-8" in err

    def test_duplicate_section_error_names_the_config_file(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text("[corpus]\nformat = ted\n[corpus]\n", encoding="utf-8")
        assert run_pipeline(config) == 1
        err = capsys.readouterr().err
        assert "pipeline failed at stage 'config':" in err
        assert f"While reading from {str(config)!r} [line  3]" in err
        assert "PosixPath" not in err and "WindowsPath" not in err

    @pytest.mark.parametrize(
        "content",
        ["[" * 200_000, '[{"text": ' + "9" * 5000 + "}]"],
        ids=["deep-nesting", "huge-integer"],
    )
    def test_json_caption_past_the_decoder_limits_fails_in_ingest(
        self, tmp_path, post_dump, capsys, content
    ):
        caption = tmp_path / "talks" / "t1" / "eng.json"
        caption.parent.mkdir(parents=True)
        caption.write_text(content, encoding="utf-8")
        sections = base_sections(tmp_path / "talks", post_dump)
        sections["corpus"]["format"] = "ted"
        config = tmp_path / "run.ini"
        write_config(config, sections)
        assert run_pipeline(config) == 1
        err = capsys.readouterr().err
        assert "pipeline failed at stage 'corpus ingest':" in err
        assert f"{caption}:1: invalid JSON" in err

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

    def test_ratio_mean_written_as_zero_fails_in_the_ratios_stage(
        self, tmp_path, post_dump, capsys
    ):
        udhr = tmp_path / "udhr"
        udhr.mkdir()
        (udhr / "eng.txt").write_text("a\n", "utf-8")
        (udhr / "jpn.txt").write_text("あ" * 30_000 + "\n", "utf-8")
        sections = base_sections(udhr, post_dump)
        sections["corpus"]["langs"] = "eng,jpn"
        sections["ratios"] = {"base": "jpn", "others": "eng"}
        config = tmp_path / "run.ini"
        write_config(config, sections)
        assert run_pipeline(config) == 1
        assert capsys.readouterr().err == (
            "pipeline failed at stage 'ratios': ratio(eng, jpn) has mean 3.33333e-05, "
            "which a table would write as 0.0000 and ric could not divide by\n"
        )
        assert not (tmp_path / "out" / "ratios.csv").exists()

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


def _tree(root):
    """{relative path: bytes} for every file under root."""
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _run_with_line_ends(root, inputs, end):
    """Write `inputs` under root with each LF replaced by `end`, run the
    pipeline, and return the output directory as {relative path: bytes}."""
    for name, data in inputs.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(data.replace(b"\n", end))
    assert run_pipeline(root / "run.ini") == 0
    return _tree(root / "out")


@pytest.fixture(scope="module")
def lf_run(tmp_path_factory):
    """A few generated talks, a post dump and a config that names them
    relative to itself, all with LF line ends, as {relative path: bytes};
    and the output directory of a run on them."""
    root = tmp_path_factory.mktemp("line_end_inputs")
    tedgen.build_subtitle_tree(root / "talks", n_kept=6, n_missing=1, n_short=1)
    microgen.build_post_dump(root / "dump")
    write_config(
        root / "run.ini",
        {
            "corpus": {"format": "ted", "input": "talks", "langs": "eng,jpn,cmn_hans"},
            "ratios": {"base": "cmn_hans", "others": "eng,jpn"},
            "posts": {"posts": "dump/posts.jsonl", "accounts": "dump/accounts.csv"},
            "output": {"dir": "out"},
        },
    )
    inputs = _tree(root)
    assert not any(b"\r" in data for data in inputs.values())
    outputs = _run_with_line_ends(root, inputs, b"\n")
    assert sorted(outputs) == sorted(OUTPUT_NAMES)
    return inputs, outputs


@pytest.mark.parametrize("end", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_input_line_ends_leave_the_outputs_byte_identical(
    tmp_path_factory, lf_run, end
):
    """Every input file and the config rewritten with CRLF or CR line ends
    give the output directory of the LF run: the same file names and bytes."""
    inputs, lf_outputs = lf_run
    root = tmp_path_factory.mktemp("line_end_run")
    assert _run_with_line_ends(root, inputs, end) == lf_outputs


# The column of each table whose cells list an account's posts in file order.
_PER_POST = {"stats.csv": "per_post_lengths", "ric.csv": "per_post_ric"}


def _run_on_records(root, sections, records):
    """Run the pipeline of config `sections` on a post dump of `records`
    under root, and return the output directory as {relative path: bytes}."""
    write_config(root / "run.ini", sections)
    (root / "posts.jsonl").write_text("".join(records), encoding="utf-8")
    assert run_pipeline(root / "run.ini") == 0
    return _tree(root / "out")


@pytest.fixture(scope="module")
def in_order_run(tmp_path_factory, udhr_dir):
    """Every tenth post of each generated account, the config of a run on
    them, and the output directory of that run in the generator's order. An
    account keeps posts with and without a URL, and the one with 50 posts
    keeps 5, which `min_posts = 5` excludes."""
    root = tmp_path_factory.mktemp("post_order")
    posts, accounts = microgen.build_post_dump(root / "dump")
    records = [line for line in posts.read_text(encoding="utf-8").splitlines(keepends=True)
               if int(json.loads(line)["id"][-4:]) % 10 == 0]
    sections = base_sections(udhr_dir, ("posts.jsonl", accounts))
    sections["posts"]["min_posts"] = "5"
    return records, sections, _run_on_records(root, sections, records)


@pytest.mark.deep
@settings(deadline=None)
@given(order=st.randoms(use_true_random=False))
def test_post_order_changes_only_the_order_of_per_post_cells(
    tmp_path_factory, in_order_run, order
):
    """Shuffling the records of the post dump leaves the output directory
    byte-identical, but for the per-post cells of the stats and RIC tables,
    each of which holds the same values in another order. `statistics.fmean`
    sums with `fsum`, so every mean is exact."""
    records, sections, in_order = in_order_run
    root = tmp_path_factory.mktemp("post_order_run")
    shuffled = _run_on_records(root, sections, order.sample(records, len(records)))
    assert sorted(shuffled) == sorted(in_order) == sorted(OUTPUT_NAMES)
    for name, data in in_order.items():
        if name not in _PER_POST:
            assert shuffled[name] == data, name
            continue
        old, new = (list(csv.reader(io.StringIO(d.decode("utf-8"), newline="")))
                    for d in (data, shuffled[name]))
        column = old[0].index(_PER_POST[name])
        assert len(new) == len(old)
        for old_row, new_row in zip(old, new):
            assert sorted(new_row.pop(column).split()) == sorted(old_row.pop(column).split())
            assert new_row == old_row


# Talk directory names: any text a file name can hold.
_TALK_NAME = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="/\x00"),
    min_size=1, max_size=6,
).filter(lambda name: name not in (".", ".."))


@pytest.fixture(scope="module")
def talks_run(tmp_path_factory, in_order_run):
    """A few generated talks, one lacking a language and one too short, the
    config of a run on them and on the posts of `in_order_run`, and the
    output directory of that run."""
    root = tmp_path_factory.mktemp("talk_names")
    tedgen.build_subtitle_tree(root / "talks", n_kept=4, n_missing=1, n_short=1)
    records, sections, _ = in_order_run
    sections = {**sections, "corpus": {"format": "ted", "input": "talks",
                                       "langs": "eng,jpn,cmn_hans,cmn_hant"}}
    return root / "talks", records, sections, _run_on_records(root, sections, records)


@pytest.mark.deep
@settings(deadline=None)
@given(names=st.lists(_TALK_NAME, min_size=6, max_size=6, unique=True))
def test_talk_names_leave_every_ratio_statistic_unchanged(
    tmp_path_factory, talks_run, names
):
    """Renaming the talk directories with a map that keeps their sorted order
    leaves every output byte-identical but the unit ids of `corpus.jsonl`,
    each of which is its talk's new name."""
    talks, records, sections, before = talks_run
    old = sorted(path.name for path in talks.iterdir())
    renamed = dict(zip(old, sorted(names)))
    root = tmp_path_factory.mktemp("talk_names_run")
    for name, new in renamed.items():
        shutil.copytree(talks / name, root / "talks" / new)
    after = _run_on_records(root, sections, records)
    assert sorted(after) == sorted(before)
    for name, data in before.items():
        if name != "corpus.jsonl":
            assert after[name] == data, name
    old_units, new_units = ([json.loads(line) for line in d.splitlines()]
                            for d in (before["corpus.jsonl"], after["corpus.jsonl"]))
    for unit in old_units[1:]:  # after the header
        unit["unit_id"] = renamed[unit["unit_id"]]
    assert new_units == old_units


_REGISTERED = {(plan.screen_name, plan.platform) for plan in microgen.PLANS}
# A post of an account that the accounts file does not list: a new name, a
# listed name on the other platform, or a listed name with outer whitespace.
_UNREGISTERED_POST = st.tuples(
    st.sampled_from([name for name, _ in _REGISTERED]).map(lambda name: f" {name}")
    | st.sampled_from([name for name, _ in _REGISTERED]) | st.text(max_size=10),
    st.sampled_from(PLATFORMS),
    st.text(max_size=30),
).filter(lambda post: post[0].strip() and post[:2] not in _REGISTERED)


@pytest.mark.deep
@settings(deadline=None)
@given(posts=st.lists(_UNREGISTERED_POST, min_size=1, max_size=5))
def test_posts_of_unregistered_accounts_change_only_the_dropped_count(
    tmp_path_factory, in_order_run, posts
):
    """Appending posts of accounts the accounts file does not list leaves the
    output directory byte-identical, and `assign_posts` drops exactly them."""
    records, sections, in_order = in_order_run
    appended = [
        json.dumps({"id": f"unregistered-{i}", "account": account, "platform": platform,
                    "text": text, "created_at": "2015-01-01T00:00:00Z"},
                   ensure_ascii=False) + "\n"
        for i, (account, platform, text) in enumerate(posts)
    ]
    root = tmp_path_factory.mktemp("unregistered_run")
    assert _run_on_records(root, sections, records + appended) == in_order
    loaded = load_posts(root / "posts.jsonl")
    accounts = load_accounts(sections["posts"]["accounts"])
    dropped = assign_posts(loaded[:len(records)], accounts)[1]
    assert assign_posts(loaded, accounts)[1] == dropped + len(posts)
