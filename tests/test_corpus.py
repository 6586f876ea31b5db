"""Corpus parsing, alignment, filtering, and persistence, plus the fuzz
tests that feed every file loader and the pipeline config loader arbitrary
content."""

import configparser
import csv
import io
import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lingspace.corpus import (
    AlignedUnit,
    ParallelCorpus,
    build_parallel_corpus,
    load_corpus,
    load_subtitle_directory,
    load_udhr_directory,
    parse_udhr_language_file,
    save_corpus,
)
from lingspace.errors import DataError, LingspaceError, UsageError
from lingspace.microblog import load_accounts, load_posts
from lingspace.pipeline import load_pipeline_config
from lingspace.tables import read_records

from conftest import ALL_LANGS

HEADER = b'{"name": "c", "languages": ["eng", "jpn"], "provenance": ""}\n'

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_LANG = st.sampled_from(["eng", "jpn", "qqz", ""]) | _JSON_VALUES
# Lines shaped like a header or a unit record, with any value in any field,
# next to arbitrary JSON.
JSON_LINE = st.one_of(
    st.fixed_dictionaries(
        {"name": _JSON_VALUES, "provenance": _JSON_VALUES},
        optional={"languages": st.lists(_LANG, max_size=3) | _JSON_VALUES},
    ),
    st.fixed_dictionaries(
        {"unit_id": _JSON_VALUES},
        optional={"eng": _JSON_VALUES | st.text(), "jpn": st.text()},
    ),
    _JSON_VALUES,
).map(lambda value: json.dumps(value, ensure_ascii=False))


class TestParagraphSplitting:
    def test_blank_line_splitting(self):
        assert parse_udhr_language_file("A\n\nB\n\n\nC", "eng") == [
            (0, "A"),
            (1, "B"),
            (2, "C"),
        ]

    def test_intra_paragraph_newline_preserved(self):
        assert parse_udhr_language_file("A\nB\n\nC", "eng") == [(0, "A\nB"), (1, "C")]

    def test_empty_input(self):
        assert parse_udhr_language_file("", "eng") == []

    def test_whitespace_only_lines_separate_paragraphs(self):
        assert parse_udhr_language_file("A\n \t \nB", "eng") == [(0, "A"), (1, "B")]

    def test_unknown_language_rejected(self):
        with pytest.raises(UsageError, match="unknown language tag"):
            parse_udhr_language_file("A", "nope")


class TestUnitAndCorpusInvariants:
    def test_empty_unit_id_rejected(self):
        with pytest.raises(DataError, match="unit_id"):
            AlignedUnit("", {"eng": "x"})

    def test_unit_without_texts_rejected(self):
        with pytest.raises(DataError, match="no texts"):
            AlignedUnit("u", {})

    def test_whitespace_text_rejected(self):
        with pytest.raises(DataError, match="empty eng text"):
            AlignedUnit("u", {"eng": "  \n "})

    def test_duplicate_unit_ids_rejected(self):
        units = (AlignedUnit("u", {"eng": "a"}), AlignedUnit("u", {"eng": "b"}))
        with pytest.raises(DataError, match="duplicate unit_id"):
            ParallelCorpus("c", ("eng",), units)

    def test_unit_language_outside_corpus_set_rejected(self):
        units = (AlignedUnit("u", {"eng": "a", "jpn": "b"}),)
        with pytest.raises(DataError, match="outside the corpus language set"):
            ParallelCorpus("c", ("eng",), units)

    def test_duplicate_corpus_languages_rejected(self):
        with pytest.raises(DataError, match="duplicates"):
            ParallelCorpus("c", ("eng", "eng"), ())

    def test_len_counts_units(self):
        corpus = ParallelCorpus("c", ("eng",), (AlignedUnit("u", {"eng": "a"}),))
        assert len(corpus) == 1


def _units(pairs):
    return [(unit_id, text) for unit_id, text in pairs]


class TestBuildParallelCorpus:
    def test_needs_two_languages(self):
        with pytest.raises(UsageError, match="at least two languages"):
            build_parallel_corpus({"eng": _units([("1", "a")])}, min_chars=0)

    def test_duplicate_unit_id_within_language(self):
        data = {
            "eng": _units([("1", "a"), ("1", "b")]),
            "jpn": _units([("1", "x")]),
        }
        with pytest.raises(DataError, match="duplicate unit_id '1' in language eng"):
            build_parallel_corpus(data, min_chars=0)

    def test_partial_units_dropped_and_counted(self):
        data = {
            "eng": _units([("1", "one"), ("2", "two")]),
            "jpn": _units([("1", "一")]),
        }
        corpus, report = build_parallel_corpus(data, min_chars=0)
        assert [u.unit_id for u in corpus.units] == ["1"]
        assert (
            report.total_ids,
            report.missing_language,
            report.too_short,
            report.kept,
        ) == (2, 1, 0, 1)

    def test_whitespace_text_counts_as_absent(self):
        data = {
            "eng": _units([("1", "   ")]),
            "jpn": _units([("1", "一")]),
        }
        corpus, report = build_parallel_corpus(data, min_chars=0)
        assert report.missing_language == 1
        assert not corpus.units

    def test_min_length_filter_measures_reference_language(self):
        data = {
            "eng": _units([("long", "x" * 30), ("short", "x" * 29)]),
            "jpn": _units([("long", "一"), ("short", "一")]),
        }
        corpus, report = build_parallel_corpus(data, min_chars=30)
        assert [u.unit_id for u in corpus.units] == ["long"]
        assert report.too_short == 1

    def test_missing_reference_language_is_a_usage_error(self):
        data = {
            "jpn": _units([("1", "一")]),
            "cmn_hans": _units([("1", "二")]),
        }
        with pytest.raises(UsageError, match="reference language eng"):
            build_parallel_corpus(data, min_chars=10)

    def test_unit_order_follows_first_appearance(self):
        data = {
            "eng": _units([("b", "bee"), ("a", "ay"), ("c", "see")]),
            "jpn": _units([("a", "あ"), ("c", "う"), ("b", "い")]),
        }
        corpus, _ = build_parallel_corpus(data, min_chars=0)
        assert [u.unit_id for u in corpus.units] == ["b", "a", "c"]

    def test_raising_min_length_never_keeps_more(self):
        data = {
            "eng": _units([(str(i), "x" * (10 * i)) for i in range(1, 8)]),
            "jpn": _units([(str(i), "一" * i) for i in range(1, 8)]),
        }
        kept = [
            build_parallel_corpus(data, min_chars=threshold)[1].kept
            for threshold in (0, 15, 35, 55, 75, 1000)
        ]
        assert kept == sorted(kept, reverse=True)

    def test_negative_min_length_rejected(self):
        data = {"eng": _units([("1", "one")]), "jpn": _units([("1", "一")])}
        with pytest.raises(UsageError, match="min_chars must be >= 0"):
            build_parallel_corpus(data, min_chars=-1)


class TestUdhrDirectory:
    def test_four_languages_align_paragraph_by_paragraph(self, udhr_corpus):
        assert udhr_corpus.languages == ALL_LANGS
        assert len(udhr_corpus) == 39
        assert [u.unit_id for u in udhr_corpus.units] == [str(i) for i in range(39)]
        for unit in udhr_corpus.units:
            assert set(unit.texts) == set(ALL_LANGS)

    def test_provenance_names_the_directory(self, udhr_corpus):
        assert udhr_corpus.provenance == "declaration-style directory udhr"

    def test_simplified_and_traditional_lengths_match(self, udhr_corpus):
        for unit in udhr_corpus.units:
            assert len(unit.texts["cmn_hans"]) == len(unit.texts["cmn_hant"])

    def test_missing_translation_file(self, tmp_path):
        (tmp_path / "eng.txt").write_text("A\n\nB\n", encoding="utf-8")
        with pytest.raises(DataError, match="missing translation file"):
            load_udhr_directory(tmp_path, ("eng", "jpn"))

    def test_paragraph_count_mismatch_is_a_hard_error(self, tmp_path):
        (tmp_path / "eng.txt").write_text("A\n\nB\n", encoding="utf-8")
        (tmp_path / "jpn.txt").write_text("あ\n", encoding="utf-8")
        with pytest.raises(DataError, match="paragraph counts differ") as exc:
            load_udhr_directory(tmp_path, ("eng", "jpn"))
        assert "eng=2" in str(exc.value)
        assert "jpn=1" in str(exc.value)

    def test_undecodable_bytes_are_a_data_error(self, tmp_path):
        (tmp_path / "eng.txt").write_bytes(b"ok\xff\xfe")
        (tmp_path / "jpn.txt").write_text("あ\n", encoding="utf-8")
        with pytest.raises(DataError, match="eng.txt"):
            load_udhr_directory(tmp_path, ("eng", "jpn"))

    def test_negative_min_chars_rejected_before_any_file_is_read(self, tmp_path):
        (tmp_path / "eng.txt").write_bytes(b"ok\xff\xfe")
        (tmp_path / "jpn.txt").write_text("あ\n", encoding="utf-8")
        with pytest.raises(UsageError, match="min_chars must be >= 0"):
            load_udhr_directory(tmp_path, ("eng", "jpn"), min_chars=-1)


class TestSubtitleDirectory:
    def test_exclusion_funnel_matches_the_generated_tree(self, ted_fixture, ted_ingest):
        corpus, report = ted_ingest
        assert report.total_ids == ted_fixture.total
        assert report.kept == len(ted_fixture.kept_ids)
        assert report.missing_language == len(ted_fixture.missing_language_ids)
        assert report.too_short == len(ted_fixture.too_short_ids)
        assert [u.unit_id for u in corpus.units] == ted_fixture.kept_ids

    def test_kept_units_carry_every_language(self, ted_corpus):
        for unit in ted_corpus.units:
            assert set(unit.texts) == set(ALL_LANGS)

    def test_provenance_names_the_directory(self, ted_fixture, ted_corpus):
        assert ted_corpus.provenance == f"subtitle directory {ted_fixture.root.name}"

    def test_empty_directory_is_a_data_error(self, tmp_path):
        with pytest.raises(DataError, match="no talk directories"):
            load_subtitle_directory(tmp_path, ("eng", "jpn"))

    def test_srt_preferred_over_vtt(self, tmp_path):
        talk = tmp_path / "talk_0001"
        talk.mkdir()
        srt = "1\n00:00:01,000 --> 00:00:02,000\n" + "from srt " * 30 + "\n"
        talk.joinpath("eng.srt").write_text(srt, encoding="utf-8")
        talk.joinpath("eng.vtt").write_text(
            "WEBVTT\n\n00:01.000 --> 00:02.000\nfrom vtt\n", encoding="utf-8"
        )
        talk.joinpath("jpn.srt").write_text(
            "1\n00:00:01,000 --> 00:00:02,000\n" + "あ" * 40 + "\n",
            encoding="utf-8",
        )
        corpus, _ = load_subtitle_directory(tmp_path, ("eng", "jpn"), min_chars=0)
        assert corpus.units[0].texts["eng"].startswith("from srt")

    def test_parse_failure_names_the_file(self, tmp_path):
        talk = tmp_path / "talk_0001"
        talk.mkdir()
        talk.joinpath("eng.srt").write_text("no timing here\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"eng\.srt.*line 1") as exc:
            load_subtitle_directory(tmp_path, ("eng",), min_chars=0)
        assert "-->" in str(exc.value)

    def test_negative_min_chars_rejected_before_any_caption_is_read(self, tmp_path):
        talk = tmp_path / "talk_0001"
        talk.mkdir()
        talk.joinpath("eng.srt").write_text("no timing here\n", encoding="utf-8")
        with pytest.raises(UsageError, match="min_chars must be >= 0"):
            load_subtitle_directory(tmp_path, ("eng",), min_chars=-1)


class TestPersistence:
    def test_round_trip_preserves_units_and_order(self, tmp_path, ted_corpus):
        path = tmp_path / "corpus.jsonl"
        save_corpus(ted_corpus, path)
        assert load_corpus(path) == ted_corpus

    def test_round_trip_is_byte_stable(self, tmp_path, udhr_corpus):
        first = tmp_path / "one.jsonl"
        second = tmp_path / "two.jsonl"
        save_corpus(udhr_corpus, first)
        save_corpus(load_corpus(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_partial_units_survive_the_round_trip(self, tmp_path):
        units = (
            AlignedUnit("1", {"eng": "one", "jpn": "一"}),
            AlignedUnit("2", {"eng": "two"}),
        )
        corpus = ParallelCorpus("mixed", ("eng", "jpn"), units, "note")
        path = tmp_path / "c.jsonl"
        save_corpus(corpus, path)
        assert load_corpus(path) == corpus

    def test_cr_only_file_loads_like_the_lf_file(self, tmp_path, udhr_corpus):
        path = tmp_path / "c.jsonl"
        save_corpus(udhr_corpus, path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r"))
        assert load_corpus(path) == udhr_corpus

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataError, match="empty corpus file"):
            load_corpus(path)

    def test_bad_header_json(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("{oops\n", encoding="utf-8")
        with pytest.raises(DataError, match=r":1: invalid corpus header"):
            load_corpus(path)

    def test_header_missing_key(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"name": "c", "languages": ["eng"]}\n', encoding="utf-8")
        with pytest.raises(DataError, match="lacks 'provenance'"):
            load_corpus(path)

    def test_bad_unit_record_reports_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"name": "c", "languages": ["eng"], "provenance": ""}\n'
            '{"unit_id": "1", "eng": "ok"}\n'
            "not json\n",
            encoding="utf-8",
        )
        with pytest.raises(DataError, match=r":3: invalid unit record"):
            load_corpus(path)

    def test_record_without_unit_id_reports_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"name": "c", "languages": ["eng"], "provenance": ""}\n'
            '{"eng": "ok"}\n',
            encoding="utf-8",
        )
        with pytest.raises(DataError, match=r":2: unit record lacks 'unit_id'"):
            load_corpus(path)

    def test_unknown_language_in_header_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"name": "c", "languages": ["qqz"], "provenance": ""}\n',
            encoding="utf-8",
        )
        with pytest.raises(UsageError, match="unknown language tag"):
            load_corpus(path)

    @pytest.mark.parametrize(
        "content, message",
        [
            pytest.param(
                HEADER + b'{"unit_id": "1", "eng": 5}\n',
                r":2: unit '1' has a non-string eng text",
                id="text-not-a-string",
            ),
            pytest.param(
                b"[]\n",
                r":1: invalid corpus header: record is not an object",
                id="header-array",
            ),
            pytest.param(
                b"7\n",
                r":1: invalid corpus header: record is not an object",
                id="header-number",
            ),
            pytest.param(
                b'{"name": "c", "languages": 5, "provenance": ""}\n',
                r":1: corpus header 'languages' is not a list",
                id="languages-number",
            ),
            pytest.param(
                b'{"name": "c", "languages": [["eng"]], "provenance": ""}\n',
                r":1: corpus header 'languages' holds a non-string",
                id="language-not-a-string",
            ),
            pytest.param(
                HEADER + b"3\n",
                r":2: invalid unit record: record is not an object",
                id="record-number",
            ),
            pytest.param(
                HEADER + b'{"unit_id": "1", "eng": "caf\xe9"}\n',
                r":2: invalid unit record: not UTF-8",
                id="not-utf8",
            ),
            pytest.param(
                HEADER + b"1" * 5000 + b"\n",
                r":2: invalid unit record: invalid JSON",
                id="integer-too-long",
            ),
            pytest.param(
                b"[" * 100_000 + b"\n",
                r":1: invalid corpus header: invalid JSON",
                id="nesting-too-deep",
            ),
        ],
    )
    def test_malformed_content_is_a_data_error_naming_the_line(
        self, tmp_path, content, message
    ):
        path = tmp_path / "c.jsonl"
        path.write_bytes(content)
        with pytest.raises(DataError, match=message):
            load_corpus(path)

    @given(
        st.binary(max_size=300)
        | st.lists(JSON_LINE, min_size=1, max_size=4).map(
            lambda lines: "\n".join(lines).encode("utf-8")
        )
    )
    @example(HEADER + b'{"unit_id": "1", "eng": ["x"]}\n')
    @example(HEADER + b'{"unit_id": "1", "eng": "x"}\n{"unit_id": "1", "eng": "y"}\n')
    @example(b'{"name": "c", "languages": ["eng", "eng"], "provenance": ""}\n')
    def test_arbitrary_content_raises_only_lingspace_errors(
        self, tmp_path_factory, content
    ):
        path = tmp_path_factory.getbasetemp() / "fuzz_corpus.jsonl"
        path.write_bytes(content)
        try:
            load_corpus(path)
        except LingspaceError:
            pass


_POST_FIELDS = ["id", "account", "platform", "text", "created_at"]
_ACCOUNT_FIELDS = ["screen_name", "platform", "language", "org_type"]
# Cells that pass some checks, including timestamps that leave the calendar
# once shifted to UTC, next to arbitrary text.
_CELL = st.sampled_from(
    [
        "",
        "twitter",
        "weibo",
        "eng",
        "news",
        "2015-01-01T00:00:00Z",
        "0001-01-01T00:00:00+01:00",
        "9999-12-31T23:59:59-01:00",
    ]
) | st.text(max_size=8)


def _csv_bytes(rows) -> bytes:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue().encode("utf-8")


CSV_CONTENT = st.tuples(
    st.sampled_from([_POST_FIELDS, _ACCOUNT_FIELDS]),
    st.lists(st.lists(_CELL, max_size=6), max_size=4),
).map(lambda table: _csv_bytes([table[0], *table[1]]))
POST_LINE = st.fixed_dictionaries(
    {}, optional={name: _CELL | _JSON_VALUES for name in _POST_FIELDS}
).map(lambda value: json.dumps(value, ensure_ascii=False))
JSON_LINES = st.lists(POST_LINE | JSON_LINE, min_size=1, max_size=4).map(
    lambda lines: "\n".join(lines).encode("utf-8")
)
JSON_TABLE = st.lists(_JSON_VALUES, max_size=3).map(
    lambda value: json.dumps(value, ensure_ascii=False).encode("utf-8")
)

LOADERS = {
    "posts.jsonl": lambda path: load_posts(path, "jsonl"),
    "posts.csv": lambda path: load_posts(path, "csv"),
    "accounts.csv": load_accounts,
    "table.csv": read_records,
    "table.json": read_records,
}


@pytest.mark.parametrize("name", LOADERS)
@given(content=st.binary(max_size=300) | CSV_CONTENT | JSON_LINES | JSON_TABLE)
@example(content=b'{"id": 1, "account": "a", "platform": "twitter", "text": "",'
         b' "created_at": "0001-01-01T00:00:00+01:00"}\n')
@example(content=b"screen_name,platform,language,org_type\nx,twitter,caf\xe9,news\n")
@example(content=b'a\n"' + b"x" * 200_000 + b'"\n')
@example(content=b"[" * 100_000)
def test_loaders_raise_only_lingspace_errors(tmp_path_factory, name, content):
    path = tmp_path_factory.getbasetemp() / f"fuzz_{name}"
    path.write_bytes(content)
    try:
        LOADERS[name](path)
    except LingspaceError:
        pass


# Each config key with a value it accepts; a drawn config keeps most keys at
# such a value, so the loader gets past its first check.
_INI_KEYS = {
    "corpus": {"format": "ted", "input": "talks", "langs": "eng,jpn", "min_chars": "0"},
    "ratios": {"base": "eng", "others": "jpn", "measure": "gbk",
               "rescale_lang": "jpn", "rescale_limit": "140"},
    "posts": {"posts": "p.jsonl", "posts_format": "jsonl", "accounts": "a.csv",
              "min_posts": "50"},
    "ric": {"base": "jpn"},
    "output": {"dir": "out", "format": "json"},
}
_INI_VALUE = st.sampled_from(
    ["", "udhr", "qqz", "eng,eng", "cmn_hans", "-1", "1e400", "nan", "inf", "1_0",
     "%(x)s", "%", "/abs", "\x00", "a\n b", " eng "]
) | st.text(max_size=8)


@st.composite
def ini_text(draw):
    lines = []
    for section, keys in _INI_KEYS.items():
        if draw(st.integers(0, 9)):
            lines.append(f"[{section}]")
        for key, good in keys.items():
            if draw(st.integers(0, 9)):
                value = good if draw(st.integers(0, 3)) else draw(_INI_VALUE)
                lines.append(f"{key} = {value}")
    for line in draw(st.lists(st.text(max_size=10), max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join(lines)


@given(st.binary(max_size=300) | ini_text().map(lambda text: text.encode("utf-8")))
@example(b"[corpus]\nformat = ted\n[corpus]\n")
@example(b"[ratios]\nbase = %(\n")
def test_config_loader_raises_only_config_errors(tmp_path_factory, content):
    path = tmp_path_factory.getbasetemp() / "fuzz_run.ini"
    path.write_bytes(content)
    try:
        load_pipeline_config(path)
    except (LingspaceError, configparser.Error):
        pass
