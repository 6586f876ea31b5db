"""Corpus parsing, alignment, filtering, and persistence, plus the fuzz
tests that feed every file loader and the pipeline config loader arbitrary
content."""

import configparser
import csv
import io
import itertools
import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lingspace.corpus import (
    AlignedUnit,
    ParallelCorpus,
    load_corpus,
    load_subtitle_directory,
    load_udhr_directory,
    save_corpus,
)
from lingspace.errors import DataError, LingspaceError, UsageError
from lingspace.measures import SpaceMeasure, count_units
from lingspace.microblog import STATS_TABLE, load_accounts, load_posts
from lingspace.pipeline import load_pipeline_config
from lingspace.tables import blocks, emit_table, lf_text, read_table

from conftest import ALL_LANGS

HEADER = b'{"name": "c", "languages": ["eng", "jpn"], "provenance": ""}\n'


def _assert_located(exc, path, content):
    """File content is bad data, never a bad request: the error names the
    file it was read from and, if it names a line, a line of that file as
    `lf_text` counts them. The (empty) line after a final line end counts,
    since a JSON error at the end of the file names it."""
    assert isinstance(exc, DataError), repr(exc)
    assert exc.path == path, str(exc)
    if exc.line is not None:
        lines = lf_text(content.decode("latin-1")).count("\n") + 1
        assert 1 <= exc.line <= lines, str(exc)


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


def _paragraphs(directory, content):
    """(unit_id, eng text) of each unit load_udhr_directory aligns when
    `content` is both the eng and the jpn file."""
    for lang in ("eng", "jpn"):
        (directory / f"{lang}.txt").write_bytes(content.encode("utf-8"))
    corpus, _ = load_udhr_directory(directory, ("eng", "jpn"))
    return [(unit.unit_id, unit.texts["eng"]) for unit in corpus.units]


class TestParagraphSplitting:
    def test_blank_line_splitting(self, tmp_path):
        assert _paragraphs(tmp_path, "A\n\nB\n\n\nC") == [("0", "A"), ("1", "B"), ("2", "C")]

    def test_intra_paragraph_newline_preserved(self, tmp_path):
        assert _paragraphs(tmp_path, "A\nB\n\nC") == [("0", "A\nB"), ("1", "C")]

    def test_empty_input(self, tmp_path):
        assert _paragraphs(tmp_path, "") == []

    def test_whitespace_only_lines_separate_paragraphs(self, tmp_path):
        assert _paragraphs(tmp_path, "A\n \t \nB") == [("0", "A"), ("1", "B")]

    def test_unknown_language_rejected(self, tmp_path):
        (tmp_path / "eng.txt").write_text("A", encoding="utf-8")
        (tmp_path / "nope.txt").write_text("A", encoding="utf-8")
        with pytest.raises(UsageError, match="unknown language tag"):
            load_udhr_directory(tmp_path, ("eng", "nope"))

    def test_other_line_separators_are_counted_characters(self, tmp_path):
        # Only LF, CRLF and CR end a line: U+2028, U+0085 and a vertical tab
        # stay in the paragraph, and its measures count them.
        content = "A\u2028B\x85C\vD"
        assert _paragraphs(tmp_path, content) == [("0", content)]
        assert count_units(content, SpaceMeasure.UTF8_BYTES) == 10
        assert count_units(content, SpaceMeasure.GBK_UNITS) == 9

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_crlf_and_cr_text_splits_like_lf(self, tmp_path, end):
        content = "A\nB\n\n \nC\n"
        expected = [("0", "A\nB"), ("1", "C")]
        assert _paragraphs(tmp_path, content) == expected
        assert _paragraphs(tmp_path, content.replace("\n", end)) == expected

    def test_blocks_keep_their_lines_as_they_are(self):
        # Trimming is the declaration loader's; a caption block keeps the
        # spaces a WebVTT header or NOTE test looks past.
        assert blocks(" A \n\tB\n\u2028\n\n C\n") == [" A \n\tB", " C"]
        assert blocks("\n \n") == []


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


def _write_talks(root, talks):
    """A caption tree at `root`: `talks` maps each talk to {lang: text},
    each text one JSON cue."""
    for talk, texts in talks.items():
        (root / talk).mkdir()
        for lang, text in texts.items():
            (root / talk / f"{lang}.json").write_text(json.dumps([{"text": text}]),
                                                      encoding="utf-8")
    return root


_LOADERS = [load_udhr_directory, load_subtitle_directory]


def _counts(report):
    return report.total_ids, report.missing_language, report.too_short, report.kept


class TestBuildParallelCorpus:
    """The alignment rules both directory loaders share. The request is
    checked before any file is read, so a directory that is not there
    cannot get in first."""

    def test_needs_two_languages(self, tmp_path):
        for load, langs in itertools.product(_LOADERS, [("eng",), ("eng", "eng")]):
            with pytest.raises(UsageError, match="at least two languages"):
                load(tmp_path / "nowhere", langs, 0)

    def test_partial_units_dropped_and_counted(self, tmp_path):
        _write_talks(tmp_path, {"1": {"eng": "one", "jpn": "一"}, "2": {"eng": "two"},
                                "3": {"cmn_hans": "三"}})
        corpus, report = load_subtitle_directory(tmp_path, ("eng", "jpn"), min_chars=0)
        assert [u.unit_id for u in corpus.units] == ["1"]
        # A talk with no caption in a requested language is not a unit.
        assert _counts(report) == (2, 1, 0, 1)

    def test_whitespace_text_counts_as_absent(self, tmp_path):
        _write_talks(tmp_path, {"1": {"eng": "   ", "jpn": "一"}})
        corpus, report = load_subtitle_directory(tmp_path, ("eng", "jpn"), min_chars=0)
        assert report.missing_language == 1
        assert not corpus.units

    def test_min_length_filter_measures_reference_language(self, tmp_path):
        (tmp_path / "eng.txt").write_text("x" * 30 + "\n\n" + "x" * 29, encoding="utf-8")
        (tmp_path / "jpn.txt").write_text("一\n\n一", encoding="utf-8")
        corpus, report = load_udhr_directory(tmp_path, ("jpn", "eng"), min_chars=30)
        assert [u.unit_id for u in corpus.units] == ["0"]
        assert _counts(report) == (2, 0, 1, 1)

    def test_missing_reference_language_is_a_usage_error(self, tmp_path):
        for load in _LOADERS:
            with pytest.raises(UsageError, match="reference language eng"):
                load(tmp_path / "nowhere", ("jpn", "cmn_hans"), 10)

    def test_unit_order_follows_first_appearance(self, tmp_path):
        # Talks are read, and so kept, in sorted directory order.
        _write_talks(tmp_path, {talk: {"eng": "hi", "jpn": "やあ"}
                                for talk in ["b", "a", "c", "9", "10"]})
        corpus, _ = load_subtitle_directory(tmp_path, ("eng", "jpn"), min_chars=0)
        assert [u.unit_id for u in corpus.units] == ["10", "9", "a", "b", "c"]

    def test_raising_min_length_never_keeps_more(self, tmp_path):
        _write_talks(tmp_path, {str(i): {"eng": "x" * (10 * i), "jpn": "一" * i}
                                for i in range(1, 8)})
        kept = [
            load_subtitle_directory(tmp_path, ("eng", "jpn"), threshold)[1].kept
            for threshold in (0, 15, 35, 55, 75, 1000)
        ]
        assert kept == sorted(kept, reverse=True)

    def test_negative_min_length_rejected(self, tmp_path):
        for load in _LOADERS:
            with pytest.raises(UsageError, match="min_chars must be >= 0"):
                load(tmp_path / "nowhere", ("eng", "jpn"), -1)


_TALK_LANGS = ("eng", "jpn", "cmn_hans")


@pytest.mark.deep
@given(
    talks=st.lists(
        st.tuples(
            st.frozensets(st.sampled_from(_TALK_LANGS + ("cmn_hant",))),
            st.booleans(),  # one transcript blank
            st.integers(-3, 3),  # eng length less min_chars
        ),
        min_size=1, max_size=8,
    ),
    min_chars=st.integers(0, 4),
)
def test_caption_tree_report_matches_its_design(tmp_path_factory, talks, min_chars):
    """Each talk of a generated caption tree lands where its design puts it:
    no requested caption, missing a language, too short, or kept."""
    root = tmp_path_factory.mktemp("talks")
    tree, design = {}, Counter()
    for index, (langs, blank, delta) in enumerate(talks):
        eng_length = max(1, min_chars + delta)
        texts = {lang: "x" * eng_length if lang == "eng" else "一" for lang in langs}
        if blank and texts:
            texts[min(texts)] = " "
        tree[f"t{index}"] = texts
        requested = set(texts) & set(_TALK_LANGS)
        if not requested:
            continue
        design["total"] += 1
        if requested != set(_TALK_LANGS) or (blank and min(texts) in requested):
            design["missing"] += 1
        elif eng_length < min_chars:
            design["short"] += 1
        else:
            design["kept"] += 1
    _write_talks(root, tree)
    _, report = load_subtitle_directory(root, _TALK_LANGS, min_chars)
    assert _counts(report) == (design["total"], design["missing"], design["short"],
                               design["kept"])
    assert report.total_ids == report.missing_language + report.too_short + report.kept


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
        assert exc.value.path == tmp_path

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
        with pytest.raises(DataError, match=r"eng\.srt:1: expected a cue") as exc:
            load_subtitle_directory(tmp_path, ("eng", "jpn"), min_chars=0)
        assert "-->" in str(exc.value)

    # Ingest joins str paths; an error names its file as a Path would, so
    # under the directory "." it is "t/eng.srt", not "./t/eng.srt".
    @pytest.mark.parametrize(
        "content, problem",
        [(b"no timing here\n", "t/eng.srt:1: expected a cue timing line containing '-->'"),
         (b"1\n\xff\n", "t/eng.srt:2: not UTF-8 (invalid start byte)")],
        ids=["caption", "not-utf8"],
    )
    def test_errors_name_the_file_as_a_path(self, tmp_path, monkeypatch, content, problem):
        (tmp_path / "t").mkdir()
        (tmp_path / "t" / "eng.srt").write_bytes(content)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(DataError) as exc:
            load_subtitle_directory(".", ("eng", "jpn"), min_chars=0)
        assert (str(exc.value), exc.value.path) == (problem, Path("t/eng.srt"))

    def test_read_error_names_the_file_as_a_path(self, tmp_path, monkeypatch):
        (tmp_path / "t").mkdir()
        (tmp_path / "t" / "eng.srt").write_text("x", encoding="utf-8")
        monkeypatch.chdir(tmp_path)

        def unreadable(path):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr("lingspace.corpus.read_text", unreadable)
        with pytest.raises(PermissionError) as exc:
            load_subtitle_directory(".", ("eng", "jpn"), min_chars=0)
        assert str(exc.value) == "[Errno 13] Permission denied: 't/eng.srt'"

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

    def test_escaped_surrogate_pair_loads_as_one_scalar(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(HEADER + b'{"unit_id": "1", "eng": "hi \\ud83d\\ude00"}\n')
        assert load_corpus(path).units[0].texts == {"eng": "hi \U0001f600"}

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataError, match="empty corpus file"):
            load_corpus(path)

    def test_header_after_blank_lines_is_read(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b"\n  \n" + HEADER + b'{"unit_id": "1", "eng": "hi"}\n')
        corpus = load_corpus(path)
        assert corpus.languages == ("eng", "jpn")
        assert corpus.units == (AlignedUnit("1", {"eng": "hi"}),)

    def test_header_error_names_the_header_line_after_blank_lines(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b"\n\n{oops\n")
        with pytest.raises(DataError) as info:
            load_corpus(path)
        assert str(info.value).startswith(f"{path}:3: invalid corpus header: ")

    def test_blank_lines_only_are_an_empty_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b"\n \r\n\n")
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
        with pytest.raises(DataError, match=r":1: unknown language tag 'qqz'"):
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
                HEADER + b'{"unit_id": "1", "eng": "hi", "jpn": "abc\\ud800def"}\n',
                r":2: invalid unit record: 'jpn' holds lone surrogate U\+D800",
                id="lone-surrogate-escape",
            ),
            pytest.param(
                HEADER + b'{"unit_id": "u\\udc80", "eng": "hi"}\n',
                r":2: invalid unit record: 'unit_id' holds lone surrogate U\+DC80",
                id="unit-id-lone-surrogate-escape",
            ),
            pytest.param(
                b'{"name": "c\\udfff", "languages": ["eng"], "provenance": ""}\n',
                r":1: invalid corpus header: 'name' holds lone surrogate U\+DFFF",
                id="header-lone-surrogate-escape",
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
            pytest.param(
                b'{"name": "c", "languages": [], "provenance": ""}\n',
                r":1: corpus has no languages$",
                id="no-languages",
            ),
            pytest.param(
                b'{"name": "c", "languages": ["eng", "eng"], "provenance": ""}\n',
                r":1: corpus languages contain duplicates$",
                id="duplicate-languages",
            ),
            pytest.param(
                HEADER + b'{"unit_id": "a", "eng": "x"}\n{"unit_id": "a", "eng": "y"}\n',
                r":3: duplicate unit_id 'a'$",
                id="duplicate-unit-id",
            ),
        ],
    )
    def test_malformed_content_is_a_data_error_naming_the_line(
        self, tmp_path, content, message
    ):
        path = tmp_path / "c.jsonl"
        path.write_bytes(content)
        with pytest.raises(DataError, match=message) as info:
            load_corpus(path)
        assert str(info.value).startswith(f"{path}:")

    @pytest.mark.deep
    @given(
        st.binary(max_size=300)
        | st.lists(JSON_LINE, min_size=1, max_size=4).map(
            lambda lines: "\n".join(lines).encode("utf-8")
        )
    )
    @example(HEADER + b'{"unit_id": "1", "eng": ["x"]}\n')
    @example(HEADER + b'{"unit_id": "1", "eng": "x"}\n{"unit_id": "1", "eng": "y"}\n')
    @example(b'{"name": "c", "languages": ["eng", "eng"], "provenance": ""}\n')
    @example(b'\n{"name": "c", "languages": ["eng", "qqz"], "provenance": ""}\n')
    def test_arbitrary_content_raises_only_lingspace_errors(
        self, tmp_path_factory, content
    ):
        path = tmp_path_factory.getbasetemp() / "fuzz_corpus.jsonl"
        path.write_bytes(content)
        try:
            load_corpus(path)
        except LingspaceError as exc:
            _assert_located(exc, path, content)


_POST_FIELDS = ["id", "account", "platform", "text", "created_at"]
_ACCOUNT_FIELDS = ["screen_name", "platform", "language", "org_type"]
# Cells that pass some checks, including timestamps that leave the calendar
# once shifted to UTC, and stats counts, means and histograms, next to
# arbitrary text.
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
        "1",
        "2.5",
        "0:1",
        "3 1e400",
    ]
) | st.text(max_size=8)


def _csv_bytes(rows) -> bytes:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue().encode("utf-8")


CSV_CONTENT = st.tuples(
    st.sampled_from([_POST_FIELDS, _ACCOUNT_FIELDS, list(STATS_TABLE.fields)]),
    st.lists(st.lists(_CELL, max_size=6), max_size=4),
).map(lambda table: _csv_bytes([table[0], *table[1]]))
POST_LINE = st.fixed_dictionaries(
    {}, optional={name: _CELL | _JSON_VALUES for name in _POST_FIELDS}
).map(lambda value: json.dumps(value, ensure_ascii=False))
JSON_LINES = st.lists(POST_LINE | JSON_LINE, min_size=1, max_size=4).map(
    lambda lines: "\n".join(lines).encode("utf-8")
)
# A row with every stats column, each holding a cell or any JSON value.
STATS_ROW = st.fixed_dictionaries(
    {name: _CELL | _JSON_VALUES for name in STATS_TABLE.fields}
)
JSON_TABLE = st.lists(STATS_ROW | _JSON_VALUES, max_size=3).map(
    lambda value: json.dumps(value, ensure_ascii=False).encode("utf-8")
)

LOADERS = {
    "posts.jsonl": lambda path: load_posts(path, "jsonl"),
    "posts.csv": lambda path: load_posts(path, "csv"),
    "accounts.csv": load_accounts,
    "table.csv": lambda path: read_table(path, STATS_TABLE),
    "table.json": lambda path: read_table(path, STATS_TABLE),
}


@pytest.mark.deep
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
    except LingspaceError as exc:
        _assert_located(exc, path, content)


# A number cell: counts, floats as repr writes them, and texts no writer
# emits (a fifth decimal, an exponent, a sign, padding).
_NUMBER_CELL = st.one_of(
    st.integers(0, 50).map(str),
    st.floats(0, 100).map(repr),
    st.sampled_from(["1.00005", "1e-5", "2.5", "0", "-0.0", "1e400", "nan", "01", " 3"]),
)


@st.composite
def stats_rows(draw):
    """A stats row that is mostly what `analyze_posts` writes: its histogram
    counts its posts and its means summarise its lengths, at four decimals
    or at others. Any cell may instead hold another cell."""
    lengths = draw(st.lists(st.integers(0, 30), min_size=1, max_size=4))
    urls = draw(st.lists(st.integers(0, 3), min_size=len(lengths), max_size=len(lengths)))
    mean = sum(lengths) / len(lengths)
    written = st.sampled_from([f"{mean:.4f}", repr(mean), f"{mean:.6f}"])
    row = {
        "screen_name": draw(st.sampled_from(["a", " b ", "c"])),
        "platform": draw(st.sampled_from(["twitter", "weibo"])),
        "language": draw(st.sampled_from(["eng", " jpn"])),
        "org_type": draw(st.sampled_from(["news", "embassy"])),
        "n_posts": str(len(lengths)),
        "mean_chars_with_urls": draw(
            st.floats(-1, 5).map(lambda extra: f"{mean + extra:.4f}") | written),
        "mean_chars_without_urls": draw(written),
        "url_count_histogram": " ".join(
            f"{count}:{posts}" for count, posts in sorted(Counter(urls).items())),
        "per_post_lengths": " ".join(map(str, lengths)),
    }
    for name in draw(st.lists(st.sampled_from(STATS_TABLE.fields), max_size=2)):
        row[name] = draw(_NUMBER_CELL | _CELL)
    return row


@pytest.mark.deep
@given(rows=st.lists(stats_rows(), max_size=3), format=st.sampled_from(["csv", "json"]))
@example(rows=[{"screen_name": "a", "platform": "twitter", "language": "eng",
                "org_type": "news", "n_posts": "1", "mean_chars_with_urls": "1.46875",
                "mean_chars_without_urls": "0.0000", "url_count_histogram": "0:1",
                "per_post_lengths": "0"}], format="csv")
def test_a_stats_table_read_is_written_back_as_read(tmp_path_factory, rows, format):
    """`read_table` rejects a generated stats table with a DataError, or gives
    values that `emit_table` writes back and `read_table` reads as equal."""
    path = tmp_path_factory.getbasetemp() / f"stats.{format}"
    if format == "csv":
        path.write_bytes(_csv_bytes([STATS_TABLE.fields,
                                     *([row[name] for name in STATS_TABLE.fields]
                                       for row in rows)]))
    else:
        path.write_text(json.dumps(rows), encoding="utf-8")
    try:
        values = read_table(path, STATS_TABLE)
    except DataError:
        return
    emit_table(STATS_TABLE, values, path, format)
    assert read_table(path, STATS_TABLE) == values


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


@pytest.mark.deep
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
