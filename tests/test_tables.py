"""Deterministic table emission and reading."""

import io
import json
import math
import re
import statistics
from collections import Counter
from dataclasses import replace
from functools import partial
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lingspace import tables
from lingspace.errors import DataError, UsageError
from lingspace.measures import SpaceMeasure
from lingspace.microblog import (
    ORG_TYPES,
    PLATFORMS,
    RIC_TABLE,
    STATS_TABLE,
    AccountMeta,
    AccountStats,
    RicResult,
)
from lingspace.ratios import RATIOS_TABLE, DescriptiveStats, RatioStats
from lingspace.options import TABLE_FORMAT
from lingspace.tables import (
    Table,
    _line_blocks,
    emit_table,
    parse_json,
    read_json_lines,
    read_table,
    read_utf8,
)

pytestmark = pytest.mark.deep

# A small table of (name, mean, n) results, written as they are.
ROWS = [("eng", 3.95123456, 39), ("jpn", 1.5, 39)]
TABLE = Table("test", ("name", "mean", "n"), tuple, dict)


class TestCsv:
    def test_header_plus_one_line_per_row(self, tmp_path):
        out = tmp_path / "t.csv"
        emit_table(TABLE, ROWS, out, "csv")
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "name,mean,n"
        assert len(lines) == 3

    def test_floats_render_with_four_decimals(self, tmp_path):
        out = tmp_path / "t.csv"
        emit_table(TABLE, ROWS, out, "csv")
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[1] == "eng,3.9512,39"
        assert lines[2] == "jpn,1.5000,39"

    def test_empty_table_writes_the_declared_header(self, tmp_path):
        out = tmp_path / "t.csv"
        emit_table(TABLE._replace(fields=("a", "b")), [], out, "csv")
        assert out.read_text(encoding="utf-8") == "a,b\n"

    def test_declared_fields_set_column_order(self, tmp_path):
        out = tmp_path / "t.csv"
        table = TABLE._replace(fields=("n", "name", "mean"),
                               cells=lambda r: (r[2], r[0], r[1]))
        emit_table(table, ROWS, out, "csv")
        assert out.read_text(encoding="utf-8").splitlines()[:2] == [
            "n,name,mean", "39,eng,3.9512"
        ]

    def test_stdout_destination(self, capsys):
        emit_table(TABLE, ROWS, None, "csv")
        captured = capsys.readouterr()
        assert captured.out.startswith("name,mean,n\n")

    def test_round_trip_values_come_back_as_strings(self, tmp_path):
        out = tmp_path / "t.csv"
        emit_table(TABLE, ROWS, out, "csv")
        records = read_table(out, TABLE)
        assert records == [
            {"name": "eng", "mean": "3.9512", "n": "39"},
            {"name": "jpn", "mean": "1.5000", "n": "39"},
        ]


class TestJson:
    def test_floats_round_to_four_decimals(self, tmp_path):
        out = tmp_path / "t.json"
        emit_table(TABLE, ROWS, out, "json")
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload[0]["mean"] == 3.9512
        assert payload[0]["n"] == 39

    def test_round_trip_keeps_types(self, tmp_path):
        out = tmp_path / "t.json"
        emit_table(TABLE, ROWS, out, "json")
        records = read_table(out, TABLE)
        assert records[1] == {"name": "jpn", "mean": 1.5, "n": 39}

    def test_non_ascii_text_is_not_escaped(self, tmp_path):
        out = tmp_path / "t.json"
        emit_table(TABLE._replace(fields=("text",)), [("信息",)], out, "json")
        assert "信息" in out.read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "content, line",
        [
            *(
                (eol.join(["[", '{"a": 1},', '{"a": }', "]"]), 3)
                for eol in ("\n", "\r", "\r\n")
            ),
            ('[{"n": ' + "9" * 5000 + "}]", 1),
            ("[" * 200_000, 1),
        ],
        ids=["lf", "cr", "crlf", "huge-integer", "deep-nesting"],
    )
    def test_invalid_json_table_rejected(self, tmp_path, content, line):
        # Only the prefix is matched: the decoder's own message varies
        # between CPython versions.
        bad = tmp_path / "t.json"
        bad.write_bytes(content.encode("utf-8"))
        with pytest.raises(DataError, match=rf"t\.json:{line}: invalid JSON table"):
            read_table(bad, TABLE)

    def test_undecodable_json_table_rejected(self, tmp_path):
        bad = tmp_path / "t.json"
        bad.write_bytes(b'[{"name": "caf\xe9"}]')
        with pytest.raises(DataError, match=r"t\.json:1: not UTF-8"):
            read_table(bad, TABLE)

    def test_non_array_json_table_rejected(self, tmp_path):
        bad = tmp_path / "t.json"
        bad.write_text('{"a": 1}', encoding="utf-8")
        with pytest.raises(DataError, match="array of objects"):
            read_table(bad, TABLE)


class TestValidation:
    @pytest.mark.parametrize("format", TABLE_FORMAT.choices)
    def test_cells_of_another_length_than_the_fields_rejected(self, tmp_path, format):
        out = tmp_path / f"t.{format}"
        with pytest.raises(ValueError, match=r"^test row has 2 cells for 3 columns$"):
            emit_table(TABLE, [*ROWS, ("kor", 1.0)], out, format)
        assert not out.exists()

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(
            UsageError, match=r"^table format must be csv or json, got 'tsv'$"
        ):
            emit_table(TABLE, ROWS, tmp_path / "t.tsv", "tsv")


def test_same_input_twice_is_byte_identical(tmp_path):
    for fmt in TABLE_FORMAT.choices:
        a, b = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
        emit_table(TABLE, ROWS, a, fmt)
        emit_table(TABLE, ROWS, b, fmt)
        assert a.read_bytes() == b.read_bytes()


class TestSplitLines:
    @given(
        st.lists(st.sampled_from([b"a", b"bc", b"\r", b"\n", b"\r\n", b"\xe9"])).map(
            b"".join
        ),
        st.integers(1, 9),
    )
    @example(b"ab\r\ncd", 3)  # a CRLF split between two reads
    @example(b"\r\r\n\n\r", 1)
    @example(b"x" * 40 + b"\r", 2)  # a line longer than many reads
    def test_lf_crlf_and_cr_each_end_one_line(self, data, size):
        blocks = list(_line_blocks(io.BytesIO(data), size))
        assert all(block.endswith(b"\n") for block in blocks)
        lines = b"".join(blocks).split(b"\n")
        lines.pop()  # the text after the last LF, which is empty
        expected = re.split(rb"\r\n|\r|\n", data)
        if expected[-1] == b"":  # the text after the last line end
            expected.pop()
        assert lines == expected


class TestReadUtf8:
    """`read_utf8` reads a file with os calls, 64 KiB at a time."""

    @pytest.mark.parametrize("size", [0, 65_535, 65_536, 65_537, 3 * 65_536 + 7])
    def test_any_length_reads_back_byte_equal(self, tmp_path, size):
        data = bytes(range(128)) * (size // 128) + bytes(range(size % 128))
        path = tmp_path / "data.txt"
        path.write_bytes(data)
        assert read_utf8(path).encode() == read_utf8(str(path)).encode() == data

    def test_a_character_across_two_reads_decodes(self, tmp_path):
        text = "x" * 65_535 + "é\r\n" + "中" * 30_000
        path = tmp_path / "text.txt"
        path.write_bytes(text.encode("utf-8"))
        assert read_utf8(path) == text

    @pytest.mark.parametrize("name", ["absent.txt", "folder"])
    def test_os_error_text_is_that_of_path_read_bytes(self, tmp_path, monkeypatch, name):
        """A missing file, and a directory, which os.read rejects without
        naming it, each give the OSError `Path.read_bytes` gives."""
        (tmp_path / "folder").mkdir()
        monkeypatch.chdir(tmp_path)
        for path in (name, Path(name), tmp_path / name):
            with pytest.raises(OSError) as expected:
                Path(path).read_bytes()
            with pytest.raises(OSError) as exc:
                read_utf8(path)
            assert (type(exc.value), str(exc.value)) == (
                type(expected.value), str(expected.value))


def _reference_parse_json(text):
    try:
        return json.loads(text), None, 0
    except json.JSONDecodeError as exc:
        return None, exc.msg, exc.lineno
    except (ValueError, RecursionError) as exc:
        return None, str(exc), 1


_JSON_TEXT = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
).map(json.dumps)
_AROUND = st.text(st.sampled_from([" ", "\t", "\n", "\r", "\x0c", "\u3000", "\ufeff", "x", "}", "1"]),
                  max_size=3)


class TestParseJson:
    @given(st.one_of(
        st.tuples(_AROUND, _JSON_TEXT, _AROUND).map("".join),
        st.text(alphabet='{}[]":,0123456789.e-truefalsn \n\\', max_size=20),
    ))
    @example('{"a": 1}')
    @example(' {"a": 1}')
    @example('{"a": 1}\n')
    @example('{"a": 1}\r\n \t')
    @example('{"a": 1}\x0c')
    @example('{"a": 1} x')
    @example('\ufeff{"a": 1}')
    @example('[1]\n\n[2]')
    @example("1" * 5000)
    @example("[" * 100_000)
    def test_matches_json_loads(self, text):
        assert repr(parse_json(text)) == repr(_reference_parse_json(text))


def _reference_read_json_lines(data: bytes) -> list:
    """read_json_lines before its C-scanner fast path: `parse_json` on every
    line, lines split at LF, CRLF and a lone CR."""
    lines = re.split(rb"\r\n|\r|\n", data)
    if lines[-1] == b"":
        lines.pop()
    triples = []
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            triples.append((lineno, None, f"not UTF-8 ({exc.reason})"))
            continue
        record, problem, _ = parse_json(line)
        if type(record) is dict:
            triples.append((lineno, record, None))
        elif problem is None:
            triples.append((lineno, None, "record is not an object"))
        elif line.strip():
            triples.append((lineno, None, f"invalid JSON ({problem})"))
    return triples


# A JSON Lines line: a JSON value (objects, other values, nesting far past the
# decoder's limit, a huge integer) or bytes that are not JSON or not UTF-8,
# with whitespace or garbage around it. Nesting a few levels from the limit is
# left out: there the verdict has always hung on how deep the caller's stack
# is, and the scanner called without parse_json's four frames (parse_json,
# json.loads, JSONDecoder.decode and raw_decode) reaches four levels further.
_LINE_BODY = st.one_of(
    _JSON_TEXT,
    st.dictionaries(st.text(max_size=3), _JSON_TEXT.map(json.loads), max_size=3).map(
        json.dumps
    ),
    st.sampled_from(["[" * 100_000, '{"a":' * 100_000, '{"a": ' + "1" * 5000 + "}"]),
    st.text(alphabet='{}[]":,0123456789.e-truefalsn \\', max_size=12),
).map(str.encode) | st.sampled_from(
    [b"\xff", b'{"a": "caf\xe9"}', b"\xc3", b"{\xed\xa0\x80}"]
)
_LINE_AROUND = st.lists(
    st.sampled_from([b" ", b"\t", b"\x0c", "\u3000".encode(), "\ufeff".encode(), b"x",
                     b"}", b"1", b"{}"]),
    max_size=2,
).map(b"".join)
_JSONL_FILE = st.lists(
    st.tuples(_LINE_AROUND, _LINE_BODY, _LINE_AROUND,
              st.sampled_from([b"\n", b"\r", b"\r\n"])),
    max_size=6,
).map(lambda lines: b"".join(b"".join(line) for line in lines))


@given(_JSONL_FILE, st.booleans(), st.integers(1, 9))
@example(b'{"a": 1}\r\n {"b": 2}\n{"c": 3} \r[1]\n\n"s"\nnull', True, 1)
@example(b'{"a": 1}{"b": 2}\n{"a": 1} x\n\xef\xbb\xbf{}\n', False, 4)
# JSON allows an LF between tokens, but each line here is invalid on its own.
@example(b'{"a":\n1}\n{"b": 2}\n', True, 9)
# Blank lines, one of U+3000 only, between records: skipped, not parsed.
@example('{"a": 1}\n\n \u3000\n{"b": 2}\n'.encode(), True, 9)
# One bad line in the middle of a block, whose other lines are records.
@example(b'{"a": 1}\n{"b": "caf\xe9"}\n{"c": 3}\n\n{"d": 4}', False, 9)
@example('{"a": "中"}\r\n{"b": 2}\r'.encode(), True, 2)  # a character across reads
# A line that opens an array, a record after it and a line that is not UTF-8,
# all in one block.
@example(b'[1,\n2]\n{"a": 1}\n\xff\n{"b": 2}', True, 9)
def test_json_lines_match_parse_json_on_every_line(
    tmp_path_factory, data, final_end, size
):
    """The C-scanner fast path gives every line the record or problem that
    `parse_json` gives it, whether the lines fall in one 64 KiB read or
    across reads of 1-9 bytes. repr compares NaN, which equals nothing."""
    path = tmp_path_factory.getbasetemp() / "lines.jsonl"
    path.write_bytes(data if final_end else data.rstrip(b"\r\n"))
    expected = repr(_reference_read_json_lines(path.read_bytes()))
    assert repr(list(read_json_lines(path))) == expected
    with mock.patch.object(tables, "_line_blocks", partial(_line_blocks, size=size)):
        assert repr(list(read_json_lines(path))) == expected


def test_json_lines_scan_each_block_about_once(tmp_path, monkeypatch):
    """A block whose lines open arrays that no line closes: each line is
    scanned alone, so no scan reads past its LF into the lines after it, and
    the scans together read each byte about once."""
    data = (b"[1,\n" + b"2,\n" * 9) * 2_000 + b'{"a": 1}\n'
    path = tmp_path / "lines.jsonl"
    path.write_bytes(data)
    read = []

    def scan(text, pos):
        try:
            record, end = tables_scan(text, pos)
        except StopIteration as exc:
            read.append(exc.value - pos)
            raise
        except json.JSONDecodeError as exc:
            read.append(exc.pos - pos)
            raise
        except (ValueError, RecursionError):
            read.append(len(text) - pos)
            raise
        read.append(end - pos)
        return record, end

    tables_scan = tables._scan
    monkeypatch.setattr(tables, "_scan", scan)
    triples = list(read_json_lines(path))
    assert triples[-1] == (20_001, {"a": 1}, None)
    assert sum(read) <= 2 * len(data)


_TAG = st.sampled_from(["eng", "jpn", "cmn_hans", "cmn_hant"])
_NUMBER = st.floats(min_value=0, allow_nan=False, allow_infinity=False)
_COUNT = st.integers(0, 10**6)
# A name `load_accounts` accepts: not blank, no surrounding whitespace. No
# lone surrogate, which UTF-8 cannot encode, and no NUL, which the csv
# module reads only from Python 3.11 on.
_NAME = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    max_size=6,
).map(lambda name: name.strip() or "_")
_META = st.builds(
    AccountMeta, _NAME, st.sampled_from(PLATFORMS), _TAG, st.sampled_from(ORG_TYPES)
)
# A mean below 0.00005 is written as 0.0000, which no ratio may be.
_RATIO = st.builds(
    RatioStats,
    _TAG,
    _TAG,
    st.sampled_from(SpaceMeasure),
    st.just(()),
    st.floats(1e-4, 1e12).map(lambda m: DescriptiveStats(1, m, m, m, m, m, m, ())),
)
# A stats row holds at least one post and a RIC row one value, as
# `analyze_posts` keeps only accounts with posts. A stats row's histogram
# counts its posts, its mean without URLs is that of its lengths, and its
# mean with URLs is no less. A RIC row's ratio is 1 against its own language,
# and its mean is that of its per-post values as written.
_STATS = st.builds(
    lambda meta, extra, posts: AccountStats(
        meta, len(posts), statistics.fmean(length for length, _ in posts) + extra,
        statistics.fmean(length for length, _ in posts),
        tuple(length for length, _ in posts), dict(Counter(urls for _, urls in posts)),
    ),
    _META,
    _NUMBER,
    st.lists(st.tuples(_COUNT, st.integers(0, 3)), min_size=1, max_size=4),
)
_RIC = st.builds(
    lambda meta, base, ratio, values: RicResult(
        meta, base, 1.0 if meta.language == base else ratio,
        math.fsum(round(v, 4) / len(values) for v in values), values,
    ),
    _META, _TAG, _NUMBER, st.lists(_NUMBER, min_size=1, max_size=4).map(tuple),
)
# Each table with what its declaration reads back from a result's row.
_TABLES = st.one_of(
    st.tuples(
        st.just(RATIOS_TABLE),
        st.lists(_RATIO, max_size=3, unique_by=lambda r: (r.lang_b, r.lang_a)),
        st.just(lambda r: ((r.lang_b, r.lang_a), round(r.stats.mean, 4))),
    ),
    st.tuples(
        st.just(STATS_TABLE),
        st.lists(_STATS, max_size=3, unique_by=lambda s: (
            s.meta.screen_name, s.meta.platform, s.meta.language)),
        st.just(lambda s: replace(
            s,
            mean_chars_with_urls=round(s.mean_chars_with_urls, 4),
            mean_chars_without_urls=round(s.mean_chars_without_urls, 4),
        )),
    ),
    st.tuples(
        st.just(RIC_TABLE),
        st.lists(_RIC, max_size=3, unique_by=lambda r: (
            r.meta.screen_name, r.meta.platform, r.meta.language)),
        st.just(lambda r: replace(
            r,
            ratio_used=round(r.ratio_used, 4),
            mean_ric=round(r.mean_ric, 4),
            per_post_ric=tuple(round(v, 4) for v in r.per_post_ric),
        )),
    ),
)


@given(case=_TABLES)
@example(case=(
    STATS_TABLE,
    [AccountStats(AccountMeta("a\rb", "weibo", "jpn", "news"), 1, 0.0, 0.0, (0,), {0: 1})],
    lambda s: s,
))
@example(case=(
    RIC_TABLE,
    [RicResult(AccountMeta("a", "weibo", "cmn_hans", "news"), "cmn_hans", 1.0, 1.75e308,
               (1.75e308, 1.75e308))],
    lambda r: r,
))
def test_stage_tables_read_back_through_their_declarations(tmp_path_factory, case):
    """A result written by `emit_table`, as CSV and as JSON, reads back
    through its table's declaration as written, but for floats rounded to four
    decimals. The examples are a name holding a lone CR, which CSV must quote,
    and RICs whose sum passes the float range."""
    table, results, read_back = case
    for format in TABLE_FORMAT.choices:
        path = tmp_path_factory.getbasetemp() / f"round_trip.{format}"
        emit_table(table, results, path, format)
        assert read_table(path, table) == [read_back(result) for result in results]


@given(_META, st.lists(_COUNT, max_size=3), st.integers(2**1024, 10**400),
       st.lists(_COUNT, max_size=3))
def test_stats_lengths_past_the_float_range_do_not_read_back(tmp_path_factory, meta,
                                                              before, huge, after):
    """The stats round trip with a per-post length that no float holds, which
    `compute_ric` could not rescale: `emit_table` writes the row, and
    `read_table` names it as malformed."""
    lengths = (*before, huge, *after)
    stats = AccountStats(meta, len(lengths), 1.0, 1.0, lengths, {0: len(lengths)})
    for format in TABLE_FORMAT.choices:
        path = tmp_path_factory.getbasetemp() / f"round_trip.{format}"
        emit_table(STATS_TABLE, [stats], path, format)
        with pytest.raises(DataError, match="malformed stats row: per_post_lengths sum "
                                            "past the float range$"):
            read_table(path, STATS_TABLE)
