"""Deterministic table emission and reading."""

import io
import json
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lingspace.errors import DataError, UsageError
from lingspace.tables import _split_lines, emit_table, parse_json, read_records

ROWS = [
    {"name": "eng", "mean": 3.95123456, "n": 39},
    {"name": "jpn", "mean": 1.5, "n": 39},
]
FIELDS = ["name", "mean", "n"]


class TestCsv:
    def test_header_plus_one_line_per_row(self, tmp_path):
        out = tmp_path / "t.csv"
        emit_table(ROWS, format="csv", destination=out, fieldnames=FIELDS)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "name,mean,n"
        assert len(lines) == 3

    def test_floats_render_with_four_decimals(self, tmp_path):
        out = tmp_path / "t.csv"
        emit_table(ROWS, format="csv", destination=out, fieldnames=FIELDS)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[1] == "eng,3.9512,39"
        assert lines[2] == "jpn,1.5000,39"

    def test_empty_table_needs_explicit_fieldnames(self, tmp_path):
        out = tmp_path / "t.csv"
        emit_table([], format="csv", destination=out, fieldnames=["a", "b"])
        assert out.read_text(encoding="utf-8") == "a,b\n"

    def test_explicit_fieldnames_set_column_order(self, tmp_path):
        out = tmp_path / "t.csv"
        emit_table(
            ROWS, format="csv", destination=out, fieldnames=["n", "name", "mean"]
        )
        assert out.read_text(encoding="utf-8").splitlines()[0] == "n,name,mean"

    def test_stdout_destination(self, capsys):
        emit_table(ROWS, format="csv", destination=None, fieldnames=FIELDS)
        captured = capsys.readouterr()
        assert captured.out.startswith("name,mean,n\n")

    def test_round_trip_values_come_back_as_strings(self, tmp_path):
        out = tmp_path / "t.csv"
        emit_table(ROWS, format="csv", destination=out, fieldnames=FIELDS)
        records = read_records(out)
        assert records == [
            {"name": "eng", "mean": "3.9512", "n": "39"},
            {"name": "jpn", "mean": "1.5000", "n": "39"},
        ]


class TestJson:
    def test_floats_round_to_four_decimals(self, tmp_path):
        out = tmp_path / "t.json"
        emit_table(ROWS, format="json", destination=out, fieldnames=FIELDS)
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload[0]["mean"] == 3.9512
        assert payload[0]["n"] == 39

    def test_round_trip_keeps_types(self, tmp_path):
        out = tmp_path / "t.json"
        emit_table(ROWS, format="json", destination=out, fieldnames=FIELDS)
        records = read_records(out)
        assert records[1] == {"name": "jpn", "mean": 1.5, "n": 39}

    def test_non_ascii_text_is_not_escaped(self, tmp_path):
        out = tmp_path / "t.json"
        emit_table(
            [{"text": "信息"}], format="json", destination=out, fieldnames=["text"]
        )
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
            read_records(bad)

    def test_undecodable_json_table_rejected(self, tmp_path):
        bad = tmp_path / "t.json"
        bad.write_bytes(b'[{"name": "caf\xe9"}]')
        with pytest.raises(DataError, match=r"t\.json:1: not UTF-8"):
            read_records(bad)

    def test_non_array_json_table_rejected(self, tmp_path):
        bad = tmp_path / "t.json"
        bad.write_text('{"a": 1}', encoding="utf-8")
        with pytest.raises(DataError, match="array of objects"):
            read_records(bad)


class TestValidation:
    def test_rows_must_share_one_schema(self, tmp_path):
        rows = [{"a": 1}, {"a": 1, "b": 2}]
        with pytest.raises(UsageError, match="do not match the table schema"):
            emit_table(rows, "csv", tmp_path / "t.csv", fieldnames=["a"])

    def test_fieldnames_mismatch_rejected(self, tmp_path):
        with pytest.raises(UsageError, match="do not match the table schema"):
            emit_table(ROWS, "csv", tmp_path / "t.csv", fieldnames=["x"])

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(UsageError, match="unknown table format"):
            emit_table(ROWS, "tsv", tmp_path / "t.tsv", fieldnames=FIELDS)


def test_same_input_twice_is_byte_identical(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for fmt, a, b in (("csv", first, second),):
        emit_table(ROWS, format=fmt, destination=a, fieldnames=FIELDS)
        emit_table(ROWS, format=fmt, destination=b, fieldnames=FIELDS)
        assert a.read_bytes() == b.read_bytes()
    ja, jb = tmp_path / "a.json", tmp_path / "b.json"
    emit_table(ROWS, format="json", destination=ja, fieldnames=FIELDS)
    emit_table(ROWS, format="json", destination=jb, fieldnames=FIELDS)
    assert ja.read_bytes() == jb.read_bytes()


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
        lines = list(_split_lines(io.BytesIO(data), size))
        expected = re.split(rb"\r\n|\r|\n", data)
        if expected[-1] == b"":  # the text after the last line end
            expected.pop()
        assert lines == expected


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
