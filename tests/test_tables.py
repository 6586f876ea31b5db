"""Deterministic table emission and reading."""

import json

import pytest

from lingspace.errors import DataError, UsageError
from lingspace.tables import emit_table, read_records

ROWS = [
    {"name": "eng", "mean": 3.95123456, "n": 39},
    {"name": "jpn", "mean": 1.5, "n": 39},
]


class TestCsv:
    def test_header_plus_one_line_per_row(self, tmp_path):
        out = tmp_path / "t.csv"
        emit_table(ROWS, format="csv", destination=out)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "name,mean,n"
        assert len(lines) == 3

    def test_floats_render_with_four_decimals(self, tmp_path):
        out = tmp_path / "t.csv"
        emit_table(ROWS, format="csv", destination=out)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[1] == "eng,3.9512,39"
        assert lines[2] == "jpn,1.5000,39"

    def test_empty_table_needs_explicit_fieldnames(self, tmp_path):
        out = tmp_path / "t.csv"
        emit_table([], format="csv", destination=out, fieldnames=["a", "b"])
        assert out.read_text(encoding="utf-8") == "a,b\n"
        with pytest.raises(UsageError, match="fieldnames are required"):
            emit_table([], format="csv", destination=out)

    def test_explicit_fieldnames_set_column_order(self, tmp_path):
        out = tmp_path / "t.csv"
        emit_table(ROWS, destination=out, fieldnames=["n", "name", "mean"])
        assert out.read_text(encoding="utf-8").splitlines()[0] == "n,name,mean"

    def test_stdout_destination(self, capsys):
        emit_table(ROWS, format="csv", destination=None)
        captured = capsys.readouterr()
        assert captured.out.startswith("name,mean,n\n")

    def test_round_trip_values_come_back_as_strings(self, tmp_path):
        out = tmp_path / "t.csv"
        emit_table(ROWS, format="csv", destination=out)
        records = read_records(out)
        assert records == [
            {"name": "eng", "mean": "3.9512", "n": "39"},
            {"name": "jpn", "mean": "1.5000", "n": "39"},
        ]


class TestJson:
    def test_floats_round_to_four_decimals(self, tmp_path):
        out = tmp_path / "t.json"
        emit_table(ROWS, format="json", destination=out)
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload[0]["mean"] == 3.9512
        assert payload[0]["n"] == 39

    def test_round_trip_keeps_types(self, tmp_path):
        out = tmp_path / "t.json"
        emit_table(ROWS, format="json", destination=out)
        records = read_records(out)
        assert records[1] == {"name": "jpn", "mean": 1.5, "n": 39}

    def test_non_ascii_text_is_not_escaped(self, tmp_path):
        out = tmp_path / "t.json"
        emit_table([{"text": "信息"}], format="json", destination=out)
        assert "信息" in out.read_text(encoding="utf-8")

    def test_invalid_json_table_rejected(self, tmp_path):
        bad = tmp_path / "t.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(DataError, match="invalid JSON table"):
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
            emit_table(rows, destination=tmp_path / "t.csv")

    def test_fieldnames_mismatch_rejected(self, tmp_path):
        with pytest.raises(UsageError, match="do not match the table schema"):
            emit_table(ROWS, destination=tmp_path / "t.csv", fieldnames=["x"])

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(UsageError, match="unknown table format"):
            emit_table(ROWS, format="tsv", destination=tmp_path / "t.tsv")


def test_same_input_twice_is_byte_identical(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for fmt, a, b in (("csv", first, second),):
        emit_table(ROWS, format=fmt, destination=a)
        emit_table(ROWS, format=fmt, destination=b)
        assert a.read_bytes() == b.read_bytes()
    ja, jb = tmp_path / "a.json", tmp_path / "b.json"
    emit_table(ROWS, format="json", destination=ja)
    emit_table(ROWS, format="json", destination=jb)
    assert ja.read_bytes() == jb.read_bytes()
