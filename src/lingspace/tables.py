"""Tabular output with deterministic field order and number formatting, and
the decoding of every input file: UTF-8, line ends and JSON.

A `Table` declares one table: its columns, a result's cells and what a
reader takes from a row. `emit_table` writes a table by its declaration and
`read_table` reads one by it. CSV cells render floats with exactly four
decimal places; JSON output rounds floats to four decimals. Both are
byte-stable for identical input.

Every input file ends a line at LF, at CRLF and at a lone CR, and numbers
lines by that rule, which `lf_text` holds: `read_text` reads all three as LF,
`read_utf8` keeps them for the CSV reader, and `read_json_lines` splits
records on them. Parsers that take `str` apply `lf_text` and split on LF, so
other Unicode line separators (U+000B, U+000C, U+001C-U+001E, U+0085, U+2028,
U+2029) are characters inside a line.
"""

from __future__ import annotations

import io
import json
import math
import sys
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from pathlib import Path
from typing import Any, BinaryIO, NamedTuple

from .errors import DataError, LingspaceError
from .options import TABLE_FORMAT


def _csv_value(value: object) -> object:
    if isinstance(value, float):
        return f"{value:.4f}"
    return value


def _json_value(value: object) -> object:
    if isinstance(value, float):
        return float(f"{value:.4f}")
    return value


def emit_table(
    table: Table,
    results: Iterable,
    destination: str | Path | None,
    format: str,
) -> None:
    """Write `table.cells` of each result as a CSV or JSON row under the
    columns `table.fields`; a destination of None means standard output. A
    result whose cells do not match the columns is a ValueError."""
    fields = table.fields
    rows = [table.cells(result) for result in results]
    for cells in rows:
        if len(cells) != len(fields):
            raise ValueError(f"{table.name} row has {len(cells)} cells "
                             f"for {len(fields)} columns")
    if TABLE_FORMAT.parse(format, "table format") == "csv":
        import csv
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        # The writer leaves a lone CR unquoted, which a reader takes for a
        # line end, so a row holding one is written with every cell quoted.
        quoted = csv.writer(buffer, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(fields)
        for cells in rows:
            cells = [_csv_value(cell) for cell in cells]
            cr = any("\r" in cell for cell in cells if isinstance(cell, str))
            (quoted if cr else writer).writerow(cells)
        text = buffer.getvalue()
    else:
        payload = [
            {name: _json_value(cell) for name, cell in zip(fields, cells)}
            for cells in rows
        ]
        text = json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
    if destination is None:
        sys.stdout.write(text)
    else:
        Path(destination).write_text(text, encoding="utf-8", newline="")


# JSON Lines files are read a block at a time; a longer line grows the
# next read to its own size, so a line costs time linear in its length.
_BLOCK = 1 << 16


def _split_lines(fh: BinaryIO, size: int = _BLOCK) -> Iterator[bytes]:
    """The lines of a binary file without their line ends, read `size` bytes
    at a time. LF, CRLF and a lone CR each end a line."""
    pending = b""
    after_cr = False
    while block := fh.read(max(size, len(pending))):
        if after_cr and block[:1] == b"\n":
            block = block[1:]  # the LF of a CRLF split between two reads
        after_cr = block[-1:] == b"\r"
        data = pending + block
        if b"\r" in data:
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        lines = data.split(b"\n")
        pending = lines.pop()
        yield from lines
    if pending:
        yield pending


def read_json_lines(
    path: str | Path,
) -> Iterator[tuple[int, dict[str, object] | None, str | None]]:
    """(line number, object, problem) for each non-blank line of a JSON Lines
    file, read a block at a time. LF, CRLF and a lone CR each end a line, so
    a raw CR between the tokens of one record splits it in two. A line that
    is not UTF-8, not JSON or not a JSON object comes with None and the
    problem instead of raising, so callers can name its line."""
    with Path(path).open("rb") as fh:
        for lineno, raw in enumerate(_split_lines(fh), start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                yield lineno, None, f"not UTF-8 ({exc.reason})"
                continue
            # The decoder's C scanner, which parse_json reaches through four
            # Python frames, takes a line that is one object and nothing else;
            # any other line goes to parse_json, which names its problem.
            try:
                record, end = _scan(line, 0)
            except (StopIteration, ValueError, RecursionError):
                record = end = None
            if end == len(line) and type(record) is dict:
                yield lineno, record, None
                continue
            record, problem, _ = parse_json(line)
            if type(record) is dict:
                yield lineno, record, None
            elif problem is None:
                yield lineno, None, "record is not an object"
            elif line.strip():  # a blank line is skipped, not reported
                yield lineno, None, f"invalid JSON ({problem})"


def surrogate_problem(text: str) -> str | None:
    """The problem with a text that holds a lone surrogate, the only code
    point UTF-8 cannot encode, or None. A JSON \\u escape or argv bytes that
    are not UTF-8 put one into a str; decoding UTF-8 never does."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        return f"holds lone surrogate U+{ord(text[exc.start]):04X}"
    return None


_scan = json.JSONDecoder().scan_once


def parse_json(text: str) -> tuple[object, str | None, int]:
    """(value, None, 0) for a JSON document, or (None, problem, line) when it
    does not decode; past the decoder's limits (huge integers, deep nesting)
    the line is 1."""
    try:
        return json.loads(text), None, 0
    except json.JSONDecodeError as exc:
        return None, exc.msg, exc.lineno
    except (ValueError, RecursionError) as exc:
        return None, str(exc), 1


def lf_text(text: str) -> str:
    """`text` with each CRLF and lone CR read as LF, as a text-mode open()
    reads them: the line-end rule of every reader."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def read_utf8(path: Path, error: type[LingspaceError] = DataError) -> str:
    """The file's text with its line endings kept; undecodable bytes raise
    `error` naming the file and its line by the `lf_text` rule."""
    raw = path.read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The bytes before the first bad one always decode.
        line = lf_text(raw[: exc.start].decode("utf-8")).count("\n") + 1
        raise error(f"not UTF-8 ({exc.reason})", path, line) from exc


def read_text(path: Path, error: type[LingspaceError] = DataError) -> str:
    """`read_utf8` with CR and CRLF line ends read as LF."""
    return lf_text(read_utf8(path, error))


def read_csv_records(
    path: str | Path, required: Sequence[str] = ()
) -> list[tuple[int, dict[str, str]]]:
    """(line number, row) for each record of a CSV file with a header row.

    A file without a header yields no records. Undecodable bytes, malformed
    CSV and missing required columns raise a DataError naming the file.
    """
    import csv
    path = Path(path)
    reader = csv.DictReader(io.StringIO(read_utf8(path), newline=""))
    # emit_table writes cells of any length (an account's per-post values
    # share one cell), so the read lifts the csv module's 128 KiB cap.
    limit = csv.field_size_limit(2**31 - 1)
    try:
        if reader.fieldnames is None:
            return []
        missing = [name for name in required if name not in reader.fieldnames]
        if missing:
            raise DataError(f"missing columns: {', '.join(missing)}", path)
        return [(reader.line_num, row) for row in reader]
    except csv.Error as exc:
        raise DataError(f"malformed CSV ({exc})", path, reader.line_num) from exc
    finally:
        csv.field_size_limit(limit)


def table_number(cell: object, kind: Callable[[str], float] = float) -> float:
    """A table cell read as a finite number >= 0, as every count, length,
    mean, ratio and RIC in the tables is; ValueError otherwise."""
    value = kind(str(cell))
    if not 0 <= value < math.inf:
        raise ValueError(f"{cell} is not a finite number >= 0")
    return value


def read_records(path: str | Path) -> list[dict[str, object]]:
    """Read a table written by emit_table; format inferred from the suffix.

    CSV values come back as strings; JSON values keep their types.
    Malformed content raises a DataError naming the file.
    """
    path = Path(path)
    if path.suffix.lower() != ".json":
        return [row for _, row in read_csv_records(path)]
    text = read_text(path)
    payload, problem, line = parse_json(text)
    if problem is not None:
        raise DataError(f"invalid JSON table: {problem}", path, line)
    if not isinstance(payload, list) or not all(
        isinstance(item, dict) for item in payload
    ):
        raise DataError("JSON table must be an array of objects", path)
    # Only a \u escape decodes to a lone surrogate, which no writer encodes.
    if "\\u" in text:
        for index, row in enumerate(payload):
            cells = [*row, *(cell for cell in row.values() if isinstance(cell, str))]
            if problem := surrogate_problem("".join(cells)):
                raise DataError(f"JSON table row #{index} {problem}", path)
    return payload


class Table(NamedTuple):
    """One table's declaration: its columns in order, the cells of a result
    in that order, and what its readers need from a row. `read` raises
    KeyError, TypeError, ValueError or a LingspaceError for a malformed row;
    `unique`, when given, labels what no two rows may share."""

    name: str
    fields: tuple[str, ...]
    cells: Callable[[Any], tuple]
    read: Callable[[Mapping[str, object]], Any]
    unique: Callable[[Any], str] | None = None


def read_table(path: str | Path, table: Table) -> list:
    """`table.read` of each row of a table written by emit_table; format
    inferred from the suffix. A CSV header or a JSON row that lacks a column
    of `table.fields` is a DataError naming the columns; a row `table.read`
    rejects, or a second row with the same `unique` label, is one at its CSV
    line or JSON row."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        located = [(None, f"JSON table row #{index}: ", row)
                   for index, row in enumerate(read_records(path))]
    else:
        located = [(line, "", row)
                   for line, row in read_csv_records(path, table.fields)]
    values, seen = [], set()
    for line, where, row in located:
        if missing := [name for name in table.fields if name not in row]:
            raise DataError(f"{where}missing columns: {', '.join(missing)}", path)
        try:
            value = table.read(row)
        except (LingspaceError, KeyError, TypeError, ValueError) as exc:
            problem = f"malformed {table.name} row: {exc}"
            raise DataError(where + problem, path, line) from exc
        if table.unique is not None:
            label = table.unique(value)
            if label in seen:
                problem = f"duplicate {table.name} row {label}"
                raise DataError(where + problem, path, line)
            seen.add(label)
        values.append(value)
    return values
