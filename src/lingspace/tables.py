"""Tabular output with deterministic field order and number formatting, and
the decoding of every input file: UTF-8, line ends and JSON.

CSV cells render floats with exactly four decimal places; JSON output
rounds floats to four decimals. Both are byte-stable for identical input.

Each reader here ends a line at LF, at CRLF and at a lone CR, and numbers
lines by that rule: `read_text` reads all three as LF, `read_utf8` and the
CSV reader keep them, and `read_json_lines` splits records on them.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from collections.abc import Iterable, Iterator, Mapping, Sequence
from pathlib import Path
from typing import BinaryIO

from .errors import DataError, LingspaceError, UsageError

TABLE_FORMATS = ("csv", "json")


def _csv_value(value: object) -> object:
    if isinstance(value, float):
        return f"{value:.4f}"
    return value


def _json_value(value: object) -> object:
    if isinstance(value, float):
        return float(f"{value:.4f}")
    return value


def emit_table(
    rows: Iterable[Mapping[str, object]],
    format: str,
    destination: str | Path | None,
    fieldnames: Sequence[str],
) -> None:
    """Write records as CSV or JSON with the field order of `fieldnames`.

    All rows must share that schema. `destination` None writes to standard
    output.
    """
    rows = list(rows)
    for row in rows:
        if set(row) != set(fieldnames):
            raise UsageError(
                f"row fields {sorted(row)} do not match the table schema "
                f"{sorted(fieldnames)}"
            )
    if format == "csv":
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({name: _csv_value(row[name]) for name in fieldnames})
        text = buffer.getvalue()
    elif format == "json":
        payload = [
            {name: _json_value(row[name]) for name in fieldnames} for row in rows
        ]
        text = json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
    else:
        raise UsageError(
            f"unknown table format {format!r} (expected one of: "
            f"{', '.join(TABLE_FORMATS)})"
        )
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
            record, problem, _ = parse_json(line)
            if type(record) is dict:
                yield lineno, record, None
            elif problem is None:
                yield lineno, None, "record is not an object"
            elif line.strip():  # a blank line is skipped, not reported
                yield lineno, None, f"invalid JSON ({problem})"


_DECODER = json.JSONDecoder()
_JSON_WHITESPACE = " \t\n\r"


def parse_json(text: str) -> tuple[object, str | None, int]:
    """(value, None, 0) for a JSON document, or (None, problem, line) when it
    does not decode; past the decoder's limits (huge integers, deep nesting)
    the line is 1."""
    try:
        # A document that starts with its value (a JSON Lines line, a file
        # without leading whitespace) skips json.loads's Python layers around
        # the same decoder. Any other text goes to json.loads, whose errors
        # this function reports.
        try:
            value, end = _DECODER.raw_decode(text)
            if end == len(text) or not text[end:].strip(_JSON_WHITESPACE):
                return value, None, 0
        except json.JSONDecodeError:
            pass
        return json.loads(text), None, 0
    except json.JSONDecodeError as exc:
        return None, exc.msg, exc.lineno
    except (ValueError, RecursionError) as exc:
        return None, str(exc), 1


def read_utf8(path: Path, error: type[LingspaceError] = DataError) -> str:
    """The file's text with its line endings kept; undecodable bytes raise
    `error` naming the file and line. LF, CRLF and CR each end a line, as
    they do for the caption, CSV and config parsers."""
    raw = path.read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        end = exc.start
        line = (raw.count(b"\n", 0, end) + raw.count(b"\r", 0, end)
                - raw.count(b"\r\n", 0, end) + 1)
        raise error(f"{path}:{line}: not UTF-8 ({exc.reason})") from exc


def read_text(path: Path, error: type[LingspaceError] = DataError) -> str:
    """`read_utf8` with CR and CRLF line ends read as LF, as a text-mode
    open() reads them."""
    text = read_utf8(path, error)
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def read_csv_records(
    path: str | Path, required: Sequence[str] = ()
) -> list[tuple[int, dict[str, str]]]:
    """(line number, row) for each record of a CSV file with a header row.

    A file without a header yields no records. Undecodable bytes, malformed
    CSV and missing required columns raise a DataError naming the file.
    """
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
            raise DataError(f"{path}: missing columns: {', '.join(missing)}")
        return [(reader.line_num, row) for row in reader]
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: malformed CSV ({exc})") from exc
    finally:
        csv.field_size_limit(limit)


def read_records(path: str | Path) -> list[dict[str, object]]:
    """Read a table written by emit_table; format inferred from the suffix.

    CSV values come back as strings; JSON values keep their types.
    Malformed content raises a DataError naming the file.
    """
    path = Path(path)
    if path.suffix.lower() != ".json":
        return [row for _, row in read_csv_records(path)]
    payload, problem, line = parse_json(read_text(path))
    if problem is not None:
        raise DataError(f"{path}:{line}: invalid JSON table: {problem}")
    if not isinstance(payload, list) or not all(
        isinstance(item, dict) for item in payload
    ):
        raise DataError(f"{path}: JSON table must be an array of objects")
    return payload
