"""Tabular output with deterministic field order and number formatting.

CSV cells render floats with exactly four decimal places; JSON output
rounds floats to four decimals. Both are byte-stable for identical input.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from collections.abc import Iterable, Mapping, Sequence
from pathlib import Path

from .errors import DataError, UsageError

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
    format: str = "csv",
    destination: str | Path | None = None,
    fieldnames: Sequence[str] | None = None,
) -> None:
    """Write records as CSV or JSON with a stable field order.

    Field order comes from `fieldnames`, falling back to the first row's key
    order. All rows must share one schema. `destination` None writes to
    standard output.
    """
    rows = list(rows)
    if fieldnames is None:
        if not rows:
            raise UsageError("fieldnames are required to emit an empty table")
        fieldnames = list(rows[0].keys())
    fieldnames = list(fieldnames)
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


def read_json_lines(
    path: str | Path,
) -> list[tuple[int, dict[str, object] | None, str | None]]:
    """(line number, object, problem) for each non-blank line of a JSON Lines
    file. A line that is not UTF-8, not JSON or not a JSON object comes with
    None and the problem instead of raising, so callers can name its line."""
    out: list[tuple[int, dict[str, object] | None, str | None]] = []
    with Path(path).open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                record = json.loads(line)
            except UnicodeDecodeError as exc:
                out.append((lineno, None, f"not UTF-8 ({exc.reason})"))
            except (ValueError, RecursionError) as exc:  # huge ints, deep nesting
                out.append((lineno, None, f"invalid JSON ({getattr(exc, 'msg', exc)})"))
            else:
                if isinstance(record, dict):
                    out.append((lineno, record, None))
                else:
                    out.append((lineno, None, "record is not an object"))
    return out


def _read_utf8(path: Path) -> str:
    """The file's text with its line endings kept; undecodable bytes raise a
    DataError naming the file and line."""
    raw = path.read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}:{line}: not UTF-8 ({exc.reason})") from exc


def read_csv_records(
    path: str | Path, required: Sequence[str] = ()
) -> list[tuple[int, dict[str, str]]]:
    """(line number, row) for each record of a CSV file with a header row.

    A file without a header yields no records. Undecodable bytes, malformed
    CSV and missing required columns raise a DataError naming the file.
    """
    path = Path(path)
    reader = csv.DictReader(io.StringIO(_read_utf8(path), newline=""))
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
    try:
        payload = json.loads(_read_utf8(path))
    except (ValueError, RecursionError) as exc:  # huge ints, deep nesting
        message = getattr(exc, "msg", exc)
        raise DataError(f"{path}: invalid JSON table: {message}") from exc
    if not isinstance(payload, list) or not all(
        isinstance(item, dict) for item in payload
    ):
        raise DataError(f"{path}: JSON table must be an array of objects")
    return payload
