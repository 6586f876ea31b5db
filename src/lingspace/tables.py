"""Tabular output with deterministic field order and number formatting, and
the decoding of every input file: UTF-8, line ends and JSON.

A `Table` declares one table: its columns, a result's cells and what a
reader takes from a row. `emit_table` writes a table by its declaration, and
`read_table`, the one reader of a table file, reads one by it. CSV cells
render floats with exactly four decimal places; JSON output rounds floats to
four decimals. Both are byte-stable for identical input.

Every input file ends a line at LF, at CRLF and at a lone CR, and numbers
lines by that rule, which `lf_text` holds: `read_text` reads all three as LF,
`read_utf8` keeps them for the CSV reader, and `read_json_lines` splits
records on them, decoding each block of lines once. Parsers that take `str`
apply `lf_text` and split on LF, so other Unicode line separators (U+000B,
U+000C, U+001C-U+001E, U+0085, U+2028, U+2029) are characters inside a line.
`blocks` splits LF text into runs of non-blank lines, a line being blank when
it is empty or whitespace only: the paragraphs of a declaration file and the
cue blocks of a caption file.

`read_utf8` reads a whole file by `os.open` and `os.read`, without a file
object: talks ingest reads thousands of small caption files, and for one of
them a file object costs about as much as the read.
"""

from __future__ import annotations

import io
import json
import math
import os
import re
import sys
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from pathlib import Path
from typing import Any, BinaryIO, NamedTuple

from .errors import DataError, LingspaceError
from .options import TABLE_FORMAT


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
            cells = [f"{c:.4f}" if isinstance(c, float) else c for c in cells]
            cr = any("\r" in cell for cell in cells if isinstance(cell, str))
            (quoted if cr else writer).writerow(cells)
        text = buffer.getvalue()
    else:
        payload = [{name: float(f"{c:.4f}") if isinstance(c, float) else c
                    for name, c in zip(fields, cells)} for cells in rows]
        text = json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
    if destination is None:
        sys.stdout.write(text)
    else:
        Path(destination).write_text(text, encoding="utf-8", newline="")


_BLOCK = 1 << 16  # the bytes of one read of an input file


def _line_blocks(fh: BinaryIO, size: int = _BLOCK) -> Iterator[bytes]:
    """Whole lines of a binary file in runs that end at an LF, read `size`
    bytes at a time; a longer line grows the next read to its own size, so it
    costs time linear in its length. LF, CRLF and a lone CR each end a line
    and come as LF; a last line without a line end gets one."""
    pending, after_cr = b"", False
    while block := fh.read(max(size, len(pending))):
        if after_cr and block[:1] == b"\n":
            block = block[1:]  # the LF of a CRLF split between two reads
        after_cr = block[-1:] == b"\r"
        data = pending + block
        if b"\r" in data:
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        cut = data.rfind(b"\n") + 1
        pending = data[cut:]
        if cut:
            yield data[:cut]
    if pending:
        yield pending + b"\n"


def read_json_lines(
    path: str | Path,
) -> Iterator[tuple[int, dict[str, object] | None, str | None]]:
    """(line number, object, problem) for each non-blank line of a JSON Lines
    file, read and decoded a block at a time. LF, CRLF and a lone CR each end
    a line, so a raw CR between the tokens of one record splits it in two. A
    line that is not UTF-8, not JSON or not a JSON object comes with None and
    the problem instead of raising, so callers can name its line."""
    lineno = 0
    with Path(path).open("rb") as fh:
        for block in _line_blocks(fh):
            try:
                lines = block.decode("utf-8").split("\n")
            except UnicodeDecodeError:
                lines = block.split(b"\n")  # each line is decoded alone, to name the bad one
            for line in lines[:-1]:
                lineno += 1
                if type(line) is bytes:
                    try:
                        line = line.decode("utf-8")
                    except UnicodeDecodeError as exc:
                        yield lineno, None, f"not UTF-8 ({exc.reason})"
                        continue
                # The decoder's C scanner, which parse_json reaches through
                # four Python frames, takes a line that is one object.
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


# A whitespace-only line, found in "\n" + text so the first line has an LF too.
_BLANK_LINE_RE = re.compile(r"\n[^\S\n]+(?=\n|\Z)")


def blocks(text: str) -> list[str]:
    """The blocks of LF text, each a maximal run of lines that are not blank,
    joined by LF and kept as they are. A blank line is empty or whitespace
    only; a declaration paragraph and a caption cue block are each a block.
    Built from whole-text string operations, with no walk over the lines."""
    text = _BLANK_LINE_RE.sub("\n", "\n" + text)[1:]
    while "\n\n\n" in text:
        text = text.replace("\n\n\n", "\n\n")
    text = text.strip("\n")
    return text.split("\n\n") if text else []


def read_utf8(path: str | Path, error: type[LingspaceError] = DataError) -> str:
    """The file's text with its line endings kept; undecodable bytes raise
    `error` naming the file and its line by the `lf_text` rule. An OSError
    names the file as `Path.read_bytes` does."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, _BLOCK):
            chunks.append(chunk)
    except OSError as exc:  # os.read of a directory names no file
        exc.filename = os.fspath(path)
        raise
    finally:
        os.close(fd)
    raw = b"".join(chunks)
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The bytes before the first bad one always decode.
        line = lf_text(raw[: exc.start].decode("utf-8")).count("\n") + 1
        raise error(f"not UTF-8 ({exc.reason})", path, line) from exc


def read_text(path: str | Path, error: type[LingspaceError] = DataError) -> str:
    """`read_utf8` with CR and CRLF line ends read as LF."""
    return lf_text(read_utf8(path, error))


def read_csv_records(
    path: str | Path, required: Sequence[str]
) -> list[tuple[int, dict[str, str]]]:
    """(line number, row) for each record of a CSV file with a header row.

    Undecodable bytes, malformed CSV and missing required columns raise a
    DataError naming the file.
    """
    import csv
    path = Path(path)
    reader = csv.DictReader(io.StringIO(read_utf8(path), newline=""))
    # emit_table writes cells of any length (an account's per-post values
    # share one cell), so the read lifts the csv module's 128 KiB cap.
    limit = csv.field_size_limit(2**31 - 1)
    try:
        missing = [name for name in required if name not in (reader.fieldnames or ())]
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
    inferred from the suffix. A JSON table that does not decode, is not an
    array of objects or holds a lone surrogate is a DataError naming the file,
    before any row is read. A CSV header or a JSON row that lacks a column
    of `table.fields` is one naming the columns; a row `table.read` rejects,
    or a second row with the same `unique` label, is one at its CSV line or
    JSON row."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        text = read_text(path)
        payload, problem, line = parse_json(text)
        if problem is not None:
            raise DataError(f"invalid JSON table: {problem}", path, line)
        if not isinstance(payload, list) or not all(
            isinstance(row, dict) for row in payload
        ):
            raise DataError("JSON table must be an array of objects", path)
        # Only a \u escape decodes to a lone surrogate, which no writer encodes.
        if "\\u" in text:
            for index, row in enumerate(payload):
                cells = [*row, *(cell for cell in row.values() if isinstance(cell, str))]
                if problem := surrogate_problem("".join(cells)):
                    raise DataError(f"JSON table row #{index} {problem}", path)
        located = [(None, f"JSON table row #{index}: ", row)
                   for index, row in enumerate(payload)]
    else:
        located = [(line, "", row)
                   for line, row in read_csv_records(path, table.fields)]
    values, seen = [], set()
    for line, where, row in located:
        # A CSV table's header was checked once; a JSON row holds its own columns.
        if line is None and (missing := [n for n in table.fields if n not in row]):
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
