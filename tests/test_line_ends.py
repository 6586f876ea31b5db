"""One line-end rule for every text reader.

LF, CRLF and a lone CR each end a line. Every other line separator Unicode
knows (U+000B, U+000C, U+001C-U+001E, U+0085, U+2028, U+2029) is a character
inside its line. So a file rewritten at the same path with CRLF or CR line ends
reads exactly as the LF file: the same result, or the same error text naming
the same line, and that line is the one this rule counts.

CSV is the one exception, and no CSV reader is tested here: the csv module
keeps a raw CR inside a quoted field as a character of the field, so a quoted
multi-line cell changes when its line ends are rewritten.
"""

from __future__ import annotations

import configparser
import io
import json
import re
from collections.abc import Callable
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lingspace.cli import main
from lingspace.corpus import load_corpus, load_subtitle_directory, load_udhr_directory
from lingspace.errors import LingspaceError
from lingspace.microblog import load_posts
from lingspace.pipeline import load_pipeline_config
from lingspace.tables import Table, read_table

pytestmark = pytest.mark.deep

LINE_ENDS = (b"\n", b"\r\n", b"\r")
SEPARATORS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"
# Raw in a JSON string, these are control characters, which JSON forbids.
JSON_CONTROLS = "\t\v\f\x1c\x1d\x1e"

_TEXT = st.text(st.sampled_from("ab中 \t" + SEPARATORS), max_size=5)
# A line that is not blank, with separators at either end and inside.
_LINE = st.tuples(_TEXT, _TEXT).map("x".join)
# A blank line: whitespace only, separators included.
_BLANK = st.text(st.sampled_from(" \t" + SEPARATORS), max_size=3)
# A JSON string value with a raw control character: invalid on its own line.
_RAW_CONTROL = st.tuples(_TEXT, st.sampled_from(JSON_CONTROLS), _TEXT).map("".join)
TIMING = "00:00:01,000 --> 00:00:02,000"


def _json(text: str) -> str:
    """A JSON string literal that keeps U+0085, U+2028 and U+2029 raw."""
    return json.dumps(text, ensure_ascii=False)


def _bad_index(draw, count: int) -> int | None:
    """Which of `count` items the case breaks, or None for a valid file."""
    return draw(st.none() | st.integers(0, count - 1)) if count else None


def _paragraphs(draw, count: int) -> list[str]:
    lines: list[str] = []
    for index in range(count):
        if index or draw(st.booleans()):
            lines += draw(st.lists(_BLANK, min_size=1, max_size=2))
        lines += draw(st.lists(_LINE, min_size=1, max_size=3))
    return lines


@st.composite
def declaration_files(draw):
    count = draw(st.integers(0, 3))
    files = {f"{lang}.txt": _paragraphs(draw, count) for lang in ("eng", "jpn")}
    return files, None


@st.composite
def block_caption_files(draw, suffix):
    """SRT or WebVTT files. The eng file, read first, may hold one cue whose
    timing line is malformed (the error names that line) or lacks '-->' (the
    error names the block's first line)."""
    files, bad = {}, None
    for lang in ("eng", "jpn"):
        lines = ["WEBVTT", ""] if suffix == ".vtt" else []
        count = draw(st.integers(0, 3))
        broken = _bad_index(draw, count) if lang == "eng" else None
        kind = draw(st.sampled_from(["00:07 --> later", "no timing"]))
        for index in range(count):
            if index:
                lines += draw(st.lists(_BLANK, min_size=1, max_size=2))
            start = len(lines) + 1
            if draw(st.booleans()):
                lines.append(str(index + 1))
            if index == broken:
                bad = len(lines) + 1 if "-->" in kind else start
            lines.append(kind if index == broken else TIMING)
            lines += draw(st.lists(_LINE, max_size=3))
        files[f"talk/{lang}{suffix}"] = lines
    return files, bad


def _json_array(items: list[str], broken: int | None, bad_item: str) -> list[str]:
    """An array with one item per line, after the line holding '['."""
    items = [bad_item if index == broken else item for index, item in enumerate(items)]
    return ["[", *items[:1], *("," + item for item in items[1:]), "]"]


@st.composite
def json_caption_files(draw):
    """JSON captions with one cue per line; the eng file may hold a cue
    with a raw control character, which the JSON error names by line."""
    files, bad = {}, None
    for lang in ("eng", "jpn"):
        texts = draw(st.lists(_TEXT, max_size=3))
        broken = _bad_index(draw, len(texts)) if lang == "eng" else None
        if broken is not None:
            bad = broken + 2
        cues = [f'{{"content": {_json(text)}}}' for text in texts]
        raw = f'{{"content": "{draw(_RAW_CONTROL)}"}}'
        files[f"talk/{lang}.json"] = _json_array(cues, broken, raw)
    return files, bad


@st.composite
def corpus_file(draw):
    texts = draw(st.lists(st.tuples(_LINE, _LINE), max_size=3))
    broken = _bad_index(draw, len(texts))
    lines = ['{"name": "c", "languages": ["eng", "jpn"], "provenance": ""}']
    bad = None
    for index, (eng, jpn) in enumerate(texts):
        lines += draw(st.lists(_BLANK, max_size=1))
        if index == broken:
            bad = len(lines) + 1
            eng = draw(_RAW_CONTROL)
            lines.append(f'{{"unit_id": "u{index}", "eng": "{eng}", "jpn": "x"}}')
        else:
            lines.append(
                f'{{"unit_id": "u{index}", "eng": {_json(eng)}, "jpn": {_json(jpn)}}}'
            )
    return {"c.jsonl": lines}, bad


@st.composite
def posts_file(draw):
    texts = draw(st.lists(_TEXT, max_size=3))
    broken = _bad_index(draw, len(texts))
    lines, bad = [], None
    for index, text in enumerate(texts):
        lines += draw(st.lists(_BLANK, max_size=1))
        if index == broken:
            bad = len(lines) + 1
            text_json = f'"{draw(_RAW_CONTROL)}"'
        else:
            text_json = _json(text)
        lines.append(
            f'{{"id": "p{index}", "account": "a", "platform": "weibo", '
            f'"text": {text_json}, "created_at": "2015-01-01T00:00:00Z"}}'
        )
    return {"p.jsonl": lines}, bad


# The table of `json_table_file`, whose rows are read as they are.
NAME_TABLE = Table("name", ("name", "n"), tuple, dict)


@st.composite
def json_table_file(draw):
    texts = draw(st.lists(_TEXT, max_size=3))
    broken = _bad_index(draw, len(texts))
    rows = [f'{{"name": {_json(text)}, "n": {n}}}' for n, text in enumerate(texts)]
    raw = f'{{"name": "{draw(_RAW_CONTROL)}", "n": 0}}'
    bad = None if broken is None else broken + 2
    return {"t.json": _json_array(rows, broken, raw)}, bad


CONFIG = (
    "[corpus]", "format = udhr", "input = corpus", "langs = eng,jpn",
    "[ratios]", "base = eng", "others = jpn",
    "[posts]", "posts = p.jsonl", "accounts = a.csv",
    "[output]", "dir = out",
)


@st.composite
def config_file(draw):
    """A config with comment lines and a value that hold separators; it may
    hold one line that is neither a section, an option nor a comment."""
    lines = [
        line + draw(_TEXT) if line == "input = corpus" else line for line in CONFIG
    ]
    for comment in draw(st.lists(_TEXT, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), "# " + comment)
    bad = None
    if draw(st.booleans()):
        index = draw(st.integers(0, len(lines)))
        lines.insert(index, "junk" + draw(_TEXT))
        bad = index + 1
    return {"run.ini": lines}, bad


@st.composite
def draft_file(draw):
    return {"draft.txt": draw(st.lists(_TEXT, max_size=3))}, None


def _check_limit(root: Path) -> object:
    """`lingspace limit check --file`: its output, or its error as a Failure."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["limit", "check", "--platform", "sms", "--quiet",
                     "--file", str(root / "draft.txt")])
    return Failure(err.getvalue()) if code else out.getvalue()


@dataclass(frozen=True)
class Failure:
    message: str


@dataclass(frozen=True)
class Reader:
    files: st.SearchStrategy
    read: Callable[[Path], object]


def _load_talks(root: Path) -> object:
    return load_subtitle_directory(root, ("eng", "jpn"), 0)


READERS = {
    "udhr": Reader(declaration_files(),
                   lambda root: load_udhr_directory(root, ("eng", "jpn"))),
    "srt": Reader(block_caption_files(".srt"), _load_talks),
    "webvtt": Reader(block_caption_files(".vtt"), _load_talks),
    "json_captions": Reader(json_caption_files(), _load_talks),
    "corpus": Reader(corpus_file(), lambda root: load_corpus(root / "c.jsonl")),
    "posts": Reader(posts_file(), lambda root: load_posts(root / "p.jsonl", "jsonl")),
    "json_table": Reader(json_table_file(),
                         lambda root: read_table(root / "t.json", NAME_TABLE)),
    "config": Reader(config_file(),
                     lambda root: load_pipeline_config(root / "run.ini")),
    "limit_check": Reader(draft_file(), _check_limit),
}


def _outcome(read: Callable[[Path], object], root: Path) -> object:
    try:
        return read(root)
    except (LingspaceError, configparser.Error) as exc:
        return Failure(str(exc))


# "file.ext:N:", "line N" and configparser's "[line  N]" and "line: N".
_CITED_LINE = re.compile(r"\.\w+:(\d+):|line:?\s+(\d+)")


def _cited_line(message: str) -> int:
    match = _CITED_LINE.search(message)
    assert match, message
    return int(match.group(1) or match.group(2))


@pytest.mark.parametrize("name", READERS)
@given(data=st.data())
def test_crlf_and_cr_files_read_like_lf_files(tmp_path_factory, name, data):
    """Each reader's files, valid or holding one bad line, read the same with
    LF, CRLF and CR line ends; a valid file reads without error, and the error
    of a bad one names the bad line."""
    reader = READERS[name]
    files, bad = data.draw(reader.files, label="files")
    files = {path: [line.encode() for line in lines] for path, lines in files.items()}
    if bad is None and data.draw(st.integers(0, 3), label="undecodable") == 0:
        # Bytes that are not UTF-8 on one line of the file read first.
        lines = next(iter(files.values()))
        index = data.draw(st.integers(0, len(lines)), label="undecodable line")
        lines.insert(index, b"a\xff")
        bad = index + 1
    final_end = data.draw(st.booleans(), label="final line end")

    root = tmp_path_factory.getbasetemp() / f"line_ends_{name}"
    outcomes = []
    for end in LINE_ENDS:
        for relative, lines in files.items():
            path = root / relative
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(end.join(lines) + (end if final_end and lines else b""))
        outcomes.append(_outcome(reader.read, root))

    lf, crlf, cr = outcomes
    assert crlf == lf
    assert cr == lf
    if bad is None:
        assert not isinstance(lf, Failure), lf
    else:
        assert isinstance(lf, Failure)
        assert _cited_line(lf.message) == bad, lf.message

