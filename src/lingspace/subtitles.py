"""Caption parsing: SRT, WebVTT, and JSON caption files to transcript text."""

from __future__ import annotations

import json
import re

from .errors import SubtitleParseError, UsageError

SUBTITLE_FORMATS = ("srt", "webvtt", "json_captions")

_TIMING_RE = re.compile(
    r"^\s*(?:\d{1,3}:)?\d{1,2}:\d{2}[.,]\d{1,3}"
    r"\s*-->\s*"
    r"(?:\d{1,3}:)?\d{1,2}:\d{2}[.,]\d{1,3}(?:\s+\S.*)?\s*$"
)
_TAG_RE = re.compile(r"<[^>]*>")


def parse_subtitle(content: str, format: str) -> str:
    """Extract the spoken text of a caption file.

    Cue payloads are joined by single spaces; cue numbers, timing lines,
    header and comment blocks, and markup tags are dropped. Line breaks
    inside a cue collapse to single spaces (they are display artifacts).
    JSON captions are either a list of cue objects or an object with a
    "captions" or "cues" list; each cue needs a "content" or "text" field.
    """
    if format == "srt":
        cues = _parse_block_cues(content, webvtt=False)
    elif format == "webvtt":
        cues = _parse_block_cues(content, webvtt=True)
    elif format == "json_captions":
        cues = _parse_json_cues(content)
    else:
        raise UsageError(
            f"unknown subtitle format {format!r} "
            f"(expected one of: {', '.join(SUBTITLE_FORMATS)})"
        )
    return " ".join(cues)


def _clean_cue_text(lines: list[str]) -> str:
    text = " ".join(lines)
    if "<" in text:
        text = _TAG_RE.sub("", text)
    # str.split() splits on exactly the characters re's \s matches.
    return " ".join(text.split())


def _iter_blocks(content: str):
    """Yield (first_line_number, lines) per blank-line-separated block."""
    block: list[str] = []
    start = 0
    for lineno, line in enumerate(content.splitlines(), start=1):
        if line.strip():
            if not block:
                start = lineno
            block.append(line)
        elif block:
            yield start, block
            block = []
    if block:
        yield start, block


def _parse_block_cues(content: str, *, webvtt: bool) -> list[str]:
    cues: list[str] = []
    first_block = True
    for start, lines in _iter_blocks(content):
        if webvtt and first_block and lines[0].lstrip().upper().startswith("WEBVTT"):
            first_block = False
            continue
        first_block = False
        if webvtt and lines[0].strip().upper().startswith(("NOTE", "STYLE", "REGION")):
            continue
        # The timing line is the block's first line or, when a cue number or
        # identifier precedes it, the second.
        timing_index = None
        for i in (0, 1):
            if i < len(lines) and "-->" in lines[i]:
                timing_index = i
                break
        if timing_index is None:
            raise SubtitleParseError(
                start, "expected a cue timing line containing '-->'"
            )
        timing_line = lines[timing_index]
        if not _TIMING_RE.match(timing_line):
            raise SubtitleParseError(
                start + timing_index,
                f"malformed cue timing line: {timing_line.strip()!r}",
            )
        text = _clean_cue_text(lines[timing_index + 1 :])
        if text:
            cues.append(text)
    return cues


def _parse_json_cues(content: str) -> list[str]:
    try:
        doc = json.loads(content)
    except json.JSONDecodeError as exc:
        raise SubtitleParseError(exc.lineno, f"invalid JSON: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # huge ints, deep nesting
        raise SubtitleParseError(1, f"invalid JSON: {exc}") from exc
    if isinstance(doc, dict):
        for key in ("captions", "cues"):
            if key in doc:
                items = doc[key]
                break
        else:
            raise SubtitleParseError(
                1, "JSON captions need a top-level 'captions' or 'cues' list"
            )
    else:
        items = doc
    if not isinstance(items, list):
        raise SubtitleParseError(1, "caption container is not a list")
    cues: list[str] = []
    for index, item in enumerate(items):
        if not isinstance(item, dict):
            raise SubtitleParseError(1, f"cue #{index} is not an object")
        for key in ("content", "text"):
            if key in item:
                raw = item[key]
                break
        else:
            raise SubtitleParseError(
                1, f"cue #{index} lacks a 'content' or 'text' field"
            )
        if not isinstance(raw, str):
            raise SubtitleParseError(1, f"cue #{index} text is not a string")
        text = _clean_cue_text(raw.splitlines() or [""])
        if text:
            cues.append(text)
    return cues
