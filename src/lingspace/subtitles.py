"""Caption parsing: SRT, WebVTT, and JSON caption files to transcript text."""

from __future__ import annotations

import re

from .errors import SubtitleParseError, UsageError
from .tables import blocks, lf_text, parse_json, surrogate_problem

SUBTITLE_FORMATS = ("srt", "webvtt", "json_captions")

_TIMING_RE = re.compile(
    r"^\s*(?:\d{1,3}:)?\d{1,2}:\d{2}[.,]\d{1,3}"
    r"\s*-->\s*"
    r"(?:\d{1,3}:)?\d{1,2}:\d{2}[.,]\d{1,3}(?:\s+\S.*)?\s*$"
)
_TAG_RE = re.compile(r"<[^>]*>")
_CUE_TAG_RE = re.compile(r"<(?:[^>\n]|\n(?!\n))*>")
_DIGITS_TO_ZERO = str.maketrans("123456789", "000000000")


def parse_subtitle(content: str, format: str) -> str:
    """Extract the spoken text of a caption file.

    Cue payloads are joined by single spaces; cue numbers, timing lines,
    header and comment blocks, and markup tags are dropped. Line breaks
    inside a cue collapse to single spaces (they are display artifacts).
    JSON captions are either a list of cue objects or an object with a
    "captions" or "cues" list; each cue needs a "content" or "text" field.

    LF, CRLF and a lone CR end a line (`tables.lf_text`). Any other line
    separator, such as U+2028, is whitespace inside its line.
    """
    content = lf_text(content)
    if format == "srt":
        return _parse_block_cues(content, webvtt=False)
    if format == "webvtt":
        return _parse_block_cues(content, webvtt=True)
    if format == "json_captions":
        return _parse_json_cues(content)
    raise UsageError(
        f"unknown subtitle format {format!r} "
        f"(expected one of: {', '.join(SUBTITLE_FORMATS)})"
    )


def _parse_block_cues(content: str, *, webvtt: bool) -> str:
    """The transcript of an SRT or WebVTT file, built from whole-text string
    operations. A cue block (`tables.blocks`) is an optional id line, a
    timing line containing '-->', then the payload."""
    # Each block as [first line, second line, rest], as far as it has them.
    heads = [block.split("\n", 2) for block in blocks(content)]

    cues = heads
    if webvtt:
        if heads and heads[0][0].lstrip().upper().startswith("WEBVTT"):
            cues = heads[1:]
        cues = [
            h for h in cues
            if not h[0].strip().upper().startswith(("NOTE", "STYLE", "REGION"))
        ]

    # The timing line is the block's first line or, when a cue number or
    # identifier precedes it, the second. A line without '-->' stands in for
    # a missing one; _TIMING_RE rejects it.
    timings = [h[0] if "-->" in h[0] or len(h) == 1 else h[1] for h in cues]
    # Digits only ever meet \d in _TIMING_RE, so mapping them to "0" keeps
    # each line's verdict while most lines of a file share one shape.
    shapes = set("\n".join(timings).translate(_DIGITS_TO_ZERO).split("\n"))
    if timings and not all(map(_TIMING_RE.match, shapes)):
        _raise_first_bad_timing(content.split("\n"), heads, cues, timings)

    payloads = [
        "\n".join(h[1:]) if "-->" in h[0] else h[2] if len(h) == 3 else ""
        for h in cues
    ]
    # Cues are joined by a blank line, which a tag cannot span.
    body = "\n\n".join(payloads)
    if "<" in body:
        body = _CUE_TAG_RE.sub("", body)
    # str.split() splits on exactly the characters re's \s matches.
    return " ".join(body.split())


def _raise_first_bad_timing(
    lines: list[str],
    heads: list[list[str]],
    cues: list[list[str]],
    timings: list[str],
) -> None:
    """Raise the SubtitleParseError of the first cue whose timing line is
    missing (naming the block's first line) or malformed (naming the timing
    line)."""
    starts = [
        number
        for number, line in enumerate(lines, start=1)
        if line.strip() and (number == 1 or not lines[number - 2].strip())
    ]
    start_of = {id(head): start for head, start in zip(heads, starts)}
    for head, timing in zip(cues, timings):
        start = start_of[id(head)]
        if "-->" not in timing:
            raise SubtitleParseError(
                "expected a cue timing line containing '-->'", line=start
            )
        if not _TIMING_RE.match(timing):
            raise SubtitleParseError(
                f"malformed cue timing line: {timing.strip()!r}",
                line=start + head.index(timing),
            )


def _parse_json_cues(content: str) -> str:
    doc, problem, line = parse_json(content)
    if problem is not None:
        raise SubtitleParseError(f"invalid JSON: {problem}", line=line)
    if isinstance(doc, dict):
        for key in ("captions", "cues"):
            if key in doc:
                items = doc[key]
                break
        else:
            raise SubtitleParseError(
                "JSON captions need a top-level 'captions' or 'cues' list"
            )
    else:
        items = doc
    if not isinstance(items, list):
        raise SubtitleParseError("caption container is not a list")
    # A decoded cue keeps no source line, so an error names the cue's index.
    raws = []
    for index, item in enumerate(items):
        if not isinstance(item, dict):
            raise SubtitleParseError(f"cue #{index} is not an object")
        if "content" in item:
            raw = item["content"]
        elif "text" in item:
            raw = item["text"]
        else:
            raise SubtitleParseError(f"cue #{index} lacks a 'content' or 'text' field")
        if not isinstance(raw, str):
            raise SubtitleParseError(f"cue #{index} text is not a string")
        raws.append(raw)
    text = " ".join(raws)
    if "<" in text:  # a tag ends within its cue
        raws = [_TAG_RE.sub("", raw) if "<" in raw else raw for raw in raws]
        text = " ".join(raws)
    # Only a \u escape decodes to a lone surrogate.
    if "\\u" in content:
        for index, raw in enumerate(raws):
            problem = surrogate_problem(raw)
            if problem is not None:
                raise SubtitleParseError(f"cue #{index} text {problem}")
    # Line breaks and separators are whitespace to str.split().
    return " ".join(text.split())
