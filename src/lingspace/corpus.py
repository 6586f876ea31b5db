"""Parallel corpora: parsing, alignment, filtering, persistence.

A corpus holds aligned units (paragraphs or talks) carrying the same content
in several languages. Declaration-style plain-text documents align
positionally by paragraph; subtitle corpora align by talk directory. Each
directory loader hands its units, as it reads them, to one alignment step
that keeps the complete, long-enough units and counts the rest.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

from .errors import DataError, LingspaceError, UsageError
from .langtags import ENG, LanguageTag, parse_language_tag
from .measures import SpaceMeasure, count_units
from .options import MIN_CHARS
from .subtitles import parse_subtitle
from .tables import blocks, read_json_lines, read_text, surrogate_problem


@dataclass(frozen=True)
class AlignedUnit:
    """One unit of content with a text per language."""

    unit_id: str
    texts: dict[LanguageTag, str]

    def __post_init__(self) -> None:
        if not self.unit_id:
            raise DataError("unit_id must be non-empty")
        if not self.texts:
            raise DataError(f"unit {self.unit_id!r} has no texts")
        for lang, text in self.texts.items():
            if not isinstance(text, str):
                raise DataError(f"unit {self.unit_id!r} has a non-string {lang} text")
            if not text.strip():
                raise DataError(f"unit {self.unit_id!r} has an empty {lang} text")


@dataclass(frozen=True)
class ParallelCorpus:
    """An ordered collection of aligned units, immutable once built.

    Units from the directory loaders carry every corpus language; a corpus
    read by load_corpus may hold partial units.
    """

    name: str
    languages: tuple[LanguageTag, ...]
    units: tuple[AlignedUnit, ...]
    provenance: str = ""

    def __post_init__(self) -> None:
        if not self.languages:
            raise DataError("corpus has no languages")
        if len(set(self.languages)) != len(self.languages):
            raise DataError("corpus languages contain duplicates")
        lang_set = set(self.languages)
        seen: set[str] = set()
        for unit in self.units:
            if unit.unit_id in seen:
                raise DataError(f"duplicate unit_id {unit.unit_id!r}")
            seen.add(unit.unit_id)
            extras = set(unit.texts) - lang_set
            if extras:
                raise DataError(
                    f"unit {unit.unit_id!r} carries languages outside the "
                    f"corpus language set: {sorted(extras)}"
                )

    def __len__(self) -> int:
        return len(self.units)


@dataclass(frozen=True)
class ExclusionReport:
    """Where the input unit ids went during corpus construction."""

    total_ids: int
    missing_language: int
    too_short: int
    kept: int


def _align(
    units: Iterable[tuple[str, dict[LanguageTag, str]]],
    langs: Sequence[LanguageTag],
    min_chars: int,
    directory: Path,
    provenance: str,
) -> tuple[ParallelCorpus, ExclusionReport]:
    """The corpus of `units`, (unit_id, {lang: text}) pairs in corpus order,
    and a report of how many were dropped and why.

    A unit is kept when it has a non-blank text in every language and its
    eng text has at least min_chars characters; the length filter drops
    degenerate units such as music-only talks. The request is checked before
    the first unit is read.
    """
    MIN_CHARS.parse(min_chars, "min_chars")
    languages = tuple(dict.fromkeys(map(parse_language_tag, langs)))
    if len(languages) < 2:
        raise UsageError("need at least two languages to build a parallel corpus")
    if min_chars > 0 and ENG not in languages:
        raise UsageError(
            f"reference language {ENG} is not among the supplied languages; "
            f"set min_chars=0"
        )
    total = missing = too_short = 0
    kept: list[AlignedUnit] = []
    for unit_id, texts in units:
        total += 1
        if len(texts) < len(languages) or not all(map(str.strip, texts.values())):
            missing += 1
        elif min_chars > 0 and count_units(texts[ENG], SpaceMeasure.CHARACTERS) < min_chars:
            too_short += 1
        else:
            kept.append(AlignedUnit(unit_id, texts))
    corpus = ParallelCorpus(directory.name, languages, tuple(kept), provenance)
    return corpus, ExclusionReport(total, missing, too_short, len(kept))


def load_udhr_directory(
    directory: str | Path,
    langs: Sequence[LanguageTag],
    min_chars: int = 0,
) -> tuple[ParallelCorpus, ExclusionReport]:
    """Read `<dir>/<lang>.txt` files and align them paragraph by paragraph.

    A paragraph is a block of its file (`tables.blocks`) with the whitespace
    around it trimmed; it keeps its line breaks as LF. The files must agree
    on paragraph count; a mismatch is a data error because positional
    alignment would silently pair unrelated paragraphs. No paragraph is
    dropped for length unless min_chars is given.
    """
    directory = Path(directory)
    return _align(_paragraph_units(directory, langs), langs, min_chars, directory,
                  f"declaration-style directory {directory.name}")


def _paragraph_units(
    directory: Path, langs: Sequence[LanguageTag]
) -> Iterator[tuple[str, dict[LanguageTag, str]]]:
    paragraphs: dict[LanguageTag, list[str]] = {}
    for lang in langs:
        path = directory / f"{lang}.txt"
        if not path.is_file():
            raise DataError(f"missing translation file: {path}")
        paragraphs[lang] = [block.strip() for block in blocks(read_text(path))]
    if len({len(texts) for texts in paragraphs.values()}) > 1:
        detail = ", ".join(f"{lang}={len(texts)}" for lang, texts in paragraphs.items())
        raise DataError(
            f"paragraph counts differ across languages ({detail}); "
            f"positional alignment is impossible",
            directory,
        )
    for index, texts in enumerate(zip(*paragraphs.values())):
        yield str(index), dict(zip(paragraphs, texts))


_SUFFIX_FORMATS = {".srt": "srt", ".vtt": "webvtt", ".json": "json_captions"}


def load_subtitle_directory(
    directory: str | Path,
    langs: Sequence[LanguageTag],
    min_chars: int = 1000,
) -> tuple[ParallelCorpus, ExclusionReport]:
    """Read `<dir>/<talk_id>/<lang>.(srt|vtt|json)` trees into talk units.

    Talks are visited in sorted directory order; within a talk the first
    caption file found per language (srt, then vtt, then json) wins. A talk
    with no caption file in any of langs is not a unit. Talks whose eng
    transcript is shorter than min_chars characters are dropped.
    """
    directory = Path(directory)
    return _align(_talk_units(directory, langs), langs, min_chars, directory,
                  f"subtitle directory {directory.name}")


def _talk_units(
    directory: Path, langs: Sequence[LanguageTag]
) -> Iterator[tuple[str, dict[LanguageTag, str]]]:
    with os.scandir(directory) as entries:
        talk_names = sorted(entry.name for entry in entries if entry.is_dir())
    if not talk_names:
        raise DataError(f"no talk directories under {directory}")
    # Paths stay str, as ingest joins one per caption file. Each reads as its
    # Path would: under the directory "." a file is "t/eng.srt".
    root = "" if directory == Path(".") else os.path.join(directory, "")
    for talk_name in talk_names:
        talk = root + talk_name
        with os.scandir(talk) as entries:
            files = {entry.name for entry in entries if entry.is_file()}
        texts: dict[LanguageTag, str] = {}
        for lang in langs:
            for suffix, fmt in _SUFFIX_FORMATS.items():
                name = f"{lang}{suffix}"
                if name not in files:
                    continue
                path = os.path.join(talk, name)
                try:
                    texts[lang] = parse_subtitle(read_text(path), fmt)
                except DataError as exc:  # a bad caption or not UTF-8
                    exc.path = Path(path)
                    raise
                break
        if texts:
            yield talk_name, texts


def save_corpus(corpus: ParallelCorpus, path: str | Path) -> None:
    """Write a corpus as line-delimited JSON: a header record, then one
    record per unit with the unit id and one field per language."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        header = {
            "name": corpus.name,
            "languages": list(corpus.languages),
            "provenance": corpus.provenance,
        }
        fh.write(json.dumps(header, ensure_ascii=False) + "\n")
        for unit in corpus.units:
            record: dict[str, str] = {"unit_id": unit.unit_id}
            for lang in corpus.languages:
                if lang in unit.texts:
                    record[lang] = unit.texts[lang]
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def load_corpus(path: str | Path) -> ParallelCorpus:
    """Read a corpus written by save_corpus.

    Malformed content, a language that is not registered included, raises
    a DataError naming the file and line.
    """
    path = Path(path)
    records = read_json_lines(path)
    head, header, problem = next(records, (None, None, None))
    if head is None:
        raise DataError("empty corpus file", path)
    if problem is not None:
        raise DataError(f"invalid corpus header: {problem}", path, head)
    for key, kind in (("name", str), ("languages", list), ("provenance", str)):
        if key not in header:
            raise DataError(f"corpus header lacks {key!r}", path, head)
        if not isinstance(header[key], kind):
            raise DataError(f"corpus header {key!r} is not a {kind.__name__}", path, head)
    if not all(isinstance(lang, str) for lang in header["languages"]):
        raise DataError("corpus header 'languages' holds a non-string", path, head)
    # A JSON \u escape can decode to a lone surrogate, which save_corpus and
    # the UTF-8 measures cannot encode.
    for key in ("name", "provenance"):
        if problem := surrogate_problem(header[key]):
            raise DataError(f"invalid corpus header: {key!r} {problem}", path, head)
    try:  # the header's tags, and the corpus's own language checks
        languages = tuple(parse_language_tag(lang) for lang in header["languages"])
        ParallelCorpus(header["name"], languages, ())
    except LingspaceError as exc:
        raise DataError(exc.problem, path, head) from exc
    units: list[AlignedUnit] = []
    seen: set[str] = set()
    for lineno, record, problem in records:
        if problem is not None:
            raise DataError(f"invalid unit record: {problem}", path, lineno)
        if "unit_id" not in record:
            raise DataError("unit record lacks 'unit_id'", path, lineno)
        texts = {lang: record[lang] for lang in languages if lang in record}
        try:
            unit = AlignedUnit(str(record["unit_id"]), texts)
        except DataError as exc:
            exc.path, exc.line = path, lineno
            raise
        for key, text in (("unit_id", unit.unit_id), *texts.items()):
            if problem := surrogate_problem(text):
                raise DataError(f"invalid unit record: {key!r} {problem}", path, lineno)
        if unit.unit_id in seen:
            raise DataError(f"duplicate unit_id {unit.unit_id!r}", path, lineno)
        seen.add(unit.unit_id)
        units.append(unit)
    return ParallelCorpus(
        header["name"], languages, tuple(units), header["provenance"]
    )
