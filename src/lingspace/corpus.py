"""Parallel corpora: parsing, alignment, filtering, persistence.

A corpus holds aligned units (paragraphs or talks) carrying the same content
in several languages. Declaration-style plain-text documents align
positionally by paragraph; subtitle corpora align by talk directory.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

from .errors import DataError, LingspaceError, SubtitleParseError, UsageError
from .langtags import ENG, LanguageTag, parse_language_tag
from .measures import SpaceMeasure, count_units
from .options import CORPUS_FORMATS  # the layouts this module loads
from .subtitles import parse_subtitle
from .tables import lf_text, read_json_lines, read_text, surrogate_problem


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

    Units from build_parallel_corpus carry every corpus language; a corpus
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


def parse_udhr_language_file(content: str, lang: LanguageTag) -> list[tuple[int, str]]:
    """Split a declaration-style plain-text file into trimmed paragraphs.

    A paragraph is a maximal run of non-blank lines; indices are consecutive
    from 0. LF, CRLF and a lone CR end a line (`tables.lf_text`), and a
    paragraph keeps its line breaks as LF. Any other line separator, such as
    U+2028, is a character of its line and is kept as it is.
    """
    parse_language_tag(lang)
    paragraphs: list[tuple[int, str]] = []
    current: list[str] = []
    for line in lf_text(content).split("\n"):
        if line.strip():
            current.append(line)
        elif current:
            paragraphs.append((len(paragraphs), "\n".join(current).strip()))
            current = []
    if current:
        paragraphs.append((len(paragraphs), "\n".join(current).strip()))
    return paragraphs


def _check_min_chars(min_chars: int) -> None:
    if min_chars < 0:
        raise UsageError("min_chars must be >= 0")


def build_parallel_corpus(
    per_language_units: Mapping[LanguageTag, Iterable[tuple[str, str]]],
    min_chars: int,
    *,
    name: str = "corpus",
    provenance: str = "",
) -> tuple[ParallelCorpus, ExclusionReport]:
    """Assemble aligned units from per-language (unit_id, text) lists.

    Unit order follows first appearance across the supplied languages. A
    unit is kept when every language has a text for it (whitespace-only
    texts count as absent) and its eng text has at least min_chars
    characters; the length filter drops degenerate units such as music-only
    talks. Returns the corpus plus a report of how many unit ids were
    dropped and why.
    """
    _check_min_chars(min_chars)
    if len(per_language_units) < 2:
        raise UsageError("need at least two languages to build a parallel corpus")
    by_lang: dict[LanguageTag, dict[str, str]] = {}
    for lang, items in per_language_units.items():
        parse_language_tag(lang)
        table: dict[str, str] = {}
        for unit_id, text in items:
            unit_id = str(unit_id)
            if unit_id in table:
                raise DataError(f"duplicate unit_id {unit_id!r} in language {lang}")
            table[unit_id] = text
        by_lang[lang] = table
    languages = tuple(by_lang)

    if min_chars > 0 and ENG not in by_lang:
        raise UsageError(
            f"reference language {ENG} is not among the supplied languages; "
            f"set min_chars=0"
        )

    all_ids: dict[str, None] = {}
    for lang in languages:
        for unit_id in by_lang[lang]:
            all_ids.setdefault(unit_id)

    missing = too_short = 0
    units: list[AlignedUnit] = []
    for unit_id in all_ids:
        texts = {
            lang: by_lang[lang][unit_id]
            for lang in languages
            if unit_id in by_lang[lang] and by_lang[lang][unit_id].strip()
        }
        if len(texts) < len(languages):
            missing += 1
            continue
        if min_chars > 0 and (
            count_units(texts[ENG], SpaceMeasure.CHARACTERS) < min_chars
        ):
            too_short += 1
            continue
        units.append(AlignedUnit(unit_id, texts))

    corpus = ParallelCorpus(name, languages, tuple(units), provenance)
    report = ExclusionReport(len(all_ids), missing, too_short, len(units))
    return corpus, report


def load_udhr_directory(
    directory: str | Path,
    langs: Sequence[LanguageTag],
    min_chars: int = 0,
) -> tuple[ParallelCorpus, ExclusionReport]:
    """Read `<dir>/<lang>.txt` files and align them paragraph by paragraph.

    The files must agree on paragraph count; a mismatch is a data error
    because positional alignment would silently pair unrelated paragraphs.
    No paragraph is dropped for length unless min_chars is given.
    """
    _check_min_chars(min_chars)
    directory = Path(directory)
    per_lang: dict[LanguageTag, list[tuple[str, str]]] = {}
    counts: dict[LanguageTag, int] = {}
    for lang in langs:
        path = directory / f"{lang}.txt"
        if not path.is_file():
            raise DataError(f"missing translation file: {path}")
        content = read_text(path)
        paragraphs = parse_udhr_language_file(content, lang)
        counts[lang] = len(paragraphs)
        per_lang[lang] = [(str(index), text) for index, text in paragraphs]
    if len(set(counts.values())) > 1:
        detail = ", ".join(f"{lang}={n}" for lang, n in counts.items())
        raise DataError(
            f"paragraph counts differ across languages ({detail}); "
            f"positional alignment is impossible"
        )
    return build_parallel_corpus(
        per_lang,
        min_chars,
        name=directory.name,
        provenance=f"declaration-style directory {directory.name}",
    )


_SUFFIX_FORMATS = {".srt": "srt", ".vtt": "webvtt", ".json": "json_captions"}


def load_subtitle_directory(
    directory: str | Path,
    langs: Sequence[LanguageTag],
    min_chars: int = 1000,
) -> tuple[ParallelCorpus, ExclusionReport]:
    """Read `<dir>/<talk_id>/<lang>.(srt|vtt|json)` trees into talk units.

    Talks are visited in sorted directory order; within a talk the first
    caption file found per language (srt, then vtt, then json) wins. Talks
    whose eng transcript is shorter than min_chars characters are dropped.
    """
    _check_min_chars(min_chars)
    directory = Path(directory)
    with os.scandir(directory) as entries:
        talk_names = sorted(entry.name for entry in entries if entry.is_dir())
    if not talk_names:
        raise DataError(f"no talk directories under {directory}")
    per_lang: dict[LanguageTag, list[tuple[str, str]]] = {lang: [] for lang in langs}
    for talk_name in talk_names:
        talk = directory / talk_name
        with os.scandir(talk) as entries:
            files = {entry.name for entry in entries if entry.is_file()}
        for lang in langs:
            for suffix, fmt in _SUFFIX_FORMATS.items():
                name = f"{lang}{suffix}"
                if name not in files:
                    continue
                path = talk / name
                try:
                    transcript = parse_subtitle(read_text(path), fmt)
                except SubtitleParseError as exc:
                    exc.path = path
                    raise
                per_lang[lang].append((talk_name, transcript))
                break
    return build_parallel_corpus(
        per_lang,
        min_chars,
        name=directory.name,
        provenance=f"subtitle directory {directory.name}",
    )


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
