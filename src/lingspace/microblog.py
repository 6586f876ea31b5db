"""Microblog post ingestion, per-account length statistics, and relative
information content against a baseline language.

Lengths are NFC character counts; the "without URLs" variants measure the
post after scheme-prefixed URLs are deleted. An account enters the analysis
only with strictly more than min_posts posts.
"""

from __future__ import annotations

import logging
import math
import re
import statistics
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from datetime import datetime, timezone
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

from .errors import DataError, LingspaceError, UsageError
from .langtags import CMN_HANS, CMN_HANT, LanguageTag, parse_language_tag
# count_urls and strip_urls are no longer called here, but perfbench/spans.py
# wraps both names at this module, so they stay imported.
from .measures import (
    URL_PATTERN,
    SpaceMeasure,
    count_units,
    count_urls,
    detect_language,
    strip_urls,
)
from .options import MIN_POSTS, POSTS_FORMAT
from .tables import Table, read_csv_records, read_json_lines, table_number

log = logging.getLogger(__name__)

PLATFORMS = ("twitter", "weibo")
_PLATFORM_SET = frozenset(PLATFORMS)
ORG_TYPES = ("embassy", "news")


@dataclass(frozen=True)
class AccountMeta:
    """One analyzed account; bilingual accounts appear once per language."""

    screen_name: str
    platform: str
    language: LanguageTag
    org_type: str


class Post(NamedTuple):
    """One post; a named tuple, since a dump holds tens of thousands."""

    post_id: str
    account: str
    platform: str
    text: str
    created_at: datetime


@dataclass(frozen=True)
class AccountStats:
    """Length statistics for one account's posts."""

    meta: AccountMeta
    n_posts: int
    mean_chars_with_urls: float
    mean_chars_without_urls: float
    per_post_lengths: tuple[int, ...]
    url_count_histogram: dict[int, int]


@dataclass(frozen=True)
class RicResult:
    """An account's lengths re-expressed in baseline-language characters."""

    meta: AccountMeta
    base_lang: LanguageTag
    ratio_used: float
    mean_ric: float
    per_post_ric: tuple[float, ...]


_REQUIRED_POST_FIELDS = ("id", "account", "platform", "text", "created_at")
_ACCOUNT_FIELDS = ("screen_name", "platform", "language", "org_type")


# YYYY-MM-DD[(T|t| )HH[:MM[:SS[.fff[fff]]]][Z|z|±HH:MM[:SS[.ffffff]]]]: what
# every supported Python's fromisoformat reads the same way (3.11 reads more),
# with only T, t or a space after the date, where it takes any character, and
# offset minutes and seconds of 00-59, which it does not range-check.
_TIMESTAMP_RE = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}"
    r"(?:[Tt ][0-9]{2}(?::[0-9]{2}(?::[0-9]{2}(?:\.[0-9]{3}(?:[0-9]{3})?)?)?)?"
    r"(?:[Zz]|[+-][0-9]{2}:[0-5][0-9](?::[0-5][0-9](?:\.[0-9]{6})?)?)?)?"
)


def _parse_timestamp(value: str) -> datetime:
    text = value.strip()
    if not _TIMESTAMP_RE.fullmatch(text):
        raise ValueError(f"unsupported ISO 8601 form {value!r}")
    if text[-1] in "Zz":
        text = text[:-1] + "+00:00"
    parsed = datetime.fromisoformat(text)
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    return parsed.astimezone(timezone.utc)


def _validate_record(record: Mapping[str, object]) -> tuple[Post | None, str | None]:
    """The record as a Post, or None and the reason it is invalid."""
    get = record.get
    post_id, account, platform, text, created_at = (
        get("id"), get("account"), get("platform"), get("text"), get("created_at"))
    # The common record: five strings, a known platform, no blank field.
    # Anything else takes the field-by-field walk that names the problem.
    if not (
        str is type(post_id) is type(account) is type(platform) is type(text)
        is type(created_at)
        and platform in _PLATFORM_SET
        and post_id.strip()
        and account.strip()
        and created_at.strip()
    ):
        values = []
        for field in _REQUIRED_POST_FIELDS:
            value = record.get(field)
            if value is None:
                return None, f"missing {field!r}"
            converted = str(value)
            if field != "text" and not converted.strip():
                return None, f"empty {field!r}"
            values.append(converted)
        post_id, account, platform, text, created_at = values
    if platform not in _PLATFORM_SET:
        return None, f"unknown platform {record['platform']!r}"
    try:
        timestamp = _parse_timestamp(created_at)
    except (ValueError, OverflowError):  # UTC shifts a date past year 1 or 9999
        return None, f"unparseable created_at {record['created_at']!r}"
    # tuple.__new__: the C call that Post's generated __new__ wraps, without its frame.
    return tuple.__new__(Post, (post_id, account, platform, text, timestamp)), None


def load_posts(path: str | Path, format: str = "jsonl") -> list[Post]:
    """Read posts from a JSONL or CSV file, preserving file order.

    Every record needs id, account, platform, text, and an ISO-8601
    created_at. Violations are collected: the DataError raised is the first
    bad record's, and up to 19 more follow it, one a line.
    """
    path = Path(path)
    if POSTS_FORMAT.parse(format, "posts format") == "jsonl":
        records = read_json_lines(path)
    else:
        records = (
            (lineno, row, None)
            for lineno, row in read_csv_records(path, _REQUIRED_POST_FIELDS)
        )

    posts: list[Post] = []
    bad: list[tuple[int, str]] = []
    # One id set per platform: no key tuple per post for the collector to track.
    seen: dict[str, set[str]] = {platform: set() for platform in PLATFORMS}
    for lineno, record, problem in records:
        if problem is None:
            post, problem = _validate_record(record)
        if problem is not None:
            bad.append((lineno, problem))
            continue
        ids = seen[post.platform]
        if post.post_id in ids:
            bad.append((lineno, f"duplicate post id {record['id']!r}"))
            continue
        ids.add(post.post_id)
        posts.append(post)
    if bad:
        (lineno, problem), *rest = bad
        shown = [problem, *(str(DataError(p, path, n)) for n, p in rest[:19])]
        shown += [f"(and {len(rest) - 19} more)"] if rest[19:] else []
        raise DataError("\n".join(shown), path, lineno)
    return posts


def load_accounts(path: str | Path) -> list[AccountMeta]:
    """Read account metadata from CSV, in file order."""
    path = Path(path)
    accounts: list[AccountMeta] = []
    seen: set[tuple[str, str, str]] = set()
    for lineno, row in read_csv_records(path, _ACCOUNT_FIELDS):
        try:
            meta = _read_account(row)
        except LingspaceError as exc:
            raise DataError(exc.problem, path, lineno) from exc
        key = (meta.screen_name, meta.platform, meta.language)
        if key in seen:
            problem = f"duplicate account {meta.screen_name}@{meta.platform}"
            raise DataError(f"{problem} for language {meta.language}", path, lineno)
        seen.add(key)
        accounts.append(meta)
    return accounts


def account_length_stats(
    posts: Sequence[Post],
    meta: AccountMeta,
    min_posts: int = MIN_POSTS.default,
) -> AccountStats | None:
    """Length statistics for one account, or None when it has too few posts.

    Inclusion requires strictly more than min_posts posts. Posts that are
    empty after URL stripping stay in with length 0.
    """
    MIN_POSTS.parse(min_posts, "min_posts")
    # Two C passes check ownership; the walk only names the first foreign post.
    if not (set(map(attrgetter("account"), posts)) <= {meta.screen_name}
            and set(map(attrgetter("platform"), posts)) <= {meta.platform}):
        for post in posts:
            if post.account != meta.screen_name or post.platform != meta.platform:
                raise UsageError(
                    f"post {post.post_id!r} belongs to {post.account}@{post.platform}, "
                    f"not {meta.screen_name}@{meta.platform}"
                )
    if len(posts) <= min_posts:
        return None
    with_urls: list[int] = []
    without_urls: list[int] = []
    histogram: dict[int, int] = {}
    strip = URL_PATTERN.subn
    characters = SpaceMeasure.CHARACTERS
    for post in posts:
        text = post.text
        # One scan gives both the text without URLs and their count. Every
        # URL holds "://", whose characters have no case variants, so a text
        # without it needs no scan.
        stripped, urls = strip("", text) if "://" in text else (text, 0)
        histogram[urls] = histogram.get(urls, 0) + 1
        length = count_units(text, characters)
        with_urls.append(length)
        if urls:
            length = count_units(stripped, characters)
        without_urls.append(length)
    return AccountStats(
        meta=meta,
        n_posts=len(posts),
        mean_chars_with_urls=statistics.fmean(with_urls),
        mean_chars_without_urls=statistics.fmean(without_urls),
        per_post_lengths=tuple(without_urls),
        url_count_histogram=dict(sorted(histogram.items())),
    )


def compute_ric(
    stats: AccountStats,
    ratios: Mapping[tuple[LanguageTag, LanguageTag], float],
    base_lang: LanguageTag,
) -> RicResult:
    """Divide an account's lengths by its language's ratio to the baseline."""
    language = stats.meta.language
    if language == base_lang:
        ratio_used = 1.0
    else:
        key = (language, base_lang)
        if key not in ratios:
            raise UsageError(
                f"no ratio available for ({language}, {base_lang}); "
                f"supply ratio({language}, {base_lang})"
            )
        ratio_used = float(ratios[key])
        if not 0 < ratio_used < math.inf:
            raise UsageError(
                f"ratio({language}, {base_lang}) must be positive and finite, "
                f"got {ratio_used}"
            )
    per_post = tuple(length / ratio_used for length in stats.per_post_lengths)
    mean_ric = stats.mean_chars_without_urls / ratio_used
    if not all(map(math.isfinite, (mean_ric, *per_post))):  # a tiny ratio overflows
        raise UsageError(
            f"ratio({language}, {base_lang}) must give finite RICs, got {ratio_used}"
        )
    return RicResult(
        meta=stats.meta,
        base_lang=base_lang,
        ratio_used=ratio_used,
        mean_ric=mean_ric,
        per_post_ric=per_post,
    )


def cell_key(meta: AccountMeta) -> tuple[str, str, str]:
    """Grouping key used by the summary figures."""
    return (meta.platform, meta.language, meta.org_type)


def assign_posts(
    posts: Iterable[Post], accounts: Sequence[AccountMeta]
) -> tuple[dict[AccountMeta, list[Post]], int]:
    """Group posts under their account metadata.

    Accounts registered in several languages get each post routed by its
    detected script; posts matching no registered language, or no known
    account, are dropped, with one warning per reason giving its count.
    Returns the grouping and the count of dropped posts.
    """
    by_account: dict[tuple[str, str], list[AccountMeta]] = {}
    for meta in accounts:
        by_account.setdefault((meta.screen_name, meta.platform), []).append(meta)
    assigned: dict[AccountMeta, list[Post]] = {meta: [] for meta in accounts}
    unknown = unattributable = 0
    for post in posts:
        metas = by_account.get((post.account, post.platform))
        if metas is None:
            unknown += 1
            continue
        meta = metas[0] if len(metas) == 1 else _route_by_language(post, metas)
        if meta is None:
            unattributable += 1
            continue
        assigned[meta].append(post)
    if unknown:
        log.warning("dropped %d posts of unknown accounts", unknown)
    if unattributable:
        log.warning(
            "dropped %d posts whose script matches none of their account's languages",
            unattributable,
        )
    return assigned, unknown + unattributable


def _route_by_language(post: Post, metas: Sequence[AccountMeta]) -> AccountMeta | None:
    detected = detect_language(post.text)
    if detected is None:
        return None
    for meta in metas:
        if meta.language == detected:
            return meta
    if detected == CMN_HANS:
        # Han-only text cannot distinguish the two Chinese orthographies;
        # defer to whichever variant the account registers.
        chinese = [m for m in metas if m.language in (CMN_HANS, CMN_HANT)]
        if len(chinese) == 1:
            return chinese[0]
    return None


def _account_cells(meta: AccountMeta) -> tuple[str, str, str, str]:
    return (meta.screen_name, meta.platform, meta.language, meta.org_type)


def _read_account(row: Mapping[str, object]) -> AccountMeta:
    """The account columns of a row, by the rules of the accounts file: each
    cell is stripped, the screen name is not empty, and the platform, org type
    and language are known."""
    screen_name, platform, language, org_type = (
        "" if row[name] is None else str(row[name]).strip() for name in _ACCOUNT_FIELDS
    )
    if not screen_name:
        raise DataError("empty screen_name")
    if platform not in PLATFORMS:
        raise DataError(f"unknown platform {platform!r}")
    if org_type not in ORG_TYPES:
        raise DataError(f"unknown org_type {org_type!r}")
    return AccountMeta(screen_name, platform, parse_language_tag(language), org_type)


def _stats_cells(stats: AccountStats) -> tuple:
    histogram = " ".join(
        f"{count}:{freq}" for count, freq in sorted(stats.url_count_histogram.items())
    )
    return (
        *_account_cells(stats.meta),
        stats.n_posts,
        stats.mean_chars_with_urls,
        stats.mean_chars_without_urls,
        histogram,
        " ".join(str(v) for v in stats.per_post_lengths),
    )


def _read_mean(row: Mapping[str, object], name: str) -> float:
    """A mean cell, which emit_table writes with four decimals: one with more
    would not be written back as read."""
    value = table_number(row[name])
    if float(f"{value:.4f}") != value:
        raise ValueError(f"{name} {row[name]} has more than four decimals")
    return value


def _read_stats(row: Mapping[str, object]) -> AccountStats:
    meta = _read_account(row)
    histogram: dict[int, int] = {}
    for pair in str(row["url_count_histogram"]).split():
        count_text, freq = pair.split(":")
        count = table_number(count_text, int)
        if count in histogram:
            raise ValueError(f"url_count_histogram repeats url count {count}")
        histogram[count] = table_number(freq, int)
    lengths = tuple(table_number(v, int) for v in str(row["per_post_lengths"]).split())
    n_posts = table_number(row["n_posts"], int)
    if not n_posts:  # analyze_posts keeps only accounts with posts
        raise ValueError("n_posts is 0: a stats row needs at least one post")
    if n_posts != len(lengths):
        raise ValueError(
            f"n_posts is {n_posts} but per_post_lengths holds {len(lengths)} values"
        )
    counted = sum(histogram.values())
    if counted != n_posts:
        raise ValueError(f"n_posts is {n_posts} but url_count_histogram counts {counted} posts")
    with_urls, mean = (_read_mean(row, name)
                       for name in ("mean_chars_with_urls", "mean_chars_without_urls"))
    # The mean as written (four decimals) must be the mean of the lengths it
    # summarises, which compute_ric rescales one by one, as floats.
    try:
        average = statistics.fmean(lengths)
    except OverflowError:
        raise ValueError("per_post_lengths sum past the float range") from None
    if f"{mean:.4f}" != f"{average:.4f}":
        raise ValueError(f"mean_chars_without_urls is {mean:.4f} but per_post_lengths "
                         f"average {average:.4f}")
    # Deleting a URL never lengthens a post: it starts with "h" and ends before
    # whitespace, so no character composes across its ends.
    if with_urls < mean:
        raise ValueError(f"mean_chars_with_urls is {with_urls:.4f}, less than "
                         f"mean_chars_without_urls {mean:.4f}")
    return AccountStats(
        meta=meta,
        n_posts=n_posts,
        mean_chars_with_urls=with_urls,
        mean_chars_without_urls=mean,
        per_post_lengths=lengths,
        url_count_histogram=histogram,
    )


def _ric_cells(result: RicResult) -> tuple:
    return (
        *_account_cells(result.meta),
        result.base_lang,
        result.ratio_used,
        result.mean_ric,
        " ".join([f"{v:.4f}" for v in result.per_post_ric]),
    )


def _read_ric(row: Mapping[str, object]) -> tuple[AccountMeta, tuple, str]:
    """`(account, per-post RICs, base_lang)` of a RIC row: what a figure draws,
    by the account's cell key. Its ratio and mean, which no figure draws, are
    checked too."""
    meta, base_lang = _read_account(row), parse_language_tag(str(row["base_lang"]))
    ratio, mean = table_number(row["ratio_used"]), table_number(row["mean_ric"])
    values = tuple(table_number(v) for v in str(row["per_post_ric"]).split())
    if not values:  # compute_ric gets stats rows with at least one post
        raise ValueError("per_post_ric holds no values")
    if meta.language == base_lang and ratio != 1:
        raise ValueError(f"ratio_used is {ratio:.4f} but language and base_lang "
                         f"are both {base_lang}")
    # compute_ric divides the account's mean by the ratio, and `ric` reads
    # that mean at four decimals (off by up to 5e-5). With mean_ric and each
    # per-post value rounded to four, mean_ric is within 1e-4 + 5e-5 / ratio
    # of the per-post mean, for the ratio before its own rounding: at least
    # ratio_used - 5e-5. A smaller ratio_used bounds nothing. The values are
    # averaged a share at a time, as their sum may pass the float range.
    average, low = math.fsum(v / len(values) for v in values), ratio - 5e-5
    if low > 0 and not math.isclose(mean, average, rel_tol=1e-9, abs_tol=1e-4 + 5e-5 / low):
        raise ValueError(f"mean_ric is {mean:.4f} but per_post_ric average {average:.4f}")
    return meta, values, base_lang


def _account_label(meta: AccountMeta) -> str:
    return f"{meta.screen_name}@{meta.platform} ({meta.language})"


STATS_TABLE = Table(
    "stats",
    (*_ACCOUNT_FIELDS, "n_posts", "mean_chars_with_urls", "mean_chars_without_urls",
     "url_count_histogram", "per_post_lengths"),
    _stats_cells,
    _read_stats,
    unique=lambda stats: _account_label(stats.meta),
)

RIC_TABLE = Table(
    "RIC",
    (*_ACCOUNT_FIELDS, "base_lang", "ratio_used", "mean_ric", "per_post_ric"),
    _ric_cells,
    _read_ric,
    unique=lambda ric: _account_label(ric[0]),
)
