"""Microblog ingestion, per-account statistics, and RIC computation."""

import json
import math
import statistics
from collections import Counter
from dataclasses import replace
from datetime import datetime, timezone

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lingspace.errors import DataError, UsageError
from lingspace.measures import URL_PATTERN, SpaceMeasure, count_units, nfc, strip_urls
from lingspace.microblog import (
    PLATFORMS,
    RIC_TABLE,
    STATS_TABLE,
    AccountMeta,
    AccountStats,
    Post,
    RicResult,
    account_length_stats,
    assign_posts,
    cell_key,
    compute_ric,
    load_accounts,
    _parse_timestamp,
    load_posts,
)
from lingspace.tables import emit_table, read_table
from textgen import MIXED_TEXT

pytestmark = pytest.mark.deep

UTC = timezone.utc

META = AccountMeta("acc", "twitter", "eng", "news")


def _post(i, text, account="acc", platform="twitter"):
    return Post(str(i), account, platform, text, datetime(2015, 3, 1, tzinfo=UTC))


# Post text: mixed scalars with URLs at any position, URLs next to each
# other, and combining marks right after a URL.
_URL = st.builds(
    str.__add__,
    st.sampled_from(["http://", "HTTPS://", "https://"]),
    st.text(alphabet="abc/.?=%é中\u0301", max_size=8),
)
_POST_TEXT = st.lists(
    st.one_of(MIXED_TEXT, _URL, st.just("\u0301")), max_size=6
).map("".join)


def _write_jsonl(path, records):
    path.write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records),
        encoding="utf-8",
    )


def _record(i, **overrides):
    record = {
        "id": f"p{i}",
        "account": "acc",
        "platform": "twitter",
        "text": f"post number {i}",
        "created_at": "2015-03-01T10:00:00Z",
    }
    record.update(overrides)
    return record


# load_posts as it was before its fast path for the common record and the
# CR line-end rule: LF-only lines, and each record walked field by field.
def _reference_validate_record(record):
    values = []
    for field in ("id", "account", "platform", "text", "created_at"):
        value = record.get(field)
        if value is None:
            return None, f"missing {field!r}"
        converted = str(value)
        if field != "text" and not converted.strip():
            return None, f"empty {field!r}"
        values.append(converted)
    post_id, account, platform, text, created_at = values
    if platform not in PLATFORMS:
        return None, f"unknown platform {record['platform']!r}"
    try:
        timestamp = _parse_timestamp(created_at)
    except (ValueError, OverflowError):
        return None, f"unparseable created_at {record['created_at']!r}"
    return Post(post_id, account, platform, text, timestamp), None


def _reference_load_posts(path):
    posts, bad, seen = [], [], set()
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                bad.append((lineno, f"not UTF-8 ({exc.reason})"))
                continue
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                bad.append((lineno, f"invalid JSON ({exc.msg})"))
                continue
            if not isinstance(record, dict):
                bad.append((lineno, "record is not an object"))
                continue
            post, problem = _reference_validate_record(record)
            if problem is not None:
                bad.append((lineno, problem))
                continue
            key = (post.platform, post.post_id)
            if key in seen:
                bad.append((lineno, f"duplicate post id {record['id']!r}"))
                continue
            seen.add(key)
            posts.append(post)
    if bad:
        (lineno, reason), *rest = bad
        shown = [reason, *(f"{path}:{n}: {problem}" for n, problem in rest[:19])]
        if len(bad) > 20:
            shown.append(f"(and {len(bad) - 20} more)")
        raise DataError("\n".join(shown), path, lineno)
    return posts


# JSON Lines lines for the equivalence property: valid records, records with
# one field missing, null, a number, a bool, a list, an object, a blank or
# whitespace-only string, an unknown platform or a bad or year-overflowing
# timestamp, records of arbitrary fields, ids that repeat (1 and "1" are the
# same id), and blank, non-object, non-JSON and non-UTF-8 lines. No line
# holds a raw CR, which the reference does not treat as a line end.
_TEXT = st.text(st.characters(exclude_categories=["Cs"]), max_size=6)
_ODD_VALUE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(),
    _TEXT,
    st.sampled_from(["", " ", "\t", "\u3000", "\x85"]),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.sampled_from("ab"), st.integers(0, 2), max_size=1),
)
_GOOD_FIELDS = {
    "id": st.sampled_from(["p1", "p2", "1", " p1"]),
    "account": st.sampled_from(["acc", "other"]),
    "platform": st.sampled_from(PLATFORMS),
    "text": _TEXT,
    "created_at": st.sampled_from([
        "2015-03-01T10:00:00Z",
        "2015-03-01T10:00:00+08:00",
        " 2015-03-01T10:00:00z ",
        "2015-03-01T10:00:00",
    ]),
}
_ODD_FIELDS = dict.fromkeys(_GOOD_FIELDS, _ODD_VALUE) | {
    "platform": st.sampled_from(["myspace", " twitter", "Weibo"]) | _ODD_VALUE,
    "created_at": st.sampled_from([
        "0001-01-01T00:30:00+01:00",
        "9999-12-31T23:30:00-01:00",
        "2015-02-30T10:00:00Z",
        "2015-03-01+05:00",
        "2015-03-01x05:00",
        "last Tuesday",
    ]) | _ODD_VALUE,
}
_GOOD_RECORD = st.fixed_dictionaries(_GOOD_FIELDS)
_POST_RECORD = st.one_of(
    _GOOD_RECORD,
    *(
        st.builds(lambda r, f, v: r | {f: v}, _GOOD_RECORD, st.just(field), odd)
        for field, odd in _ODD_FIELDS.items()
    ),
    st.fixed_dictionaries({}, optional=dict(_ODD_FIELDS)),
)
_JSONL_LINE = st.one_of(
    _POST_RECORD.map(lambda r: json.dumps(r, ensure_ascii=False).encode("utf-8")),
    st.sampled_from([
        b"", b" ", b"\t", b"\x0b", b"\x0c", b"\x1c", "\u3000".encode(), "\x85".encode(),
        b"[1]", b"3", b"null", b'"s"', b"{oops", b'{"id": 1', "\ufeff{}".encode(),
        b'{"id": "caf\xe9"}', b"\xff",
    ]),
)


class TestLoadPosts:
    def test_records_load_in_file_order(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        _write_jsonl(path, [_record(i) for i in range(3)])
        posts = load_posts(path)
        assert [p.post_id for p in posts] == ["p0", "p1", "p2"]
        assert posts[0].text == "post number 0"

    def test_empty_file_gives_empty_list(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        path.write_text("", encoding="utf-8")
        assert load_posts(path) == []

    def test_missing_text_names_the_line(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        records = [_record(0), _record(1)]
        del records[1]["text"]
        _write_jsonl(path, records)
        with pytest.raises(DataError, match=r"posts\.jsonl:2: missing 'text'$"):
            load_posts(path)

    def test_bad_json_line_reported(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        path.write_text(
            json.dumps(_record(0)) + "\n{broken\n", encoding="utf-8"
        )
        with pytest.raises(DataError, match=r"posts\.jsonl:2: invalid JSON"):
            load_posts(path)

    def test_non_object_line_reported(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        path.write_text('["list"]\n', encoding="utf-8")
        with pytest.raises(DataError, match=r"posts\.jsonl:1: record is not an object$"):
            load_posts(path)

    def test_non_utf8_line_reported(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        path.write_bytes(
            json.dumps(_record(0)).encode("utf-8") + b'\n{"text": "caf\xe9"}\n'
        )
        with pytest.raises(DataError, match=r"posts\.jsonl:2: not UTF-8"):
            load_posts(path)

    def test_escaped_lone_surrogate_in_a_text_loads(self, tmp_path):
        # Posts are counted in characters, which any code point has; unlike
        # corpus texts, they are never written back as UTF-8.
        path = tmp_path / "posts.jsonl"
        path.write_text(json.dumps(_record(0, text="ab\ud800")) + "\n", encoding="utf-8")
        assert load_posts(path)[0].text == "ab\ud800"

    def test_duplicate_post_id_on_one_platform_rejected(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        _write_jsonl(path, [_record(0), _record(0)])
        with pytest.raises(DataError, match="duplicate post id"):
            load_posts(path)

    def test_same_id_on_different_platforms_is_fine(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        _write_jsonl(path, [_record(0), _record(0, platform="weibo")])
        assert len(load_posts(path)) == 2

    def test_unknown_platform_rejected(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        _write_jsonl(path, [_record(0, platform="myspace")])
        with pytest.raises(DataError, match="unknown platform"):
            load_posts(path)

    def test_unparseable_timestamp_rejected(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        _write_jsonl(path, [_record(0, created_at="last Tuesday")])
        with pytest.raises(DataError, match="unparseable created_at"):
            load_posts(path)

    @pytest.mark.parametrize("created_at, expected", [
        ("2015-03-01T05:00:00Z", datetime(2015, 3, 1, 5, tzinfo=UTC)),
        ("2015-03-01t05:00:00+00:00", datetime(2015, 3, 1, 5, tzinfo=UTC)),
        ("2015-03-01 05:00:00+05:00", datetime(2015, 3, 1, 0, tzinfo=UTC)),
        ("2015-03-01", datetime(2015, 3, 1, tzinfo=UTC)),
        ("2015-03-01T05", datetime(2015, 3, 1, 5, tzinfo=UTC)),
        ("2015-03-01T05:30:00.250z", datetime(2015, 3, 1, 5, 30, 0, 250000, tzinfo=UTC)),
        ("2015-03-01T05:00-01:30:15.000001",
         datetime(2015, 3, 1, 6, 30, 15, 1, tzinfo=UTC)),
    ])
    def test_timestamp_forms(self, created_at, expected):
        assert _parse_timestamp(created_at) == expected

    # fromisoformat takes any character after the date as the separator
    @pytest.mark.parametrize("created_at", [
        "2015-03-01+05:00", "2015-03-01x05:00", "2015-03-01Z", "2015W09x05",
        # Forms only a newer fromisoformat reads: basic and week dates, a time
        # without colons, a basic or hour-only offset, other fraction lengths
        # and a decimal comma.
        "20150301", "2015-W09-1", "2015-W09-1T05:00", "2015-03-01T0500",
        "2015-03-01T05:00+0500", "2015-03-01T05:00+05", "2015-03-01T05:00:00.1Z",
        "2015-03-01T05:00:00,123Z",
        # Offset minutes or seconds past 59, which fromisoformat carries over.
        "2015-03-01T05:00+05:99", "2015-03-01T05:00+05:00:99",
    ])
    def test_date_joined_to_a_non_time_is_rejected(self, created_at):
        with pytest.raises(ValueError):
            _parse_timestamp(created_at)

    def test_error_listing_truncates_after_twenty(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        records = [_record(i, platform="nope") for i in range(25)]
        _write_jsonl(path, records)
        with pytest.raises(DataError, match=r"\(and 5 more\)"):
            load_posts(path)

    def test_timestamps_normalize_to_utc(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        _write_jsonl(
            path,
            [
                _record(0, created_at="2015-03-01T08:00:00Z"),
                _record(1, created_at="2015-03-01T16:00:00+08:00"),
                _record(2, created_at="2015-03-01T08:00:00"),
            ],
        )
        posts = load_posts(path)
        expected = datetime(2015, 3, 1, 8, 0, tzinfo=UTC)
        assert [p.created_at for p in posts] == [expected] * 3

    def test_csv_posts_file(self, tmp_path):
        path = tmp_path / "posts.csv"
        path.write_text(
            "id,account,platform,text,created_at\n"
            'p0,acc,twitter,"hello, world",2015-03-01T10:00:00Z\n',
            encoding="utf-8",
        )
        posts = load_posts(path, format="csv")
        assert posts[0].text == "hello, world"

    def test_csv_missing_column_rejected(self, tmp_path):
        path = tmp_path / "posts.csv"
        path.write_text("id,account,platform,text\n", encoding="utf-8")
        with pytest.raises(DataError, match="missing columns: created_at"):
            load_posts(path, format="csv")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(
            UsageError, match=r"^posts format must be jsonl or csv, got 'xml'$"
        ):
            load_posts(tmp_path / "x.xml", format="xml")

    @pytest.mark.parametrize("end", ["\r", "\r\n"], ids=["cr", "crlf"])
    def test_cr_and_crlf_files_load_like_the_lf_file(self, tmp_path, end):
        records = [_record(i, text=f"line {i} 中文") for i in range(4)]
        _write_jsonl(tmp_path / "lf.jsonl", records)
        path = tmp_path / "other.jsonl"
        path.write_text(
            "".join(json.dumps(r, ensure_ascii=False) + end for r in records),
            encoding="utf-8",
            newline="",
        )
        assert load_posts(path) == load_posts(tmp_path / "lf.jsonl")

    @pytest.mark.parametrize("end", [b"\r", b"\r\n"], ids=["cr", "crlf"])
    def test_cr_and_crlf_files_number_their_lines(self, tmp_path, end):
        path = tmp_path / "posts.jsonl"
        path.write_bytes(
            end.join([json.dumps(_record(0)).encode(), b"", b'{"text": "caf\xe9"}',
                      b"{broken"])
        )
        with pytest.raises(
            DataError, match=r"jsonl:3: not UTF-8 .*\n.*posts\.jsonl:4: invalid JSON"
        ):
            load_posts(path)

    def test_raw_cr_inside_a_record_ends_its_line(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        path.write_bytes(b'{"id": "p0",\r"account": "acc"}\n')
        with pytest.raises(DataError, match=r"jsonl:1: invalid JSON.*\n.*jsonl:2: invalid"):
            load_posts(path)

    @given(st.lists(_JSONL_LINE, max_size=8), st.booleans())
    @example([json.dumps(_record(0)).encode(), b" ", b"\x0c", "\x85".encode()], True)
    @example([json.dumps(_record(0, id=1)).encode(), json.dumps(_record(1, id="1")).encode()],
             False)
    @example([json.dumps(_record(0, created_at="0001-01-01T00:30:00+01:00")).encode()], True)
    def test_matches_the_field_by_field_reference(self, tmp_path_factory, lines, final_lf):
        path = tmp_path_factory.getbasetemp() / "equivalence_posts.jsonl"
        path.write_bytes(b"\n".join(lines) + (b"\n" if final_lf else b""))
        try:
            expected = _reference_load_posts(path)
        except DataError as exc:
            with pytest.raises(DataError) as raised:
                load_posts(path)
            assert str(raised.value) == str(exc)
        else:
            assert load_posts(path) == expected


class TestLoadAccounts:
    def test_file_order_preserved(self, tmp_path):
        path = tmp_path / "accounts.csv"
        path.write_text(
            "screen_name,platform,language,org_type\n"
            "unews,twitter,eng,news\n"
            "jemb,twitter,jpn,embassy\n",
            encoding="utf-8",
        )
        accounts = load_accounts(path)
        assert [a.screen_name for a in accounts] == ["unews", "jemb"]
        assert accounts[1] == AccountMeta("jemb", "twitter", "jpn", "embassy")

    def test_bilingual_account_may_appear_once_per_language(self, tmp_path):
        path = tmp_path / "accounts.csv"
        path.write_text(
            "screen_name,platform,language,org_type\n"
            "dual,twitter,eng,embassy\n"
            "dual,twitter,cmn_hans,embassy\n",
            encoding="utf-8",
        )
        assert len(load_accounts(path)) == 2

    def test_duplicate_language_entry_rejected(self, tmp_path):
        path = tmp_path / "accounts.csv"
        path.write_text(
            "screen_name,platform,language,org_type\n"
            "dual,twitter,eng,embassy\n"
            "dual,twitter,eng,news\n",
            encoding="utf-8",
        )
        with pytest.raises(DataError, match=r"accounts\.csv:3: duplicate account"):
            load_accounts(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            (",twitter,eng,news", "empty screen_name"),
            ("a,facebook,eng,news", "unknown platform"),
            ("a,twitter,xxq,news", "unknown language tag"),
            ("a,twitter,eng,charity", "unknown org_type"),
        ],
    )
    def test_invalid_rows_rejected_with_line(self, tmp_path, row, message):
        path = tmp_path / "accounts.csv"
        path.write_text(
            f"screen_name,platform,language,org_type\n{row}\n", encoding="utf-8"
        )
        with pytest.raises(DataError, match=message) as exc:
            load_accounts(path)
        assert str(exc.value).startswith(f"{path}:2: {message}")

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "accounts.csv"
        path.write_text("screen_name,platform,language\n", encoding="utf-8")
        with pytest.raises(DataError, match="missing columns: org_type"):
            load_accounts(path)


def _reference_account_length_stats(posts, meta):
    """account_length_stats before it scanned only texts holding "://": one
    URL_PATTERN.subn on every post."""
    with_urls, without_urls, histogram = [], [], {}
    for post in posts:
        stripped, urls = URL_PATTERN.subn("", post.text)
        histogram[urls] = histogram.get(urls, 0) + 1
        with_urls.append(count_units(post.text, SpaceMeasure.CHARACTERS))
        without_urls.append(count_units(stripped, SpaceMeasure.CHARACTERS))
    return AccountStats(meta, len(posts), statistics.fmean(with_urls),
                        statistics.fmean(without_urls), tuple(without_urls),
                        dict(sorted(histogram.items())))


# Text around the "://" test: schemes in any case, U+017F (long s), which
# IGNORECASE matches to "s", "://" with no scheme, and schemes cut short.
_URL_EDGE_TEXT = st.lists(
    st.sampled_from(["HTTP://", "hTtPſ://", "httpſ://a", "://", "://x", "http:/",
                     "https:", "http", "ſ", "K", "x", " ", "\u0301", "中", "/", ":"]),
    max_size=8,
).map("".join)


class TestAccountLengthStats:
    def test_mean_of_two_posts(self):
        posts = [_post(0, "x" * 10), _post(1, "y" * 20)]
        stats = account_length_stats(posts, META, min_posts=1)
        assert stats.mean_chars_without_urls == 15.0
        assert stats.mean_chars_with_urls == 15.0
        assert stats.per_post_lengths == (10, 20)

    def test_exactly_min_posts_is_excluded(self):
        posts = [_post(i, "text") for i in range(50)]
        assert account_length_stats(posts, META, min_posts=50) is None
        assert account_length_stats(posts + [_post(99, "t")], META, 50) is not None

    def test_url_histogram(self):
        posts = [
            _post(0, "a http://t.co/x"),
            _post(1, "b https://t.co/y"),
            _post(2, "plain"),
        ]
        stats = account_length_stats(posts, META, min_posts=1)
        assert stats.url_count_histogram == {0: 1, 1: 2}
        assert sum(stats.url_count_histogram.values()) == stats.n_posts

    def test_url_only_post_keeps_length_zero(self):
        posts = [_post(0, "http://t.co/abc"), _post(1, "xx")]
        stats = account_length_stats(posts, META, min_posts=1)
        assert stats.per_post_lengths == (0, 2)
        assert stats.mean_chars_without_urls == 1.0

    def test_lengths_are_nfc_character_counts(self):
        posts = [_post(0, "héllo"), _post(1, "plain")]
        stats = account_length_stats(posts, META, min_posts=1)
        assert stats.per_post_lengths == (5, 5)

    def test_foreign_post_violates_the_precondition(self):
        foreign = _post(0, "x", account="other")
        with pytest.raises(UsageError, match="belongs to other@twitter"):
            account_length_stats([foreign], META, min_posts=0)

    @pytest.mark.parametrize("owner", [("other", "twitter"), ("acc", "weibo")],
                             ids=["account", "platform"])
    def test_first_foreign_post_is_named(self, owner):
        """Among posts of the account, the first of two foreign ones is
        named, also when only their platform differs."""
        account, platform = owner
        posts = [_post(0, "a"), _post(1, "b", account, platform), _post(2, "c"),
                 _post(3, "d", account, platform), _post(4, "e")]
        expected = f"post '1' belongs to {account}@{platform}, not acc@twitter"
        with pytest.raises(UsageError) as exc:
            account_length_stats(posts, META, min_posts=0)
        assert str(exc.value) == expected

    @given(st.lists(st.integers(min_value=0, max_value=280), min_size=1, max_size=60))
    def test_stripped_mean_never_exceeds_raw_mean(self, lengths):
        posts = [
            _post(i, "x" * n + (" http://t.co/q" if i % 3 == 0 else ""))
            for i, n in enumerate(lengths)
        ]
        stats = account_length_stats(posts, META, min_posts=0)
        assert stats.mean_chars_without_urls <= stats.mean_chars_with_urls

    @given(st.lists(st.one_of(_POST_TEXT, _URL_EDGE_TEXT, st.sampled_from(
        ["\u1100", "\u1161", "\u11a8", "\u0b47", "\u0b3e", "h", "\u0331", " ", "\u3000"]
    )).map("".join), min_size=1, max_size=6))
    @example(["\u1100http://x \u1161", "e http://x\u0301", "\u0b47http://a\u0b3e"])
    def test_deleting_urls_never_lengthens_a_post(self, texts):
        """What `_read_stats` checks of a stats row: the mean with URLs is no
        less than the mean without, as each post's length is."""
        stats = account_length_stats([_post(i, t) for i, t in enumerate(texts)], META, 0)
        with_urls = [count_units(text, SpaceMeasure.CHARACTERS) for text in texts]
        assert all(map(int.__ge__, with_urls, stats.per_post_lengths))
        assert stats.mean_chars_with_urls >= stats.mean_chars_without_urls

    def test_negative_min_posts_is_a_usage_error(self):
        with pytest.raises(UsageError, match="min_posts must be >= 0"):
            account_length_stats([], AccountMeta("a", "twitter", "eng", "news"), -1)

    @given(st.lists(_POST_TEXT, min_size=1, max_size=8))
    @example(["http://a b", "x HTTPS://t.co/q", "plain"])
    @example(["http://aHTTPS://b http://c https://d"])
    @example(["e http://x\u0301 y", "e http://x \u0301", "http://x\u0301"])
    @example(["no link", "one https://t.co/a", "two http://a b http://c", "http://a http://b http://c"])
    @example(["https://t.co/e\u0301 caf\u0301e", "x http://y\u0301\u0301"])
    def test_stats_match_a_per_post_reference(self, texts):
        posts = [_post(i, text) for i, text in enumerate(texts)]
        stats = account_length_stats(posts, META, min_posts=0)
        with_urls = [len(nfc(text)) for text in texts]
        without_urls = [len(nfc(strip_urls(text))) for text in texts]
        urls = Counter(len(URL_PATTERN.findall(text)) for text in texts)
        assert stats.per_post_lengths == tuple(without_urls)
        assert stats.mean_chars_with_urls == statistics.fmean(with_urls)
        assert stats.mean_chars_without_urls == statistics.fmean(without_urls)
        assert stats.url_count_histogram == dict(sorted(urls.items()))

    @given(st.lists(_URL_EDGE_TEXT | _POST_TEXT, min_size=1, max_size=8))
    @example(["HTTP://a", "hTtPſ://b c", "://x", "no link", "http:/x"])
    def test_stats_equal_a_scan_of_every_post(self, texts):
        posts = [_post(i, text) for i, text in enumerate(texts)]
        assert account_length_stats(posts, META, min_posts=0) == (
            _reference_account_length_stats(posts, META)
        )


class TestComputeRic:
    RATIOS = {("eng", "cmn_hans"): 3.21, ("jpn", "cmn_hans"): 1.30}

    def _stats(self, lengths, meta=META):
        posts = [_post(i, "x" * n) for i, n in enumerate(lengths)]
        return account_length_stats(posts, meta, min_posts=0)

    def test_english_mean_in_baseline_characters(self):
        stats = self._stats([81, 81])
        result = compute_ric(stats, self.RATIOS, "cmn_hans")
        assert result.mean_ric == pytest.approx(25.23, abs=0.01)
        assert result.ratio_used == 3.21

    def test_japanese_account_scales_by_its_ratio(self):
        meta = AccountMeta("jp", "twitter", "jpn", "news")
        posts = [_post(0, "あ" * 130, account="jp")]
        stats = account_length_stats(posts, meta, min_posts=0)
        result = compute_ric(stats, self.RATIOS, "cmn_hans")
        assert result.mean_ric == pytest.approx(100.0)

    def test_baseline_language_is_identity(self):
        meta = AccountMeta("cn", "weibo", "cmn_hans", "news")
        posts = [_post(0, "中" * 60, account="cn", platform="weibo")]
        stats = account_length_stats(posts, meta, min_posts=0)
        result = compute_ric(stats, {}, "cmn_hans")
        assert result.ratio_used == 1.0
        assert result.mean_ric == stats.mean_chars_without_urls

    def test_per_post_values_scale_like_the_mean(self):
        stats = self._stats([10, 20, 30])
        result = compute_ric(stats, self.RATIOS, "cmn_hans")
        assert result.per_post_ric == tuple(
            n / 3.21 for n in stats.per_post_lengths
        )

    def test_mean_consistency_invariant(self):
        stats = self._stats([17, 23, 41, 99])
        result = compute_ric(stats, self.RATIOS, "cmn_hans")
        assert result.mean_ric == pytest.approx(
            stats.mean_chars_without_urls / 3.21, abs=1e-9
        )

    def test_missing_ratio_names_the_pair(self):
        stats = self._stats([10])
        with pytest.raises(UsageError, match=r"\(eng, cmn_hant\)"):
            compute_ric(stats, self.RATIOS, "cmn_hant")

    def test_non_positive_ratio_rejected(self):
        stats = self._stats([10])
        with pytest.raises(UsageError, match="must be positive"):
            compute_ric(stats, {("eng", "cmn_hans"): 0.0}, "cmn_hans")

    @pytest.mark.parametrize("ratio", [math.nan, math.inf])
    def test_non_finite_ratio_rejected(self, ratio):
        stats = self._stats([10])
        with pytest.raises(UsageError, match="must be positive and finite"):
            compute_ric(stats, {("eng", "cmn_hans"): ratio}, "cmn_hans")

    # 1e-320 overflows the mean and every post; 1e-306 keeps the mean of
    # 100 characters finite (1e308) but overflows the 400-character post.
    @pytest.mark.parametrize("ratio, lengths", [(1e-320, [10]), (1e-306, [0, 0, 0, 400])])
    def test_ratio_giving_non_finite_rics_rejected(self, ratio, lengths):
        stats = self._stats(lengths)
        assert math.isfinite(stats.mean_chars_without_urls / ratio) == (ratio == 1e-306)
        with pytest.raises(UsageError) as info:
            compute_ric(stats, {("eng", "cmn_hans"): ratio}, "cmn_hans")
        assert str(info.value) == f"ratio(eng, cmn_hans) must give finite RICs, got {ratio}"

    def test_ric_increases_with_mean_length(self):
        shorter = compute_ric(self._stats([40, 40]), self.RATIOS, "cmn_hans")
        longer = compute_ric(self._stats([41, 41]), self.RATIOS, "cmn_hans")
        assert longer.mean_ric > shorter.mean_ric


class TestAssignPosts:
    def test_posts_group_under_their_account(self):
        accounts = [META, AccountMeta("other", "twitter", "eng", "news")]
        posts = [_post(0, "a"), _post(1, "b", account="other"), _post(2, "c")]
        assigned, dropped = assign_posts(posts, accounts)
        assert dropped == 0
        assert [p.post_id for p in assigned[META]] == ["0", "2"]

    def test_unknown_account_posts_are_counted_dropped(self):
        posts = [_post(0, "a", account="ghost")]
        assigned, dropped = assign_posts(posts, [META])
        assert dropped == 1
        assert assigned[META] == []

    def test_platform_distinguishes_accounts(self):
        posts = [_post(0, "a", platform="weibo")]
        assigned, dropped = assign_posts(posts, [META])
        assert dropped == 1

    def test_single_language_account_keeps_posts_of_any_script(self):
        # Script detection would drop both: Han text is not English, and
        # emoji alone have no script.
        posts = [_post(0, "領事通知"), _post(1, "🎉🎉")]
        assigned, dropped = assign_posts(posts, [META])
        assert dropped == 0
        assert [p.post_id for p in assigned[META]] == ["0", "1"]

    def test_bilingual_account_routes_by_script(self):
        eng_meta = AccountMeta("dual", "twitter", "eng", "embassy")
        jpn_meta = AccountMeta("dual", "twitter", "jpn", "embassy")
        posts = [
            _post(0, "morning update", account="dual"),
            _post(1, "お知らせです", account="dual"),
            _post(2, "12345", account="dual"),
        ]
        assigned, dropped = assign_posts(posts, [eng_meta, jpn_meta])
        assert [p.post_id for p in assigned[eng_meta]] == ["0"]
        assert [p.post_id for p in assigned[jpn_meta]] == ["1"]
        assert dropped == 1

    def test_han_text_falls_back_to_the_registered_chinese_variant(self):
        eng_meta = AccountMeta("dual", "twitter", "eng", "embassy")
        hant_meta = AccountMeta("dual", "twitter", "cmn_hant", "embassy")
        posts = [_post(0, "領事通知", account="dual")]
        assigned, dropped = assign_posts(posts, [eng_meta, hant_meta])
        assert dropped == 0
        assert [p.post_id for p in assigned[hant_meta]] == ["0"]

    def test_han_text_with_both_variants_prefers_the_detected_tag(self):
        # Detection reports Han-only text as cmn_hans, so that entry wins
        # when both orthographies are registered.
        hans_meta = AccountMeta("dual", "twitter", "cmn_hans", "embassy")
        hant_meta = AccountMeta("dual", "twitter", "cmn_hant", "embassy")
        posts = [_post(0, "信息", account="dual")]
        assigned, dropped = assign_posts(posts, [hans_meta, hant_meta])
        assert dropped == 0
        assert [p.post_id for p in assigned[hans_meta]] == ["0"]

    def test_detected_language_not_registered_drops_the_post(self):
        eng_meta = AccountMeta("dual", "twitter", "eng", "embassy")
        jpn_meta = AccountMeta("dual", "twitter", "jpn", "embassy")
        posts = [_post(0, "信息", account="dual")]
        assigned, dropped = assign_posts(posts, [eng_meta, jpn_meta])
        assert dropped == 1
        assert assigned[eng_meta] == [] and assigned[jpn_meta] == []

    def test_drops_are_logged_as_one_count_per_reason(self, caplog):
        eng_meta = AccountMeta("dual", "twitter", "eng", "embassy")
        jpn_meta = AccountMeta("dual", "twitter", "jpn", "embassy")
        posts = [
            _post(0, "a", account="ghost"),
            _post(1, "b", account="ghost", platform="weibo"),
            _post(2, "12345", account="dual"),
            _post(3, "信息", account="dual"),
            _post(4, "morning update", account="dual"),
            _post(5, "c", account="nobody"),
        ]
        with caplog.at_level("WARNING", logger="lingspace.microblog"):
            _, dropped = assign_posts(posts, [eng_meta, jpn_meta])
        assert dropped == 5
        assert caplog.messages == [
            "dropped 3 posts of unknown accounts",
            "dropped 2 posts whose script matches none of their account's languages",
        ]


class TestTables:
    def _stats(self):
        posts = [_post(0, "x" * 9 + " http://t.co/q"), _post(1, "y" * 20)]
        return account_length_stats(posts, META, min_posts=0)

    def test_stats_row_matches_schema_and_round_trips(self):
        stats = self._stats()
        cells = STATS_TABLE.cells(stats)
        assert len(cells) == len(STATS_TABLE.fields)
        row = dict(zip(STATS_TABLE.fields, cells))
        assert row["url_count_histogram"] == "0:1 1:1"
        assert row["per_post_lengths"] == "10 20"
        restored = STATS_TABLE.read({k: str(v) for k, v in row.items()})
        assert restored == stats

    def test_malformed_stats_row_is_a_data_error(self, tmp_path):
        row = dict(zip(STATS_TABLE.fields, STATS_TABLE.cells(self._stats())))
        del row["n_posts"]
        path = tmp_path / "stats.csv"
        path.write_text(",".join(row) + "\n" + ",".join(map(str, row.values())) + "\n",
                        encoding="utf-8")
        with pytest.raises(DataError, match=r"stats\.csv: missing columns: n_posts$"):
            read_table(path, STATS_TABLE)

    def test_ric_row_matches_schema(self):
        result = compute_ric(
            self._stats(), {("eng", "cmn_hans"): 3.21}, "cmn_hans"
        )
        cells = RIC_TABLE.cells(result)
        assert len(cells) == len(RIC_TABLE.fields)
        row = dict(zip(RIC_TABLE.fields, cells))
        assert row["per_post_ric"] == "3.1153 6.2305"
        written = {k: f"{v:.4f}" if isinstance(v, float) else v for k, v in row.items()}
        assert RIC_TABLE.read(written) == replace(
            result, ratio_used=round(result.ratio_used, 4),
            mean_ric=round(result.mean_ric, 4),
            per_post_ric=(3.1153, 6.2305),
        )

    @given(st.lists(st.sampled_from([0.0, -0.0, 1.0, 1 / 3, 2.00005, 1e-5, -1e-5])
                    | st.floats(), max_size=12))
    @example([0.0, -0.0, 0.0, -0.0, 1.5, 1.5])
    @example([-0.0, 0.0])
    def test_ric_cell_formats_every_value_as_it_stands(self, values):
        """Each value is written as `f"{v:.4f}"` in turn, repeats and both
        signed zeros included."""
        result = RicResult(META, "cmn_hans", 1.0, 0.0, tuple(values))
        cell = RIC_TABLE.cells(result)[RIC_TABLE.fields.index("per_post_ric")]
        assert cell == " ".join(f"{v:.4f}" for v in values)

    @given(st.lists(st.integers(0, 500), min_size=1, max_size=8), st.floats(1e-6, 1e6),
           st.sampled_from(["csv", "json"]))
    @example([1, 1, 2], 0.3, "csv")
    def test_ric_of_a_read_stats_table_reads_back(self, tmp_path_factory, lengths, ratio,
                                                  format):
        """As `ric` makes it: a stats mean read at four decimals, over a ratio.
        The mean_ric it writes is then up to 5e-5 / ratio further from the
        mean of its per-post values than four-decimal rounding alone allows,
        and the table still reads back."""
        root = tmp_path_factory.getbasetemp()
        mean = statistics.fmean(lengths)
        stats = AccountStats(META, len(lengths), mean, mean, tuple(lengths), {0: len(lengths)})
        emit_table(STATS_TABLE, [stats], root / f"stats.{format}", format)
        (read,) = read_table(root / f"stats.{format}", STATS_TABLE)
        result = compute_ric(read, {("eng", "cmn_hans"): ratio}, "cmn_hans")
        emit_table(RIC_TABLE, [result], root / f"ric.{format}", format)
        assert read_table(root / f"ric.{format}", RIC_TABLE) == [replace(
            result, ratio_used=round(result.ratio_used, 4),
            mean_ric=round(result.mean_ric, 4),
            per_post_ric=tuple(round(v, 4) for v in result.per_post_ric),
        )]

    def test_cell_key_groups_platform_language_org(self):
        assert cell_key(META) == ("twitter", "eng", "news")
