"""Caption parsing across the three supported formats."""

import json
import re
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lingspace.errors import SubtitleParseError, UsageError
from lingspace.subtitles import SUBTITLE_FORMATS, _TIMING_RE, parse_subtitle
from textgen import MIXED_TEXT, WHITESPACE

pytestmark = pytest.mark.deep

SRT_TWO_CUES = (
    "1\n"
    "00:00:01,000 --> 00:00:02,000\n"
    "Hello\n"
    "\n"
    "2\n"
    "00:00:02,000 --> 00:00:03,000\n"
    "world\n"
)

VTT_ONE_CUE = "WEBVTT\n\n00:01.000 --> 00:02.000\nHi\n"


class TestSrt:
    def test_two_cues_join_with_space(self):
        assert parse_subtitle(SRT_TWO_CUES, "srt") == "Hello world"

    def test_markup_tags_are_stripped(self):
        content = "1\n00:00:01,000 --> 00:00:02,000\n<i>Hi</i> <b>there</b>\n"
        assert parse_subtitle(content, "srt") == "Hi there"

    def test_multiline_cue_collapses_to_single_spaces(self):
        content = "1\n00:00:01,000 --> 00:00:02,000\nfirst line\nsecond line\n"
        assert parse_subtitle(content, "srt") == "first line second line"

    def test_cue_number_is_optional(self):
        content = "00:00:01,000 --> 00:00:02,000\nbare cue\n"
        assert parse_subtitle(content, "srt") == "bare cue"

    def test_empty_payload_cue_is_skipped(self):
        content = (
            "1\n00:00:01,000 --> 00:00:02,000\n<i></i>\n\n"
            "2\n00:00:02,000 --> 00:00:03,000\nkept\n"
        )
        assert parse_subtitle(content, "srt") == "kept"

    def test_empty_content_gives_empty_transcript(self):
        assert parse_subtitle("", "srt") == ""

    def test_timing_line_with_position_settings(self):
        content = "1\n00:00:01,000 --> 00:00:02,000 X1:0 X2:100\nplaced\n"
        assert parse_subtitle(content, "srt") == "placed"

    def test_missing_arrow_reports_block_start_line(self):
        content = "Hello\n\n1\njust text\nmore\n"
        with pytest.raises(SubtitleParseError) as exc:
            parse_subtitle(content, "srt")
        assert exc.value.line == 1
        assert "-->" in str(exc.value)

    def test_malformed_timing_reports_its_own_line(self):
        content = (
            "1\n"
            "00:00:01,000 --> 00:00:02,000\n"
            "fine\n"
            "\n"
            "2\n"
            "00:07 --> later\n"
            "broken\n"
        )
        with pytest.raises(SubtitleParseError) as exc:
            parse_subtitle(content, "srt")
        assert exc.value.line == 6
        assert str(exc.value).startswith("line 6:")
        assert "malformed cue timing" in str(exc.value)

    # A form feed is a character of its line, as in every other reader: it
    # shifts no line number and parts no block.
    @pytest.mark.parametrize(
        "timing, line, error",
        [
            ("no arrow here", 5, "expected a cue timing line containing '-->'"),
            ("00:07 --> later", 6, "malformed cue timing line: '00:07 --> later'"),
        ],
        ids=["missing-arrow", "malformed"],
    )
    def test_form_feed_in_a_cue_keeps_later_line_numbers(self, timing, line, error):
        content = (
            "1\n00:00:01,000 --> 00:00:02,000\nHello\fthere\n\n"
            f"2\n{timing}\nBye\n"
        )
        with pytest.raises(SubtitleParseError) as exc:
            parse_subtitle(content, "srt")
        assert exc.value.line == line
        assert str(exc.value) == f"line {line}: {error}"

    def test_form_feeds_inside_a_cue_are_whitespace(self):
        content = (
            "1\n00:00:01,000 --> 00:00:02,000\nHello\f\fworld\n\n"
            "2\n00:00:02,000 --> 00:00:03,000\nBye\n"
        )
        assert parse_subtitle(content, "srt") == "Hello world Bye"

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_crlf_and_cr_text_parses_like_lf(self, end):
        cases = [
            (SRT_TWO_CUES, "srt"),
            (SRT_TWO_CUES.replace("00:00:02,000 -->", "00:07 -->"), "srt"),
            (VTT_ONE_CUE, "webvtt"),
            ('[\n{"content": "a"},\n{"content": }]', "json_captions"),
        ]
        for content, fmt in cases:
            expected = _outcome(parse_subtitle, content, fmt)
            assert _outcome(parse_subtitle, content.replace("\n", end), fmt) == expected
        assert expected == (3, "line 3: invalid JSON: Expecting value")


class TestWebvtt:
    def test_single_cue(self):
        assert parse_subtitle(VTT_ONE_CUE, "webvtt") == "Hi"

    def test_header_with_trailing_text_is_skipped(self):
        content = "WEBVTT - talk captions\n\n00:01.000 --> 00:02.000\nok\n"
        assert parse_subtitle(content, "webvtt") == "ok"

    def test_note_and_style_blocks_are_skipped(self):
        content = (
            "WEBVTT\n\n"
            "NOTE internal remark\nspanning lines\n\n"
            "STYLE\n::cue { color: red }\n\n"
            "00:01.000 --> 00:02.000\nspoken\n"
        )
        assert parse_subtitle(content, "webvtt") == "spoken"

    def test_cue_identifier_line_is_allowed(self):
        content = "WEBVTT\n\nintro-cue\n00:01.000 --> 00:02.000\nnamed\n"
        assert parse_subtitle(content, "webvtt") == "named"

    def test_hours_are_optional_in_timings(self):
        content = "WEBVTT\n\n01:02:03.000 --> 01:02:04.000\nlong talk\n"
        assert parse_subtitle(content, "webvtt") == "long talk"

    def test_voice_tags_are_stripped(self):
        content = "WEBVTT\n\n00:01.000 --> 00:02.000\n<v Anna>Hello</v>\n"
        assert parse_subtitle(content, "webvtt") == "Hello"


class TestJsonCaptions:
    def test_object_with_captions_list(self):
        doc = {"captions": [{"content": "Hello", "start": 0}, {"content": "world"}]}
        assert parse_subtitle(json.dumps(doc), "json_captions") == "Hello world"

    def test_object_with_cues_list_and_text_field(self):
        doc = {"cues": [{"text": "Hi"}]}
        assert parse_subtitle(json.dumps(doc), "json_captions") == "Hi"

    def test_bare_list_form(self):
        doc = [{"content": "a"}, {"content": "b"}]
        assert parse_subtitle(json.dumps(doc), "json_captions") == "a b"

    def test_markup_and_newlines_cleaned(self):
        doc = [{"content": "<i>two</i>\nlines"}]
        assert parse_subtitle(json.dumps(doc), "json_captions") == "two lines"

    def test_invalid_json_reports_line(self):
        with pytest.raises(SubtitleParseError) as exc:
            parse_subtitle('{"captions": [\n  {"content": }\n]}', "json_captions")
        assert exc.value.line == 2

    @pytest.mark.parametrize(
        "content",
        ["[" * 200_000, '[{"text": ' + "9" * 5000 + "}]"],
        ids=["deep-nesting", "huge-integer"],
    )
    def test_json_past_the_decoder_limits_is_a_parse_error(self, content):
        with pytest.raises(SubtitleParseError, match="invalid JSON") as exc:
            parse_subtitle(content, "json_captions")
        assert exc.value.line == 1

    def test_missing_container_key(self):
        with pytest.raises(SubtitleParseError, match="'captions' or 'cues'"):
            parse_subtitle('{"other": []}', "json_captions")

    def test_container_not_a_list(self):
        with pytest.raises(SubtitleParseError, match="not a list"):
            parse_subtitle('{"captions": {"content": "x"}}', "json_captions")

    def test_cue_not_an_object(self):
        with pytest.raises(SubtitleParseError, match="cue #1 is not an object"):
            parse_subtitle('[{"content": "ok"}, "loose"]', "json_captions")

    def test_cue_without_text_field(self):
        with pytest.raises(SubtitleParseError, match="cue #0 lacks"):
            parse_subtitle('[{"start": 0}]', "json_captions")

    def test_lone_surrogate_escape_is_a_parse_error(self):
        content = '[{"content": "ok"},\n {"content": "abc\\ud800"}]'
        with pytest.raises(SubtitleParseError) as exc:
            parse_subtitle(content, "json_captions")
        assert str(exc.value) == "cue #1 text holds lone surrogate U+D800"
        assert exc.value.line is None

    def test_escaped_surrogate_pair_is_one_scalar(self):
        content = '[{"content": "hi \\ud83d\\ude00"}]'
        assert parse_subtitle(content, "json_captions") == "hi \U0001f600"

    def test_cue_text_not_a_string(self):
        with pytest.raises(SubtitleParseError, match="not a string"):
            parse_subtitle('[{"content": 5}]', "json_captions")

    # A decoded cue keeps no source line, so these errors name no line,
    # wherever the cue or container stands.
    @pytest.mark.parametrize(
        "content, problem",
        [
            ('[{"content": "ok"},\n {"content": 5}]', "cue #1 text is not a string"),
            ('[{"content": "ok"},\n\n "loose"]', "cue #1 is not an object"),
            ('[\n{"content": "ok"},\n{"start": 0}]',
             "cue #1 lacks a 'content' or 'text' field"),
            ('\n\n{"captions": {"content": "x"}}', "caption container is not a list"),
            ('\n{"other": []}', "JSON captions need a top-level 'captions' or 'cues' list"),
        ],
        ids=["not-a-string", "not-an-object", "no-text-field", "container", "no-key"],
    )
    def test_cue_errors_name_no_line(self, content, problem):
        with pytest.raises(SubtitleParseError) as exc:
            parse_subtitle(content, "json_captions")
        assert (exc.value.line, str(exc.value)) == (None, problem)


def test_unknown_format_is_a_usage_error():
    with pytest.raises(UsageError) as exc:
        parse_subtitle("x", "ass")
    for fmt in SUBTITLE_FORMATS:
        assert fmt in str(exc.value)


_REFERENCE_TAG_RE = re.compile(r"<[^>]*>")
_REFERENCE_WS_RE = re.compile(r"\s+")
_SURROGATE_RE = re.compile("[\ud800-\udfff]")


def _reference_clean(lines):
    """The regex cleaning the string-level cue cleaning must agree with."""
    text = _REFERENCE_TAG_RE.sub("", " ".join(lines))
    return _REFERENCE_WS_RE.sub(" ", text).strip()


def test_regex_whitespace_is_exactly_str_whitespace():
    # Cue cleaning collapses whitespace with str.split(); this is why it
    # matches a collapse on re's \s.
    scalars = [chr(cp) for cp in range(sys.maxunicode + 1)]
    regex_ws = "".join(filter(_REFERENCE_WS_RE.match, scalars))
    assert regex_ws == "".join(filter(str.isspace, scalars)) == WHITESPACE


@given(st.lists(MIXED_TEXT, max_size=5))
def test_cue_cleaning_matches_the_regex_reference(texts):
    content = json.dumps([{"text": text} for text in texts])
    # Decoding joins escaped surrogate pairs, so clean what the parser sees.
    decoded = [cue["text"] for cue in json.loads(content)]
    # A surrogate left outside markup after decoding cannot be written as
    # UTF-8, so its cue is a parse error.
    lone = [
        index for index, text in enumerate(decoded)
        if _SURROGATE_RE.search(_REFERENCE_TAG_RE.sub("", text))
    ]
    if lone:
        with pytest.raises(SubtitleParseError, match=rf"cue #{lone[0]} text holds lone"):
            parse_subtitle(content, "json_captions")
        # Still compare the cleaning, on the same cues without those surrogates.
        decoded = [_SURROGATE_RE.sub("", text) for text in decoded]
        content = json.dumps([{"text": text} for text in decoded])
    cleaned = (_reference_clean(text.splitlines() or [""]) for text in decoded)
    expected = " ".join(text for text in cleaned if text)
    assert parse_subtitle(content, "json_captions") == expected


# The block parser as it was when it walked the file line by line and
# cleaned each cue on its own (with the regex cleaning above); the
# whole-text parser must agree with it on every transcript and on every
# error's line and text. Only LF, CRLF and a lone CR end a line: any other
# separator in LINE_ENDS is a character inside its line.
def _reference_iter_blocks(content):
    block = []
    start = 0
    for lineno, line in enumerate(re.split(r"\r\n|\r|\n", content), start=1):
        if line.strip():
            if not block:
                start = lineno
            block.append(line)
        elif block:
            yield start, block
            block = []
    if block:
        yield start, block


def _reference_block_transcript(content, webvtt):
    cues = []
    first_block = True
    for start, lines in _reference_iter_blocks(content):
        if webvtt and first_block and lines[0].lstrip().upper().startswith("WEBVTT"):
            first_block = False
            continue
        first_block = False
        if webvtt and lines[0].strip().upper().startswith(("NOTE", "STYLE", "REGION")):
            continue
        timing_index = None
        for i in (0, 1):
            if i < len(lines) and "-->" in lines[i]:
                timing_index = i
                break
        if timing_index is None:
            raise SubtitleParseError(
                "expected a cue timing line containing '-->'", line=start
            )
        timing_line = lines[timing_index]
        if not _TIMING_RE.match(timing_line):
            raise SubtitleParseError(
                f"malformed cue timing line: {timing_line.strip()!r}",
                line=start + timing_index,
            )
        text = _reference_clean(lines[timing_index + 1 :])
        if text:
            cues.append(text)
    return " ".join(cues)


LINE_ENDS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029")
# Lines that are blank to str.strip() without being empty.
BLANK_LINES = ("", " ", "\t", "\x1f", "\u3000", " \u3000\x1f ")
VALID_TIMINGS = (
    "00:00:01,000 --> 00:00:02,500",
    "00:01.000 --> 00:02.000",
    "01:02:03.000 --> 01:02:04.000",
    " 00:00:01,000-->00:00:02,000 ",
    "00:00:01,000 --> 00:00:02,000 X1:0 X2:100",
    "00:01.000 --> 00:02.000 align:start line:0%",
    "00:01.000 --> 00:02.000 \x1f",
    "٠٠:٠١.٥٠٠ --> ٠٠:٠٢.٠٠٠",  # Arabic-Indic digits are \d too
    "00:0１.000 --> 00:02.000",  # and so are fullwidth ones
)
MALFORMED_TIMINGS = ("00:07 --> later", "1:2:3.4 --> 5:6.7", "-->", "12 --> 13")
VTT_SKIP_WORDS = (
    "NOTE", "note", "Note", "STYLE", "style", "REGION", "Region",
    "ſtyle",  # long s: upper() is "STYLE"
    "ﬆyle",  # st ligature: upper() is "STYLE"
    "regıon",  # dotless i: upper() is "REGION"
    "regİon",  # dotted capital I: upper() keeps it
    "ßTYLE",  # sharp s: upper() is "SSTYLE"
    "NOTES", " NOTE", "\tregion", "\u3000STYLE",
)
HEADERS = ("WEBVTT", "WEBVTT - talk", "webvtt", " WEBVTT", "WEBVTTX", "ﬆWEBVTT")
TAG_PIECES = ("<i", "i>", "<v Anna", "Anna>", "</i>", "<", ">", "<b>x</b>", "a<b", "c>d")


def _mostly(common, rare, times=4):
    """`common` about `times` times as often as `rare`."""
    return st.integers(0, times).flatmap(lambda n: rare if n == 0 else common)


_TEXT = MIXED_TEXT | st.sampled_from(TAG_PIECES)
# One display line: free of line breaks, so cues keep their shape.
_LINE = _TEXT.map(lambda text: "".join(text.splitlines()))
_PAYLOAD_LINE = _LINE.map(lambda line: line if line.strip() else line + "x")
_ID_LINE = st.sampled_from(("1", "12", "intro-cue", "a --> b", "")) | _LINE
_TIMING = _mostly(
    st.sampled_from(VALID_TIMINGS), st.sampled_from(MALFORMED_TIMINGS) | _LINE
)
_CUE = st.tuples(
    st.lists(_ID_LINE, max_size=1),
    _TIMING,
    st.lists(_mostly(_PAYLOAD_LINE, _TEXT), max_size=3),
).map(lambda cue: [*cue[0], cue[1], *cue[2]])
_SKIPPED = st.tuples(
    st.sampled_from(VTT_SKIP_WORDS), _LINE, st.lists(_PAYLOAD_LINE, max_size=2)
).map(lambda block: [block[0] + block[1], *block[2]])
_HEADER = st.sampled_from(HEADERS).map(lambda header: [header])
_FREE = st.lists(_LINE, min_size=1, max_size=3)
_SEPARATOR = st.lists(st.sampled_from(BLANK_LINES), min_size=1, max_size=3)


@st.composite
def caption_text(draw, webvtt=True):
    """Caption-shaped text: blocks of lines parted by blank lines, with every
    kind of line end. Most blocks are cues; the other blocks (headers,
    NOTE/STYLE/REGION blocks, free text) are rarer in SRT, where they are
    errors."""
    others = st.one_of(_SKIPPED, _HEADER, _FREE)
    blocks = draw(st.lists(_mostly(_CUE, others, 3 if webvtt else 8), max_size=6))
    if webvtt and draw(st.booleans()):
        blocks.insert(0, draw(_HEADER))
    lines = list(draw(_SEPARATOR)) if draw(st.booleans()) else []
    for index, block in enumerate(blocks):
        if index:
            lines.extend(draw(_SEPARATOR))
        lines.extend(block)
    ends = draw(st.lists(st.sampled_from(LINE_ENDS), min_size=1, max_size=3))
    content = "".join(
        line + ends[index % len(ends)] for index, line in enumerate(lines)
    )
    return content if draw(st.booleans()) else content.rstrip("".join(LINE_ENDS))


def _outcome(parse, *args):
    try:
        return parse(*args)
    except SubtitleParseError as exc:
        return exc.line, str(exc)


@pytest.mark.parametrize("format", ["srt", "webvtt"])
@given(data=st.data())
def test_block_parser_matches_the_line_walk_reference(format, data):
    content = data.draw(caption_text(format == "webvtt"), label="content")
    expected = _outcome(_reference_block_transcript, content, format == "webvtt")
    assert _outcome(parse_subtitle, content, format) == expected


@pytest.mark.parametrize("format", ["srt", "webvtt"])
@pytest.mark.parametrize(
    "content",
    [
        # An unclosed tag in one cue must not reach a '>' in the next.
        "1\n00:00:01,000 --> 00:00:02,000\nx <i\n\n"
        "2\n00:00:03,000 --> 00:00:04,000\ny> z\n",
        "1\n00:00:01,000 --> 00:00:02,000\na <i\nb> c\n\n"
        "2\n00:00:03,000 --> 00:00:04,000\n<d\n",
        "00:01.000 --> 00:02.000\nok\n\nintro\n00:07 --> later\n",
        "WEBVTT\n\nſTYLE\nx\n\nregıon\n\nNOTE --> \n\n"
        "00:01.000 --> 00:02.000\n<x\n\n\nWEBVTT\n",
        "1\r\n00:00:01,000 --> 00:00:02,000\r\nA\x0b\x1f\n　\r\n2 x ok --> \x85",
        "WEBVTT\n\n\n\n00:01.000 --> 00:02.000\nA\n\n\n\n\nB\n",
        "WEBVTT\n\n NOTE x\n\n00:01.000 --> 00:02.000\nok\n",
    ],
)
def test_block_parser_matches_the_line_walk_reference_on_known_cases(format, content):
    expected = _outcome(_reference_block_transcript, content, format == "webvtt")
    assert _outcome(parse_subtitle, content, format) == expected


@pytest.mark.parametrize("format", SUBTITLE_FORMATS)
@given(content=st.text() | caption_text() | MIXED_TEXT)
def test_parse_subtitle_raises_only_parse_errors(format, content):
    try:
        parse_subtitle(content, format)
    except SubtitleParseError:
        pass
