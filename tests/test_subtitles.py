"""Caption parsing across the three supported formats."""

import json
import re
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lingspace.errors import SubtitleParseError, UsageError
from lingspace.subtitles import SUBTITLE_FORMATS, parse_subtitle
from textgen import MIXED_TEXT, WHITESPACE

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
        assert exc.value.line_number == 1
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
        assert exc.value.line_number == 6
        assert str(exc.value).startswith("line 6:")
        assert "malformed cue timing" in str(exc.value)


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
        assert exc.value.line_number == 2

    @pytest.mark.parametrize(
        "content",
        ["[" * 200_000, '[{"text": ' + "9" * 5000 + "}]"],
        ids=["deep-nesting", "huge-integer"],
    )
    def test_json_past_the_decoder_limits_is_a_parse_error(self, content):
        with pytest.raises(SubtitleParseError, match="invalid JSON") as exc:
            parse_subtitle(content, "json_captions")
        assert exc.value.line_number == 1

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

    def test_cue_text_not_a_string(self):
        with pytest.raises(SubtitleParseError, match="not a string"):
            parse_subtitle('[{"content": 5}]', "json_captions")


def test_unknown_format_is_a_usage_error():
    with pytest.raises(UsageError) as exc:
        parse_subtitle("x", "ass")
    for fmt in SUBTITLE_FORMATS:
        assert fmt in str(exc.value)


_REFERENCE_TAG_RE = re.compile(r"<[^>]*>")
_REFERENCE_WS_RE = re.compile(r"\s+")


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
    cleaned = (_reference_clean(text.splitlines() or [""]) for text in decoded)
    expected = " ".join(text for text in cleaned if text)
    assert parse_subtitle(content, "json_captions") == expected
