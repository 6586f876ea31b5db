"""Space measures, URL handling, and script-based language detection."""

import unicodedata

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lingspace.errors import GbkEncodingError, GsmNotRepresentableError
from lingspace.measures import (
    GbkFallback,
    SpaceMeasure,
    count_units,
    count_urls,
    detect_language,
    gbk_unit_length,
    nfc,
    strip_urls,
)
from textgen import MIXED_TEXT

# Plain text (no URL-looking substrings) for the strip_urls properties.
_plain = st.text().filter(lambda t: "http" not in t.lower())


def measure(text, kind, fallback=GbkFallback.COUNT_AS_2):
    return count_units(text, kind, fallback)


class TestCounting:
    def test_ascii_characters(self):
        assert measure("hello", SpaceMeasure.CHARACTERS) == 5

    def test_cjk_utf8_bytes(self):
        assert measure("日本語", SpaceMeasure.UTF8_BYTES) == 9

    def test_mixed_gbk_units(self):
        assert measure("a中b", SpaceMeasure.GBK_UNITS) == 4

    def test_decomposed_accent_counts_composed(self):
        decomposed = "héllo"
        assert len(decomposed) == 6
        assert measure(decomposed, SpaceMeasure.CHARACTERS) == 5

    def test_gsm7_extension_chars(self):
        assert measure("{}", SpaceMeasure.GSM7_SEPTETS) == 4

    def test_empty_text_measures_zero(self):
        for kind in SpaceMeasure:
            assert measure("", kind) == 0

    def test_gsm7_propagates_not_representable(self):
        with pytest.raises(GsmNotRepresentableError):
            measure("あ", SpaceMeasure.GSM7_SEPTETS)


class TestGbkFallback:
    def test_emoji_counts_as_two_by_default(self):
        assert gbk_unit_length("\U0001f600") == 2

    def test_reject_policy_raises_naming_the_scalar(self):
        with pytest.raises(GbkEncodingError) as exc:
            gbk_unit_length("ok\U0001f600", GbkFallback.REJECT)
        assert exc.value.char == "\U0001f600"
        assert "U+1F600" in str(exc.value)

    def test_encodable_cjk_passes_under_reject(self):
        assert gbk_unit_length("中文", GbkFallback.REJECT) == 4

    @given(MIXED_TEXT, st.sampled_from(list(GbkFallback)))
    def test_matches_the_per_scalar_reference(self, text, fallback):
        assert _gbk_outcome(gbk_unit_length, text, fallback) == _gbk_outcome(
            _reference_gbk_unit_length, text, fallback
        )


def _reference_gbk_unit_length(text, fallback):
    """The per-scalar loop the string-level implementation must agree with."""
    units = 0
    for ch in text:
        if ord(ch) < 128:
            units += 1
            continue
        try:
            ch.encode("gbk")
        except UnicodeEncodeError:
            if fallback is GbkFallback.REJECT:
                raise GbkEncodingError(ch) from None
        units += 2
    return units


def _gbk_outcome(fn, text, fallback):
    try:
        return fn(text, fallback)
    except GbkEncodingError as exc:
        return ("rejected", exc.char)


class TestUrls:
    def test_strip_deletes_url_keeping_whitespace(self):
        assert strip_urls("Read http://t.co/abc now") == "Read  now"

    def test_strip_is_identity_without_urls(self):
        assert strip_urls("no links here") == "no links here"

    def test_url_only_post_becomes_empty(self):
        assert strip_urls("https://a.b/c") == ""

    def test_https_and_case_insensitive_scheme(self):
        assert strip_urls("x HTTPS://T.CO/Q y") == "x  y"

    def test_count_urls(self):
        assert count_urls("a http://x.y/1 b https://x.y/2") == 2
        assert count_urls("nothing") == 0

    @given(_plain, _plain)
    def test_stripping_removes_an_injected_url_exactly(self, left, right):
        text = left + " http://t.co/abc123 " + right
        assert strip_urls(text) == left + "  " + right

    @given(st.text())
    def test_strip_urls_is_idempotent(self, text):
        once = strip_urls(text)
        assert strip_urls(once) == once

    @given(st.text())
    def test_stripped_text_never_longer(self, text):
        assert len(strip_urls(text)) <= len(text)


class TestDetectLanguage:
    def test_kana_means_japanese(self):
        assert detect_language("これはペンです") == "jpn"

    def test_han_only_means_simplified_chinese(self):
        assert detect_language("信息内容") == "cmn_hans"

    def test_latin_means_english(self):
        assert detect_language("The quick brown fox") == "eng"

    def test_kana_wins_over_han_and_latin(self):
        assert detect_language("TED講演の字幕") == "jpn"

    def test_han_wins_over_latin(self):
        assert detect_language("see 中文 here") == "cmn_hans"

    def test_blank_is_undetermined(self):
        assert detect_language("") is None
        assert detect_language("   ") is None

    def test_digits_only_is_undetermined(self):
        assert detect_language("123 456") is None

    def test_half_latin_boundary(self):
        # Exactly half the non-space scalars are Latin letters.
        assert detect_language("ab12") == "eng"
        assert detect_language("a123") is None

    @given(st.text(), st.sampled_from("あカヽｦ"))
    def test_any_kana_anywhere_means_japanese(self, text, kana):
        assert detect_language(text + kana) == "jpn"


class TestMeasureProperties:
    @given(st.text())
    def test_characters_never_exceed_utf8_bytes(self, text):
        chars = measure(text, SpaceMeasure.CHARACTERS)
        assert chars <= measure(text, SpaceMeasure.UTF8_BYTES)

    @given(st.text(alphabet=st.characters(max_codepoint=0x7F)))
    def test_ascii_units_agree_across_measures(self, text):
        chars = measure(text, SpaceMeasure.CHARACTERS)
        assert measure(text, SpaceMeasure.UTF8_BYTES) == chars
        assert measure(text, SpaceMeasure.GBK_UNITS) == chars

    @given(st.text())
    def test_gbk_units_at_most_twice_characters(self, text):
        chars = measure(text, SpaceMeasure.CHARACTERS)
        units = measure(text, SpaceMeasure.GBK_UNITS)
        assert chars <= units <= 2 * chars

    @given(st.text())
    def test_counting_is_nfc_stable(self, text):
        for kind in (
            SpaceMeasure.CHARACTERS,
            SpaceMeasure.UTF8_BYTES,
            SpaceMeasure.GBK_UNITS,
        ):
            assert measure(nfc(text), kind) == measure(text, kind)

    @given(st.text())
    def test_nonempty_text_measures_nonzero(self, text):
        # Zero length characterizes the empty text (NFC never erases content).
        chars = measure(text, SpaceMeasure.CHARACTERS)
        assert (chars == 0) == (text == "")

    @given(st.text())
    def test_nfc_helper_matches_stdlib(self, text):
        assert nfc(text) == unicodedata.normalize("NFC", text)
