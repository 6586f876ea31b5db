"""Space measures, URL handling, and script-based language detection."""

import re
import unicodedata

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lingspace import gsm7
from lingspace.errors import GsmNotRepresentableError
from lingspace.measures import (
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


def measure(text, kind):
    return count_units(text, kind)


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
    """Scalars the GBK code page cannot encode still cost 2 units."""

    def test_emoji_counts_as_two_by_default(self):
        assert gbk_unit_length("\U0001f600") == 2

    @pytest.mark.deep
    @given(st.one_of(MIXED_TEXT, st.text(st.characters(max_codepoint=0x7F))))
    @example("\x7f")  # the last ASCII scalar
    @example("\x60")
    @example("")
    def test_matches_the_per_scalar_reference(self, text):
        assert gbk_unit_length(text) == _reference_gbk_unit_length(text)


def _reference_count_units(text, measure):
    """count_units written on unicodedata.normalize, one branch per measure."""
    normalized = unicodedata.normalize("NFC", text)
    if measure is SpaceMeasure.CHARACTERS:
        return len(normalized)
    if measure is SpaceMeasure.UTF8_BYTES:
        return len(normalized.encode("utf-8"))
    if measure is SpaceMeasure.GBK_UNITS:
        return _reference_gbk_unit_length(normalized)
    assert measure is SpaceMeasure.GSM7_SEPTETS
    septets = 0
    for ch in normalized:
        if ch not in gsm7.GSM_SET:
            raise GsmNotRepresentableError(ch)
        septets += 2 if ch in gsm7.GSM7_EXTENSION else 1
    return septets


def _outcome(fn, *args):
    """The value of fn(*args), or the type of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


@pytest.mark.deep
class TestCountUnitsReference:
    @pytest.mark.parametrize("kind", list(SpaceMeasure))
    @given(text=MIXED_TEXT)
    @example(text="e\u0301\ud800")
    def test_count_units_matches_the_reference(self, kind, text):
        expected = _outcome(_reference_count_units, text, kind)
        assert _outcome(count_units, text, kind) == expected


def _reference_gbk_unit_length(text):
    """The per-scalar loop the string-level implementation must agree with:
    1 per ASCII scalar, 2 per any other, encodable in GBK or not."""
    units = 0
    for ch in text:
        units += 1 if ord(ch) < 128 else 2
    return units


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


# Each end of each Han range, and the scalar just outside it.
_HAN_EDGES = (
    "\u33ff\u3400\u4dbf\u4dc0\u4dff\u4e00\u9fff\ua000"
    "\uf8ff\uf900\ufaff\ufb00\U0001ffff\U00020000\U0002ebef\U0002ebf0"
)

# detect_language as it was with every class compiled at import, the Han
# class written with escapes.
_REF_KANA = re.compile("[\u3040-\u30ff\u31f0-\u31ff\uff66-\uff9f]")
_REF_HAN = re.compile("[\u3400-\u4dbf\u4e00-\u9fff\uf900-\ufaff\U00020000-\U0002ebef]")
_REF_LATIN = re.compile("[A-Za-z\u00c0-\u00d6\u00d8-\u00f6\u00f8-\u024f]")


def _reference_detect_language(text):
    normalized = unicodedata.normalize("NFC", text)
    if _REF_KANA.search(normalized):
        return "jpn"
    if _REF_HAN.search(normalized):
        return "cmn_hans"
    scalars = [ch for ch in normalized if not ch.isspace()]
    if not scalars:
        return None
    latin = sum(1 for ch in scalars if _REF_LATIN.match(ch))
    return "eng" if latin * 2 >= len(scalars) else None


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

    @pytest.mark.parametrize(
        "han", ["\u3400", "\u9fff", "\uf900", "\U00020000", "\U0002ebef"]
    )
    def test_han_class_edges_inside(self, han):
        assert detect_language(han) == "cmn_hans"
        assert detect_language("abc" + han) == "cmn_hans"

    @pytest.mark.parametrize("scalar", ["\u33ff", "\U0002ebf0"])
    def test_han_class_edges_outside(self, scalar):
        assert detect_language(scalar) is None
        assert detect_language("abc" + scalar) == "eng"

    @pytest.mark.deep
    @given(st.one_of(MIXED_TEXT, st.text(), st.text(alphabet=_HAN_EDGES + "ab1 ")))
    @example("\u3000")
    @example("\x85")
    # Each end of each Latin range, and the scalar just outside it.
    @example("À")
    @example("Ö")
    @example("×")
    @example("Ø")
    @example("ö")
    @example("÷")
    @example("ø")
    @example("ɏ")
    @example("ɐ")
    @example("×a")
    @example("÷ɐ")
    # Exactly half Latin, with and without whitespace around.
    @example("ab12")
    @example("À1")
    @example(" ɏ\u30009 ")
    @example("a\x85b\u200012")
    def test_matches_the_eagerly_compiled_reference(self, text):
        assert detect_language(text) == _reference_detect_language(text)


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
