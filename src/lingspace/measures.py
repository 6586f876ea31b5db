"""Space measurement: how many units a text occupies under several schemes.

"Characters" are Unicode scalar values of the NFC form; UTF-8 bytes are the
byte length of that form. GBK units follow the common microblog accounting:
1 per ASCII scalar, 2 per any other scalar; the two-byte code page is
consulted only when unencodable scalars are to be rejected. GSM-7 septets
follow the SMS default alphabet. URL stripping and script-based language
detection live here too because length statistics depend on both.
"""

from __future__ import annotations

import re
import unicodedata
from enum import Enum

from . import gsm7
from .errors import GbkEncodingError, UsageError
from .langtags import CMN_HANS, ENG, JPN, LanguageTag


class SpaceMeasure(Enum):
    CHARACTERS = "characters"
    UTF8_BYTES = "utf8_bytes"
    GBK_UNITS = "gbk_units"
    GSM7_SEPTETS = "gsm7_septets"


MEASURES_BY_CLI_NAME = {
    "characters": SpaceMeasure.CHARACTERS,
    "utf8": SpaceMeasure.UTF8_BYTES,
    "gbk": SpaceMeasure.GBK_UNITS,
}


class GbkFallback(Enum):
    """What to do with scalars the two-byte code page cannot encode."""

    COUNT_AS_2 = "count-as-2"
    REJECT = "reject"


def nfc(text: str) -> str:
    """Canonically composed form; all counting happens on this."""
    return unicodedata.normalize("NFC", text)


def gbk_unit_length(text: str, fallback: GbkFallback = GbkFallback.COUNT_AS_2) -> int:
    """Units under the 1-per-ASCII / 2-per-other accounting.

    Every non-ASCII scalar costs 2 whether or not the code page can encode
    it. Under REJECT the code page is consulted first, and the first scalar
    it cannot encode raises GbkEncodingError.
    """
    if fallback is GbkFallback.REJECT:
        try:
            text.encode("gbk")
        except UnicodeEncodeError as exc:
            raise GbkEncodingError(text[exc.start]) from None
    return 2 * len(text) - len(text.encode("ascii", "ignore"))


def count_units(
    text: str,
    measure: SpaceMeasure,
    fallback: GbkFallback = GbkFallback.COUNT_AS_2,
) -> int:
    """Measure the space a text occupies; the text is NFC-normalized first."""
    normalized = nfc(text)
    if measure is SpaceMeasure.CHARACTERS:
        return len(normalized)
    if measure is SpaceMeasure.UTF8_BYTES:
        return len(normalized.encode("utf-8"))
    if measure is SpaceMeasure.GBK_UNITS:
        return gbk_unit_length(normalized, fallback)
    if measure is SpaceMeasure.GSM7_SEPTETS:
        return gsm7.septet_length(normalized)
    raise UsageError(f"unknown space measure {measure!r}")


URL_PATTERN = re.compile(r"https?://\S+", re.IGNORECASE)


def strip_urls(text: str) -> str:
    """Delete every scheme-prefixed URL; surrounding whitespace stays put."""
    return URL_PATTERN.sub("", text)


def count_urls(text: str) -> int:
    """Number of scheme-prefixed URLs in the text."""
    return len(URL_PATTERN.findall(text))


_KANA_RE = re.compile(r"[぀-ヿㇰ-ㇿｦ-ﾟ]")
_HAN_RE = re.compile(
    r"[㐀-䶿一-鿿豈-﫿\U00020000-\U0002ebef]"
)
_LATIN_RE = re.compile(r"[A-Za-zÀ-ÖØ-öø-ɏ]")


def detect_language(text: str) -> LanguageTag | None:
    """Coarse script-based identification; None means undetermined.

    Kana wins over everything, Han over Latin. Han-only text is reported as
    cmn_hans; telling the two Chinese orthographies apart is left to account
    metadata.
    """
    normalized = nfc(text)
    if _KANA_RE.search(normalized):
        return JPN
    if _HAN_RE.search(normalized):
        return CMN_HANS
    scalars = [ch for ch in normalized if not ch.isspace()]
    if not scalars:
        return None
    latin = sum(1 for ch in scalars if _LATIN_RE.match(ch))
    if latin * 2 >= len(scalars):
        return ENG
    return None
