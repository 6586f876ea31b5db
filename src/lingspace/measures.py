"""Space measurement: how many units a text occupies under several schemes.

"Characters" are Unicode scalar values of the NFC form; UTF-8 bytes are the
byte length of that form. GBK units follow the common microblog accounting:
1 per ASCII scalar, 2 per any other scalar, whether or not the two-byte code
page can encode it. GSM-7 septets follow the SMS default alphabet. URL
stripping and script-based language detection live here too because length
statistics depend on both.
"""

from __future__ import annotations

import re
import unicodedata
from enum import Enum

from . import gsm7
from .errors import UsageError
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


def nfc(text: str) -> str:
    """Canonically composed form; all counting happens on this."""
    return unicodedata.normalize("NFC", text)


def gbk_unit_length(text: str) -> int:
    """Units under the 1-per-ASCII / 2-per-other accounting."""
    return 2 * len(text) - len(text.encode("ascii", "ignore"))


# The members bound once: on CPython 3.11 each SpaceMeasure.X lookup costs
# about 0.1 us, a large share of counting a short text. count_units tests
# the measures the check and talk paths use first.
_CHARACTERS = SpaceMeasure.CHARACTERS
_UTF8_BYTES = SpaceMeasure.UTF8_BYTES
_GBK_UNITS = SpaceMeasure.GBK_UNITS
_GSM7_SEPTETS = SpaceMeasure.GSM7_SEPTETS


def count_units(text: str, measure: SpaceMeasure) -> int:
    """Measure the space a text occupies; the text is NFC-normalized first."""
    normalized = nfc(text)
    if measure is _CHARACTERS:
        return len(normalized)
    if measure is _GBK_UNITS:
        return gbk_unit_length(normalized)
    if measure is _UTF8_BYTES:
        return len(normalized.encode("utf-8"))
    if measure is _GSM7_SEPTETS:
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
# Compiling this class takes 4 to 8 ms on CPython 3.11 (re's charset
# optimiser walks some 28k code points), more than the rest of this module's
# import, and only script routing of multi-language accounts needs it:
# detect_language compiles it on first use through re's own pattern cache.
_HAN = r"[㐀-䶿一-鿿豈-﫿\U00020000-\U0002ebef]"
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
    if re.search(_HAN, normalized):
        return CMN_HANS
    # No Latin letter is whitespace, so the Latin letters of the whole text
    # are those among its non-space scalars.
    scalars = len(normalized) - sum(map(str.isspace, normalized))
    if not scalars:
        return None
    if len(_LATIN_RE.findall(normalized)) * 2 >= scalars:
        return ENG
    return None
