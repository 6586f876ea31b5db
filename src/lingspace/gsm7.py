"""GSM 03.38 default alphabet tables and septet arithmetic.

Basic-table characters cost one septet; extension-table characters cost two
(an escape septet plus the character). A text containing anything else cannot
be encoded as GSM-7 at all.

An ASCII text is checked as bytes. The ASCII characters of each table, taken
from the table itself, form a byte string, and `bytes.translate` deletes them
in one pass: what is left of the encoded text after the basic table's bytes
are deleted is its extension characters and the characters of neither table,
in text order.

Other text is counted by one C charmap encode, which gives each basic
character a byte below 128 and each extension character one of 128 or more;
whether it is GSM-7 at all is one regex scan of the whole text.
"""

from __future__ import annotations

import codecs
import re

from .errors import GsmNotRepresentableError

# Positions 0x00-0x7F of the default alphabet in code-point order, minus the
# escape at 0x1B, which is a shift marker rather than a character.
GSM7_BASIC = (
    "@£$¥èéùìòÇ\nØø\rÅåΔ_ΦΓΛΩΠΨΣΘΞÆæßÉ"
    " !\"#¤%&'()*+,-./0123456789:;<=>?"
    "¡ABCDEFGHIJKLMNOPQRSTUVWXYZÄÖÑÜ§"
    "¿abcdefghijklmnopqrstuvwxyzäöñüà"
)

# Characters reached via the escape septet.
GSM7_EXTENSION = "\f^{}\\[~]|€"

BASIC_SET = frozenset(GSM7_BASIC)
EXTENSION_SET = frozenset(GSM7_EXTENSION)
GSM_SET = BASIC_SET | EXTENSION_SET

# A match ends at the first character outside both tables, so the scan stops
# there.
_GSM_PREFIX = re.compile("[%s]*" % "".join(map(re.escape, sorted(GSM_SET))))

# The charmap: byte 0 is NUL, which is in neither table; bytes 1-127 are the
# basic characters and bytes 128-137 the extension ones; U+FFFE fills the
# rest, and charmap_build leaves it unmapped. The table must start with NUL,
# or charmap_build returns a dict, which encodes many times slower than the
# EncodingMap it returns here.
_TABLE = "\0" + GSM7_BASIC + GSM7_EXTENSION
_MAP = codecs.charmap_build(_TABLE + "\ufffe" * (256 - len(_TABLE)))
_charmap_encode = codecs.charmap_encode
_EXTENSION_BYTES = bytes(range(1 + len(GSM7_BASIC), len(_TABLE)))


def _ascii_bytes(chars: frozenset[str]) -> bytes:
    return "".join(sorted(ch for ch in chars if ch.isascii())).encode("ascii")


# The ASCII characters of each table, as the bytes to delete.
_BASIC_ASCII = _ascii_bytes(BASIC_SET)
_EXTENSION_ASCII = _ascii_bytes(EXTENSION_SET)
_GSM_ASCII = _ascii_bytes(GSM_SET)


def is_gsm_text(text: str) -> bool:
    """True if every character of the text is representable in GSM-7."""
    if text.isascii():
        return not text.encode("ascii").translate(None, _GSM_ASCII)
    return _GSM_PREFIX.fullmatch(text) is not None


def septet_length(text: str) -> int:
    """Septets needed to encode the text.

    Raises GsmNotRepresentableError on the first character outside both
    tables.
    """
    if text.isascii():
        # A byte left once the basic ones are deleted is an extension
        # character, a second septet, unless it is in neither table.
        rest = text.encode("ascii").translate(None, _BASIC_ASCII)
        other = rest.translate(None, _EXTENSION_ASCII)
        if other:
            raise GsmNotRepresentableError(chr(other[0]))
        return len(text) + len(rest)
    # One byte per character. The encode stops at the first character outside
    # the charmap, but a NUL before it is the first outside both tables.
    try:
        encoded = _charmap_encode(text, "strict", _MAP)[0]
    except UnicodeEncodeError as exc:
        nul = text.find("\0", 0, exc.start)
        raise GsmNotRepresentableError(text[exc.start if nul < 0 else nul]) from None
    if encoded.find(0) >= 0:
        raise GsmNotRepresentableError("\0")
    if encoded.isascii():
        return len(encoded)
    # Each extension byte counts twice.
    return 2 * len(encoded) - len(encoded.translate(None, _EXTENSION_BYTES))
