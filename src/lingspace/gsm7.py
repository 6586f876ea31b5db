"""GSM 03.38 default alphabet tables and septet arithmetic.

Basic-table characters cost one septet; extension-table characters cost two
(an escape septet plus the character). A text containing anything else cannot
be encoded as GSM-7 at all.

An ASCII text is checked as bytes. The ASCII characters of each table, taken
from the table itself, form a byte string, and `bytes.translate` deletes them
in one pass: what is left of the encoded text after the basic table's bytes
are deleted is its extension characters and the characters of neither table,
in text order. Other text goes through the two regex prefix scans.
"""

from __future__ import annotations

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

# The two prefix scans. A match of either ends at the first character outside
# its class, so a scan stops there: _BASIC_PREFIX at the first character that is
# not one septet, _GSM_PREFIX at the first one outside both tables.
_BASIC_PREFIX = re.compile("[%s]*" % "".join(map(re.escape, sorted(BASIC_SET))))
_GSM_PREFIX = re.compile("[%s]*" % "".join(map(re.escape, sorted(GSM_SET))))


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
    # A text of basic characters costs one scan. Otherwise the GSM-7 scan goes
    # on from the first other character, and only the text from there on can
    # hold extension characters, each of which costs a second septet.
    basic = _BASIC_PREFIX.match(text).end()
    if basic == len(text):
        return basic
    end = _GSM_PREFIX.match(text, basic).end()
    if end < len(text):
        raise GsmNotRepresentableError(text[end])
    return end + sum(map(text[basic:].count, GSM7_EXTENSION))
