"""GSM 03.38 default alphabet tables and septet arithmetic.

Basic-table characters cost one septet; extension-table characters cost two
(an escape septet plus the character). A text containing anything else cannot
be encoded as GSM-7 at all.
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

# The longest GSM-7 prefix of a text: the match ends at the first character
# outside both tables, so a scan stops there.
_GSM_PREFIX = re.compile("[%s]*" % "".join(map(re.escape, sorted(GSM_SET))))
_EXTENSION_CHAR = re.compile("[%s]" % "".join(map(re.escape, GSM7_EXTENSION)))


def is_gsm_text(text: str) -> bool:
    """True if every character of the text is representable in GSM-7."""
    return _GSM_PREFIX.fullmatch(text) is not None


def septet_length(text: str) -> int:
    """Septets needed to encode the text.

    Raises GsmNotRepresentableError on the first character outside both
    tables.
    """
    end = _GSM_PREFIX.match(text).end()
    if end < len(text):
        raise GsmNotRepresentableError(text[end])
    return end + len(_EXTENSION_CHAR.findall(text))
