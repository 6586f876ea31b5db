"""Errors raised across the toolkit.

UsageError means the caller asked for something unsupported; DataError means
input data broke its declared schema. The CLI maps the two to distinct exit
codes.
"""


class LingspaceError(Exception):
    """Base class for all package errors."""


class UsageError(LingspaceError):
    """Invalid request: bad arguments, unknown names, unsupported options."""


class DataError(LingspaceError):
    """Input data violates its schema or an alignment invariant."""


class SubtitleParseError(DataError):
    """Malformed caption content; carries the 1-based source line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class GsmNotRepresentableError(LingspaceError):
    """Text contains a character outside the GSM 03.38 tables.

    Raised by gsm7.septet_length and count_units(..., GSM7_SEPTETS).
    check_fit never sees it: it tests gsm7.is_gsm_text first and counts
    other texts in the 16-bit encoding.
    """

    def __init__(self, char: str):
        super().__init__(
            f"character {char!r} (U+{ord(char):04X}) is outside the GSM 03.38 alphabet"
        )
        self.char = char
