"""Errors raised across the toolkit.

UsageError means the caller asked for something unsupported; DataError means
input data broke its declared schema. The CLI maps the two to distinct exit
codes. An error holds its problem and, as data, the input `path` and 1-based
`line` it names, if known; a loader sets `path` on an error raised below it.
Only `LingspaceError.__str__` renders them, as in `path:line: problem`.
"""


class LingspaceError(Exception):
    """Base class for all package errors."""

    def __init__(self, problem: str, path: object = None, line: int | None = None):
        super().__init__(problem)
        self.problem, self.path, self.line = problem, path, line

    def __str__(self) -> str:
        if self.line is None:
            return self.problem if self.path is None else f"{self.path}: {self.problem}"
        where = f"line {self.line}" if self.path is None else f"{self.path}:{self.line}"
        return f"{where}: {self.problem}"


class UsageError(LingspaceError):
    """Invalid request: bad arguments, unknown names, unsupported options."""


class DataError(LingspaceError):
    """Input data violates its schema or an alignment invariant."""


class SubtitleParseError(DataError):
    """Malformed caption content, at its source line when it has one."""


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
