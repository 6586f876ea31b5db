"""Platform length limits: flat character caps, encoded-unit caps, and
single-SMS capacity with automatic GSM-7/UCS-2 selection."""

from __future__ import annotations

from typing import NamedTuple

from . import gsm7
from .errors import UsageError
from .measures import SpaceMeasure, count_units, nfc

GSM7_CAPACITY = 160
UCS2_CAPACITY = 70


class _Value:
    """A frozen-dataclass-like value with `__slots__`, without `dataclasses`."""

    __slots__ = ()

    def _values(self) -> tuple[object, ...]:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple[type, tuple[object, ...]]:
        return type(self), self._values()  # copy and pickle without __setattr__

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class CharLimit(_Value):
    """Flat cap on NFC scalar count (the classic microblog rule)."""

    __slots__ = __match_args__ = ("max_chars",)

    def __init__(self, max_chars: int) -> None:
        if max_chars <= 0:
            raise UsageError("max_chars must be positive")
        object.__setattr__(self, "max_chars", max_chars)


class EncodedUnitLimit(_Value):
    """Cap on encoded units: 1 per ASCII scalar, 2 per anything else."""

    __slots__ = __match_args__ = ("max_units",)

    def __init__(self, max_units: int) -> None:
        if max_units <= 0:
            raise UsageError("max_units must be positive")
        object.__setattr__(self, "max_units", max_units)


class SingleSms(_Value):
    """One SMS message: 160 septets when the text stays inside the GSM
    alphabet, otherwise 70 UCS-2 characters."""

    __slots__ = ()


LimitRule = CharLimit | EncodedUnitLimit | SingleSms


class LimitSpec(_Value):
    __slots__ = __match_args__ = ("name", "rule")

    def __init__(self, name: str, rule: LimitRule) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "rule", rule)


TWITTER = LimitSpec("twitter", CharLimit(140))
WEIBO = LimitSpec("weibo", EncodedUnitLimit(280))
SMS = LimitSpec("sms", SingleSms())

PRESETS = {spec.name: spec for spec in (TWITTER, WEIBO, SMS)}

# Bound once, as in measures: an enum member lookup costs about 0.1 us.
_CHARACTERS = SpaceMeasure.CHARACTERS
_GBK_UNITS = SpaceMeasure.GBK_UNITS


class FitResult(NamedTuple):
    fits: bool
    units_used: int
    units_max: int
    unit_kind: str
    encoding_chosen: str | None = None


def check_fit(text: str, limit: LimitSpec) -> FitResult:
    """Verdict for a text against a platform limit.

    SMS picks GSM-7 when every character is representable there and UCS-2
    otherwise; encoding_chosen is set only for SMS.
    """
    # tuple.__new__: the C call that FitResult's generated __new__ wraps, without its frame.
    rule = limit.rule
    if isinstance(rule, CharLimit):
        used = count_units(text, _CHARACTERS)
        return tuple.__new__(
            FitResult, (used <= rule.max_chars, used, rule.max_chars, "chars", None)
        )
    if isinstance(rule, EncodedUnitLimit):
        used = count_units(text, _GBK_UNITS)
        return tuple.__new__(
            FitResult, (used <= rule.max_units, used, rule.max_units, "gbk_units", None)
        )
    if isinstance(rule, SingleSms):
        normalized = nfc(text)
        if gsm7.is_gsm_text(normalized):
            used = gsm7.septet_length(normalized)
            return tuple.__new__(
                FitResult, (used <= GSM7_CAPACITY, used, GSM7_CAPACITY, "gsm7_septets", "gsm7")
            )
        used = len(normalized)
        return tuple.__new__(
            FitResult, (used <= UCS2_CAPACITY, used, UCS2_CAPACITY, "ucs2_chars", "ucs2")
        )
    raise UsageError(f"unknown limit rule {rule!r}")
