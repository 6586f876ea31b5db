"""Platform length limits: flat character caps, encoded-unit caps, and
single-SMS capacity with automatic GSM-7/UCS-2 selection."""

from __future__ import annotations

from dataclasses import dataclass

from . import gsm7
from .errors import UsageError
from .measures import SpaceMeasure, count_units, nfc

GSM7_CAPACITY = 160
UCS2_CAPACITY = 70


@dataclass(frozen=True)
class CharLimit:
    """Flat cap on NFC scalar count (the classic microblog rule)."""

    max_chars: int

    def __post_init__(self) -> None:
        if self.max_chars <= 0:
            raise UsageError("max_chars must be positive")


@dataclass(frozen=True)
class EncodedUnitLimit:
    """Cap on encoded units: 1 per ASCII scalar, 2 per anything else."""

    max_units: int

    def __post_init__(self) -> None:
        if self.max_units <= 0:
            raise UsageError("max_units must be positive")


@dataclass(frozen=True)
class SingleSms:
    """One SMS message: 160 septets when the text stays inside the GSM
    alphabet, otherwise 70 UCS-2 characters."""


LimitRule = CharLimit | EncodedUnitLimit | SingleSms


@dataclass(frozen=True)
class LimitSpec:
    name: str
    rule: LimitRule


TWITTER = LimitSpec("twitter", CharLimit(140))
WEIBO = LimitSpec("weibo", EncodedUnitLimit(280))
SMS = LimitSpec("sms", SingleSms())

PRESETS = {spec.name: spec for spec in (TWITTER, WEIBO, SMS)}


@dataclass(frozen=True)
class FitResult:
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
    rule = limit.rule
    if isinstance(rule, CharLimit):
        used = count_units(text, SpaceMeasure.CHARACTERS)
        return FitResult(used <= rule.max_chars, used, rule.max_chars, "chars")
    if isinstance(rule, EncodedUnitLimit):
        used = count_units(text, SpaceMeasure.GBK_UNITS)
        return FitResult(used <= rule.max_units, used, rule.max_units, "gbk_units")
    if isinstance(rule, SingleSms):
        normalized = nfc(text)
        if gsm7.is_gsm_text(normalized):
            used = gsm7.septet_length(normalized)
            return FitResult(
                used <= GSM7_CAPACITY, used, GSM7_CAPACITY, "gsm7_septets", "gsm7"
            )
        used = len(normalized)
        return FitResult(
            used <= UCS2_CAPACITY, used, UCS2_CAPACITY, "ucs2_chars", "ucs2"
        )
    raise UsageError(f"unknown limit rule {rule!r}")
