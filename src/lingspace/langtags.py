"""Language tag registry.

Tags are plain strings like "eng" or "cmn_hans". The registry starts with the
four tags this toolkit ships statistics for and can be extended at runtime;
unknown tags are rejected wherever they are parsed from user input.
"""

from __future__ import annotations

import re

from .errors import UsageError

LanguageTag = str

ENG: LanguageTag = "eng"
JPN: LanguageTag = "jpn"
CMN_HANS: LanguageTag = "cmn_hans"
CMN_HANT: LanguageTag = "cmn_hant"

_TAG_RE = re.compile(r"[a-z][a-z0-9_]*")

_registry: set[str] = {ENG, JPN, CMN_HANS, CMN_HANT}


def register_language(code: str) -> LanguageTag:
    """Add a tag to the registry and return it.

    Codes are lowercase ASCII words matching [a-z][a-z0-9_]*; anything else
    is a usage error. Re-registering an existing tag is a no-op.
    """
    if not _TAG_RE.fullmatch(code):
        raise UsageError(
            f"invalid language code {code!r}: expected a lowercase ASCII word"
        )
    _registry.add(code)
    return code


def parse_language_tag(code: str) -> LanguageTag:
    """Validate a tag against the registry; unknown codes are rejected."""
    if code not in _registry:
        known = ", ".join(sorted(_registry))
        raise UsageError(f"unknown language tag {code!r} (registered: {known})")
    return code


def parse_language_list(spec: str) -> tuple[LanguageTag, ...]:
    """Parse a comma-separated tag list like "eng,jpn,cmn_hans"."""
    tags = tuple(
        parse_language_tag(part.strip()) for part in spec.split(",") if part.strip()
    )
    if not tags:
        raise UsageError("empty language list")
    if len(set(tags)) != len(tags):
        raise UsageError(f"duplicate language tags in {spec!r}")
    return tags
