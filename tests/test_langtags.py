"""Language tag registry behavior."""

import pytest

from lingspace.errors import UsageError
from lingspace.langtags import (
    CMN_HANS,
    CMN_HANT,
    ENG,
    JPN,
    parse_language_list,
    parse_language_tag,
    register_language,
)


def test_builtin_tags_are_registered():
    for tag in (ENG, JPN, CMN_HANS, CMN_HANT):
        assert parse_language_tag(tag) == tag


def test_parse_known_tag_returns_it():
    assert parse_language_tag("eng") == "eng"
    assert parse_language_tag("cmn_hant") == "cmn_hant"


def test_parse_unknown_tag_rejected_with_known_list():
    with pytest.raises(UsageError, match="unknown language tag 'tlh'") as exc:
        parse_language_tag("tlh")
    # The message enumerates the registered tags to help the caller.
    assert "eng" in str(exc.value)


def test_register_language_extends_registry():
    tag = register_language("kor")
    assert tag == "kor"
    assert parse_language_tag("kor") == "kor"


def _registered_list() -> str:
    """The registered tags as the unknown-tag error lists them."""
    with pytest.raises(UsageError) as exc:
        parse_language_tag("tlh")
    return str(exc.value)


def test_register_language_is_idempotent():
    before = _registered_list()
    register_language("eng")
    assert _registered_list() == before


@pytest.mark.parametrize("bad", ["", "EN", "zh-Hans", "9lang", "e g", "Ĉu"])
def test_register_language_rejects_malformed_codes(bad):
    with pytest.raises(UsageError, match="invalid language code"):
        register_language(bad)


def test_parse_language_list_splits_and_strips():
    assert parse_language_list("eng, jpn ,cmn_hans") == ("eng", "jpn", "cmn_hans")


def test_parse_language_list_rejects_duplicates():
    with pytest.raises(UsageError, match="duplicate"):
        parse_language_list("eng,jpn,eng")


def test_parse_language_list_rejects_empty():
    with pytest.raises(UsageError, match="empty language list"):
        parse_language_list(" , ")


def test_parse_language_list_rejects_unknown_member():
    with pytest.raises(UsageError, match="unknown language tag"):
        parse_language_list("eng,xxq")
