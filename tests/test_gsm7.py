"""GSM 03.38 alphabet tables and septet arithmetic.

The oracle below is an independent transcription of the default-alphabet
code table (position -> character), so a typo in the packaged table cannot
hide behind a copy of itself.
"""

import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lingspace import gsm7
from lingspace.errors import GsmNotRepresentableError
from textgen import MIXED_TEXT

# Default alphabet, positions 0x00-0x7F. 0x1B is the escape septet.
_ORACLE_BASIC: dict[int, str] = {
    0x00: "@", 0x01: "£", 0x02: "$", 0x03: "¥",
    0x04: "è", 0x05: "é", 0x06: "ù", 0x07: "ì",
    0x08: "ò", 0x09: "Ç", 0x0A: "\n", 0x0B: "Ø",
    0x0C: "ø", 0x0D: "\r", 0x0E: "Å", 0x0F: "å",
    0x10: "Δ", 0x11: "_", 0x12: "Φ", 0x13: "Γ",
    0x14: "Λ", 0x15: "Ω", 0x16: "Π", 0x17: "Ψ",
    0x18: "Σ", 0x19: "Θ", 0x1A: "Ξ",
    0x1C: "Æ", 0x1D: "æ", 0x1E: "ß", 0x1F: "É",
    0x20: " ", 0x21: "!", 0x22: '"', 0x23: "#", 0x24: "¤",
    0x25: "%", 0x26: "&", 0x27: "'", 0x28: "(", 0x29: ")",
    0x2A: "*", 0x2B: "+", 0x2C: ",", 0x2D: "-", 0x2E: ".", 0x2F: "/",
    0x3A: ":", 0x3B: ";", 0x3C: "<", 0x3D: "=", 0x3E: ">", 0x3F: "?",
    0x40: "¡", 0x5B: "Ä", 0x5C: "Ö", 0x5D: "Ñ",
    0x5E: "Ü", 0x5F: "§", 0x60: "¿",
    0x7B: "ä", 0x7C: "ö", 0x7D: "ñ", 0x7E: "ü",
    0x7F: "à",
}
for _i in range(10):
    _ORACLE_BASIC[0x30 + _i] = chr(ord("0") + _i)
for _i in range(26):
    _ORACLE_BASIC[0x41 + _i] = chr(ord("A") + _i)
    _ORACLE_BASIC[0x61 + _i] = chr(ord("a") + _i)

# Extension table (reached via the 0x1B escape).
_ORACLE_EXTENSION: dict[int, str] = {
    0x0A: "\f", 0x14: "^", 0x28: "{", 0x29: "}", 0x2F: "\\",
    0x3C: "[", 0x3D: "~", 0x3E: "]", 0x40: "|", 0x65: "€",
}


def test_basic_table_matches_standard_in_position_order():
    assert len(_ORACLE_BASIC) == 127
    expected = "".join(_ORACLE_BASIC[i] for i in range(0x80) if i != 0x1B)
    assert gsm7.GSM7_BASIC == expected


def test_extension_table_matches_standard():
    assert gsm7.EXTENSION_SET == frozenset(_ORACLE_EXTENSION.values())
    assert len(gsm7.GSM7_EXTENSION) == 10


def test_tables_are_disjoint():
    assert not gsm7.BASIC_SET & gsm7.EXTENSION_SET


def test_braces_cost_four_septets():
    assert gsm7.septet_length("{}") == 4


def test_basic_chars_cost_one_extension_chars_cost_two():
    for ch in _ORACLE_BASIC.values():
        assert gsm7.septet_length(ch) == 1, ch
    for ch in _ORACLE_EXTENSION.values():
        assert gsm7.septet_length(ch) == 2, ch


def test_is_gsm_text():
    assert gsm7.is_gsm_text("a")
    assert gsm7.is_gsm_text("€")
    assert not gsm7.is_gsm_text("中")
    assert gsm7.is_gsm_text("Call me at 5pm, OK?")
    assert not gsm7.is_gsm_text("ok あ")


def test_non_gsm_char_raises_and_names_the_character():
    with pytest.raises(GsmNotRepresentableError) as exc:
        gsm7.septet_length("ab中cd")
    assert exc.value.char == "中"
    assert "U+4E2D" in str(exc.value)


@given(st.text(alphabet=sorted(_ORACLE_BASIC.values())))
def test_basic_only_text_costs_one_septet_per_char(text):
    assert gsm7.septet_length(text) == len(text)


@given(
    st.text(alphabet=sorted(_ORACLE_BASIC.values())),
    st.sampled_from(sorted(_ORACLE_EXTENSION.values())),
)
def test_one_extension_char_adds_two_septets(text, ext):
    assert gsm7.septet_length(text + ext) == len(text) + 2


_REFERENCE_BASIC = set(_ORACLE_BASIC.values())
_REFERENCE_EXTENSION = set(_ORACLE_EXTENSION.values())


def _reference_septet_outcome(text):
    """The per-character loop the byte path, the charmap encode and the
    regex scan must agree with."""
    total = 0
    for ch in text:
        if ch in _REFERENCE_BASIC:
            total += 1
        elif ch in _REFERENCE_EXTENSION:
            total += 2
        else:
            return ("not-gsm", ch)
    return total


def _septet_outcome(text):
    try:
        return gsm7.septet_length(text)
    except GsmNotRepresentableError as exc:
        return ("not-gsm", exc.char)


# The charmap path's branches: empty, basic only, an extension character
# after or before the basic run, a non-GSM character after an extension one or
# after a long basic run. Then the byte path's: a backtick, the one printable
# ASCII character outside both tables, a tab, the escape, DEL, a lone
# extension character, and extension characters between basic ones.
_BRANCHES = ["", "ab€", "€ab", "ab€中", "ab{c}d中", "a" * 300 + "中",
             "a\x60b", "a\tb", "a\x1bb", "a\x7fb", "\f", "a{b}c"]
# Every ASCII character, each in any place: the text the byte path checks.
# Joined from runs, as MIXED_TEXT is, so that one_of draws it in about half
# of the examples (a lone st.text drew it in under a third).
_ASCII_TEXT = st.lists(st.text(alphabet=st.characters(max_codepoint=0x7F))).map("".join)


def _examples(*cases):
    """One hypothesis @example per tuple of arguments."""
    def decorate(test):
        for case in cases:
            test = example(*case)(test)
        return test
    return decorate


@pytest.mark.deep
@given(st.one_of(_ASCII_TEXT, MIXED_TEXT))
@_examples(*((text,) for text in _BRANCHES))
def test_set_operations_match_the_per_character_reference(text):
    expected = _reference_septet_outcome(text)
    assert _septet_outcome(text) == expected
    assert gsm7.is_gsm_text(text) == isinstance(expected, int)


_ORACLE_TEXT = st.text(
    alphabet=sorted(_ORACLE_BASIC.values()) + sorted(_ORACLE_EXTENSION.values())
)
_ASCII_ORACLE_TEXT = st.text(
    alphabet=sorted(ch for ch in _REFERENCE_BASIC | _REFERENCE_EXTENSION if ch.isascii())
)


@pytest.mark.deep
@given(st.one_of(st.tuples(_ASCII_ORACLE_TEXT, _ASCII_TEXT, _ASCII_ORACLE_TEXT),
                 st.tuples(_ORACLE_TEXT, MIXED_TEXT, _ORACLE_TEXT)))
@_examples(*((("", text, ""),) for text in _BRANCHES))
def test_mixed_text_inside_gsm_text_matches_the_reference(parts):
    text = "".join(parts)
    expected = _reference_septet_outcome(text)
    assert _septet_outcome(text) == expected
    assert gsm7.is_gsm_text(text) == isinstance(expected, int)


def test_each_ascii_character_gets_the_reference_outcome():
    # Alone, an ASCII character takes the byte path; between "ab" and "€",
    # the charmap encode and the regex scan.
    for text in [chr(cp) for cp in range(0x80)] + [f"ab{chr(cp)}€" for cp in range(0x80)]:
        expected = _reference_septet_outcome(text)
        assert _septet_outcome(text) == expected, repr(text)
        assert gsm7.is_gsm_text(text) == isinstance(expected, int), repr(text)


def test_every_code_point_is_classified_as_the_oracle_does():
    gsm = [chr(cp) for cp in range(sys.maxunicode + 1) if gsm7.is_gsm_text(chr(cp))]
    assert sorted(gsm) == sorted(_REFERENCE_BASIC | _REFERENCE_EXTENSION)


def test_charmap_is_an_encoding_map():
    # For a table that does not start with NUL, charmap_build returns a dict,
    # which encodes many times slower.
    assert type(gsm7._MAP).__name__ == "EncodingMap"


def _check_code_point(cp):
    """The code point alone, after a non-ASCII basic character, before an
    extension one, and after a NUL: a NUL is in the charmap but in neither
    table, so it, not a later unmapped character, is the one named."""
    ch = chr(cp)
    for text in (ch, "é" + ch, ch + "€", "é\0" + ch):
        expected = _reference_septet_outcome(text)
        assert _septet_outcome(text) == expected, repr(text)
        assert gsm7.is_gsm_text(text) == isinstance(expected, int), repr(text)


def test_each_bmp_code_point_gets_the_reference_outcome():
    for cp in range(0x10000):
        _check_code_point(cp)


# All 1.1 million code points would take about 20 s, so past the BMP they are
# drawn; the examples are the planes' ends and the charmap's U+FFFE padding.
@pytest.mark.deep
@given(st.integers(0, sys.maxunicode))
@_examples((0,), (0xFFFE,), (0xFFFF,), (0x10000,), (sys.maxunicode,))
def test_any_code_point_gets_the_reference_outcome(cp):
    _check_code_point(cp)
