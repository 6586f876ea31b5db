"""Platform length limits and SMS encoding selection."""

import copy
import pickle
import unicodedata
from dataclasses import dataclass, fields

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lingspace import gsm7
from lingspace.errors import UsageError
from lingspace.limits import (
    PRESETS,
    SMS,
    TWITTER,
    WEIBO,
    CharLimit,
    EncodedUnitLimit,
    FitResult,
    LimitSpec,
    SingleSms,
    check_fit,
)
from lingspace.measures import SpaceMeasure
from textgen import MIXED_TEXT, NON_GSM_LATIN

# A GSM-basic char, a CJK char, and a char that is non-ASCII yet GBK-encodable.
ASCII_CH = "a"
CJK_CH = "中"
KANA_CH = "あ"

mixed_gbk_text = st.text(
    alphabet=st.sampled_from("ab1 .中文あ京"), max_size=300
)


class TestPresets:
    def test_preset_names(self):
        assert set(PRESETS) == {"twitter", "weibo", "sms"}
        assert PRESETS["twitter"] is TWITTER
        assert PRESETS["weibo"] is WEIBO
        assert PRESETS["sms"] is SMS

    def test_twitter_is_a_flat_character_cap(self):
        assert TWITTER.rule == CharLimit(140)

    def test_weibo_is_an_encoded_unit_cap(self):
        assert WEIBO.rule == EncodedUnitLimit(280)


class TestBoundaries:
    @pytest.mark.parametrize("char", [ASCII_CH, CJK_CH, KANA_CH])
    def test_twitter_boundary_for_any_script(self, char):
        assert check_fit(char * 140, TWITTER).fits
        assert not check_fit(char * 141, TWITTER).fits

    def test_weibo_ascii_boundary(self):
        assert check_fit(ASCII_CH * 280, WEIBO).fits
        assert not check_fit(ASCII_CH * 281, WEIBO).fits

    def test_weibo_cjk_boundary(self):
        assert check_fit(CJK_CH * 140, WEIBO).fits
        assert not check_fit(CJK_CH * 141, WEIBO).fits

    def test_sms_gsm_boundary(self):
        assert check_fit(ASCII_CH * 160, SMS).fits
        assert not check_fit(ASCII_CH * 161, SMS).fits

    def test_sms_cjk_boundary(self):
        assert check_fit(CJK_CH * 70, SMS).fits
        assert not check_fit(CJK_CH * 71, SMS).fits

    def test_empty_text_fits_everything(self):
        for spec in PRESETS.values():
            result = check_fit("", spec)
            assert result.fits
            assert result.units_used == 0


class TestFitResults:
    def test_twitter_counts_nfc_scalars(self):
        result = check_fit("héllo", TWITTER)
        assert result.units_used == 5
        assert result.unit_kind == "chars"
        assert result.units_max == 140
        assert result.encoding_chosen is None

    def test_weibo_counts_mixed_units(self):
        result = check_fit("a中b", WEIBO)
        assert result.units_used == 4
        assert result.unit_kind == "gbk_units"
        assert result.encoding_chosen is None

    def test_weibo_emoji_costs_two_units(self):
        assert check_fit("\U0001f600", WEIBO).units_used == 2

    def test_sms_picks_gsm7_for_gsm_text(self):
        result = check_fit("Call me: 5pm {sharp}", SMS)
        assert result.encoding_chosen == "gsm7"
        assert result.unit_kind == "gsm7_septets"
        assert result.units_max == 160

    def test_sms_picks_ucs2_otherwise(self):
        result = check_fit("see you ♛", SMS)
        assert result.encoding_chosen == "ucs2"
        assert result.unit_kind == "ucs2_chars"
        assert result.units_max == 70
        assert result.units_used == 9

    def test_sms_normalizes_before_choosing(self):
        # Decomposed e-acute composes into the GSM basic set.
        result = check_fit("é", SMS)
        assert result.encoding_chosen == "gsm7"
        assert result.units_used == 1

    def test_sms_extension_chars_cost_double(self):
        assert check_fit("{" * 80, SMS).fits
        assert not check_fit("{" * 81, SMS).fits

    def test_sms_ascii_text_with_a_tab_is_ucs2(self):
        # A tab is ASCII but in neither GSM-7 table.
        assert tuple(check_fit("a\tb", SMS)) == (True, 3, 70, "ucs2_chars", "ucs2")

    def test_sms_ascii_braces_cost_two_septets_each(self):
        assert tuple(check_fit("a{b}c", SMS)) == (True, 7, 160, "gsm7_septets", "gsm7")

    def test_fits_agrees_with_the_counts(self):
        for text in ("", "short", CJK_CH * 200, "a" * 300):
            for spec in PRESETS.values():
                result = check_fit(text, spec)
                assert result.fits == (result.units_used <= result.units_max)


# Published capacities: the most single-unit (basic GSM for SMS) and
# double-unit (non-GSM) characters a message can hold.
CAPACITY = {
    ("twitter", "ascii"): 140,
    ("twitter", "cjk"): 140,
    ("weibo", "ascii"): 280,
    ("weibo", "cjk"): 140,
    ("sms", "ascii"): 160,
    ("sms", "cjk"): 70,
}


class TestCapacity:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    @pytest.mark.parametrize("char_class, char", [("ascii", ASCII_CH), ("cjk", CJK_CH)])
    def test_capacity_is_the_exact_boundary(self, name, char_class, char):
        spec = PRESETS[name]
        cap = CAPACITY[name, char_class]
        assert check_fit(char * cap, spec).fits
        assert not check_fit(char * (cap + 1), spec).fits


class TestRuleValidation:
    def test_char_limit_must_be_positive(self):
        with pytest.raises(UsageError, match="positive"):
            CharLimit(0)

    def test_unit_limit_must_be_positive(self):
        with pytest.raises(UsageError, match="positive"):
            EncodedUnitLimit(-1)

    def test_custom_limits_work_through_check_fit(self):
        tight = LimitSpec("tight", CharLimit(3))
        assert check_fit("abc", tight).fits
        assert not check_fit("abcd", tight).fits


class TestProperties:
    @given(mixed_gbk_text)
    def test_weibo_units_are_ascii_plus_double_rest(self, text):
        result = check_fit(text, WEIBO)
        ascii_count = sum(1 for ch in text if ord(ch) < 128)
        assert result.units_used == ascii_count + 2 * (len(text) - ascii_count)

    @given(mixed_gbk_text)
    def test_sms_selection_is_total_and_consistent(self, text):
        result = check_fit(text, SMS)
        assert result.encoding_chosen in ("gsm7", "ucs2")
        assert (result.encoding_chosen == "gsm7") == gsm7.is_gsm_text(text)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    @given(text=st.text(max_size=400))
    def test_prefix_monotonicity(self, name, text):
        spec = PRESETS[name]
        if not check_fit(text, spec).fits:
            return
        for cut in range(len(text)):
            assert check_fit(text[:cut], spec).fits


def _reference_count_units(text, measure):
    """count_units as an if-chain over the enum members check_fit uses."""
    normalized = unicodedata.normalize("NFC", text)
    if measure is SpaceMeasure.CHARACTERS:
        return len(normalized)
    if measure is SpaceMeasure.GBK_UNITS:
        return 2 * len(normalized) - len(normalized.encode("ascii", "ignore"))
    if measure is SpaceMeasure.GSM7_SEPTETS:
        return len(normalized) + sum(map(normalized.count, gsm7.GSM7_EXTENSION))
    raise AssertionError(measure)


def _reference_check_fit(text, limit):
    """check_fit with whole-text set membership for GSM-7 and a plain tuple
    (fits, units_used, units_max, unit_kind, encoding_chosen) as verdict."""
    rule = limit.rule
    if isinstance(rule, CharLimit):
        used = _reference_count_units(text, SpaceMeasure.CHARACTERS)
        return (used <= rule.max_chars, used, rule.max_chars, "chars", None)
    if isinstance(rule, EncodedUnitLimit):
        used = _reference_count_units(text, SpaceMeasure.GBK_UNITS)
        return (used <= rule.max_units, used, rule.max_units, "gbk_units", None)
    assert isinstance(rule, SingleSms)
    normalized = unicodedata.normalize("NFC", text)
    if gsm7.GSM_SET.issuperset(normalized):
        used = _reference_count_units(normalized, SpaceMeasure.GSM7_SEPTETS)
        return (used <= 160, used, 160, "gsm7_septets", "gsm7")
    return (len(normalized) <= 70, len(normalized), 70, "ucs2_chars", "ucs2")


# Texts that stay inside GSM-7 after NFC (decomposed e-acute and a-grave
# compose into the basic table), so SMS checks take the septet branch.
GSM_TEXT = st.lists(
    st.one_of(
        st.sampled_from(gsm7.GSM7_BASIC),
        st.sampled_from(gsm7.GSM7_EXTENSION),
        st.sampled_from(["e\u0301", "a\u0300"]),
    ),
    max_size=170,
).map("".join)


# NFC-stable texts in the characters SMS encoding tells apart: GSM-7 basic and
# extension characters, Latin letters outside GSM-7 and CJK. GSM7_SMS_TEXT
# stays inside GSM-7; SMS_TEXT mixes all four, with long runs of each.
_SMS_ALPHABETS = (gsm7.GSM7_BASIC, gsm7.GSM7_EXTENSION, NON_GSM_LATIN, "中文京人")
GSM7_SMS_TEXT = st.text(st.sampled_from(gsm7.GSM7_BASIC + gsm7.GSM7_EXTENSION), max_size=200)
SMS_TEXT = st.lists(
    st.sampled_from(_SMS_ALPHABETS).flatmap(lambda chars: st.text(st.sampled_from(chars))),
    max_size=8,
).map("".join)


def _per_character_sms(text):
    """check_fit(text, SMS) as a plain tuple, from one loop over the text:
    GSM-7 while every character is in a table, UCS-2 from the first that is
    in neither."""
    septets = 0
    for ch in text:
        if ch in gsm7.GSM7_BASIC:
            septets += 1
        elif ch in gsm7.GSM7_EXTENSION:
            septets += 2
        else:
            return (len(text) <= 70, len(text), 70, "ucs2_chars", "ucs2")
    return (septets <= 160, septets, 160, "gsm7_septets", "gsm7")


@pytest.mark.deep
class TestReferenceEquivalence:
    def test_fit_result_fields(self):
        assert FitResult._fields == (
            "fits", "units_used", "units_max", "unit_kind", "encoding_chosen",
        )
        assert FitResult(True, 1, 140, "chars").encoding_chosen is None

    @pytest.mark.parametrize("name", sorted(PRESETS))
    @given(text=st.one_of(MIXED_TEXT, GSM_TEXT))
    @example(text="Cafe\u0301 {5\u20ac} ^[~]|\f\\ a\u0300")
    def test_check_fit_matches_the_reference(self, name, text):
        spec = PRESETS[name]
        expected = _reference_check_fit(text, spec)
        result = check_fit(text, spec)
        # Tuple equality cannot tell a plain tuple from a FitResult.
        assert type(result) is FitResult
        assert tuple(result) == expected
        # An appended "a" costs one unit under every rule and encoding, so
        # these texts sit exactly at the cap and one unit past it.
        used, cap = expected[1], expected[2]
        for pad in (cap - used, cap - used + 1):
            if pad >= 0:
                padded = text + "a" * pad
                expected_padded = _reference_check_fit(padded, spec)
                assert expected_padded[1] == used + pad
                result = check_fit(padded, spec)
                assert type(result) is FitResult
                assert tuple(result) == expected_padded

    @given(text=st.one_of(GSM7_SMS_TEXT, SMS_TEXT))
    @example(text="a" * 300 + "中")
    @example(text="€" + "a" * 158)
    def test_sms_matches_the_per_character_reference(self, text):
        assert unicodedata.is_normalized("NFC", text)
        assert tuple(check_fit(text, SMS)) == _per_character_sms(text)


# The limit types as the frozen dataclasses they once were, under the same
# qualified names, so that their reprs read the same.
@dataclass(frozen=True)
class _CharLimitReference:
    __qualname__ = "CharLimit"
    max_chars: int


@dataclass(frozen=True)
class _EncodedUnitLimitReference:
    __qualname__ = "EncodedUnitLimit"
    max_units: int


@dataclass(frozen=True)
class _SingleSmsReference:
    __qualname__ = "SingleSms"


@dataclass(frozen=True)
class _LimitSpecReference:
    __qualname__ = "LimitSpec"
    name: str
    rule: object


POSITIVE = st.integers(min_value=1, max_value=2**70)
# (value, reference) pairs built alike; keyword construction on one side.
RULE_PAIRS = st.one_of(
    POSITIVE.map(lambda n: (CharLimit(n), _CharLimitReference(n))),
    POSITIVE.map(lambda n: (EncodedUnitLimit(max_units=n), _EncodedUnitLimitReference(n))),
    st.just((SingleSms(), _SingleSmsReference())),
)
VALUE_PAIRS = st.one_of(
    RULE_PAIRS,
    st.builds(
        lambda name, rule: (LimitSpec(name=name, rule=rule[0]),
                            _LimitSpecReference(name, rule[1])),
        st.text(max_size=8),
        RULE_PAIRS,
    ),
)


@pytest.mark.deep
class TestDataclassReference:
    @given(VALUE_PAIRS, VALUE_PAIRS)
    def test_limit_types_behave_as_the_dataclasses(self, pair, other_pair):
        (value, reference), (other, other_reference) = pair, other_pair
        assert repr(value) == repr(reference)
        assert hash(value) == hash(reference)
        assert (value == other) == (reference == other_reference)
        assert (value != other) == (reference != other_reference)
        names = [field.name for field in fields(reference)]
        values = [getattr(value, name) for name in names]
        assert type(value)(*values) == type(value)(**dict(zip(names, values))) == value
        assert copy.deepcopy(value) == pickle.loads(pickle.dumps(value)) == value
        for name in [*names, "extra"]:
            with pytest.raises(AttributeError):
                setattr(value, name, 1)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert [getattr(value, name) for name in names] == values

    @given(POSITIVE)
    def test_rules_of_other_types_differ_at_the_same_cap(self, cap):
        assert CharLimit(cap) != EncodedUnitLimit(cap)
        assert CharLimit(cap) != (cap,)

    def test_rule_checks_keep_their_messages(self):
        with pytest.raises(UsageError) as info:
            CharLimit(0)
        assert str(info.value) == "max_chars must be positive"
        with pytest.raises(UsageError) as info:
            EncodedUnitLimit(-1)
        assert str(info.value) == "max_units must be positive"
