"""Platform length limits and SMS encoding selection."""

import pytest
from hypothesis import given
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
    LimitSpec,
    check_fit,
)

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
