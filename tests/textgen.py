"""A hypothesis strategy for text that mixes every kind of scalar the
string-level counting and cleaning code treats specially.

The pieces are ASCII, CJK (BMP and supplementary planes), lone surrogates,
emoji, Thai, decomposed accents and lone combining marks, Latin letters
outside GSM-7, the GSM-7 default and extension tables, markup tags and every
Unicode whitespace character; the text is a random concatenation of them.
"""

from __future__ import annotations

from hypothesis import strategies as st

# Every code point for which str.isspace() is true (and re's \s matches).
WHITESPACE = (
    "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680"
    "\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a"
    "\u2028\u2029\u202f\u205f\u3000"
)
GSM7_NON_ASCII = "£¥èéùìòÇØøÅåΔΦΓΛΩΠΨΣΘΞÆæßÉ¤¡ÄÖÑÜ§¿äöñüà"
GSM7_EXTENSION = "\f^{}\\[~]|€"
NON_GSM_LATIN = "âêîôûçčšžłőűÿœ"
TAGS = ("<", ">", "<>", "<i>", "</i>", "<b>", "</b>", "<font color=red>", "<c.yy>")


def _span(low: int, high: int) -> st.SearchStrategy[str]:
    return st.integers(low, high).map(chr)


_PIECE = st.one_of(
    st.text(alphabet=st.characters(max_codepoint=0x7F), min_size=1, max_size=6),
    _span(0x4E00, 0x9FFF),  # CJK unified ideographs, all GBK-encodable
    _span(0x20000, 0x2A6DF),  # CJK extension B, outside GBK
    _span(0xD800, 0xDFFF),  # lone surrogates
    _span(0x1F300, 0x1FAFF),  # emoji
    _span(0x0E00, 0x0E7F),  # Thai, outside GBK and GSM-7
    st.just("é"),
    _span(0x0300, 0x036F),  # combining marks, which NFC may fold into a letter
    st.sampled_from(NON_GSM_LATIN),
    st.sampled_from(GSM7_NON_ASCII),
    st.sampled_from(GSM7_EXTENSION),
    st.sampled_from(TAGS),
    st.sampled_from(WHITESPACE),
    st.characters(),
)

MIXED_TEXT = st.lists(_PIECE, max_size=40).map("".join)
