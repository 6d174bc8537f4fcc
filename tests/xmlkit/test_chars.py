"""Character-level helpers: names, escaping, entities."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmlkit import chars


class TestNames:
    def test_simple_name_is_valid(self):
        assert chars.is_valid_name("SPEECH")

    def test_name_with_punctuation(self):
        assert chars.is_valid_name("xml:link")
        assert chars.is_valid_name("a-b.c_d")

    def test_name_cannot_start_with_digit(self):
        assert not chars.is_valid_name("1abc")

    def test_name_cannot_start_with_dash(self):
        assert not chars.is_valid_name("-abc")

    def test_empty_name_invalid(self):
        assert not chars.is_valid_name("")

    def test_name_cannot_contain_space(self):
        assert not chars.is_valid_name("a b")

    def test_underscore_start_is_valid(self):
        assert chars.is_valid_name("_private")

    def test_unicode_letters_allowed(self):
        assert chars.is_valid_name("élément")


class TestEscaping:
    def test_escape_ampersand(self):
        assert chars.escape_text("a & b") == "a &amp; b"

    def test_escape_angle_brackets(self):
        assert chars.escape_text("<tag>") == "&lt;tag&gt;"

    def test_escape_attribute_quotes(self):
        assert chars.escape_attribute('say "hi"') == "say &quot;hi&quot;"

    def test_escape_leaves_plain_text_alone(self):
        text = "plain text with no specials"
        assert chars.escape_text(text) == text

    def test_escape_order_no_double_escaping(self):
        # the & of &lt; must not be re-escaped
        assert chars.escape_text("<") == "&lt;"
        assert chars.escape_text("&lt;") == "&amp;lt;"


class TestUnescape:
    @pytest.mark.parametrize(
        "entity,expected",
        [("&amp;", "&"), ("&lt;", "<"), ("&gt;", ">"),
         ("&quot;", '"'), ("&apos;", "'")],
    )
    def test_predefined_entities(self, entity, expected):
        assert chars.unescape(entity) == expected

    def test_numeric_decimal_reference(self):
        assert chars.unescape("&#65;") == "A"

    def test_numeric_hex_reference(self):
        assert chars.unescape("&#x41;") == "A"

    def test_unknown_entity_preserved(self):
        assert chars.unescape("&unknown;") == "&unknown;"

    def test_bare_ampersand_preserved(self):
        assert chars.unescape("fish & chips") == "fish & chips"

    def test_escape_unescape_roundtrip(self):
        text = 'quoth the <raven> "never & more"'
        assert chars.unescape(chars.escape_attribute(text)) == text

    def test_malformed_numeric_reference_preserved(self):
        assert chars.unescape("&#xzz;") == "&#xzz;"


class TestWhitespace:
    def test_whitespace_only(self):
        assert chars.is_whitespace("  \t\n\r ")

    def test_empty_is_not_whitespace(self):
        assert not chars.is_whitespace("")

    def test_mixed_is_not_whitespace(self):
        assert not chars.is_whitespace("  a ")

    def test_collapse(self):
        assert chars.collapse_whitespace("  a \n b\t c ") == "a b c"


def _unescape_by_character(text):
    """``chars.unescape`` as it was written before the ``re.sub`` form:
    one character at a time.  The rule the new form must keep."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch != "&":
            out.append(ch)
            i += 1
            continue
        end = text.find(";", i + 1)
        if end == -1:
            out.append(ch)
            i += 1
            continue
        body = text[i + 1:end]
        if body in chars._UNESCAPES:
            out.append(chars._UNESCAPES[body])
            i = end + 1
        elif body.startswith("#x") or body.startswith("#X"):
            try:
                out.append(chr(int(body[2:], 16)))
                i = end + 1
            except ValueError:
                out.append(ch)
                i += 1
        elif body.startswith("#"):
            try:
                out.append(chr(int(body[1:])))
                i = end + 1
            except ValueError:
                out.append(ch)
                i += 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _is_whitespace_by_character(text):
    return bool(text) and all(ch in chars.WHITESPACE for ch in text)


#: every shape of reference the rule distinguishes, and their neighbours
ENTITY_TABLE = [
    "&amp;", "&lt;", "&gt;", "&quot;", "&apos;",
    "&#65;", "&#x41;", "&#X41;", "&#0;", "&#x10FFFF;", "&#1114112;",
    "&#xD800;", "&# 65 ;", "&#6_5;", "&#+65;", "&#-65;", "&#٣;", "&#x0x41;",
    "&;", "&#;", "&#x;", "&#xzz;", "&#12a;", "&unknown;", "&AMP;", "&amp",
    "&", "&&", "&&amp;", "&amp;amp;", "&#38;amp;", "&x &amp;", "&x&y;&lt;",
    "&#x41", "a&lt;b&gt;c", "fish & chips; peas", ";&;", "&lt;&lt;&#60;",
    "&am&amp;p;", "&#&#65;;", "& amp;", "&\n;", "",
]


class TestRewritesKeepTheOldRule:
    @pytest.mark.parametrize("text", ENTITY_TABLE)
    def test_unescape_on_the_entity_table(self, text):
        assert chars.unescape(text) == _unescape_by_character(text)

    @given(st.text(alphabet="&#xX;amplt0169 é", max_size=24))
    @settings(max_examples=400, deadline=None)
    def test_unescape_on_generated_text(self, text):
        assert chars.unescape(text) == _unescape_by_character(text)

    def test_unescape_leaves_an_oversized_reference_alone(self):
        # the character loop let chr()'s OverflowError escape
        assert chars.unescape("&#99999999999999999999;") == "&#99999999999999999999;"

    @given(st.text(alphabet=" \t\r\n\x0b\x0c\xa0 a", max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_is_whitespace(self, text):
        assert chars.is_whitespace(text) is _is_whitespace_by_character(text)
