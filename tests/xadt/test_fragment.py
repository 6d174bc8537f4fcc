"""XadtValue: construction, codecs, value semantics."""

import pickle

import pytest

from repro.errors import XadtCodecError, XmlSyntaxError
from repro.xadt import DICT, INDEXED, PLAIN, XadtValue, coerce_fragment
from repro.xmlkit.dom import Text, element


class TestConstruction:
    def test_from_xml_plain(self):
        value = XadtValue.from_xml("<s>x</s>")
        assert value.codec == PLAIN
        assert value.to_xml() == "<s>x</s>"

    def test_from_xml_dict(self):
        value = XadtValue.from_xml("<s>x</s>", DICT)
        assert value.codec == DICT
        assert value.to_xml() == "<s>x</s>"

    def test_from_elements(self):
        value = XadtValue.from_elements(
            [element("s", "a"), element("s", "b")]
        )
        assert value.to_xml() == "<s>a</s><s>b</s>"

    def test_empty(self):
        assert XadtValue.empty().is_empty()
        assert XadtValue.empty(DICT).is_empty()

    def test_from_xml_validates_plain(self):
        with pytest.raises(XmlSyntaxError):
            XadtValue.from_xml("<a><b></a>")

    def test_from_xml_skips_validation_on_request(self):
        # internal callers may pass serializer-produced text unchecked
        XadtValue.from_xml("<a>ok</a>", validate=False)

    def test_codec_payload_type_enforced(self):
        with pytest.raises(XadtCodecError):
            XadtValue(b"bytes", PLAIN)
        with pytest.raises(XadtCodecError):
            XadtValue("text", DICT)
        with pytest.raises(XadtCodecError):
            XadtValue("x", "zip")

    def test_immutable(self):
        value = XadtValue.from_xml("<a/>")
        with pytest.raises(AttributeError):
            value.codec = DICT


class TestAccess:
    def test_text_concatenates_content(self):
        value = XadtValue.from_xml("<s>a<t>b</t>c</s><s>d</s>")
        assert value.text() == "abcd"

    def test_to_elements(self):
        value = XadtValue.from_xml("<s>a</s><s>b</s>")
        assert [e.tag for e in value.to_elements()] == ["s", "s"]

    def test_byte_size_plain_counts_utf8(self):
        value = XadtValue.from_xml("<s>é</s>")
        assert value.byte_size() == len("<s>é</s>".encode("utf-8"))

    def test_dict_smaller_for_repetitive_tags(self):
        xml = "".join(
            f"<authorName pos='{i}'>A{i}</authorName>" for i in range(40)
        ).replace("'", '"')
        plain = XadtValue.from_xml(xml)
        compressed = plain.recode(DICT)
        assert compressed.byte_size() < plain.byte_size()

    def test_dict_larger_for_one_shot_tags(self):
        plain = XadtValue.from_xml("<s>x</s>")
        assert plain.recode(DICT).byte_size() > plain.byte_size()

    def test_recode_roundtrip(self):
        value = XadtValue.from_xml('<a k="v">text<b/>more</a>')
        assert value.recode(DICT).recode(PLAIN).to_xml() == value.to_xml()

    def test_recode_same_codec_returns_self(self):
        value = XadtValue.from_xml("<a/>")
        assert value.recode(PLAIN) is value


class TestValueSemantics:
    def test_equality_across_codecs(self):
        plain = XadtValue.from_xml("<s>x</s>")
        assert plain == plain.recode(DICT)

    def test_hash_consistent_with_equality(self):
        plain = XadtValue.from_xml("<s>x</s>")
        assert hash(plain) == hash(plain.recode(DICT))

    def test_inequality(self):
        assert XadtValue.from_xml("<s>x</s>") != XadtValue.from_xml("<s>y</s>")

    def test_not_equal_to_string(self):
        assert XadtValue.from_xml("<s/>") != "<s/>"

    def test_pickle_roundtrip(self):
        # the Exchange: workers receive and return rows pickled
        for codec in (PLAIN, DICT, INDEXED):
            value = XadtValue.from_xml("<s>x</s>", codec)
            again = pickle.loads(pickle.dumps(value))
            assert again == value
            assert (again.codec, again.payload) == (codec, value.payload)

    def test_repr_previews_xml(self):
        assert "<s>" in repr(XadtValue.from_xml("<s>x</s>"))


class TestCoerce:
    def test_none_becomes_empty(self):
        assert coerce_fragment(None).is_empty()

    def test_string_parsed(self):
        assert coerce_fragment("<s>x</s>").text() == "x"

    def test_value_passes_through(self):
        value = XadtValue.from_xml("<s/>")
        assert coerce_fragment(value) is value

    def test_element_accepted(self):
        assert coerce_fragment(element("s", "x")).to_xml() == "<s>x</s>"

    def test_element_list_accepted(self):
        value = coerce_fragment([element("a"), element("b")])
        assert value.to_xml() == "<a/><b/>"

    def test_bare_text_node_rejected(self):
        with pytest.raises(XadtCodecError):
            coerce_fragment(Text("x"))

    def test_number_rejected(self):
        with pytest.raises(XadtCodecError):
            coerce_fragment(42)
