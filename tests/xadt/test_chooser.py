"""Codec selection by sampling (paper §3.4.1 / §4.1)."""

from repro.xadt import DICT, PLAIN, XadtValue, choose_codec
from repro.xadt.chooser import CodecDecision


def repetitive_fragment():
    xml = "".join(
        f'<authorName position="{i:02d}">Author {i}</authorName>'
        for i in range(30)
    )
    return XadtValue.from_xml(xml)


def tiny_fragment():
    return XadtValue.from_xml("<s>x</s>")


class TestChooseCodec:
    def test_compression_chosen_for_repetitive_fragments(self):
        decision = choose_codec([repetitive_fragment()] * 5)
        assert decision.codec == DICT
        assert decision.savings >= 0.2

    def test_compression_rejected_for_tiny_fragments(self):
        decision = choose_codec([tiny_fragment()] * 5)
        assert decision.codec == PLAIN
        assert decision.savings < 0.2

    def test_empty_input_defaults_to_plain(self):
        decision = choose_codec([])
        assert decision.codec == PLAIN
        assert decision.samples == 0

    def test_threshold_respected(self):
        fragments = [repetitive_fragment()] * 3
        generous = choose_codec(fragments, threshold=0.01)
        strict = choose_codec(fragments, threshold=0.99)
        assert generous.codec == DICT
        assert strict.codec == PLAIN

    def test_sampling_is_deterministic(self):
        fragments = [tiny_fragment() for _ in range(100)]
        first = choose_codec(fragments, sample_size=10, seed=1)
        second = choose_codec(fragments, sample_size=10, seed=1)
        assert first == second

    def test_sample_size_caps_work(self):
        fragments = [tiny_fragment() for _ in range(100)]
        decision = choose_codec(fragments, sample_size=7)
        assert decision.samples == 7

    def test_accepts_raw_xml_strings(self):
        decision = choose_codec(["<s>x</s>", "<s>y</s>"])
        assert isinstance(decision, CodecDecision)

    def test_savings_sign(self):
        inflating = choose_codec([tiny_fragment()])
        assert inflating.savings < 0  # dictionary overhead inflates

    def test_dom_elements_weigh_what_their_fragments_weigh(self):
        """Element lists (how ``decide_codecs`` samples) are encoded from
        the tree; the sizes, and so the decision, are the text path's."""
        from repro.xmlkit import Element, Text

        lists = [
            [Element("a", {"k": str(i)}, [Text("x" * i), Element("b")])] * (i % 3)
            for i in range(40)
        ]
        values = [XadtValue.from_elements(items) for items in lists]
        for threshold in (0.01, 0.2, 0.99):
            assert choose_codec(lists, threshold=threshold) == choose_codec(
                values, threshold=threshold
            )
        element = lists[5][0]  # a bare element counts as one fragment
        assert choose_codec([element]) == choose_codec(
            [XadtValue.from_elements([element])]
        )
