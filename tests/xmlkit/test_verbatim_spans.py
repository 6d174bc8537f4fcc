"""The verbatim-span rule: a span is a promise about the serializer.

``parse`` leaves a span — ``Element.span``, ``(source, start, end)`` — on
an element only when it knows, without serializing, that ``serialize(element) ==
source[start:end]``.  The loader slices on the strength of that promise,
so it is held here against the serializer itself, on documents written
every way the serializer would not write them.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import XmlSyntaxError
from repro.xmlkit import Element, parse, parse_fragment, serialize
from tests.xmlkit.test_scanner_equivalence import by_character, document

#: spellings the serializer never produces, spliced into generated documents
ODD_SPELLINGS = st.sampled_from([
    "<a></a>", "<a />", "<a\n/>", "<a x='1'/>", '<a  x="1"/>', '<a x = "1"/>',
    '<a x="1" />', "<a>&apos;</a>", "<a>&#65;</a>", "<a>x > y</a>",
    '<a x="&apos;"/>', '<a x=">"/>', '<a x="&#65;&#65;&#65;" y=">>>>"/>',
    "<a><![CDATA[x]]></a>", "<a>t<!-- c --></a>", "<a><?pi?>t</a>", "<a>t</a >",
    # ... and some it does
    "<a/>", '<a x="1"/>', "<a>t</a>", "<a>x &gt; y</a>", '<a x="&gt;&quot;">&amp;</a>',
    "<LINE>a <b>c</b> d</LINE>",
])


@st.composite
def odd_document(draw):
    """A generated document with odd spellings spliced in before end tags."""
    text = draw(document())
    for _ in range(draw(st.integers(0, 3))):
        spots = [i for i in range(len(text)) if text.startswith("</", i)]
        if not spots:
            break
        spot = draw(st.sampled_from(spots))
        text = text[:spot] + draw(ODD_SPELLINGS) + text[spot:]
    return text


def spans(text, keep_whitespace):
    """``{path: span}`` of every element that carries one; each is first
    held to the serializer.  None for text that does not parse."""
    try:
        root = parse(text, keep_whitespace=keep_whitespace).root
    except XmlSyntaxError:
        return None
    found = {}

    def visit(element, path):
        if element.span is not None:
            source, start, end = element.span
            assert source is text
            assert source[start:end] == serialize(element), path
            found[path] = (start, end)
        children = element.child_elements()
        # an element that is verbatim is verbatim all the way down
        assert element.span is None or all(c.span is not None for c in children)
        for index, child in enumerate(children):
            visit(child, path + (index,))

    visit(root, ())
    return found


class TestSpanEqualsSerialization:
    @given(odd_document(), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_generated_documents(self, text, keep_whitespace):
        fast = spans(text, keep_whitespace)
        slow = by_character(lambda: spans(text, keep_whitespace))
        # through ``read_markup`` spans may only disappear, never differ
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert slow.items() <= fast.items()

    def test_length_alone_would_not_do(self):
        # three references shorter, four raw '>' longer: the canonical
        # tag has the same length as this one, and different bytes
        text = '<r><a x="&#65;&#65;&#65;" y=">>>>"/></r>'
        assert len(serialize(parse(text).root)) == len(text)
        assert spans(text, False) == {}

    def test_what_makes_a_subtree_not_verbatim(self):
        for inner in [
            " <b/>", "<b></b>", "<b />", "<b x='1'/>", "<b>&apos;</b>", "<b>></b>",
            "<b><![CDATA[x]]></b>", "<b><!--c-->t</b>", "<b><?p?>t</b>", "<b>t</b >",
            "<é/>", '<b  x="1"/>', '<b x="1" y = "2"/>',
        ]:
            text = f"<r><c>kept</c>{inner}<c/></r>"
            found = spans(text, False)
            # the clean siblings keep theirs, the root loses its own
            assert (0,) in found and () not in found, inner
            assert sorted(found) in ([(0,), (2,)], [(0,), (1,), (2,)]), inner


class TestSpansAreThere:
    """Guards the tests above against comparing nothing with nothing."""

    def test_canonical_text_is_verbatim_everywhere(self, shakespeare_docs):
        text = serialize(shakespeare_docs[0])
        root = parse(text).root
        assert root.span == (text, 0, len(text))
        assert all(element.span is not None for element in root.iter())
        assert root.find("TITLE").span[0] is text

    def test_pretty_printed_text_still_slices_its_leaves(self, shakespeare_docs):
        play = shakespeare_docs[0]
        root = parse(serialize(play, indent=2)).root
        assert root.span is None
        lines = list(root.iter("LINE"))
        assert lines and all(line.span is not None for line in lines)
        assert all(speech.span is None for speech in root.iter("SPEECH"))
        # with the indentation kept as text nodes, every element is what
        # the compact serializer would write again
        kept = parse(serialize(play, indent=2), keep_whitespace=True).root
        assert kept.span is not None

    def test_fragment_roots_carry_spans(self):
        first, second = parse_fragment("<a>t</a><b x='1'/>")
        source, start, end = first.span
        assert source[start:end] == "<a>t</a>" and second.span is None

    def test_by_character_reads_leave_no_span(self):
        root = by_character(lambda: parse("<a><b>t</b></a>").root)
        assert root.span is None and root.find("b").span is None


class TestMutatorsWithdrawTheSpan:
    def tree(self):
        root = parse("<r><a><b>t</b><c/></a><d>u</d></r>").root
        assert all(element.span is not None for element in root.iter())
        return root

    def check(self, root, mutated):
        """``mutated`` and its ancestors lost their spans; no other
        parsed element did."""
        gone = set()
        node = mutated
        while node is not None:
            gone.add(id(node))
            node = node.parent
        for element in root.iter():
            if element.tag == "new":
                continue
            assert (element.span is None) == (id(element) in gone), element
            if element.span is not None:
                source, start, end = element.span
                assert source[start:end] == serialize(element)

    def test_append(self):
        root = self.tree()
        target = root.find("a").find("b")
        target.append("more")
        self.check(root, target)

    def test_extend(self):
        root = self.tree()
        target = root.find("a")
        target.extend([Element("new"), "text"])
        self.check(root, target)

    def test_set(self):
        root = self.tree()
        target = root.find("a").find("c")
        target.set("k", "v")
        self.check(root, target)

    def test_built_trees_never_have_one(self):
        built = Element("a", {"x": "1"}, ["t", Element("b")])
        assert built.span is None and built.find("b").span is None
