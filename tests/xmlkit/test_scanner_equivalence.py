"""The one-regex scanner against the per-character readers.

``tokens.MASTER`` only ever *recognises* a token; whatever it does not
match is read by ``Tokenizer._read_markup``, which is also the
definition of what a token is.  So swapping ``MASTER`` for a pattern
that matches character data alone forces every tag through
``_read_markup`` — and on any input at all, well-formed or not, that
must change nothing: the same events, the same tree, or the same
``XmlSyntaxError`` with the same message at the same offset.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import XmlSyntaxError
from repro.xmlkit import dom, parser, tokens
from repro.xmlkit.tokens import EndTag, StartTag, TextEvent, tokenize

TEXT_ONLY = re.compile(r"([^<]+)")


def by_character(thunk):
    """Run ``thunk`` with the fast path off."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tokens, "MASTER", TEXT_ONLY)
        patch.setattr(parser, "MASTER", TEXT_ONLY)
        return thunk()


def dump(node, parent):
    """A node with everything under it, as plain data; parents checked."""
    assert node.parent is parent
    if isinstance(node, dom.Element):
        return (
            "element", node.tag, list(node.attributes.items()),
            [dump(child, node) for child in node.children],
        )
    if isinstance(node, dom.ProcessingInstruction):
        return ("pi", node.target, node.data)
    return (type(node).__name__, node.data)


def parse_outcome(text, keep_whitespace):
    try:
        document = parser.parse(text, keep_whitespace=keep_whitespace)
    except XmlSyntaxError as error:
        return ("error", str(error), error.offset)
    return (
        "tree", document.doctype,
        [dump(node, None) for node in document.prolog],
        dump(document.root, None),
    )


def token_outcome(text):
    events = []
    try:
        for event in tokenize(text):
            events.append(event)
    except XmlSyntaxError as error:
        return (events, str(error), error.offset)
    return (events, None, None)


# ---------------------------------------------------------------------------
# generated documents
# ---------------------------------------------------------------------------

NAMES = ["a", "B2", "x:y", "_u", "a-b.c", "LINE", "élément", "aé", "π"]
SPACE = st.sampled_from(["", " ", "\n", " \t\r\n"])
SOME_SPACE = st.sampled_from([" ", "\n", "  ", "\t"])
TEXTS = st.one_of(
    st.sampled_from([
        "plain", " ", "\n  ", "fish &amp; chips", "&lt;3", "&#65;&#x42;", "&#32;",
        "&bogus;", "a & b", "&#xzz;", "&", "x > y", "]]>", "é", "it's \"so\"",
    ]),
    st.text(alphabet="ab &;#x\n", max_size=6),
)
VALUES = st.one_of(
    st.sampled_from(["", "1", "two words", "&quot;q&quot;", "a>b", "&#65;", "é"]),
    st.text(alphabet="ab &;='\"", max_size=5),
)


@st.composite
def attribute(draw):
    name = draw(st.sampled_from(NAMES + ["id", "k"]))
    value = draw(VALUES)
    quote = draw(st.sampled_from("'\""))
    value = value.replace(quote, "")
    return (
        f"{draw(SOME_SPACE)}{name}{draw(SPACE)}={draw(SPACE)}{quote}{value}{quote}"
    )


@st.composite
def element(draw, depth=0):
    name = draw(st.sampled_from(NAMES))
    attributes = "".join(draw(st.lists(attribute(), max_size=3)))
    if draw(st.integers(0, 4)) == 0:
        return f"<{name}{attributes}{draw(SPACE)}/>"
    pieces = st.one_of(
        TEXTS,
        st.sampled_from([
            "<![CDATA[<raw> & ]]>", "<![CDATA[]]>", "<!-- note -->", "<!---->",
            "<?pi data?>", "<?pi?>",
        ]),
        *([element(depth + 1)] if depth < 3 else []),
    )
    body = "".join(draw(st.lists(pieces, max_size=4)))
    return f"<{name}{attributes}{draw(SPACE)}>{body}</{name}{draw(SPACE)}>"


@st.composite
def document(draw):
    prolog = draw(st.sampled_from([
        "", '<?xml version="1.0"?>', "<?xml version='1.0'?>\n<!-- head -->\n",
        "<!DOCTYPE a [<!ELEMENT a (b)>]>\n", "<?style sheet?><!DOCTYPE a>",
    ]))
    return prolog + draw(element()) + draw(st.sampled_from(["", "\n", "<!-- tail -->"]))


def _delete_a_closing_bracket(text, pick):
    spots = [i for i, ch in enumerate(text) if ch == ">"]
    if not spots:
        return text
    spot = spots[pick % len(spots)]
    return text[:spot] + text[spot + 1:]


def _swap_two_end_tags(text, pick):
    ends = list(re.finditer(r"</[^>]*>", text))
    if len(ends) < 2:
        return text
    first = ends[pick % (len(ends) - 1)]
    second = ends[pick % (len(ends) - 1) + 1]
    return (
        text[:first.start()] + second.group() + text[first.end():second.start()]
        + first.group() + text[second.end():]
    )


def _duplicate_an_attribute(text, pick):
    found = list(re.finditer(r"""\s[^\s<>=/]+\s*=\s*("[^"]*"|'[^']*')""", text))
    if not found:
        return text
    chosen = found[pick % len(found)]
    return text[:chosen.end()] + chosen.group() + text[chosen.end():]


def _bracket_inside_a_value(text, pick):
    spots = [m.end() for m in re.finditer(r"""=\s*["']""", text)]
    if not spots:
        return text
    spot = spots[pick % len(spots)]
    return text[:spot] + "<" + text[spot:]


def _dashes_inside_a_comment(text, pick):
    return text.replace("<!-- ", "<!-- -- ", 1)


def _unquote_a_value(text, pick):
    return re.sub(r"""=(\s*)["']([^"']*)["']""", r"=\1\2", text, count=1)


def _drop_space_between_attributes(text, pick):
    return re.sub(r"""(["'])\s+(\S+\s*=)""", r"\1\2", text, count=1)


def _chop(text, pick):
    return text[: pick % (len(text) + 1)]


def _insert_a_character(text, pick):
    spot = pick % (len(text) + 1)
    return text[:spot] + "<>&\"'/=-!? ;é["[pick % 14] + text[spot:]


def _delete_a_character(text, pick):
    if not text:
        return text
    spot = pick % len(text)
    return text[:spot] + text[spot + 1:]


def _second_root(text, pick):
    return text + "<extra/>"


MUTATIONS = [
    _delete_a_closing_bracket, _swap_two_end_tags, _duplicate_an_attribute,
    _bracket_inside_a_value, _dashes_inside_a_comment, _unquote_a_value,
    _drop_space_between_attributes, _chop, _insert_a_character,
    _delete_a_character, _second_root,
]


class TestFastPathChangesNothing:
    @given(document(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_generated_documents(self, text, keep_whitespace):
        fast = parse_outcome(text, keep_whitespace)
        assert fast == by_character(lambda: parse_outcome(text, keep_whitespace))
        assert token_outcome(text) == by_character(lambda: token_outcome(text))

    @given(
        document(),
        st.lists(
            st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 10_000)),
            min_size=1, max_size=3,
        ),
        st.booleans(),
    )
    @settings(max_examples=600, deadline=None)
    def test_mutated_documents(self, text, mutations, keep_whitespace):
        for mutate, pick in mutations:
            text = mutate(text, pick)
        fast = parse_outcome(text, keep_whitespace)
        assert fast == by_character(lambda: parse_outcome(text, keep_whitespace))
        assert token_outcome(text) == by_character(lambda: token_outcome(text))

    @given(st.text(alphabet="<>/=\"'ab é&;!-?[] \n", max_size=24))
    @settings(max_examples=600, deadline=None)
    def test_arbitrary_text(self, text):
        assert parse_outcome(text, False) == by_character(
            lambda: parse_outcome(text, False)
        )
        assert token_outcome(text) == by_character(lambda: token_outcome(text))

    @pytest.mark.parametrize(
        "text",
        [
            "<a", "<a>", "</a>", "<a></b>", "<a/><b/>", "x<a/>", "<a/>x", "",
            "<a x='1' x='2'/>", '<a x="1"y="2"/>', "<a x=1/>", "<a x/>", "<a x=>",
            '<a x="<"/>', "<a x='1>", "<a 1bad='1'/>", "<a / >", "<a/ >", "< a/>",
            "<a\x0b/>", "<a></a\x0b>", "<é/>", "<aé></aé>", "<a é='1'/>",
            "<a><!-- -- --></a>", "<!-- open", "<![CDATA[ open", "<?pi", "<??>",
            "<a>x<![CDATA[y]]>z</a>", "<a><![CDATA[ ]]> </a>", "<a>&#32;</a>",
            "<a>&#32;<b/></a>", "<a><b/><!DOCTYPE a></a>", "<!DOCTYPE a [",
            "<a x='&lt;' y=\"it's\"/>", "<a  x = '1'\n y\t=\t\"2\"  />", "<a></a >",
            "<a></ a>", "<a x='1' X='2'/>", "<a:b xmlns:a='u'/>", "<a.b-c_d/>",
            "<-a/>", "<a>]]></a>", "<a>></a>", "<a x='>'/>", "<a x='/>'/>",
        ],
    )
    def test_edge_inputs(self, text):
        for keep_whitespace in (False, True):
            assert parse_outcome(text, keep_whitespace) == by_character(
                lambda: parse_outcome(text, keep_whitespace)
            )
        assert token_outcome(text) == by_character(lambda: token_outcome(text))


class TestFastPathIsTaken:
    """Guards the tests above against comparing ``_read_markup`` with
    itself: plain tags must never reach it, odd ones must."""

    @pytest.fixture
    def read_by_character(self, monkeypatch):
        seen = []
        original = tokens.Tokenizer._read_markup

        def spy(tokenizer):
            seen.append(tokenizer._text[tokenizer._pos:tokenizer._pos + 4])
            return original(tokenizer)

        monkeypatch.setattr(tokens.Tokenizer, "_read_markup", spy)
        return seen

    def test_plain_markup_never_reaches_read_markup(self, read_by_character):
        text = "<a x='1' y = \"&amp;\"><b/>text &lt;<c >t</c ></a>"
        parser.parse(text)
        kinds = [type(event) for event in tokenize(text)]
        assert kinds.count(StartTag) == 3 and kinds.count(EndTag) == 2
        assert kinds.count(TextEvent) == 2
        assert read_by_character == []

    def test_everything_else_does(self, read_by_character):
        text = "<!--c--><a x='1' x='2'/>"
        with pytest.raises(XmlSyntaxError, match="duplicate attribute 'x'"):
            parser.parse(text)
        assert read_by_character == ["<!--", "<a x"]
        del read_by_character[:]
        parser.parse("<é><![CDATA[x]]><?pi?></é>")
        assert read_by_character == ["<é><", "<![C", "<?pi", "</é>"]
