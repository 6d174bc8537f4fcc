"""Path navigation over the DOM by tag: ``find_all`` for a child step,
``iter`` / ``descendants`` for a descendant step — the idioms the tests
use to state a query's intent against raw documents."""

from repro.xmlkit import parse

DOC = parse(
    "<PLAY>"
    "<ACT><SCENE><SPEECH><SPEAKER>A</SPEAKER></SPEECH></SCENE></ACT>"
    "<ACT><SCENE><SPEECH><SPEAKER>B</SPEAKER></SPEECH>"
    "<SPEECH><SPEAKER>C</SPEAKER></SPEECH></SCENE></ACT>"
    "</PLAY>"
)


def texts(nodes):
    return [node.text_content() for node in nodes]


class TestSelect:
    def test_rooted_path(self):
        speakers = [
            speaker
            for act in DOC.root.find_all("ACT")
            for scene in act.find_all("SCENE")
            for speech in scene.find_all("SPEECH")
            for speaker in speech.find_all("SPEAKER")
        ]
        assert texts(speakers) == ["A", "B", "C"]

    def test_anywhere_path(self):
        assert texts(DOC.iter("SPEAKER")) == ["A", "B", "C"]

    def test_wildcard_step(self):
        scenes = [
            scene
            for child in DOC.root.child_elements()
            for scene in child.find_all("SCENE")
        ]
        assert len(scenes) == 2

    def test_root_mismatch_yields_empty(self):
        assert DOC.root.find("NOPE") is None
        assert DOC.root.find_all("NOPE") == []

    def test_document_or_element_accepted(self):
        assert list(DOC.root.iter("SPEECH")) == list(DOC.iter("SPEECH"))

    def test_anywhere_includes_root(self):
        assert list(DOC.iter("PLAY")) == [DOC.root]
        assert list(DOC.root.descendants("PLAY")) == []

    def test_anywhere_non_nested_tags(self):
        nested = parse("<a><x><x/></x></a>")
        # descendant search finds both occurrences (outer and inner)
        assert len(list(nested.root.descendants("x"))) == 2
