"""Shredding documents into tuples for both mappings."""

import pytest

from repro.dtd.parser import parse_dtd
from repro.dtd.simplify import simplify_dtd
from repro.errors import ShreddingError
from repro.mapping import map_hybrid, map_xorator
from repro.shred.loader import Shredder, decide_codecs, load_documents
from repro.xmlkit import parse

PLAY_DOC = (
    "<PLAY>"
    "<ACT>"
    "<SCENE><TITLE>SCENE 1</TITLE>"
    "<SPEECH><SPEAKER>s1</SPEAKER><SPEAKER>s2</SPEAKER>"
    "<LINE>first line</LINE><LINE>second line</LINE></SPEECH>"
    "</SCENE>"
    "<TITLE>ACT I</TITLE>"
    "<SUBTITLE>a subtitle</SUBTITLE>"
    "<SPEECH><SPEAKER>s3</SPEAKER><LINE>act-level line</LINE></SPEECH>"
    "<PROLOGUE>the prologue</PROLOGUE>"
    "</ACT>"
    "</PLAY>"
)


@pytest.fixture()
def plays_sdtd(plays_simplified):
    return plays_simplified


def rows_by_table(schema, doc_text):
    return Shredder(schema).shred(parse(doc_text))


class TestHybridShredding:
    def test_row_counts(self, plays_sdtd):
        rows = rows_by_table(map_hybrid(plays_sdtd), PLAY_DOC)
        assert len(rows["play"]) == 1
        assert len(rows["act"]) == 1
        assert len(rows["scene"]) == 1
        assert len(rows["speech"]) == 2
        assert len(rows["speaker"]) == 3
        assert len(rows["line"]) == 3
        assert len(rows["subtitle"]) == 1
        assert len(rows["induct"]) == 0

    def test_keys_and_parent_links(self, plays_sdtd):
        schema = map_hybrid(plays_sdtd)
        rows = rows_by_table(schema, PLAY_DOC)
        (act,) = rows["act"]
        act_table = schema.table("act")
        assert act_table.columns[0].name == "actID"
        assert act[0] == 1
        (play,) = rows["play"]
        assert act[1] == play[0]  # act_parentID == playID

    def test_parent_code_distinguishes_parents(self, plays_sdtd):
        schema = map_hybrid(plays_sdtd)
        rows = rows_by_table(schema, PLAY_DOC)
        speech_table = schema.table("speech")
        code_pos = speech_table.position = [
            i for i, c in enumerate(speech_table.columns)
            if c.name == "speech_parentCODE"
        ][0]
        codes = sorted(row[code_pos] for row in rows["speech"])
        assert codes == ["ACT", "SCENE"]

    def test_child_order_is_per_tag(self, plays_sdtd):
        schema = map_hybrid(plays_sdtd)
        rows = rows_by_table(schema, PLAY_DOC)
        line_table = schema.table("line")
        order_pos = [
            i for i, c in enumerate(line_table.columns)
            if c.name == "line_childOrder"
        ][0]
        value_pos = [
            i for i, c in enumerate(line_table.columns)
            if c.name == "line_value"
        ][0]
        by_value = {row[value_pos]: row[order_pos] for row in rows["line"]}
        # two speakers precede, but LINE positions count LINEs only
        assert by_value["first line"] == 1
        assert by_value["second line"] == 2
        assert by_value["act-level line"] == 1

    def test_inlined_leaf_values(self, plays_sdtd):
        schema = map_hybrid(plays_sdtd)
        rows = rows_by_table(schema, PLAY_DOC)
        act_table = schema.table("act")
        title_pos = [
            i for i, c in enumerate(act_table.columns)
            if c.name == "act_title"
        ][0]
        prologue_pos = [
            i for i, c in enumerate(act_table.columns)
            if c.name == "act_prologue"
        ][0]
        (act,) = rows["act"]
        assert act[title_pos] == "ACT I"
        assert act[prologue_pos] == "the prologue"

    def test_missing_optional_leaf_is_null(self, plays_sdtd):
        doc = PLAY_DOC.replace("<PROLOGUE>the prologue</PROLOGUE>", "")
        schema = map_hybrid(plays_sdtd)
        rows = Shredder(schema).shred(parse(doc))
        (act,) = rows["act"]
        prologue_pos = [
            i for i, c in enumerate(schema.table("act").columns)
            if c.name == "act_prologue"
        ][0]
        assert act[prologue_pos] is None


class TestXoratorShredding:
    def test_row_counts(self, plays_sdtd):
        rows = rows_by_table(map_xorator(plays_sdtd), PLAY_DOC)
        assert len(rows["play"]) == 1
        assert len(rows["speech"]) == 2
        assert "speaker" not in rows  # absorbed into XADT columns

    def test_xadt_column_concatenates_children(self, plays_sdtd):
        schema = map_xorator(plays_sdtd)
        rows = rows_by_table(schema, PLAY_DOC)
        speech_table = schema.table("speech")
        speaker_pos = [
            i for i, c in enumerate(speech_table.columns)
            if c.name == "speech_speaker"
        ][0]
        first_speech = rows["speech"][0]
        assert first_speech[speaker_pos].to_xml() == (
            "<SPEAKER>s1</SPEAKER><SPEAKER>s2</SPEAKER>"
        )

    def test_empty_xadt_when_no_children(self, plays_sdtd):
        schema = map_xorator(plays_sdtd)
        rows = rows_by_table(schema, PLAY_DOC)
        act_table = schema.table("act")
        subtitle_pos = [
            i for i, c in enumerate(act_table.columns)
            if c.name == "act_subtitle"
        ][0]
        (act,) = rows["act"]
        assert act[subtitle_pos].to_xml() == "<SUBTITLE>a subtitle</SUBTITLE>"

    @pytest.mark.parametrize("codec", ["plain", "dict", "indexed"])
    def test_comments_and_pis_stay_out_of_fragments(self, plays_sdtd, empty_db, codec):
        # found on the parent: the plain payload kept the comment, so the
        # scan kernel answered for an element that is not there
        schema = map_xorator(plays_sdtd)
        document = PLAY_DOC.replace(
            "<LINE>first line</LINE>",
            "<LINE>first<!-- <LINE>ghost</LINE> --> line<?pi <LINE/> ?></LINE>",
        )
        codecs = dict.fromkeys(decide_codecs(schema, [PLAY_DOC]), codec)
        load_documents(empty_db, schema, [document], codecs)
        rows = empty_db.execute(
            "SELECT findKeyInElm(speech_line, 'LINE', 'ghost'), elmText(speech_line) "
            "FROM speech ORDER BY speechID"
        ).rows
        assert rows == [(0, "first linesecond line"), (0, "act-level line")]
        stored = empty_db.execute("SELECT speech_line FROM speech").rows[0][0]
        assert stored.to_xml() == "<LINE>first line</LINE><LINE>second line</LINE>"

    def test_codec_applies_to_xadt_columns(self, plays_sdtd):
        schema = map_xorator(plays_sdtd)
        shredder = Shredder(schema, {"speech.speech_speaker": "dict"})
        rows = shredder.shred(parse(PLAY_DOC))
        speech_table = schema.table("speech")
        speaker_pos = [
            i for i, c in enumerate(speech_table.columns)
            if c.name == "speech_speaker"
        ][0]
        line_pos = [
            i for i, c in enumerate(speech_table.columns)
            if c.name == "speech_line"
        ][0]
        assert rows["speech"][0][speaker_pos].codec == "dict"
        assert rows["speech"][0][line_pos].codec == "plain"


class TestLoaderIntegration:
    def test_load_documents_inserts_everything(self, plays_sdtd, empty_db):
        schema = map_hybrid(plays_sdtd)
        report = load_documents(empty_db, schema, [PLAY_DOC, PLAY_DOC])
        assert report.documents == 2
        assert report.total_rows == empty_db.row_count()
        assert empty_db.row_count("speech") == 4

    def test_ids_unique_across_documents(self, plays_sdtd, empty_db):
        schema = map_hybrid(plays_sdtd)
        load_documents(empty_db, schema, [PLAY_DOC, PLAY_DOC, PLAY_DOC])
        ids = empty_db.execute("SELECT speechID FROM speech").column("speechID")
        assert len(ids) == len(set(ids)) == 6

    def test_wrong_root_rejected(self, plays_sdtd):
        shredder = Shredder(map_hybrid(plays_sdtd))
        with pytest.raises(ShreddingError):
            shredder.shred(parse("<SPEECH/>"))

    def test_decide_codecs_covers_all_xadt_columns(self, plays_sdtd):
        schema = map_xorator(plays_sdtd)
        codecs = decide_codecs(schema, [PLAY_DOC])
        assert "speech.speech_speaker" in codecs
        assert set(codecs.values()) <= {"plain", "dict"}

    def test_relations_under_inlined_intermediates(self, empty_db):
        # z is recursive (a relation) but its DOM parent m is inlined:
        # the loader must walk through m and attach z's rows to r
        sdtd = simplify_dtd(parse_dtd(
            "<!ELEMENT r (m)><!ELEMENT m (z?)>"
            "<!ELEMENT z (#PCDATA | z)*>"
        ))
        schema = map_hybrid(sdtd)
        assert sorted(schema.table_names()) == ["r", "z"]
        load_documents(empty_db, schema, ["<r><m><z>outer<z>inner</z></z></m></r>"])
        assert empty_db.row_count("z") == 2
        parents = empty_db.execute("SELECT z_parentID FROM z").column("z_parentID")
        assert sorted(parents) == [1, 1]  # r's row id, then outer z's id
