"""The structural index: parity with the scan methods, the build at
ingest, per-statement routing, isolation between databases, and crash
behaviour.

The parity suite is the module's contract: for every fragment (random or
hand-picked, any codec) the indexed implementations of ``getElm``,
``findKeyInElm`` and ``getElmIndex`` must return byte-identical results
to the paper-faithful scan implementations.
"""

import pickle
import random

import pytest

from repro.engine.database import Database
from repro.engine.faults import FAULTS, FaultPlan
from repro.engine.io import IoCounters
from repro.engine.snapshot import activate, deactivate
from repro.errors import CrashPoint
from repro.obs.metrics import METRICS
from repro.xadt import XadtValue, register_xadt_functions
from repro.xadt.decode_cache import DECODE_CACHE
from repro.xadt.methods import find_key_in_elm, get_elm, get_elm_index
from repro.xadt.register import enable_structural_indexes
from repro.xadt.storage import CODECS
from repro.xadt.structural_index import (
    StructuralIndex,
    index_fragments,
    routing,
    routing_enabled,
    statement_routing,
)


@pytest.fixture(autouse=True)
def clean_state():
    FAULTS.clear()
    DECODE_CACHE.clear()
    yield
    FAULTS.clear()
    DECODE_CACHE.clear()


# ---------------------------------------------------------------------------
# randomized parity
# ---------------------------------------------------------------------------

TAGS = ["LINE", "SPEAKER", "STAGEDIR", "SPEECH", "a", "b"]
WORDS = ["kiss", "die", "plague", "apothecary", "rising", "love", "O"]


def random_fragment(rng: random.Random) -> str:
    """A random fragment: nested elements, repeated tags, mixed text."""

    def element(depth: int) -> str:
        tag = rng.choice(TAGS)
        if depth >= 3 or rng.random() < 0.3:
            if rng.random() < 0.2:
                return f"<{tag}/>"
            return f"<{tag}>{' '.join(rng.sample(WORDS, rng.randint(1, 3)))}</{tag}>"
        children = "".join(element(depth + 1) for _ in range(rng.randint(1, 3)))
        text = rng.choice(WORDS) if rng.random() < 0.5 else ""
        return f"<{tag}>{text}{children}</{tag}>"

    return "".join(element(0) for _ in range(rng.randint(0, 4)))


@pytest.fixture(params=CODECS)
def codec(request):
    return request.param


class TestRandomizedParity:
    """Indexed vs scan over random fragments, every codec."""

    def test_get_elm_parity(self, codec):
        rng = random.Random(11)
        for _ in range(40):
            xml = random_fragment(rng)
            value = XadtValue.from_xml(xml, codec)
            index = StructuralIndex.from_payload(value.payload, codec)
            for root in ["", rng.choice(TAGS), rng.choice(TAGS)]:
                for search in ["", rng.choice(TAGS)]:
                    for key in ["", rng.choice(WORDS), "zz", "lo"]:
                        with routing(False):
                            expected = get_elm(value, root, search, key).to_xml()
                        assert index.get_elm(root, search, key) == expected, (
                            xml, root, search, key,
                        )

    def test_find_key_parity(self, codec):
        rng = random.Random(23)
        keys = WORDS + ["zz", "lo", "kiss die", " ", "a,", "plague on"]
        for _ in range(40):
            xml = random_fragment(rng)
            value = XadtValue.from_xml(xml, codec)
            index = StructuralIndex.from_payload(value.payload, codec)
            for elm in ["", rng.choice(TAGS), "MISSING"]:
                for key in keys:
                    if not elm and not key:
                        continue
                    DECODE_CACHE.clear()  # memoized verdicts off the table
                    with routing(False):
                        expected = find_key_in_elm(value, elm, key)
                    assert index.find_key(elm, key) == expected, (xml, elm, key)

    def test_get_elm_index_parity(self, codec):
        rng = random.Random(37)
        positions = [(1, 1), (2, 2), (1, 4), (3, 2), (0, 2), (-1, 1), (2, -3), (5, 9)]
        for _ in range(40):
            xml = random_fragment(rng)
            value = XadtValue.from_xml(xml, codec)
            index = StructuralIndex.from_payload(value.payload, codec)
            for parent in ["", rng.choice(TAGS), "MISSING"]:
                child = rng.choice(TAGS)
                for start, end in positions:
                    with routing(False):
                        expected = get_elm_index(
                            value, parent, child, start, end
                        ).to_xml()
                    got = index.get_elm_index(parent, child, start, end)
                    assert got == expected, (xml, parent, child, start, end)


class TestEdgeCaseParity:
    def test_empty_fragment(self, codec):
        value = XadtValue.from_xml("", codec)
        index = StructuralIndex.from_payload(value.payload, codec)
        assert len(index) == 0
        assert index.get_elm("", "", "") == ""
        assert index.find_key("LINE", "kiss") == 0
        assert index.get_elm_index("", "LINE", 1, 5) == ""

    def test_repeated_nested_same_tag(self, codec):
        xml = "<d>x<d>inner<d>deep</d></d></d><d>flat</d>"
        value = XadtValue.from_xml(xml, codec)
        index = StructuralIndex.from_payload(value.payload, codec)
        with routing(False):
            assert index.get_elm("d", "", "") == get_elm(value, "d", "", "").to_xml()
            assert index.get_elm("d", "d", "deep") == get_elm(
                value, "d", "d", "deep"
            ).to_xml()
            assert index.get_elm_index("d", "d", 1, 1) == get_elm_index(
                value, "d", "d", 1, 1
            ).to_xml()

    def test_out_of_range_ordinals_are_empty(self, codec):
        xml = "<s><l>one</l><l>two</l></s>"
        value = XadtValue.from_xml(xml, codec)
        index = StructuralIndex.from_payload(value.payload, codec)
        assert index.get_elm_index("s", "l", 3, 9) == ""
        assert index.get_elm_index("s", "l", 0, 0) == ""
        assert index.get_elm_index("s", "l", 2, 1) == ""
        assert index.get_elm_index("s", "l", -5, -1) == ""

    def test_word_run_across_child_boundary(self, codec):
        # tags strip to "love": the keyword map must see the joined run
        xml = "<a><b>lo</b>ve</a>"
        value = XadtValue.from_xml(xml, codec)
        index = StructuralIndex.from_payload(value.payload, codec)
        with routing(False):
            assert index.find_key("a", "love") == find_key_in_elm(value, "a", "love")
        assert index.find_key("a", "love") == 1

    def test_routed_method_calls_match_scan(self, codec):
        xml = "<SPEECH><LINE>to be</LINE><LINE>or not to be</LINE></SPEECH>"
        value = XadtValue.from_xml(xml, codec)
        index_fragments([value])
        assert value._index is not None
        with routing(False):
            scan = get_elm_index(value, "SPEECH", "LINE", 2, 2).to_xml()
        with routing(True):
            routed = get_elm_index(value, "SPEECH", "LINE", 2, 2).to_xml()
        assert routed == scan == "<LINE>or not to be</LINE>"


# ---------------------------------------------------------------------------
# the build at ingest
# ---------------------------------------------------------------------------


class TestIndexBuild:
    def test_one_build_per_distinct_payload(self):
        first, twin = (XadtValue.from_xml("<a>x</a>") for _ in range(2))
        other = XadtValue.from_xml("<b>y</b>")
        assert index_fragments([first, None, twin, other]) == 2
        assert first._index is twin._index
        assert other._index is not None and other._index is not first._index

    def test_an_index_is_written_once(self):
        value = XadtValue.from_xml("<a>x</a>")
        index_fragments([value])
        index = value._index
        later = XadtValue.from_xml("<a>x</a>")
        # a second call builds nothing: the indexed value keeps its
        # index and lends it to the equal payload after it
        assert index_fragments([value, later]) == 0
        assert value._index is index and later._index is index

    def test_an_index_never_crosses_a_pickle(self):
        value = XadtValue.from_xml("<a>x</a>")
        index_fragments([value])
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and copy._index is None


# ---------------------------------------------------------------------------
# routing
# ---------------------------------------------------------------------------


class TestRouting:
    def test_statement_pin_overrides_store(self):
        # the pin decides; unpinned code scans
        assert not routing_enabled()
        with statement_routing(False):
            assert not routing_enabled()
        with statement_routing(True):
            assert routing_enabled()
        assert not routing_enabled()


# ---------------------------------------------------------------------------
# engine integration
# ---------------------------------------------------------------------------

SPEECH_XML = "<SPEECH><LINE>to be</LINE><LINE>or not to be</LINE></SPEECH>"
QS6_SQL = "SELECT getElmIndex(frag, 'SPEECH', 'LINE', 2, 2) FROM x"


def make_db() -> Database:
    db = Database("test")
    register_xadt_functions(db)
    db.execute("CREATE TABLE x (id INTEGER PRIMARY KEY, frag XADT)")
    db.insert("x", (1, XadtValue.from_xml(SPEECH_XML)))
    return db


def xindex(db: Database) -> list[tuple]:
    return db.execute("SELECT * FROM sys_xindex").rows


class TestEngineIntegration:
    def test_enable_indexes_retroactively(self):
        db = make_db()
        enable_structural_indexes(db)
        report = db.size_report()["xadt_structural_index"]
        assert report["active"] and report["fragments"] == 1
        rows = db.execute(QS6_SQL).rows
        assert rows[0][0].to_xml() == "<LINE>or not to be</LINE>"

    def test_inserts_after_enable_are_indexed(self):
        db = make_db()
        enable_structural_indexes(db)
        db.insert("x", (2, XadtValue.from_xml("<a>late</a>", "dict")))
        report = db.size_report()["xadt_structural_index"]
        assert report["fragments"] == 2

    def test_report_accounts_per_column(self):
        db = Database("report")
        register_xadt_functions(db)
        db.execute("CREATE TABLE t (id INTEGER, frag XADT, other XADT)")
        enable_structural_indexes(db)
        value, twin = (XadtValue.from_xml("<a><b>x</b></a>") for _ in range(2))
        db.bulk_insert("t", [(1, value, None), (2, twin, None)])
        report = db.size_report()["xadt_structural_index"]
        # each distinct payload of a column counts once
        assert report["active"] and report["fragments"] == 1
        frag, other = report["columns"]
        assert (frag["table"], frag["column"], frag["fragments"]) == ("t", "frag", 1)
        assert frag["entries"] == 2
        assert frag["bytes"] == report["bytes"] == value._index.byte_size()
        assert (other["fragments"], other["bytes"]) == (0, 0)
        assert xindex(db) == [tuple(c.values()) for c in report["columns"]]

    def test_explain_labels_access_path(self):
        db = make_db()
        assert "xadt[scan]" in db.explain(QS6_SQL)
        enable_structural_indexes(db)
        assert "xadt[xindex]" in db.explain(QS6_SQL)

    def test_default_mode_keeps_scan_path(self):
        db = make_db()
        other = Database("other")
        register_xadt_functions(other)
        other.execute("CREATE TABLE x (id INTEGER PRIMARY KEY, frag XADT)")
        other.insert("x", (1, XadtValue.from_xml(SPEECH_XML)))
        enable_structural_indexes(other)  # another database opts in ...
        assert "xadt[scan]" in db.explain(QS6_SQL)  # ... db stays faithful
        assert db.execute(QS6_SQL).rows[0][0].to_xml() == "<LINE>or not to be</LINE>"

    def test_drop_table_unregisters(self):
        db = make_db()
        enable_structural_indexes(db)
        assert [row[:2] for row in xindex(db)] == [("x", "frag")]
        db.execute("DROP TABLE x")
        assert xindex(db) == []

    def test_drop_table_retires_its_published_indexes(self):
        db = Database("drop")
        register_xadt_functions(db)
        db.execute("CREATE TABLE t (id INTEGER, frag XADT)")
        db.execute("CREATE TABLE keep (id INTEGER, frag XADT)")
        enable_structural_indexes(db)
        for i in range(5):
            db.insert("t", (i, XadtValue.from_xml(f"<a><b>row {i}</b></a>")))
        # a payload also stored in t: keep's value carries its own index
        db.insert("keep", (0, XadtValue.from_xml("<a><b>row 0</b></a>")))
        db.insert("keep", (1, XadtValue.from_xml("<c>kept</c>")))
        assert [row[:3] for row in xindex(db)] == [
            ("keep", "frag", 2), ("t", "frag", 5),
        ]
        db.execute("DROP TABLE t")
        assert [row[:3] for row in xindex(db)] == [("keep", "frag", 2)]
        report = db.size_report()["xadt_structural_index"]
        assert report["fragments"] == 2 and report["bytes"] == xindex(db)[0][4]
        hits = METRICS.counter("xindex.hits.find_key_in_elm").value
        misses = METRICS.counter("xindex.misses.find_key_in_elm").value
        sql = "SELECT id FROM keep WHERE findKeyInElm(frag, 'b', 'row') = 1"
        assert db.execute(sql).rows == [(0,)]
        assert METRICS.counter("xindex.hits.find_key_in_elm").value == hits + 2
        assert METRICS.counter("xindex.misses.find_key_in_elm").value == misses
        db.execute("DROP TABLE keep")
        assert xindex(db) == []
        assert db.size_report()["xadt_structural_index"]["bytes"] == 0

    def test_crash_at_index_build_leaves_no_state(self):
        db = make_db()
        enable_structural_indexes(db)
        FAULTS.install(FaultPlan().crash_at("xadt.index_build", hit=1))
        value = XadtValue.from_xml("<b>doomed</b>")
        with pytest.raises(CrashPoint):
            db.insert("x", (2, value))
        FAULTS.clear()
        assert value._index is None
        assert db.size_report()["xadt_structural_index"]["fragments"] == 1
        assert db.row_count("x") == 1  # heap never touched

    def test_recovery_rebuilds_indexes(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        db = Database.open(path, sync_mode="always")
        register_xadt_functions(db)
        db.execute("CREATE TABLE x (id INTEGER PRIMARY KEY, frag XADT)")
        db.insert("x", (1, XadtValue.from_xml(SPEECH_XML)))
        enable_structural_indexes(db)
        db.insert("x", (2, XadtValue.from_xml("<a>after</a>", "dict")))
        expected = [r[0].to_xml() for r in db.execute(QS6_SQL).rows]
        db.close()

        recovered = Database.open(path, recover=True)
        register_xadt_functions(recovered)
        assert recovered.exec_config.xadt_structural_index
        report = recovered.size_report()["xadt_structural_index"]
        assert report["active"] and report["fragments"] == 2
        assert [r[0].to_xml() for r in recovered.execute(QS6_SQL).rows] == expected
        recovered.close()


# ---------------------------------------------------------------------------
# isolation: an index belongs to the database that stored its value
# ---------------------------------------------------------------------------


class TestIsolation:
    def test_drop_table_leaves_another_databases_indexes(self):
        first, second = make_db(), make_db()
        enable_structural_indexes(first)
        enable_structural_indexes(second)
        first.execute("DROP TABLE x")
        assert [row[:3] for row in xindex(second)] == [("x", "frag", 1)]
        late = XadtValue.from_xml("<a>late</a>")
        second.insert("x", (2, late))
        assert late._index is not None
        assert [row[:3] for row in xindex(second)] == [("x", "frag", 2)]

    def test_default_database_lists_no_closed_databases_columns(self):
        indexed = make_db()
        enable_structural_indexes(indexed)
        indexed.close()
        assert xindex(make_db()) == []

    def test_bare_call_scans_after_an_indexed_database_closed(self):
        indexed = make_db()
        enable_structural_indexes(indexed)
        indexed.close()
        value = XadtValue.from_xml(SPEECH_XML)  # an equal payload
        counters = IoCounters()
        token = activate(None, counters)
        try:
            assert find_key_in_elm(value, "LINE", "be") == 1
        finally:
            deactivate(token)
        assert counters.work["xadt_bytes_scanned"] == len(SPEECH_XML)
