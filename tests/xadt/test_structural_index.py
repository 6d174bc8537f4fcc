"""The structural path index: parity with the scan methods, store
lifecycle, epoch-keyed memoization, and crash behaviour.

The parity suite is the module's contract: for every fragment (random or
hand-picked, any codec) the indexed implementations of ``getElm``,
``findKeyInElm`` and ``getElmIndex`` must return byte-identical results
to the paper-faithful scan implementations.
"""

import random

import pytest

from repro.engine.database import Database
from repro.engine.faults import FAULTS, FaultPlan
from repro.errors import CrashPoint
from repro.xadt import XadtValue, register_xadt_functions
from repro.xadt.decode_cache import DECODE_CACHE, memoize_predicate
from repro.xadt.methods import find_key_in_elm, get_elm, get_elm_index
from repro.xadt.register import enable_structural_indexes
from repro.xadt.storage import CODECS
from repro.xadt.structural_index import (
    XINDEX,
    StructuralIndex,
    routing,
    routing_enabled,
    statement_routing,
)


@pytest.fixture(autouse=True)
def clean_store():
    XINDEX.clear()
    FAULTS.clear()
    DECODE_CACHE.clear()
    yield
    XINDEX.clear()
    FAULTS.clear()
    DECODE_CACHE.clear()


def publish_fragment(value: XadtValue) -> None:
    """Push one fragment through the store's normal ingest/publish path."""
    XINDEX.register_column("t", "frag")
    XINDEX.ingest_rows("t", ["frag"], [(value,)])
    XINDEX.publish(XINDEX.catalog_version)


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
        publish_fragment(value)
        with routing(False):
            scan = get_elm_index(value, "SPEECH", "LINE", 2, 2).to_xml()
        with routing(True):
            assert XINDEX.lookup(value) is not None
            routed = get_elm_index(value, "SPEECH", "LINE", 2, 2).to_xml()
        assert routed == scan == "<LINE>or not to be</LINE>"


# ---------------------------------------------------------------------------
# routing
# ---------------------------------------------------------------------------


class TestRouting:
    def test_default_follows_store_activity(self):
        assert not routing_enabled()
        XINDEX.register_column("t", "frag")
        assert routing_enabled()

    def test_statement_pin_overrides_store(self):
        XINDEX.register_column("t", "frag")
        with statement_routing(False):
            assert not routing_enabled()
        with statement_routing(True):
            assert routing_enabled()
        assert routing_enabled()


# ---------------------------------------------------------------------------
# store lifecycle
# ---------------------------------------------------------------------------


class TestStoreLifecycle:
    def test_staged_builds_invisible_until_publish(self):
        value = XadtValue.from_xml("<a>x</a>")
        XINDEX.register_column("t", "frag")
        built = XINDEX.ingest_rows("t", ["frag"], [(value,)])
        assert built == 1
        assert XINDEX.lookup(value) is None  # staged only
        epoch = XINDEX.epoch
        XINDEX.publish(3)
        assert XINDEX.lookup(value) is not None
        assert XINDEX.epoch == epoch + 1
        assert XINDEX.catalog_version == 3

    def test_publish_without_staged_keeps_epoch(self):
        epoch = XINDEX.epoch
        XINDEX.publish(7)
        assert XINDEX.epoch == epoch
        assert XINDEX.catalog_version == 7

    def test_discard_staged_drops_builds(self):
        value = XadtValue.from_xml("<a>x</a>")
        XINDEX.register_column("t", "frag")
        XINDEX.ingest_rows("t", ["frag"], [(value,)])
        XINDEX.discard_staged()
        XINDEX.publish(1)
        assert XINDEX.lookup(value) is None

    def test_unregistered_columns_not_indexed(self):
        value = XadtValue.from_xml("<a>x</a>")
        XINDEX.register_column("t", "other")
        assert XINDEX.ingest_rows("t", ["frag"], [(value,)]) == 0

    def test_report_accounts_per_column(self):
        value = XadtValue.from_xml("<a><b>x</b></a>")
        publish_fragment(value)
        report = XINDEX.report()
        assert report["active"] and report["fragments"] == 1
        (column,) = report["columns"]
        assert column["fragments"] == 1
        assert column["entries"] == 2
        assert column["bytes"] == report["bytes"] > 0

    def test_unregister_last_table_deactivates(self):
        XINDEX.register_column("t", "frag")
        XINDEX.unregister_table("t")
        assert not XINDEX.active


# ---------------------------------------------------------------------------
# decode-cache interplay (satellite: epoch-keyed predicate verdicts)
# ---------------------------------------------------------------------------


class TestEpochKeyedMemoization:
    def test_version_busts_cached_verdicts(self):
        calls = []

        def compute():
            calls.append(1)
            return 1

        memoize_predicate("findkey-plain", "<a>x</a>", ("a", "x"), compute, version=0)
        memoize_predicate("findkey-plain", "<a>x</a>", ("a", "x"), compute, version=0)
        assert len(calls) == 1  # second call served from cache
        memoize_predicate("findkey-plain", "<a>x</a>", ("a", "x"), compute, version=1)
        assert len(calls) == 2  # new store generation recomputes

    def test_find_key_recomputes_after_index_rebuild(self):
        value = XadtValue.from_xml("<a>needle</a>")
        with routing(False):
            assert find_key_in_elm(value, "a", "needle") == 1
        hits_before = DECODE_CACHE.stats.hits
        with routing(False):
            find_key_in_elm(value, "a", "needle")
        assert DECODE_CACHE.stats.hits == hits_before + 1
        # a publish that changes the store bumps the epoch: the old
        # verdict may no longer describe the access path, so it misses
        publish_fragment(XadtValue.from_xml("<other>doc</other>"))
        misses_before = DECODE_CACHE.stats.misses
        with routing(False):
            find_key_in_elm(value, "a", "needle")
        assert DECODE_CACHE.stats.misses == misses_before + 1


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
        enable_structural_indexes(other)  # store active process-wide ...
        assert "xadt[scan]" in db.explain(QS6_SQL)  # ... db stays faithful
        assert db.execute(QS6_SQL).rows[0][0].to_xml() == "<LINE>or not to be</LINE>"

    def test_drop_table_unregisters(self):
        db = make_db()
        enable_structural_indexes(db)
        db.execute("DROP TABLE x")
        assert XINDEX.columns_for("x") == []

    def test_drop_table_retires_its_published_indexes(self):
        from repro.obs.metrics import METRICS

        db = Database("drop")
        register_xadt_functions(db)
        db.execute("CREATE TABLE t (id INTEGER, frag XADT)")
        db.execute("CREATE TABLE keep (id INTEGER, frag XADT)")
        enable_structural_indexes(db)
        for i in range(5):
            db.insert("t", (i, XadtValue.from_xml(f"<a><b>row {i}</b></a>")))
        shared = XadtValue.from_xml("<a><b>row 0</b></a>")
        db.insert("keep", (0, shared))  # payload first indexed under t
        db.insert("keep", (1, XadtValue.from_xml("<c>kept</c>")))
        assert len(XINDEX) == 6
        epoch = XINDEX.epoch
        db.execute("DROP TABLE t")
        assert len(XINDEX) == 1 and XINDEX.epoch > epoch
        report = XINDEX.report()
        assert report["fragments"] == 1
        assert [c["table"] for c in report["columns"]] == ["keep"]
        # the shared payload now misses and is scanned: correct, and counted
        misses = METRICS.counter("xindex.misses.find_key_in_elm").value
        sql = "SELECT id FROM keep WHERE findKeyInElm(frag, 'b', 'row') = 1"
        assert db.execute(sql).rows == [(0,)]
        assert METRICS.counter("xindex.misses.find_key_in_elm").value == misses + 1
        db.execute("DROP TABLE keep")
        assert len(XINDEX) == 0 and not XINDEX.active
        assert XINDEX.report()["bytes"] == 0
        gauges = METRICS.snapshot()["gauges"]
        assert gauges["xindex.fragments"] == gauges["xindex.bytes"] == 0

    def test_crash_at_index_build_leaves_no_state(self):
        db = make_db()
        enable_structural_indexes(db)
        FAULTS.install(FaultPlan().crash_at("xadt.index_build", hit=1))
        value = XadtValue.from_xml("<b>doomed</b>")
        with pytest.raises(CrashPoint):
            db.insert("x", (2, value))
        FAULTS.clear()
        assert XINDEX.lookup(value) is None  # staged build discarded
        assert db.size_report()["xadt_structural_index"]["staged"] == 0
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

        XINDEX.clear()  # cold process start
        recovered = Database.open(path, recover=True)
        register_xadt_functions(recovered)
        assert recovered.exec_config.xadt_structural_index
        report = recovered.size_report()["xadt_structural_index"]
        assert report["active"] and report["fragments"] == 2
        assert [r[0].to_xml() for r in recovered.execute(QS6_SQL).rows] == expected
