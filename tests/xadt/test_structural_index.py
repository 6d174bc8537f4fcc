"""The structural index: parity with the scan methods, the build on the
first routed call, per-statement routing, isolation between databases,
and crash behaviour.

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
from repro.engine.governor import GovernorLimits
from repro.engine.io import IoCounters
from repro.engine.snapshot import activate, deactivate
from repro.errors import CrashPoint, ResourceExceeded
from repro.xadt import XadtValue, register_xadt_functions
from repro.xadt.decode_cache import DECODE_CACHE
from repro.xadt.methods import find_key_in_elm, get_elm, get_elm_index
from repro.xadt.register import enable_structural_indexes
from repro.xadt.storage import CODECS
from repro.xadt.structural_index import (
    StructuralIndex,
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
        with routing(False):
            scan = get_elm_index(value, "SPEECH", "LINE", 2, 2).to_xml()
        assert value._index is None  # a scan builds nothing
        with routing(True):
            routed = get_elm_index(value, "SPEECH", "LINE", 2, 2).to_xml()
        assert isinstance(value._index, StructuralIndex)
        assert routed == scan == "<LINE>or not to be</LINE>"


# ---------------------------------------------------------------------------
# the build on first use
# ---------------------------------------------------------------------------


def charged(call) -> dict[str, int]:
    """The work ``call`` charges under routing."""
    counters = IoCounters()
    token = activate(None, counters, routing=True)
    try:
        call()
    finally:
        deactivate(token)
    return dict(counters.work)


class TestIndexBuild:
    def test_one_build_per_distinct_payload(self):
        first, twin = (XadtValue.from_xml("<a>x</a>") for _ in range(2))
        other = XadtValue.from_xml("<b>y</b>")
        plan = FAULTS.install(FaultPlan())  # counts the build site's hits
        for value in (first, twin, other, first):
            value.structural_index()
        assert plan.hits("xadt.index_build") == 2
        assert first._index is twin._index
        assert other._index is not None and other._index is not first._index

    def test_an_index_is_written_once(self):
        value = XadtValue.from_xml("<a>x</a>")
        index = value.structural_index()
        DECODE_CACHE.clear()
        # the value keeps its index; an equal payload builds its own
        # once the cache has forgotten it
        assert value.structural_index() is index
        later = XadtValue.from_xml("<a>x</a>")
        assert later.structural_index() is not index
        assert value._index is index

    def test_a_pickled_value_routes_like_the_original(self):
        value = XadtValue.from_xml(SPEECH_XML)
        expected = charged(lambda: get_elm_index(value, "SPEECH", "LINE", 2, 2))
        DECODE_CACHE.clear()
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and copy._index is None
        assert charged(
            lambda: get_elm_index(copy, "SPEECH", "LINE", 2, 2)
        ) == expected
        assert copy._index is not None
        # both calls probed an index: they read less than a scan would
        assert expected["xadt_bytes_scanned"] < len(SPEECH_XML)

    def test_a_methods_answer_never_routes(self):
        value = XadtValue.from_xml(SPEECH_XML)
        with routing(True):
            answer = get_elm(value, "SPEECH", "", "")
        for candidate in (answer, pickle.loads(pickle.dumps(answer))):
            assert candidate.structural_index() is None
            work = charged(lambda: find_key_in_elm(candidate, "LINE", "be"))
            assert work["xadt_bytes_scanned"] == len(SPEECH_XML)

    def test_a_build_charges_the_statement_budget(self):
        db = make_db()
        enable_structural_indexes(db)
        cap = StructuralIndex.build(SPEECH_XML).byte_size() - 1
        with db.connect() as session:
            session.set_limits(GovernorLimits(memory_budget_bytes=cap))
            with pytest.raises(ResourceExceeded):
                session.execute(QS6_SQL)
            assert db.heap("x").rows[0][1]._index is None
            session.set_limits(GovernorLimits(memory_budget_bytes=cap + 1))
            assert session.execute(QS6_SQL).rows


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


def stored(db: Database, table: str = "x") -> list[XadtValue]:
    """The XADT values ``table`` stores, in row order."""
    return [row[1] for row in db.heap(table).rows]


class TestEngineIntegration:
    def test_enable_indexes_retroactively(self):
        # a value stored before the flip routes, built on first use
        db = make_db()
        enable_structural_indexes(db)
        assert stored(db)[0]._index is None  # the flip built nothing
        rows = db.execute(QS6_SQL).rows
        assert rows[0][0].to_xml() == "<LINE>or not to be</LINE>"
        assert isinstance(stored(db)[0]._index, StructuralIndex)

    def test_inserts_after_enable_are_indexed(self):
        db = make_db()
        enable_structural_indexes(db)
        db.insert("x", (2, XadtValue.from_xml("<a>late</a>", "dict")))
        db.bulk_insert("x", [(3, XadtValue.from_xml("<a>bulk</a>"))])
        assert [value._index for value in stored(db)] == [None] * 3
        db.execute(QS6_SQL)
        assert all(
            isinstance(value._index, StructuralIndex) for value in stored(db)
        )

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
        assert stored(db)[0]._index is None

    def test_crash_at_index_build_leaves_no_state(self):
        db = make_db()
        enable_structural_indexes(db)
        FAULTS.install(FaultPlan().crash_at("xadt.index_build", hit=1))
        with pytest.raises(CrashPoint):
            db.execute(QS6_SQL)
        FAULTS.clear()
        (value,) = stored(db)
        assert value._index is None
        assert DECODE_CACHE.get(("structural-index", value.payload)) is None
        rows = db.execute(QS6_SQL).rows
        assert rows[0][0].to_xml() == "<LINE>or not to be</LINE>"

    def test_recovery_rebuilds_indexes(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        db = Database.open(path, sync_mode="always")
        register_xadt_functions(db)
        db.execute("CREATE TABLE x (id INTEGER PRIMARY KEY, frag XADT)")
        db.insert("x", (1, XadtValue.from_xml(SPEECH_XML)))
        enable_structural_indexes(db)
        db.insert("x", (2, XadtValue.from_xml("<a>after</a>", "dict")))
        db.io.reset()
        expected = [r[0].to_xml() for r in db.execute(QS6_SQL).rows]
        work = dict(db.io.work)
        db.close()

        DECODE_CACHE.clear()
        recovered = Database.open(path, recover=True)
        register_xadt_functions(recovered)
        assert recovered.exec_config.xadt_structural_index
        assert [value._index for value in stored(recovered)] == [None, None]
        recovered.io.reset()
        assert [r[0].to_xml() for r in recovered.execute(QS6_SQL).rows] == expected
        assert dict(recovered.io.work) == work
        recovered.close()


# ---------------------------------------------------------------------------
# isolation: the flag belongs to the database, the index to the value
# ---------------------------------------------------------------------------


class TestIsolation:
    def test_drop_table_leaves_another_databases_indexes(self):
        first, second = make_db(), make_db()
        enable_structural_indexes(first)
        enable_structural_indexes(second)
        first.execute(QS6_SQL)
        second.execute(QS6_SQL)
        (kept,) = stored(second)
        index = kept._index
        first.execute("DROP TABLE x")
        late = XadtValue.from_xml("<a>late</a>")
        second.insert("x", (2, late))
        assert second.execute(QS6_SQL).rows
        assert kept._index is index and late._index is not None

    def test_bare_call_scans_after_an_indexed_database_closed(self):
        indexed = make_db()
        enable_structural_indexes(indexed)
        indexed.execute(QS6_SQL)
        indexed.close()
        value = XadtValue.from_xml(SPEECH_XML)  # an equal payload
        counters = IoCounters()
        token = activate(None, counters)
        try:
            assert find_key_in_elm(value, "LINE", "be") == 1
        finally:
            deactivate(token)
        assert counters.work["xadt_bytes_scanned"] == len(SPEECH_XML)
