"""The element directory an ``indexed`` value stores, keyword map
included: parity with the scan methods, the build on first use, the
charge per access, isolation between databases, and crash behaviour.

The parity suite is the directory's contract: for every fragment (random
or hand-picked, from any codec) the directory implementations of
``getElm``, ``findKeyInElm``, ``getElmIndex`` and ``unnest`` must return
byte-identical results to the paper-faithful scan kernels in
:mod:`repro.xadt.fastscan`, for word keys (answered from the keyword
map) and non-word keys (read from the candidate elements) alike.
"""

import pickle
import random

import pytest

from repro.engine.config import ExecutionConfig
from repro.engine.database import Database
from repro.engine.faults import FAULTS, FaultPlan
from repro.engine.governor import GovernorLimits
from repro.engine.io import IoCounters
from repro.engine.snapshot import activate, current_context, deactivate
from repro.errors import CrashPoint, ResourceExceeded
from repro.xadt import INDEXED, PLAIN, XadtValue, fastscan, register_xadt_functions
from repro.xadt.decode_cache import DECODE_CACHE
from repro.xadt.metadata import ENTRY_BYTES, HEADER_BYTES, SpanDirectory
from repro.xadt.methods import find_key_in_elm, get_elm, get_elm_index
from repro.xadt.storage import CODECS
from repro.xadt.structural_index import statement_routing

PROBE = HEADER_BYTES + ENTRY_BYTES


@pytest.fixture(autouse=True)
def clean_state():
    FAULTS.clear()
    DECODE_CACHE.clear()
    yield
    FAULTS.clear()
    DECODE_CACHE.clear()


def stored_directory(xml: str, codec: str) -> tuple[str, SpanDirectory]:
    """The fragment's tagged text and the directory its ``indexed``
    recoding stores."""
    value = XadtValue.from_xml(xml, codec)
    return value.scan_text(), value.recode(INDEXED).directory()


# ---------------------------------------------------------------------------
# randomized parity
# ---------------------------------------------------------------------------

TAGS = ["LINE", "SPEAKER", "STAGEDIR", "SPEECH", "a", "b"]
WORDS = ["kiss", "die", "plague", "apothecary", "rising", "love", "O"]
#: word keys the keyword map answers, and keys it cannot
KEYS = WORDS + ["zz", "lo", "kiss die", " ", "a,", "plague on", "e O"]


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
    """The stored directory vs the scan kernels over random fragments,
    recoded from every codec."""

    def test_get_elm_parity(self, codec):
        rng = random.Random(11)
        for _ in range(40):
            text, directory = stored_directory(random_fragment(rng), codec)
            for root in ["", rng.choice(TAGS), rng.choice(TAGS)]:
                for search in ["", rng.choice(TAGS)]:
                    for key in ["", rng.choice(WORDS), "zz", "lo", " ", "e O"]:
                        expected = fastscan.get_elm_plain(text, root, search, key)
                        assert directory.get_elm(root, search, key) == expected, (
                            text, root, search, key,
                        )

    def test_find_key_parity(self, codec):
        rng = random.Random(23)
        for _ in range(40):
            text, directory = stored_directory(random_fragment(rng), codec)
            for elm in ["", rng.choice(TAGS), "MISSING"]:
                for key in KEYS:
                    expected = fastscan.find_key_in_elm_plain(text, elm, key)
                    assert directory.find_key(elm, key) == expected, (text, elm, key)

    def test_get_elm_index_parity(self, codec):
        rng = random.Random(37)
        positions = [(1, 1), (2, 2), (1, 4), (3, 2), (0, 2), (-1, 1), (2, -3), (5, 9)]
        for _ in range(40):
            text, directory = stored_directory(random_fragment(rng), codec)
            for parent in ["", rng.choice(TAGS), "MISSING"]:
                child = rng.choice(TAGS)
                for start, end in positions:
                    expected = fastscan.get_elm_index_plain(
                        text, parent, child, start, end
                    )
                    got = directory.get_elm_index(parent, child, start, end)
                    assert got == expected, (text, parent, child, start, end)

    def test_unnest_parity(self, codec):
        rng = random.Random(41)
        for _ in range(40):
            text, directory = stored_directory(random_fragment(rng), codec)
            for tag in ["", *TAGS, "MISSING"]:
                assert directory.unnest(tag) == fastscan.unnest_plain(text, tag)

    def test_methods_parity(self, codec):
        # through the column bodies: an indexed value answers like the
        # plain one, word key or not
        rng = random.Random(43)
        for _ in range(20):
            xml = random_fragment(rng)
            plain = XadtValue.from_xml(xml, codec).recode(PLAIN)
            indexed = plain.recode(INDEXED)
            for elm in [rng.choice(TAGS), "MISSING"]:
                for key in ["love", " ", "lo", ""]:
                    assert find_key_in_elm(indexed, elm, key) == find_key_in_elm(
                        plain, elm, key
                    )
                    assert get_elm(indexed, elm, "", key) == get_elm(plain, elm, "", key)


class TestEdgeCaseParity:
    def test_empty_fragment(self, codec):
        _, directory = stored_directory("", codec)
        assert len(directory) == 0 and directory.byte_size() == 0
        assert directory.get_elm("", "", "") == ""
        assert directory.find_key("LINE", "kiss") == 0
        assert directory.get_elm_index("", "LINE", 1, 5) == ""

    def test_repeated_nested_same_tag(self, codec):
        xml = "<d>x<d>inner<d>deep</d></d></d><d>flat</d>"
        text, directory = stored_directory(xml, codec)
        assert directory.get_elm("d", "", "") == fastscan.get_elm_plain(
            text, "d", "", ""
        )
        assert directory.get_elm("d", "d", "deep") == fastscan.get_elm_plain(
            text, "d", "d", "deep"
        )
        assert directory.get_elm_index("d", "d", 1, 1) == (
            fastscan.get_elm_index_plain(text, "d", "d", 1, 1)
        )

    def test_out_of_range_ordinals_are_empty(self, codec):
        _, directory = stored_directory("<s><l>one</l><l>two</l></s>", codec)
        assert directory.get_elm_index("s", "l", 3, 9) == ""
        assert directory.get_elm_index("s", "l", 0, 0) == ""
        assert directory.get_elm_index("s", "l", 2, 1) == ""
        assert directory.get_elm_index("s", "l", -5, -1) == ""

    def test_word_run_across_child_boundary(self, codec):
        # tags strip to "love": the keyword map must see the joined run
        text, directory = stored_directory("<a><b>lo</b>ve</a>", codec)
        assert directory.find_key("a", "love") == 1
        assert fastscan.find_key_in_elm_plain(text, "a", "love") == 1

    def test_routed_method_calls_match_scan(self, codec):
        # the value alone picks the path: a scan-codec value scans and
        # builds nothing, an indexed one answers from the directory it
        # builds on first use
        value = XadtValue.from_xml(SPEECH_XML, codec)
        answer = get_elm_index(value, "SPEECH", "LINE", 2, 2)
        assert (value._directory is not None) == (codec == INDEXED)
        assert answer.codec == PLAIN
        assert answer.to_xml() == "<LINE>or not to be</LINE>"


class TestKeywordMap:
    def test_a_getelm_directory_for_one_call_has_no_keyword_map(self):
        text = "<a><b>x y</b></a>"
        keyed, bare = SpanDirectory.build(text), SpanDirectory.build(text, False)
        assert keyed.keyed("x") and not bare.keyed("x")
        assert bare.byte_size() < keyed.byte_size()
        assert bare.find_key("b", "y") == keyed.find_key("b", "y") == 1

    def test_the_keyword_map_is_priced_in_stored_bytes(self):
        value = XadtValue.from_xml(SPEECH_XML, INDEXED)
        bare = SpanDirectory.build(SPEECH_XML, keywords=False)
        assert value.byte_size() > len(SPEECH_XML) + bare.byte_size()
        assert value.byte_size() == len(SPEECH_XML) + value.directory().byte_size()

    def test_a_word_key_is_a_probe_and_any_other_key_reads_the_candidates(self):
        xml = "<a><b>x, y</b><b>zz</b></a>" * 50
        value = XadtValue.from_xml(xml, INDEXED)
        candidates = sum(
            span.end - span.start for span in value.directory().outermost_of("b")
        )
        assert charged(lambda: find_key_in_elm(value, "b", "zz")) == PROBE
        assert charged(lambda: find_key_in_elm(value, "b", ", ")) == (
            PROBE + candidates
        )
        assert PROBE + candidates == 1034
        # a memo hit charges what its miss did
        assert charged(lambda: find_key_in_elm(value, "b", ", ")) == 1034


# ---------------------------------------------------------------------------
# the build on first use
# ---------------------------------------------------------------------------


def charged(call) -> int:
    """The XADT bytes ``call`` charges."""
    counters = IoCounters()
    token = activate(None, counters)
    try:
        call()
    finally:
        deactivate(token)
    return counters.work["xadt_bytes_scanned"]


class TestIndexBuild:
    def test_one_build_per_distinct_payload(self):
        first, twin = (XadtValue.from_xml("<a>x</a>", INDEXED) for _ in range(2))
        other = XadtValue.from_xml("<b>y</b>", INDEXED)
        plan = FAULTS.install(FaultPlan())  # counts the build site's hits
        for value in (first, twin, other, first):
            value.directory()
        assert plan.hits("xadt.index_build") == 2
        assert first._directory is twin._directory
        assert other._directory not in (None, first._directory)

    def test_an_index_is_written_once(self):
        value = XadtValue.from_xml("<a>x</a>", INDEXED)
        directory = value.directory()
        DECODE_CACHE.clear()
        # the value keeps its directory; an equal payload builds its own
        # once the cache has forgotten it
        assert value.directory() is directory
        later = XadtValue.from_xml("<a>x</a>", INDEXED)
        assert later.directory() is not directory
        assert value._directory is directory

    def test_a_pickled_value_routes_like_the_original(self):
        value = XadtValue.from_xml(SPEECH_XML, INDEXED)
        expected = charged(lambda: get_elm_index(value, "SPEECH", "LINE", 2, 2))
        DECODE_CACHE.clear()
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and copy.codec == INDEXED and copy._directory is None
        assert charged(lambda: get_elm_index(copy, "SPEECH", "LINE", 2, 2)) == expected
        assert copy._directory is not None
        # both calls probed a directory: they read less than a scan would
        assert expected < len(SPEECH_XML)

    def test_a_methods_answer_never_routes(self):
        value = XadtValue.from_xml(SPEECH_XML, INDEXED)
        answer = get_elm(value, "SPEECH", "", "")
        for candidate in (answer, pickle.loads(pickle.dumps(answer))):
            assert candidate.codec == PLAIN
            assert charged(
                lambda: find_key_in_elm(candidate, "LINE", "be")
            ) == len(SPEECH_XML)
            assert candidate._directory is None

    def test_a_build_charges_the_statement_budget(self):
        # a governed load prices each indexed value, building its
        # directory under the statement's memory budget
        db = make_db(rows=0)
        cap = SpanDirectory.build(SPEECH_XML).byte_size() - 1
        db.governor.set_limits(GovernorLimits(memory_budget_bytes=cap))
        value = XadtValue.from_xml(SPEECH_XML, INDEXED)
        with pytest.raises(ResourceExceeded):
            db.bulk_insert("x", [(1, value)])
        assert value._directory is None and not stored(db)
        db.governor.set_limits(GovernorLimits(memory_budget_bytes=cap + 1))
        db.bulk_insert("x", [(1, value)])
        assert value._directory is not None
        assert db.execute(QS6_SQL).rows


class TestRetiredSwitch:
    def test_statement_routing_changes_nothing(self):
        # the name benchmarks/layers imports is a no-op: it installs no
        # context, and the stored value still picks the path
        value = XadtValue.from_xml(SPEECH_XML, INDEXED)
        plain = value.recode(PLAIN)
        for enabled in (False, True):
            with statement_routing(enabled):
                assert current_context() is None
                assert charged(lambda: find_key_in_elm(value, "LINE", "be")) == PROBE
                assert charged(
                    lambda: find_key_in_elm(plain, "LINE", "be")
                ) == len(SPEECH_XML)
        assert not ExecutionConfig().xadt_structural_index


# ---------------------------------------------------------------------------
# engine integration
# ---------------------------------------------------------------------------

SPEECH_XML = "<SPEECH><LINE>to be</LINE><LINE>or not to be</LINE></SPEECH>"
QS6_SQL = "SELECT getElmIndex(frag, 'SPEECH', 'LINE', 2, 2) FROM x"


def make_db(codec: str = INDEXED, rows: int = 1, name: str = "test") -> Database:
    db = Database(name)
    register_xadt_functions(db)
    db.execute("CREATE TABLE x (id INTEGER PRIMARY KEY, frag XADT)")
    for i in range(rows):
        db.insert("x", (i + 1, XadtValue.from_xml(SPEECH_XML, codec)))
    return db


def stored(db: Database, table: str = "x") -> list[XadtValue]:
    """The XADT values ``table`` stores, in row order."""
    return [row[1] for row in db.heap(table).rows]


def work(db: Database, sql: str = QS6_SQL) -> tuple[list[str], dict[str, int]]:
    db.io.reset()
    rows = [row[0].to_xml() for row in db.execute(sql).rows]
    return rows, dict(db.io.work)


class TestEngineIntegration:
    def test_an_indexed_insert_builds_its_directory(self):
        # the load prices the directory, so a stored indexed value holds
        # it from the start; a scan-codec value never gets one
        db = make_db()
        db.insert("x", (2, XadtValue.from_xml("<a>late</a>", "dict")))
        db.bulk_insert("x", [(3, XadtValue.from_xml("<a>bulk</a>", INDEXED))])
        assert [value._directory is not None for value in stored(db)] == [
            True, False, True,
        ]
        assert db.execute(QS6_SQL).rows[0][0].to_xml() == "<LINE>or not to be</LINE>"

    def test_explain_labels_access_path(self):
        # the plan names the method call; the stored value picks the path
        for codec in (PLAIN, INDEXED):
            plan = make_db(codec).explain(QS6_SQL)
            assert "xadt[scan]" in plan and "xindex" not in plan

    def test_default_mode_keeps_scan_path(self):
        db = make_db(PLAIN)
        other = make_db(INDEXED, name="other")  # another database's directories ...
        other.execute(QS6_SQL)
        rows, charged_work = work(db)  # ... leave db's plain values scanning
        assert rows == ["<LINE>or not to be</LINE>"]
        assert charged_work["xadt_bytes_scanned"] == len(SPEECH_XML)
        assert stored(db)[0]._directory is None

    def test_crash_at_index_build_leaves_no_state(self):
        db = make_db(rows=0)
        value = XadtValue.from_xml(SPEECH_XML, INDEXED)
        FAULTS.install(FaultPlan().crash_at("xadt.index_build", hit=1))
        with pytest.raises(CrashPoint):
            db.insert("x", (1, value))
        FAULTS.clear()
        assert value._directory is None and not stored(db)
        assert DECODE_CACHE.get(("span-directory", value.payload)) is None
        db.insert("x", (1, value))
        rows, _ = work(db)
        assert rows == ["<LINE>or not to be</LINE>"]

    def test_recovery_rebuilds_indexes(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        db = Database.open(path, sync_mode="always")
        register_xadt_functions(db)
        db.execute("CREATE TABLE x (id INTEGER PRIMARY KEY, frag XADT)")
        db.insert("x", (1, XadtValue.from_xml(SPEECH_XML, INDEXED)))
        db.insert("x", (2, XadtValue.from_xml("<a>after</a>", "dict")))
        expected = work(db)
        db.close()

        DECODE_CACHE.clear()
        plan = FAULTS.install(FaultPlan())  # counts the build site's hits
        recovered = Database.open(path, recover=True)
        register_xadt_functions(recovered)
        assert plan.hits("xadt.index_build") == 1  # replay priced the row
        assert [value._directory is not None for value in stored(recovered)] == [
            True, False,
        ]
        assert work(recovered) == expected
        recovered.close()


# ---------------------------------------------------------------------------
# isolation: the directory belongs to the value
# ---------------------------------------------------------------------------


class TestIsolation:
    def test_drop_table_leaves_another_databases_indexes(self):
        first, second = make_db(), make_db(name="second")
        first.execute(QS6_SQL)
        second.execute(QS6_SQL)
        (kept,) = stored(second)
        directory = kept._directory
        first.execute("DROP TABLE x")
        late = XadtValue.from_xml("<a>late</a>", INDEXED)
        second.insert("x", (2, late))
        assert second.execute(QS6_SQL).rows
        assert kept._directory is directory and late._directory is not None

    def test_bare_call_scans_after_an_indexed_database_closed(self):
        indexed = make_db()
        indexed.execute(QS6_SQL)
        indexed.close()
        value = XadtValue.from_xml(SPEECH_XML)  # an equal payload, plain
        assert charged(lambda: find_key_in_elm(value, "LINE", "be")) == len(
            SPEECH_XML
        )
