"""The simulated-disk model: counters, charging rules, spills."""

import json
import pathlib

import pytest

from repro.engine import Database
from repro.engine.expr import ParamBox
from repro.engine.governor import GovernorLimits, StatementBudget
from repro.engine.io import (
    RANDOM_PAGE_SECONDS,
    SEQUENTIAL_PAGE_SECONDS,
    IoCounters,
)
from repro.engine.plan.optimizer import plan_select
from repro.engine.plan_cache import normalize_sql
from repro.engine.sql.parser import parse_sql
from repro.errors import ResourceExceeded
from repro.workloads import SHAKESPEARE_QUERIES, SIGMOD_QUERIES

GOLDEN_IO = pathlib.Path(__file__).resolve().parent.parent / (
    "golden/io_counters.json"
)
#: join working memory of the recorded "squeezed" execution
GOLDEN_TIGHT_WORK_MEM = 2 * 1024
#: memory budget of the recorded governor trip: the join-heavy statements
#: exceed it, the single-table ones finish
GOLDEN_MEMORY_BUDGET = 16 * 1024


class TestCounters:
    def test_modeled_seconds_formula(self):
        counters = IoCounters()
        counters.charge_sequential(10)
        counters.charge_random(2)
        counters.charge_spill(5)
        expected = 15 * SEQUENTIAL_PAGE_SECONDS + 2 * RANDOM_PAGE_SECONDS
        assert counters.modeled_seconds() == pytest.approx(expected)

    def test_reset(self):
        counters = IoCounters()
        counters.charge_random(3)
        counters.notes.append("x")
        counters.reset()
        assert counters.snapshot() == (0, 0, 0)
        assert counters.notes == []

    def test_random_costs_more_than_sequential(self):
        assert RANDOM_PAGE_SECONDS > SEQUENTIAL_PAGE_SECONDS


@pytest.fixture()
def db():
    database = Database("io", work_mem_bytes=8 * 1024)
    database.execute(
        "CREATE TABLE big (id INTEGER PRIMARY KEY, pad VARCHAR)"
    )
    database.execute(
        "CREATE TABLE small (sid INTEGER PRIMARY KEY, ref INTEGER)"
    )
    for i in range(2000):
        database.insert("big", (i, "x" * 60))
    for i in range(20):
        database.insert("small", (i, i))
    database.runstats()
    return database


class TestCharging:
    def test_seq_scan_charges_table_pages(self, db):
        db.io.reset()
        db.execute("SELECT COUNT(*) FROM big")
        assert db.io.sequential_pages == db.heap("big").data_pages()
        assert db.io.random_pages == 0

    def test_index_scan_charges_random(self, db):
        db.create_index("idx_big_id", "big", "id", "hash")
        db.runstats()
        db.io.reset()
        db.execute("SELECT pad FROM big WHERE id = 7")
        assert db.io.random_pages >= 1
        assert db.io.sequential_pages == 0

    def test_index_scan_dedupes_pages(self, db):
        # a full-table index scan touches each page at most once
        db.create_index("idx_small_sid", "small", "sid", "btree")
        db.runstats()
        db.io.reset()
        for i in range(20):
            db.execute(f"SELECT ref FROM small WHERE sid = {i}")
        # 20 queries x (1 leaf + 1 data page) at most; caching is per query
        assert db.io.random_pages <= 40

    def test_hash_join_spills_when_build_exceeds_work_mem(self, db):
        db.io.reset()
        db.execute(
            "SELECT sid FROM small, big WHERE ref = id"
        )
        assert db.io.spill_pages > 0
        assert any("spilled" in note for note in db.io.notes)

    def test_no_spill_with_big_work_mem(self):
        roomy = Database("roomy", work_mem_bytes=64 * 1024 * 1024)
        roomy.execute("CREATE TABLE a (x INTEGER PRIMARY KEY)")
        roomy.execute("CREATE TABLE b (y INTEGER PRIMARY KEY)")
        for i in range(500):
            roomy.insert("a", (i,))
            roomy.insert("b", (i,))
        roomy.runstats()
        roomy.io.reset()
        roomy.execute("SELECT x FROM a, b WHERE x = y")
        assert roomy.io.spill_pages == 0

    def test_work_mem_override_respected(self):
        assert Database(work_mem_bytes=123).work_mem_bytes == 123


class TestOneChannel:
    """Every charge reaches the counters the running statement's context
    names — pages and work alike — and nothing else does."""

    SQL = "SELECT sid FROM small, big WHERE ref = id"

    def test_plan_driven_by_hand_charges_the_sink(self, db):
        plan = plan_select(parse_sql(self.SQL), db, ParamBox(0))
        db.io.reset()
        assert list(plan.rows())
        assert db.io.snapshot() == (0, 0, 0)
        assert db.io.notes == []
        assert not any(db.io.work.values())

    def test_one_cached_plan_charges_each_runner(self, db):
        db.io.reset()
        db.execute(self.SQL)
        charged = (db.io.snapshot(), list(db.io.notes))
        assert charged[0][2] > 0  # the join spills at the fixture's work_mem
        entry = db.plan_cache.lookup(normalize_sql(self.SQL), db.catalog_version)
        db.io.reset()
        with db.connect() as session:
            session.execute(self.SQL)
            assert (session.io.snapshot(), session.io.notes) == charged
            session.io.reset()
            report = session.prepare(self.SQL).explain_analyze()
            assert (report.io.snapshot(), report.io.notes) == charged
            assert (session.io.snapshot(), session.io.notes) == charged
        assert db.io.snapshot() == (0, 0, 0)
        assert (
            db.plan_cache.lookup(normalize_sql(self.SQL), db.catalog_version)
            is entry
        )

    def test_work_mem_is_read_per_execution(self, db):
        key = normalize_sql(self.SQL)
        db.io.reset()
        db.execute(self.SQL)
        assert db.io.spill_pages > 0
        entry = db.plan_cache.lookup(key, db.catalog_version)
        db.work_mem_bytes = 64 * 1024 * 1024
        db.io.reset()
        db.execute(self.SQL)
        assert db.io.spill_pages == 0 and db.io.notes == []
        assert db.plan_cache.lookup(key, db.catalog_version) is entry


def capture_io_model(db, sql: str) -> dict[str, object]:
    """What the disk model and the governor charged one statement.

    Three executions in one private session: as loaded; with join
    working memory squeezed to ``GOLDEN_TIGHT_WORK_MEM`` (so every hash
    join of the small fixture corpora spills and the probe side is
    measured too); and under a tight memory budget, whose error message
    carries the charged total at the trip.  Every ``charge_memory``
    amount of the first execution is recorded in order.

    Also the recorder: ``scripts/record_golden_io_counters.py`` writes
    the golden file from this function, so the gate and its data cannot
    drift apart.
    """
    charges: list[int] = []
    charge_memory = StatementBudget.charge_memory

    def recording(budget, amount):
        charges.append(amount)
        charge_memory(budget, amount)

    def counters() -> dict[str, object]:
        observed = {
            "pages": list(session.io.snapshot()),
            "notes": list(session.io.notes),
        }
        session.io.reset()
        return observed

    session = db.connect()
    work_mem = db.work_mem_bytes
    StatementBudget.charge_memory = recording
    try:
        session.set_limits(GovernorLimits(memory_budget_bytes=1 << 40))
        rows = len(session.execute(sql).rows)
        loaded = counters()
        StatementBudget.charge_memory = charge_memory
        session.set_limits(None)
        db.work_mem_bytes = GOLDEN_TIGHT_WORK_MEM
        session.execute(sql)
        squeezed = counters()
        session.set_limits(
            GovernorLimits(memory_budget_bytes=GOLDEN_MEMORY_BUDGET)
        )
        try:
            session.execute(sql)
            trip = "within budget"
        except ResourceExceeded as exc:
            trip = str(exc)
    finally:
        StatementBudget.charge_memory = charge_memory
        db.work_mem_bytes = work_mem
        session.close()
    return {
        "rows": rows,
        "loaded": loaded,
        "squeezed": squeezed,
        "memory_charges": charges,
        "memory_trip": trip,
    }


class TestGoldenIoCounters:
    """Every Fig. 11 / Fig. 13 statement charges what the parent charged.

    ``tests/golden/io_counters.json`` was recorded before the relational
    operators moved to batch kernels; pages, spill pages, the ``build N
    B`` notes and the governor's charged total at the trip must all
    survive byte for byte.
    """

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_IO.read_text(encoding="utf-8"))

    @pytest.mark.parametrize("query", SHAKESPEARE_QUERIES, ids=lambda q: q.key)
    @pytest.mark.parametrize("algorithm", ["hybrid", "xorator"])
    def test_shakespeare(self, query, algorithm, shakespeare_pair, golden):
        loaded = shakespeare_pair[0 if algorithm == "hybrid" else 1]
        observed = capture_io_model(loaded.db, query.sql_for(algorithm))
        assert observed == golden[f"shakespeare_{algorithm}_{query.key}"]

    @pytest.mark.parametrize("query", SIGMOD_QUERIES, ids=lambda q: q.key)
    @pytest.mark.parametrize("algorithm", ["hybrid", "xorator"])
    def test_sigmod(self, query, algorithm, sigmod_pair, golden):
        loaded = sigmod_pair[0 if algorithm == "hybrid" else 1]
        observed = capture_io_model(loaded.db, query.sql_for(algorithm))
        assert observed == golden[f"sigmod_{algorithm}_{query.key}"]

    def test_golden_covers_spills_and_trips(self, golden):
        assert len(golden) == 2 * (
            len(SHAKESPEARE_QUERIES) + len(SIGMOD_QUERIES)
        )
        assert any(entry["loaded"]["pages"][2] for entry in golden.values())
        for dataset in ("shakespeare", "sigmod"):
            assert any(
                "build" in note
                for key, entry in golden.items()
                if key.startswith(f"{dataset}_hybrid")
                for note in entry["squeezed"]["notes"]
            )
        trips = {entry["memory_trip"] for entry in golden.values()}
        assert "within budget" in trips and len(trips) > 1
        assert any(entry["memory_charges"] for entry in golden.values())
