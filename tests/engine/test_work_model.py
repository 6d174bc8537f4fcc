"""The modeled cold time is a function, not a measurement.

``modeled = cpu_seconds + disk_seconds`` prices what the engine counted
with pinned constants (:mod:`repro.engine.io`), so for a given (data,
plan) it must come out *equal* — exact float equality, never approx —
whatever the batch size, cache state or statement route, and no clock
may reach it.  ``tests/golden/work_counters.json`` pins the numbers
themselves across hosts, hash seeds and Python versions
(``scripts/record_golden_io_counters.py`` writes and ``--check``s it).
"""

from __future__ import annotations

import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import build_pair, cold_query
from repro.engine.database import Database
from repro.engine.governor import GovernorLimits
from repro.engine.io import WORK_SECONDS, IoCounters, work_seconds
from repro.engine.plan.physical import Operator
from repro.engine.snapshot import activate, deactivate
from repro.mapping import map_xorator
from repro.shred import load_documents
from repro.workloads import SHAKESPEARE_QUERIES, SIGMOD_QUERIES
from repro.workloads.shakespeare_queries import workload_sql as qs_workload_sql
from repro.xadt.decode_cache import DECODE_CACHE
from repro.xadt import register_xadt_functions
from repro.xadt.structural_index import statement_routing
from tests.engine.test_udf_batch import (
    BINDING,
    Recorder,
    _params,
    batches,
    expressions,
)

GOLDEN_WORK = pathlib.Path(__file__).resolve().parent.parent / (
    "golden/work_counters.json"
)
#: every Fig. 11 / Fig. 13 statement on both mappings
CASES = [
    (dataset, algorithm, query)
    for dataset, queries in (
        ("shakespeare", SHAKESPEARE_QUERIES), ("sigmod", SIGMOD_QUERIES)
    )
    for algorithm in ("hybrid", "xorator")
    for query in queries
]
every_statement = pytest.mark.parametrize(
    "case", CASES, ids=lambda case: f"{case[0]}-{case[1]}-{case[2].key}"
)


def charged(owner, run) -> dict[str, object]:
    """What ``run()`` charged the counters of ``owner`` (a database or a
    session), and what that prices to."""
    io = owner.io
    io.reset()
    run()
    return {
        "pages": list(io.snapshot()),
        "work": dict(io.work),
        "cpu_seconds": io.cpu_seconds(),
        "disk_seconds": io.disk_seconds(),
        "modeled_seconds": io.modeled_seconds(),
    }


def capture_work_model(db, sql: str) -> dict[str, object]:
    """One cold execution's model: the golden file's entry per statement
    (the recorder calls this, so gate and data cannot drift apart)."""
    model = cold_query(db, sql).to_dict()
    del model["wall_seconds"], model["phase_seconds"]
    return model


def capture_load_model(loaded) -> dict[str, object]:
    """A load's model: everything of ``load_to_dict`` but the host wall."""
    model = loaded.load_to_dict()
    del model["wall_seconds"]
    return model


@pytest.fixture(scope="module")
def pairs(shakespeare_pair, sigmod_pair):
    return {"shakespeare": shakespeare_pair, "sigmod": sigmod_pair}


def statement(pairs, case):
    dataset, algorithm, query = case
    loaded = pairs[dataset][0 if algorithm == "hybrid" else 1]
    return loaded.db, query.sql_for(algorithm)


class TestInvariance:
    """Same (data, plan), same number — ``==``, not approx."""

    @every_statement
    def test_two_runs(self, pairs, case):
        db, sql = statement(pairs, case)
        first, second = cold_query(db, sql), cold_query(db, sql)
        assert first.work == second.work
        assert first.modeled_seconds == second.modeled_seconds
        assert first.modeled_seconds == first.cpu_seconds + first.disk_seconds
        assert first.cpu_seconds > 0 and first.disk_seconds > 0

    @every_statement
    def test_batch_size(self, pairs, case, monkeypatch):
        db, sql = statement(pairs, case)
        reference = charged(db, lambda: db.execute(sql))
        for size in (1, 7, 1024):
            monkeypatch.setattr(Operator, "batch_size", size)
            assert charged(db, lambda: db.execute(sql)) == reference, size

    @every_statement
    def test_decode_cache_state(self, pairs, case):
        db, sql = statement(pairs, case)
        warm = charged(db, lambda: db.execute(sql))
        DECODE_CACHE.clear()
        cold = charged(db, lambda: db.execute(sql))
        DECODE_CACHE.enabled = False
        try:
            disabled = charged(db, lambda: db.execute(sql))
        finally:
            DECODE_CACHE.enabled = True
        assert warm == cold == disabled

    @every_statement
    def test_plan_cache_and_statement_route(self, pairs, case):
        db, sql = statement(pairs, case)
        db.plan_cache.clear()
        miss = charged(db, lambda: db.execute(sql))
        hit = charged(db, lambda: db.execute(sql))
        prepared = db.prepare(sql)
        assert miss == hit == charged(db, prepared.execute)
        with db.connect() as session:  # a pinned session's private counters
            assert charged(session, lambda: session.execute(sql)) == miss

    @every_statement
    def test_a_deadline_changes_the_route_not_the_charge(self, pairs, case):
        """A statement with a deadline crosses the UDF boundary per call
        instead of per batch: identical calls, identical bytes."""
        db, sql = statement(pairs, case)
        batch_route = charged(db, lambda: db.execute(sql))
        with db.connect() as session:
            session.set_limits(GovernorLimits(statement_timeout_seconds=600))
            assert charged(session, lambda: session.execute(sql)) == batch_route

    @given(size=st.integers(1, 3000))
    @settings(max_examples=25, deadline=None)
    def test_any_batch_size(self, sigmod_pair, size):
        db = sigmod_pair[1].db
        sql = SIGMOD_QUERIES[3].xorator_sql  # unnest + GROUP BY + DISTINCT
        reference = charged(db, lambda: db.execute(sql))
        default = Operator.batch_size
        try:
            Operator.batch_size = size
            assert charged(db, lambda: db.execute(sql)) == reference
        finally:
            Operator.batch_size = default


class TestGolden:
    """The numbers themselves, pinned: any host, seed or Python."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_WORK.read_text(encoding="utf-8"))

    @every_statement
    def test_statement(self, pairs, case, golden):
        db, sql = statement(pairs, case)
        dataset, algorithm, query = case
        assert capture_work_model(db, sql) == golden[
            f"{dataset}_{algorithm}_{query.key}"
        ]

    @pytest.mark.parametrize("dataset", ["shakespeare", "sigmod"])
    def test_loads(self, pairs, dataset, golden):
        for loaded in pairs[dataset]:
            assert capture_load_model(loaded) == golden[
                f"{dataset}_{loaded.algorithm}_LOAD"
            ]

    def test_golden_is_complete(self, golden):
        assert len(golden) == len(CASES) + 4
        for entry in golden.values():
            assert entry["modeled_seconds"] == (
                entry["cpu_seconds"] + entry["disk_seconds"]
            )

    def test_load_model_repeats_across_builds(self):
        first, second = build_pair("sigmod", 1), build_pair("sigmod", 1)
        for side in ("hybrid", "xorator"):
            one, two = first.side(side), second.side(side)
            assert one.load_work == two.load_work
            assert one.load_modeled_seconds == two.load_modeled_seconds
            load = one.load_to_dict()
            assert one.load_modeled_seconds == (
                load["cpu_seconds"] + load["disk_seconds"]
            )
        assert (
            first.xorator.load_modeled_seconds
            < first.hybrid.load_modeled_seconds
        )


class TestConstants:
    def test_figure_14_calibration(self, shakespeare_pair):
        """NOT FENCED is priced so that QT1's query — scan, project, one
        call per row — models 40 % over its built-in twin (paper §4.4)."""
        db = shakespeare_pair[0].db
        builtin = cold_query(db, "SELECT length(speaker_value) FROM speaker")
        udf = cold_query(db, "SELECT udf_length(speaker_value) FROM speaker")
        fenced = cold_query(db, "SELECT fenced_length(speaker_value) FROM speaker")
        assert builtin.work["udf_calls_builtin"] == builtin.rows > 0
        assert udf.work["udf_calls_not_fenced"] == udf.rows == builtin.rows
        assert udf.cpu_seconds / builtin.cpu_seconds == pytest.approx(1.4)
        assert fenced.cpu_seconds > 5 * udf.cpu_seconds

    def test_every_counter_is_priced_and_reset(self):
        counters = IoCounters()
        assert list(counters.work) == list(WORK_SECONDS)
        with pytest.raises(KeyError):
            counters.work["scan_row"] += 1  # an unpriced name cannot be charged
        for name in WORK_SECONDS:
            counters.work[name] += 3
        assert counters.cpu_seconds() == work_seconds(counters.work) > 0
        counters.reset()
        assert counters.cpu_seconds() == 0.0 == counters.modeled_seconds()


class TestObservability:
    """EXPLAIN ANALYZE and the shell read the same counters."""

    def test_analyze_reports_the_statement_and_resets_nothing(self, sigmod_pair):
        db = sigmod_pair[1].db
        sql = SIGMOD_QUERIES[3].xorator_sql
        cold = cold_query(db, sql)
        before = charged(db, lambda: db.execute("SELECT COUNT(*) FROM pp"))
        report = db.explain_analyze(sql)
        model = report.to_dict()
        assert model["cpu_seconds"] == cold.cpu_seconds
        assert model["disk_seconds"] == cold.disk_seconds
        assert {
            name: count for name, count in model["counters"].items()
            if not name.endswith("_pages")
        } == cold.work
        assert f"disk {cold.disk_seconds * 1000:.3f} ms" in report.text()
        # the session's counters were added to, not started over
        assert db.io.cpu_seconds() == pytest.approx(
            before["cpu_seconds"] + cold.cpu_seconds
        )
        assert db.io.sequential_pages == (
            before["pages"][0] + cold.sequential_pages
        )

    def test_the_shell_prints_both_terms(self, sigmod_pair):
        import io

        from repro.cli import Shell

        db = sigmod_pair[1].db
        out = io.StringIO()
        shell = Shell(db, sigmod_pair[1].schema, out)
        shell.handle("SELECT COUNT(*) FROM pp")
        shell.handle("\\io")
        assert "modeled disk time" in out.getvalue()
        assert "counted work: scan_rows" in out.getvalue()


class TestUdfBoundary:
    """The batch route and the per-call route charge the same calls."""

    @given(expr=expressions, batch=batches())
    @settings(max_examples=150, deadline=None)
    def test_batch_and_per_call_routes_charge_alike(self, expr, batch):
        from tests.engine.reference_expr import compile_expr
        from repro.engine.expr_compile import compile_column

        recorder = Recorder()
        reference = compile_expr(expr, BINDING, recorder.registry, _params())
        fn = compile_column(expr, BINDING, recorder.registry, _params())

        def under_counters(evaluate) -> tuple[dict, tuple]:
            counters = IoCounters()
            token = activate(None, counters)
            try:
                evaluate()
            finally:
                deactivate(token)
            return dict(counters.work), recorder.drain()

        per_call, logged_per_call = under_counters(
            lambda: [reference(row) for row in batch]
        )
        per_batch, logged = under_counters(lambda: fn(batch))
        assert per_batch == per_call and logged == logged_per_call
        by_mode = {
            "udf_calls_not_fenced": ("num", "txt", "frag"),
            "udf_calls_builtin": ("num_builtin",),
            "udf_calls_fenced": ("num_fenced",),
        }
        for counter, names in by_mode.items():
            assert per_batch[counter] == sum(
                logged_per_call[1].get(name, 0) for name in names
            )


@pytest.fixture(scope="module")
def indexed_db(shakespeare_docs, shakespeare_simplified):
    """The XORator Shakespeare database with every XADT column
    ``indexed``."""
    schema = map_xorator(shakespeare_simplified)
    codecs = {
        f"{table.name}.{column.name}": "indexed"
        for table in schema.tables
        for column in table.xadt_columns()
    }
    db = Database("indexed")
    register_xadt_functions(db)
    load_documents(db, schema, shakespeare_docs, codecs)
    db.apply_index_advice(qs_workload_sql("xorator"))
    db.runstats()
    yield db
    db.close()


class TestStructuralIndexRoute:
    @pytest.mark.parametrize("query", SHAKESPEARE_QUERIES, ids=lambda q: q.key)
    def test_routing_off_is_equal_and_on_reads_other_bytes(
        self, query, indexed_db, shakespeare_pair
    ):
        # the retired switch, off or on, changes nothing: the stored
        # values pick the path
        sql = query.xorator_sql
        plain = shakespeare_pair[1].db
        reference = charged(plain, lambda: plain.execute(sql))
        indexed = charged(indexed_db, lambda: indexed_db.execute(sql))
        for enabled in (False, True):
            with statement_routing(enabled):
                assert charged(plain, lambda: plain.execute(sql)) == reference
                assert charged(indexed_db, lambda: indexed_db.execute(sql)) == indexed
        assert sorted(map(str, indexed_db.execute(sql).rows)) == sorted(
            map(str, plain.execute(sql).rows)
        )
        # a probe reads a directory entry and the spans it returns, never
        # the fragment: same calls, different bytes — fewer over the LINE
        # fragments, a few more where the whole fragment comes back anyway
        # (QS1) or is shorter than a directory entry (QS4/QS5's 24-byte
        # SPEAKER fragments)
        work, scan_work = indexed["work"], reference["work"]
        cheaper = query.key in ("QS2", "QS3", "QS6")
        assert cheaper == (
            work["xadt_bytes_scanned"] < scan_work["xadt_bytes_scanned"]
        )
        assert work["xadt_bytes_scanned"] != scan_work["xadt_bytes_scanned"]
        for name in WORK_SECONDS:
            if name.startswith("udf_calls"):
                assert work[name] == scan_work[name], name
