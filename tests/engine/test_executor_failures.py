"""Statement execution on reader threads under failure.

Concurrent readers are sessions on threads (``run_readers`` in
``conftest.py``): a reader that fails reports a typed error and closes
its session without disturbing the others, and a reader that wraps its
statements in the shared :class:`~repro.retry.RetryPolicy` absorbs
transient faults and never spins on fatal ones.
"""

import pytest

from repro.engine.database import Database
from repro.engine.faults import FAULTS, FaultPlan
from repro.errors import FaultInjected, UdfError
from repro.retry import RetryPolicy


@pytest.fixture(autouse=True)
def clean_injector():
    FAULTS.clear()
    yield
    FAULTS.clear()


@pytest.fixture()
def db():
    database = Database("pool")
    database.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, parent INTEGER)"
    )
    database.bulk_insert("t", [(i, i % 5) for i in range(100)])
    return database


WORKLOAD = ["SELECT id FROM t WHERE parent = 2", "SELECT parent FROM t"]


class TestReaderFailure:
    def test_one_failing_reader_does_not_poison_the_pool(
        self, db, run_readers
    ):
        # exactly one injected fault: one reader errors, the rest finish
        FAULTS.install(FaultPlan().raise_at("io.charge", hit=1))
        outcomes = run_readers(db, WORKLOAD, readers=3, rounds=2)
        failed = [r for r in outcomes if r.error is not None]
        healthy = [r for r in outcomes if r.error is None]
        assert len(failed) == 1
        assert isinstance(failed[0].error, FaultInjected)
        assert len(healthy) == 2
        expected = [db.execute(sql).rows for sql in WORKLOAD]
        for reader in healthy:
            assert reader.queries == len(WORKLOAD) * 2
            assert [r.rows for r in reader.results] == expected

    def test_failed_reader_session_is_closed(self, db, run_readers):
        FAULTS.install(FaultPlan().raise_at("io.charge", hit=1))
        run_readers(db, WORKLOAD, readers=2)
        # every reader session was closed even on the error path
        assert [s.name for s in db.sessions()] == ["default"]

    def test_fatal_error_reported_not_retried(self, db):
        calls = []

        def always_fails(value):
            calls.append(value)
            return 1 / 0

        db.registry.register_scalar(
            "always_fails", always_fails, min_args=1, max_args=1
        )
        absorbed = []
        with db.connect() as session, pytest.raises(UdfError):
            RetryPolicy(attempts=4, base_delay=0.001).run(
                lambda: session.execute("SELECT always_fails(id) FROM t"),
                on_retry=lambda attempt, exc: absorbed.append(exc),
            )
        # UdfError is fatal: the retry loop must not have spun on it
        assert absorbed == []
        assert len(calls) == 1

    def test_pool_survives_other_databases_queries(self, db, run_readers):
        # a failing run leaves the database fit for the next one
        FAULTS.install(FaultPlan().raise_at("io.charge", hit=1))
        run_readers(db, WORKLOAD, readers=2)
        FAULTS.clear()
        clean = run_readers(db, WORKLOAD, readers=2)
        assert [r.error for r in clean] == [None, None]
        assert sum(r.queries for r in clean) == 2 * len(WORKLOAD)


class TestRetry:
    def test_transient_fault_absorbed_by_retry(self, db):
        FAULTS.install(FaultPlan().raise_at("io.charge", hit=1))
        policy = RetryPolicy(attempts=3, base_delay=0.001)
        absorbed = []
        with db.connect() as session:
            for _ in range(2):
                for sql in WORKLOAD:
                    policy.run(
                        lambda: session.execute(sql),
                        on_retry=lambda attempt, exc: absorbed.append(exc),
                    )
            # only completed statements count; the faulted try does not
            assert session.query_counts["select"] == 2 * len(WORKLOAD)
        assert [type(exc) for exc in absorbed] == [FaultInjected]

    def test_retries_exhausted_surfaces_the_fault(self, db):
        # the site keeps failing: retries run out and the error surfaces
        FAULTS.install(
            FaultPlan().raise_at("io.charge", probability=1.0)
        )
        absorbed = []
        with db.connect() as session, pytest.raises(FaultInjected):
            RetryPolicy(attempts=3, base_delay=0.001).run(
                lambda: session.execute("SELECT id FROM t"),
                on_retry=lambda attempt, exc: absorbed.append(attempt),
            )
        assert absorbed == [1, 2]
