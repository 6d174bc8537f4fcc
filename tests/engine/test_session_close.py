"""Session close semantics: idempotent, leak-free, safe under a drain."""

from __future__ import annotations

import threading

import pytest

from repro.errors import SessionClosed
from repro.obs.metrics import METRICS


@pytest.fixture()
def db(empty_db):
    empty_db.execute("CREATE TABLE t (id INT)")
    empty_db.execute("INSERT INTO t VALUES (1)")
    return empty_db


def test_close_is_idempotent(db):
    session = db.connect("s")
    session.close()
    session.close()  # second close is a no-op, not an error
    assert session.closed


def test_execute_after_close_raises_session_closed(db):
    session = db.connect("s")
    session.close()
    with pytest.raises(SessionClosed):
        session.execute("SELECT id FROM t")
    with pytest.raises(SessionClosed):
        session.prepare("SELECT id FROM t")


def test_session_closed_names_the_session(db):
    session = db.connect("who")
    session.close()
    with pytest.raises(SessionClosed, match="who"):
        session.execute("SELECT id FROM t")


def test_context_manager_closes(db):
    with db.connect("cm") as session:
        assert session.execute("SELECT id FROM t").rows == [(1,)]
    assert session.closed
    with pytest.raises(SessionClosed):
        session.execute("SELECT id FROM t")


def test_close_deregisters_and_releases_engine_state(db):
    session = db.connect("gone")
    session.set_limits(db.governor.limits)
    assert session in db.sessions()
    session.close()
    assert session not in db.sessions()
    # the pin and the governor charge are both released: nothing for a
    # server's drain to leak
    assert session._snapshot is None
    assert session.limits is None


def test_concurrent_closers_race_safely(db):
    session = db.connect("raced")
    errors = []

    def closer():
        try:
            session.close()
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=closer) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert session.closed
    assert session not in db.sessions()


def test_closing_one_session_leaves_others_working(db):
    doomed = db.connect("doomed")
    survivor = db.connect("survivor")
    doomed.close()
    assert survivor.execute("SELECT id FROM t").rows == [(1,)]
    survivor.close()


def test_closed_count_matches_open_count_under_churn(db):
    baseline = len(db.sessions())
    sessions = [db.connect(f"churn{i}") for i in range(10)]
    for session in sessions:
        session.execute("SELECT id FROM t")
    for session in sessions:
        session.close()
    assert len(db.sessions()) == baseline


def test_prepared_statement_fails_after_close(db):
    session = db.connect("prep")
    prepared = session.prepare("SELECT id FROM t WHERE id = ?")
    assert prepared.execute(1).rows == [(1,)]
    session.close()
    with pytest.raises(SessionClosed):
        prepared.execute(1)
