"""Session pool: a free list with reuse, lazy refresh and a leak-free close."""

from __future__ import annotations

import pytest

from repro.errors import Overloaded
from repro.server.pool import SessionPool


@pytest.fixture()
def db(empty_db):
    empty_db.execute("CREATE TABLE t (id INT)")
    empty_db.execute("INSERT INTO t VALUES (1)")
    return empty_db


def test_release_then_acquire_reuses_the_session(db):
    pool = SessionPool(db)
    first = pool.acquire("c1")
    pool.release(first)
    assert pool.acquire("c1") is first
    pool.close()


def test_lazy_refresh_follows_engine_epoch(db):
    pool = SessionPool(db)
    session = pool.acquire("c1")
    assert session.snapshot_version == db.version
    pool.release(session)
    db.execute("INSERT INTO t VALUES (2)")  # publishes a new epoch
    assert pool.acquire("c1") is session
    assert session.snapshot_version == db.version
    assert session.execute("SELECT COUNT(*) FROM t").rows == [(2,)]
    pool.release(session)
    pool.close()


def test_free_list_is_last_in_first_out(db):
    pool = SessionPool(db)
    first, second = pool.acquire("c1"), pool.acquire("c2")
    assert first is not second
    assert pool.report() == {"size": 2, "in_use": 2, "idle": 0}
    pool.release(first)
    pool.release(second)
    assert pool.report() == {"size": 2, "in_use": 0, "idle": 2}
    assert pool.acquire("c3") is second  # the most recently released
    pool.close()


def test_close_closes_every_session_without_leaks(db):
    pool = SessionPool(db)
    sessions = [pool.acquire(f"c{i}") for i in range(3)]
    pool.release(sessions[0])  # one idle, two in use: close takes all
    pool.close()
    assert all(session.closed for session in sessions)
    assert all(s.name != "pool" for s in db.sessions())
    pool.release(sessions[1])  # a request finishing after the drain
    assert pool.report() == {"size": 0, "in_use": 0, "idle": 0}
    with pytest.raises(Overloaded):
        pool.acquire("late")
