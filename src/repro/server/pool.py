"""The session pool: a free list of pinned-snapshot sessions.

Opening a :class:`~repro.engine.session.Session` is cheap but not free
(it pins a snapshot and allocates private I/O counters), and a server
handling hundreds of short requests would otherwise churn one per
request.  The pool hands sessions out per *request*, not per
connection: :meth:`~SessionPool.acquire` returns the most recently
released session (the working set stays hot) or opens a new one, and
:meth:`~SessionPool.release` puts it back.

The pool has no cap of its own.  The server acquires a session only on
an executor thread, for the duration of one statement, so the number
of sessions it ever opens is bounded by admission's ``max_inflight``
— the one bound on concurrent statements (DESIGN.md §14).  Sessions
are never evicted: an idle one keeps its last snapshot pinned until it
is acquired again or the pool closes.

Freshness is **lazy**: pooled sessions are created with
``auto_refresh=False`` and re-pinned on acquire only when the engine
epoch moved since they last pinned (one integer compare on the hot
path).  Each request therefore still sees read-committed-style
freshness, without the per-statement re-pin cost of ``auto_refresh``.

:meth:`~SessionPool.close` (the server's drain) closes every session
the pool opened, in use or not; ``acquire`` sheds with
:class:`~repro.errors.Overloaded` afterwards.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro.errors import Overloaded
from repro.obs.metrics import METRICS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.database import Database
    from repro.engine.session import Session

_CREATED = METRICS.counter("server.sessions_created")
_REUSED = METRICS.counter("server.sessions_reused")
_REFRESHED = METRICS.counter("server.session_refreshes")
_POOL_SIZE = METRICS.gauge("server.pool_size")


class SessionPool:
    """A free list of engine sessions, re-pinned lazily on acquire."""

    def __init__(self, db: "Database") -> None:
        self._db = db
        self._lock = threading.Lock()
        self._opened: list["Session"] = []
        self._free: list["Session"] = []
        self.closed = False

    def acquire(self, client: str) -> "Session":
        """An open, freshly pinned session for one request.

        ``client`` names the caller; the pool does not use it.
        """
        with self._lock:
            if self.closed:
                raise Overloaded("session pool is closed", retry_after=0.5)
            if self._free:
                session = self._free.pop()
                _REUSED.inc()
            else:
                session = self._db.connect(name="pool", auto_refresh=False)
                self._opened.append(session)
                _CREATED.inc()
                _POOL_SIZE.set(len(self._opened))
        # lazy freshness: one integer compare unless a write published
        # a new engine epoch since this session last pinned
        if session.snapshot_version != self._db.version:
            session.refresh()
            _REFRESHED.inc()
        return session

    def release(self, session: "Session") -> None:
        """Return a session after its request finishes."""
        with self._lock:
            if not self.closed:
                self._free.append(session)

    def close(self) -> None:
        """Close every session the pool opened, in use or not."""
        with self._lock:
            self.closed = True
            opened, self._opened, self._free = self._opened, [], []
            _POOL_SIZE.set(0)
        for session in opened:
            session.close()

    def report(self) -> dict[str, int]:
        with self._lock:
            size, idle = len(self._opened), len(self._free)
        return {"size": size, "in_use": size - idle, "idle": idle}


__all__ = ["SessionPool"]
