"""Live connection accounting behind the ``sys_connections`` view.

The server registers every accepted connection here; the
``sys_connections`` system view materializes the registry at scan time
(the lazy-provider pattern of every ``sys_*`` view), so an operator can
watch the front-end from any SQL session::

    SELECT state, COUNT(*) FROM sys_connections GROUP BY state

The registry is process-wide on purpose: system views are installed per
database, but the server in front of it is a process-level component —
exactly like the metrics registry.  Chaos smoke uses it to prove the
leak-free claim (after load + connection chaos, zero rows remain).
"""

from __future__ import annotations

import itertools
import threading
import time


class ConnectionInfo:
    """One live connection's counters (mutated by its handler task only;
    readers take point-in-time values, which is fine for monitoring)."""

    __slots__ = (
        "conn_id", "client", "state", "session_id", "requests", "errors",
        "sheds", "bytes_in", "bytes_out", "connected_at", "last_request_at",
    )

    def __init__(self, conn_id: int, client: str) -> None:
        self.conn_id = conn_id
        self.client = client
        self.state = "handshake"      #: handshake | idle | active | closing
        self.session_id: int | None = None
        self.requests = 0
        self.errors = 0
        self.sheds = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.connected_at = time.monotonic()
        self.last_request_at = self.connected_at


class ConnectionRegistry:
    """Thread-safe registry of the server's live connections."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._connections: dict[int, ConnectionInfo] = {}

    def register(self, client: str) -> ConnectionInfo:
        info = ConnectionInfo(next(self._ids), client)
        with self._lock:
            self._connections[info.conn_id] = info
        return info

    def unregister(self, info: ConnectionInfo) -> None:
        with self._lock:
            self._connections.pop(info.conn_id, None)

    def snapshot(self) -> list[ConnectionInfo]:
        with self._lock:
            return list(self._connections.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._connections)

    def rows(self) -> list[tuple]:
        """``sys_connections`` rows, ordered by connection id."""
        now = time.monotonic()
        return [
            (
                info.conn_id,
                info.client,
                info.state,
                info.session_id,
                info.requests,
                info.errors,
                info.sheds,
                info.bytes_in,
                info.bytes_out,
                int((now - info.connected_at) * 1000),
                int((now - info.last_request_at) * 1000),
            )
            for info in sorted(self.snapshot(), key=lambda i: i.conn_id)
        ]


#: the process-wide registry the server populates and sys_connections reads
CONNECTIONS = ConnectionRegistry()


__all__ = ["CONNECTIONS", "ConnectionInfo", "ConnectionRegistry"]
