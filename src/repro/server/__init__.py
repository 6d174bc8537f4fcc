"""The fault-tolerant network front-end (DESIGN.md §14).

An asyncio TCP server speaking a length-prefixed JSON protocol in front
of the synchronous engine: a free list of pooled sessions,
governor-backed admission control with load shedding, typed errors end
to end, graceful drain, and deterministic connection chaos via the
``server.*`` fault sites.

>>> from repro.server import start_server_thread, ReproClient
>>> handle = start_server_thread(db)
>>> with ReproClient(handle.host, handle.port) as client:
...     client.execute("SELECT 1").rows
[[1]]
>>> handle.stop()
"""

from repro.server.admission import AdmissionController
from repro.server.client import (
    AsyncReproClient,
    ClientResult,
    ReproClient,
    RetryPolicy,
)
from repro.server.pool import SessionPool
from repro.server.protocol import (
    DEFAULT_FETCH_SIZE,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
)
from repro.server.registry import CONNECTIONS, ConnectionRegistry
from repro.server.server import ReproServer, ServerHandle, start_server_thread

__all__ = [
    "CONNECTIONS",
    "AdmissionController",
    "AsyncReproClient",
    "ClientResult",
    "ConnectionRegistry",
    "DEFAULT_FETCH_SIZE",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ReproClient",
    "ReproServer",
    "RetryPolicy",
    "ServerHandle",
    "SessionPool",
    "start_server_thread",
]
