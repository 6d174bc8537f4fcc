"""Statement-level statistics: pg_stat_statements for the engine.

The :class:`StatementStatsCollector` (module singleton
:data:`STATEMENTS`) aggregates per-statement runtime facts keyed on the
plan cache's normalized SQL — the same key compiled plans live under, so
"one cache entry" and "one statistics row" name the same statement.  For
every key it accumulates calls, errors, total/min/max wall time, a
fixed-bucket latency histogram (mean and p95 derive from it), rows and
bytes returned, plan-cache hits/misses, best-effort decode-cache-hit and
WAL-byte deltas, and governor aborts — the facts ``sys_statements``
serves through SQL and the CLI's ``\\statements`` renders.

**Wait profiling.**  While a statement is observed, the collector
installs a per-thread wait sink (:data:`repro.obs.trace.WAIT_SINK`); the
tracer's spans — ``parse``, ``plan``, ``execute``, ``wal.fsync`` —
record their durations into it even when the Chrome trace buffer is
off.  At finish the sink is folded into a breakdown whose parts sum to
the statement's wall time: the nested ``wal.fsync`` wait is subtracted
from ``execute``, and the unattributed remainder lands in ``other``.
Time a statement costs *after* ``execute`` returned — the server writing
its result frames — is attributed by that caller via
:meth:`StatementStatsCollector.record_wait` (wait name ``network``).

**Flight recorder and slow-query log.**  Every observed statement
appends one record to a bounded in-memory deque (the flight recorder —
the last N statements, whatever happens to the process next), and
statements slower than the :class:`SlowQueryLog` threshold are appended
to a JSONL file (size-rotated, bind parameters elided — only the
normalized SQL key is logged) together with the EXPLAIN ANALYZE tree
when plan capture is on.

The collector is off by default; enabled, its per-statement cost is one
dict insert under a lock plus the wait-sink contextvar set/reset —
``benchmarks/bench_observability_overhead.py`` bounds the enabled path
at <=10% and the disabled path at <=5%.

This module deliberately imports nothing from ``repro.engine`` (the
dependency arrow stays engine -> obs): the session layer pushes plain
values in through :class:`StatementObservation` fields.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import OrderedDict, deque

from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS, Histogram
from repro.obs.trace import WAIT_SINK

#: the wait taxonomy, in report order — only waits something records.
#: ``parse``/``plan``/``execute`` are the statement phases;
#: ``wal.fsync`` is durable-commit sync time (nested inside
#: ``execute``); ``network`` is time the server spent writing a
#: statement's result frames to the client (attributed out-of-band by
#: the network front-end via :meth:`StatementStatsCollector.record_wait`).
#: The residual bucket ``other`` absorbs unattributed wall time, so a
#: breakdown always sums to the statement's measured wall clock.
WAIT_NAMES = (
    "parse",
    "plan",
    "execute",
    "wal.fsync",
    "network",
)

#: bounded number of distinct statement keys (LRU-evicted past this)
DEFAULT_MAX_STATEMENTS = 512

#: flight-recorder depth (most recent statements, any session)
DEFAULT_FLIGHT_RECORDER = 128


class _AlwaysOn:
    """Registry stand-in for the collector's private histograms.

    :class:`~repro.obs.metrics.Histogram` gates ``observe`` on its
    registry's ``enabled`` flag; statement latency histograms are gated
    by the collector itself, so they observe unconditionally.
    """

    __slots__ = ()
    enabled = True


_ON = _AlwaysOn()


class StatementObservation:
    """One in-flight observed statement (created by ``begin``)."""

    __slots__ = (
        "key", "kind", "session_id", "started", "waits",
        "rows", "bytes", "plan_cache_hit", "decode_cache_hits",
        "wal_bytes", "governor_abort", "plan_text", "_token",
    )

    def __init__(self, key: str, kind: str, session_id: int) -> None:
        self.key = key
        self.kind = kind
        self.session_id = session_id
        self.started = time.perf_counter()
        #: raw span-name -> seconds sink the tracer feeds
        self.waits: dict[str, float] = {}
        self.rows = 0
        self.bytes = 0
        #: True/False once the plan-cache probe resolves; None for writes
        self.plan_cache_hit: bool | None = None
        self.decode_cache_hits = 0
        self.wal_bytes = 0
        self.governor_abort = False
        #: EXPLAIN ANALYZE text when plan capture is on (slow log only)
        self.plan_text: str | None = None
        self._token = None


class StatementStats:
    """Aggregate facts for one normalized-SQL key."""

    __slots__ = (
        "key", "kind", "calls", "errors", "total_seconds", "min_seconds",
        "max_seconds", "rows_returned", "bytes_returned",
        "plan_cache_hits", "plan_cache_misses", "decode_cache_hits",
        "governor_aborts", "wal_bytes", "latency", "waits",
    )

    def __init__(self, key: str, kind: str) -> None:
        self.key = key
        self.kind = kind
        self.calls = 0
        self.errors = 0
        self.total_seconds = 0.0
        self.min_seconds = float("inf")
        self.max_seconds = 0.0
        self.rows_returned = 0
        self.bytes_returned = 0
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        self.decode_cache_hits = 0
        self.governor_aborts = 0
        self.wal_bytes = 0
        self.latency = Histogram(key, _ON, DEFAULT_LATENCY_BUCKETS)
        self.waits: dict[str, float] = {}

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.calls if self.calls else 0.0

    @property
    def p95_seconds(self) -> float:
        return self.latency.quantile(0.95)

    def as_dict(self) -> dict[str, object]:
        return {
            "key": self.key,
            "kind": self.kind,
            "calls": self.calls,
            "errors": self.errors,
            "total_ms": self.total_seconds * 1000.0,
            "mean_ms": self.mean_seconds * 1000.0,
            "p95_ms": self.p95_seconds * 1000.0,
            "min_ms": (0.0 if self.calls == 0 else self.min_seconds * 1000.0),
            "max_ms": self.max_seconds * 1000.0,
            "rows_returned": self.rows_returned,
            "bytes_returned": self.bytes_returned,
            "plan_cache_hits": self.plan_cache_hits,
            "plan_cache_misses": self.plan_cache_misses,
            "decode_cache_hits": self.decode_cache_hits,
            "governor_aborts": self.governor_aborts,
            "wal_bytes": self.wal_bytes,
            "waits_ms": {
                name: seconds * 1000.0
                for name, seconds in sorted(self.waits.items())
            },
        }


class SessionStats:
    """Per-session aggregate the collector keeps alongside the keys."""

    __slots__ = (
        "session_id", "statements", "errors", "total_seconds",
        "rows_returned", "bytes_returned",
    )

    def __init__(self, session_id: int) -> None:
        self.session_id = session_id
        self.statements = 0
        self.errors = 0
        self.total_seconds = 0.0
        self.rows_returned = 0
        self.bytes_returned = 0


class SlowQueryLog:
    """Threshold-triggered structured JSONL log of slow statements.

    Each entry is one JSON line: timestamp, session, normalized SQL key
    (bind parameters are never logged), statement kind, wall time, the
    wait breakdown, rows/bytes returned, and — when ``capture_explain``
    is on — the EXPLAIN ANALYZE tree of the execution.  The file rotates
    to ``<path>.1`` once it exceeds ``max_bytes``; the most recent
    entries also stay in memory for ``\\slowlog``.
    """

    def __init__(
        self,
        path: str,
        threshold_ms: float = 100.0,
        max_bytes: int = 1_000_000,
        capture_explain: bool = True,
        keep_recent: int = 32,
    ) -> None:
        self.path = path
        self.threshold_ms = threshold_ms
        self.max_bytes = max_bytes
        self.capture_explain = capture_explain
        self.recent: deque[dict] = deque(maxlen=keep_recent)
        self.entries_written = 0
        self.rotations = 0
        self.write_errors = 0
        self._lock = threading.Lock()

    def maybe_log(self, record: dict) -> bool:
        """Append ``record`` if it crossed the threshold; True if logged."""
        if record.get("ms", 0.0) < self.threshold_ms:
            return False
        line = json.dumps(record, sort_keys=True, default=str)
        with self._lock:
            self.recent.append(record)
            self.entries_written += 1
            try:
                with open(self.path, "a", encoding="utf-8") as handle:
                    handle.write(line + "\n")
                if os.path.getsize(self.path) > self.max_bytes:
                    os.replace(self.path, self.path + ".1")
                    self.rotations += 1
            except OSError:
                # a full disk must not take the query path down with it
                self.write_errors += 1
        return True

    def tail(self, count: int = 10) -> list[dict]:
        with self._lock:
            return list(self.recent)[-count:]


class StatementStatsCollector:
    """Database-wide statement statistics, wait profiles, and exports."""

    def __init__(
        self,
        max_statements: int = DEFAULT_MAX_STATEMENTS,
        flight_recorder_size: int = DEFAULT_FLIGHT_RECORDER,
    ) -> None:
        #: master switch; ``begin`` returns None (one branch) while off
        self.enabled = False
        self.max_statements = max_statements
        self.evictions = 0
        self.slow_log: SlowQueryLog | None = None
        self.flight_recorder: deque[dict] = deque(maxlen=flight_recorder_size)
        self._stats: "OrderedDict[str, StatementStats]" = OrderedDict()
        self._sessions: dict[int, SessionStats] = {}
        self._lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def attach_slow_log(self, log: SlowQueryLog | None) -> None:
        self.slow_log = log

    def capture_explain(self) -> bool:
        """True when observed SELECTs should run instrumented (slow log)."""
        log = self.slow_log
        return log is not None and log.capture_explain

    def reset(self) -> None:
        with self._lock:
            self._stats.clear()
            self._sessions.clear()
            self.flight_recorder.clear()
            self.evictions = 0

    # -- the observation protocol (driven by the session layer) ------------

    def begin(
        self, key: str, kind: str, session_id: int
    ) -> StatementObservation | None:
        """Start observing one statement; None while disabled."""
        if not self.enabled:
            return None
        observation = StatementObservation(key, kind, session_id)
        observation._token = WAIT_SINK.set(observation.waits)
        return observation

    def finish(
        self,
        observation: StatementObservation | None,
        error: BaseException | None = None,
    ) -> None:
        """Close an observation and fold it into the aggregates.

        Never raises: telemetry failures must not fail statements.
        """
        if observation is None:
            return
        elapsed = time.perf_counter() - observation.started
        if observation._token is not None:
            WAIT_SINK.reset(observation._token)
            observation._token = None
        try:
            self._fold(observation, elapsed, error)
        except Exception:  # noqa: BLE001 - collection must stay non-fatal
            pass

    def record_wait(self, key: str, name: str, seconds: float) -> None:
        """Attribute out-of-band wait time (e.g. ``network``) to ``key``."""
        if not self.enabled or seconds <= 0.0:
            return
        with self._lock:
            stats = self._stats.get(key)
            if stats is not None:
                stats.waits[name] = stats.waits.get(name, 0.0) + seconds

    # -- reading -----------------------------------------------------------

    def statements(self) -> list[StatementStats]:
        """Aggregates ordered by total time, slowest first."""
        with self._lock:
            entries = list(self._stats.values())
        return sorted(entries, key=lambda s: s.total_seconds, reverse=True)

    def statement(self, key: str) -> StatementStats | None:
        with self._lock:
            return self._stats.get(key)

    def session_stats(self) -> dict[int, SessionStats]:
        with self._lock:
            return dict(self._sessions)

    def wait_totals(self) -> dict[str, float]:
        """Seconds per wait name summed over every tracked statement."""
        totals: dict[str, float] = {}
        with self._lock:
            for stats in self._stats.values():
                for name, seconds in stats.waits.items():
                    totals[name] = totals.get(name, 0.0) + seconds
        return totals

    def recent(self, count: int = 10) -> list[dict]:
        """The flight recorder's most recent ``count`` records."""
        with self._lock:
            return list(self.flight_recorder)[-count:]

    def report(self) -> dict[str, object]:
        with self._lock:
            tracked = len(self._stats)
        return {
            "enabled": self.enabled,
            "tracked_statements": tracked,
            "max_statements": self.max_statements,
            "evictions": self.evictions,
            "flight_recorder_depth": len(self.flight_recorder),
            "slow_log": None if self.slow_log is None else {
                "path": self.slow_log.path,
                "threshold_ms": self.slow_log.threshold_ms,
                "entries_written": self.slow_log.entries_written,
                "rotations": self.slow_log.rotations,
            },
        }

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _attribute(raw: dict[str, float], elapsed: float) -> dict[str, float]:
        """Fold the raw span sink into a breakdown summing to ``elapsed``.

        Only taxonomy names are kept (the outer ``query`` span and any
        operator spans would double-count the phases they contain);
        the nested ``wal.fsync`` comes out of ``execute``; the residual
        is ``other``.
        """
        waits: dict[str, float] = {}
        for name in WAIT_NAMES:
            seconds = raw.get(name)
            if seconds:
                waits[name] = seconds
        if "execute" in waits:
            nested = raw.get("wal.fsync", 0.0)
            waits["execute"] = max(0.0, waits["execute"] - nested)
        residual = elapsed - sum(waits.values())
        if residual > 0.0:
            waits["other"] = residual
        return waits

    def _fold(
        self,
        observation: StatementObservation,
        elapsed: float,
        error: BaseException | None,
    ) -> None:
        waits = self._attribute(observation.waits, elapsed)
        record = {
            "ts": time.time(),
            "session": observation.session_id,
            "key": observation.key,
            "kind": observation.kind,
            "ms": elapsed * 1000.0,
            "rows": observation.rows,
            "bytes": observation.bytes,
            "plan_cache_hit": observation.plan_cache_hit,
            "waits_ms": {
                name: seconds * 1000.0 for name, seconds in waits.items()
            },
            "error": None if error is None else (
                f"{type(error).__name__}: {error}"
            ),
        }
        if observation.plan_text is not None:
            record["plan"] = observation.plan_text
        with self._lock:
            stats = self._stats.get(observation.key)
            if stats is None:
                stats = StatementStats(observation.key, observation.kind)
                self._stats[observation.key] = stats
                if len(self._stats) > self.max_statements:
                    self._stats.popitem(last=False)
                    self.evictions += 1
            else:
                self._stats.move_to_end(observation.key)
            stats.calls += 1
            stats.total_seconds += elapsed
            stats.min_seconds = min(stats.min_seconds, elapsed)
            stats.max_seconds = max(stats.max_seconds, elapsed)
            stats.latency.observe(elapsed)
            stats.rows_returned += observation.rows
            stats.bytes_returned += observation.bytes
            if observation.plan_cache_hit is True:
                stats.plan_cache_hits += 1
            elif observation.plan_cache_hit is False:
                stats.plan_cache_misses += 1
            stats.decode_cache_hits += observation.decode_cache_hits
            stats.wal_bytes += observation.wal_bytes
            if error is not None:
                stats.errors += 1
            if observation.governor_abort:
                stats.governor_aborts += 1
            for name, seconds in waits.items():
                stats.waits[name] = stats.waits.get(name, 0.0) + seconds
            session = self._sessions.get(observation.session_id)
            if session is None:
                session = SessionStats(observation.session_id)
                self._sessions[observation.session_id] = session
            session.statements += 1
            session.total_seconds += elapsed
            session.rows_returned += observation.rows
            session.bytes_returned += observation.bytes
            if error is not None:
                session.errors += 1
            self.flight_recorder.append(record)
        log = self.slow_log
        if log is not None:
            log.maybe_log(record)


#: the process-wide statement-statistics collector
STATEMENTS = StatementStatsCollector()


__all__ = [
    "DEFAULT_FLIGHT_RECORDER",
    "DEFAULT_MAX_STATEMENTS",
    "STATEMENTS",
    "SessionStats",
    "SlowQueryLog",
    "StatementObservation",
    "StatementStats",
    "StatementStatsCollector",
    "WAIT_NAMES",
]
