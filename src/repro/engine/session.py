"""The session layer: pinned snapshots and per-session execution state.

``Database.connect()`` returns a :class:`Session`.  Each session owns

* a *pinned* :class:`~repro.engine.snapshot.EngineSnapshot` — the
  catalog + data version all its reads see (refreshed before each
  statement when ``auto_refresh`` is on, frozen until
  :meth:`Session.refresh` when off);
* private :class:`~repro.engine.io.IoCounters`, so concurrent queries
  don't interleave their modelled I/O charges;
* per-kind query counts (surfaced by the ``sys_sessions`` view and the
  ``session.*`` metrics).

While a statement runs, the session installs its snapshot, counters,
budget, work_mem and XADT pin as one execution context
(:func:`repro.engine.snapshot.activate`); the storage read paths clamp
everything to the pinned horizon, which is what makes reads
snapshot-isolated.  Writes are *not* snapshotted — they go straight
through the database's single-writer transaction path, and the writing
session re-pins afterwards so it reads its own writes.

The database's built-in *default session* skips pinning entirely
(``snapshot_reads=False``): it executes against live storage, and its
counters are ``Database.io`` — byte-for-byte the pre-layering behaviour
that the single-threaded tests and benchmarks measure.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING

from repro.engine.config import DEFAULT_BATCH_SIZE
from repro.engine.expr import ParamBox
from repro.engine.governor import GovernorLimits
from repro.engine.io import IoCounters, estimate_row_bytes, row_bytes_kernel
from repro.engine.plan.optimizer import plan_select
from repro.engine.plan_cache import CachedPlan, normalize_sql
from repro.engine.result import Result
from repro.engine.snapshot import EngineSnapshot, activate, deactivate
from repro.engine.sql.ast import SelectStmt, Statement, count_parameters
from repro.engine.sql.parser import parse_sql
from repro.errors import (
    CatalogError,
    ExecutionError,
    ResourceExceeded,
    SessionClosed,
    StatementTimeout,
)
from repro.obs.explain import (
    AnalyzeReport,
    attach_stats,
    build_report,
    detach_stats,
)
from repro.obs.metrics import METRICS
from repro.obs.statements import STATEMENTS, StatementObservation
from repro.obs.trace import TRACER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.catalog import CatalogState
    from repro.engine.database import Database
    from repro.engine.index import Index
    from repro.engine.schema import IndexDef
    from repro.engine.statistics import TableStats
    from repro.engine.storage import HeapTable

#: per-statement-kind latency histograms (wall seconds, whole statement)
_QUERY_HISTOGRAMS = {
    kind: METRICS.histogram(f"query.seconds.{kind}")
    for kind in ("select", "insert", "ddl")
}

#: statements executed through any session (all databases)
_SESSION_QUERIES = METRICS.counter("session.queries")

#: the WAL's byte counter (shared instance) — read before/after an
#: observed statement for the best-effort per-statement WAL-byte delta
_WAL_BYTES = METRICS.counter("wal.bytes_written")

#: the process-wide XADT decode cache, resolved lazily (repro.xadt's
#: package init imports this module's importer)
_DECODE_CACHE = None


def _decode_cache_hits() -> int:
    global _DECODE_CACHE
    if _DECODE_CACHE is None:
        from repro.xadt.decode_cache import DECODE_CACHE

        _DECODE_CACHE = DECODE_CACHE
    return _DECODE_CACHE.stats.hits


def _statement_kind(key: str) -> str:
    head = key[:6].lower()
    if head == "select":
        return "select"
    if head == "insert":
        return "insert"
    return "ddl"


class _PlannerView:
    """PlannerContext over one catalog state (pinned or live).

    The planner resolves heaps, statistics, and index structures through
    this view, so a pinned session plans against exactly the schema
    version its reads will see.  ``work_mem_bytes`` is the database's at
    plan time, for the hash-join cost; the executing statement reads its
    own from the execution context.
    """

    __slots__ = ("_db", "_catalog", "_snapshot", "registry", "work_mem_bytes")

    def __init__(
        self,
        db: "Database",
        catalog: "CatalogState",
        snapshot: EngineSnapshot | None,
    ) -> None:
        self._db = db
        self._catalog = catalog
        self._snapshot = snapshot
        self.registry = db.registry
        self.work_mem_bytes = db.work_mem_bytes

    def heap(self, table_name: str) -> "HeapTable":
        # sys.* views live outside the snapshot machinery: they are
        # materialized at scan time, never published
        view = self._db._system_views.get(table_name.lower())
        if view is not None:
            return view
        if self._snapshot is not None:
            heap = self._snapshot.heaps.get(table_name.lower())
            if heap is None:
                raise CatalogError(f"unknown table {table_name!r}")
            return heap
        return self._db.engine.heap(table_name)

    def stats_for(self, table_name: str) -> "TableStats | None":
        return self._catalog.stats_for(table_name)

    def live_index(
        self, table_name: str, column_name: str
    ) -> "tuple[IndexDef, Index] | None":
        definition = self._catalog.find_index(table_name, column_name)
        if definition is None:
            return None
        key = definition.name.lower()
        if self._snapshot is not None:
            return definition, self._snapshot.indexes[key]
        return definition, self._db.engine.index(key)


class Session:
    """One connection's execution state over a pinned snapshot."""

    def __init__(
        self,
        db: "Database",
        session_id: int,
        name: str | None = None,
        snapshot_reads: bool = True,
        auto_refresh: bool = True,
    ) -> None:
        self._db = db
        self.session_id = session_id
        self.name = name or f"session-{session_id}"
        #: False = the default session: live reads
        self.snapshot_reads = snapshot_reads
        #: re-pin to the latest published snapshot before each statement
        self.auto_refresh = auto_refresh
        #: private modelled-I/O counters: every charge of this session's
        #: statements (the default session's are ``Database.io``)
        self.io = IoCounters()
        self._snapshot: EngineSnapshot | None = (
            db.engine.snapshot if snapshot_reads else None
        )
        self.query_counts: dict[str, int] = {
            "select": 0, "insert": 0, "ddl": 0,
        }
        #: per-session governor override; None falls back to the
        #: database-wide ``db.governor.limits``
        self.limits: GovernorLimits | None = None
        self.closed = False
        #: serializes close() against concurrent closers (a server's
        #: drain closes pooled sessions a statement may still be using)
        self._close_lock = threading.Lock()

    def set_limits(self, limits: GovernorLimits | None) -> None:
        """Override (or with None, clear) this session's resource limits."""
        self.limits = limits

    # -- snapshot management ----------------------------------------------

    @property
    def snapshot_version(self) -> int | None:
        """The pinned engine epoch (None for the live default session)."""
        return None if self._snapshot is None else self._snapshot.version

    def refresh(self) -> None:
        """Re-pin to the latest published snapshot."""
        if self.snapshot_reads:
            self._snapshot = self._db.engine.snapshot

    def _pin(self) -> EngineSnapshot | None:
        if not self.snapshot_reads:
            return None
        if self.auto_refresh:
            self._snapshot = self._db.engine.snapshot
        return self._snapshot

    # -- execution ---------------------------------------------------------

    def execute(self, sql: str, params: tuple | list = ()) -> Result:
        """Execute one statement against this session's snapshot."""
        return self._execute(normalize_sql(sql), None, sql, params)

    def _execute(
        self,
        key: str,
        statement: Statement | None,
        sql: str | None,
        params: tuple | list,
    ) -> Result:
        """The statement envelope — the only one (DESIGN.md §8).

        ``Session.execute`` enters with SQL text, ``PreparedStatement``
        with the statement it parsed at prepare time; everything else is
        shared: begin the observation, open the ``query`` span, run,
        note the result, count, observe the latency histogram, finish.
        Whether the statement collector is on is a branch in here, not
        a second copy.
        """
        self._check_open()
        kind = _statement_kind(key)
        started = time.perf_counter()
        observation = STATEMENTS.begin(key, kind, self.session_id)
        if observation is not None:
            decode_start = _decode_cache_hits()
            wal_start = _WAL_BYTES.value
        error: BaseException | None = None
        try:
            with TRACER.span("query", args={"sql": key[:200], "kind": kind}):
                if kind == "select":
                    pin = self._pin()
                    entry = self._select_entry(
                        key, statement, sql, pin, observation
                    )
                    result = self._run_select(entry, params, pin, observation)
                    slots = entry.plan.binding.slots
                else:
                    if statement is None:
                        with TRACER.span("parse"):
                            statement = parse_sql(sql)
                    result = self._execute_write(statement, params)
                    slots = None
            if observation is not None:
                self._note_result(
                    observation, result, slots, decode_start, wal_start
                )
            self._count(kind)
            _QUERY_HISTOGRAMS[kind].observe(time.perf_counter() - started)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            if observation is not None:
                observation.governor_abort = isinstance(
                    error, (StatementTimeout, ResourceExceeded)
                )
                STATEMENTS.finish(observation, error=error)

    @staticmethod
    def _note_result(
        observation: StatementObservation,
        result: Result,
        slots: list | None,
        decode_start: int,
        wal_start: int,
    ) -> None:
        rows = result.rows
        observation.rows = len(rows)
        if slots is None:  # a write's one status row
            observation.bytes = sum(map(estimate_row_bytes, rows))
        else:
            # a batch at a time: the kernel's transients stay batch-sized
            width = row_bytes_kernel(slots)
            observation.bytes = sum(
                width(rows[start:start + DEFAULT_BATCH_SIZE])
                for start in range(0, len(rows), DEFAULT_BATCH_SIZE)
            )
        # deltas of process-wide counters: exact single-threaded,
        # best-effort (may over-attribute) under concurrent writers
        observation.decode_cache_hits = max(
            0, _decode_cache_hits() - decode_start
        )
        observation.wal_bytes = max(0, _WAL_BYTES.value - wal_start)

    def prepare(self, sql: str) -> "PreparedStatement":
        """Parse ``sql`` once; execute it repeatedly with bind values."""
        self._check_open()
        return PreparedStatement(self, sql)

    def execute_many(
        self, sql: str, param_rows: list[tuple] | list[list]
    ) -> list[Result]:
        """Prepare ``sql`` once and execute it per bind-value row."""
        prepared = self.prepare(sql)
        return [prepared.execute(*row) for row in param_rows]

    def close(self) -> None:
        """Release this session's resources and deregister it.

        Idempotent and safe under concurrent closers: exactly one
        caller performs the teardown.  Closing unpins the snapshot
        (releasing the heap/index references the pin kept alive),
        clears the per-session governor override, and removes the
        session from the database's registry — after ``close`` the
        session holds no engine state, which is what lets the network
        front-end's drain close its pooled sessions without leaking.  A
        statement already executing keeps its locally captured snapshot
        and finishes normally; the *next* statement raises
        :class:`~repro.errors.SessionClosed`.
        """
        with self._close_lock:
            if self.closed:
                return
            self.closed = True
        self._snapshot = None
        self.limits = None
        self._db._forget_session(self)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- internals ---------------------------------------------------------

    def _check_open(self) -> None:
        if self.closed:
            raise SessionClosed(f"session {self.name!r} is closed")

    def _count(self, kind: str) -> None:
        self.query_counts[kind] = self.query_counts.get(kind, 0) + 1
        _SESSION_QUERIES.inc()

    def _select_entry(
        self,
        key: str,
        statement: Statement | None,
        sql: str | None,
        pin: EngineSnapshot | None,
        observation: StatementObservation | None = None,
    ) -> CachedPlan:
        """The plan a SELECT runs: the cached entry, or a new one.

        A miss parses (unless the caller already did), plans against
        the pinned catalog and stores the entry under that catalog's
        version.
        """
        # one consistent catalog state for lookup, planning, and store —
        # the version cannot move between the cache probe and the compile
        catalog = pin.catalog if pin is not None else self._db.catalog
        cache = self._db.plan_cache
        entry = cache.lookup(key, catalog.version)
        if observation is not None:
            observation.plan_cache_hit = entry is not None
        if entry is not None:
            return entry
        if statement is None:
            with TRACER.span("parse"):
                statement = parse_sql(sql)
        if not isinstance(statement, SelectStmt):
            raise ExecutionError(
                "statement normalizes like a SELECT but is "
                f"{type(statement).__name__}"
            )
        entry = self._plan_entry(key, statement, catalog, pin)
        cache.store(key, entry)
        return entry

    def _plan_entry(
        self,
        key: str,
        statement: SelectStmt,
        catalog: "CatalogState",
        pin: EngineSnapshot | None,
    ) -> CachedPlan:
        """Plan ``statement`` against ``catalog`` via a :class:`_PlannerView`."""
        box = ParamBox(count_parameters(statement))
        with TRACER.span("plan", args={"sql": key[:200]}):
            plan = plan_select(
                statement, _PlannerView(self._db, catalog, pin), box
            )
        return CachedPlan(
            plan=plan, params=box, statement=statement, version=catalog.version
        )

    def _run_select(
        self,
        entry: CachedPlan,
        params: tuple | list,
        pin: EngineSnapshot | None,
        observation: StatementObservation | None = None,
        counters: IoCounters | None = None,
    ) -> Result:
        entry.params.bind(tuple(params))
        columns = [slot.name for slot in entry.plan.binding.slots]
        budget = self._db.governor.budget_for(self.limits, statement="select")
        # the statement's state goes into the context, where operators,
        # the UDF boundary and the XADT methods find it; work_mem is read
        # now, so a cached plan follows the database's current setting
        token = activate(pin, counters or self.io, budget, self._db.work_mem_bytes)
        # slow-log plan capture: instrument the cached plan for this
        # execution only (skipped if another execution already holds
        # instrumentation on the shared plan)
        capture = (
            observation is not None
            and STATEMENTS.capture_explain()
            and getattr(entry.plan, "stats", None) is None
        )
        nodes = attach_stats(entry.plan) if capture else None
        try:
            with TRACER.span("execute") as span:
                rows: list[tuple] = []
                if budget is None:
                    for batch in entry.plan.batches():
                        rows.extend(batch)
                else:
                    caps = (
                        budget.limits.max_result_rows is not None
                        or budget.limits.max_result_bytes is not None
                    )
                    width = row_bytes_kernel(entry.plan.binding.slots)
                    for batch in entry.plan.batches():
                        rows.extend(batch)
                        if caps:
                            budget.add_result_rows(len(batch))
                            budget.add_result_bytes(width(batch))
                span.args["rows"] = len(rows)
        finally:
            deactivate(token)
            if nodes is not None:
                try:
                    report = build_report(nodes, {}, None)
                    observation.plan_text = "\n".join(
                        line
                        for line in report.text().splitlines()
                        if not line.startswith("phases:")
                    )
                except Exception:  # noqa: BLE001 - capture is best-effort
                    pass
                detach_stats(nodes)
        return Result(columns, rows)

    def _explain_analyze(
        self,
        key: str,
        statement: Statement | None,
        sql: str | None,
        params: tuple | list,
    ) -> AnalyzeReport:
        """EXPLAIN ANALYZE: ``execute``'s SELECT path on a private plan.

        Same pin, private I/O counters, governor budget and work_mem as
        :meth:`_execute` — only the plan differs: planned fresh, kept out of
        the cache, and instrumented for its whole (one-run) life.
        """
        self._check_open()
        phases: dict[str, float] = {}
        started = time.perf_counter()
        if statement is None:
            statement = parse_sql(sql)
        phases["parse"] = time.perf_counter() - started
        if not isinstance(statement, SelectStmt):
            raise ExecutionError(
                "EXPLAIN ANALYZE supports SELECT statements only"
            )
        pin = self._pin()
        started = time.perf_counter()
        catalog = pin.catalog if pin is not None else self._db.catalog
        # a private entry, never stored: the shared cached plan stays
        # uninstrumented
        entry = self._plan_entry(key, statement, catalog, pin)
        phases["plan"] = time.perf_counter() - started
        nodes = attach_stats(entry.plan)
        # counters of its own, so the report shows what this statement
        # was charged; the session's counters receive them afterwards
        counters = IoCounters()
        started = time.perf_counter()
        try:
            result = self._run_select(entry, params, pin, counters=counters)
        finally:
            self.io.merge(counters)
        phases["execute"] = time.perf_counter() - started
        if TRACER.enabled:
            for node, _depth in nodes:
                stats = node.stats
                if stats.started_at is None:
                    continue
                finished = stats.finished_at or stats.started_at
                TRACER.add_complete(
                    type(node).__name__,
                    "operator",
                    stats.started_at,
                    finished - stats.started_at,
                    {"rows": stats.rows_out, "loops": stats.loops},
                )
        return build_report(nodes, phases, result, counters)

    def _execute_write(
        self, statement: Statement, params: tuple | list
    ) -> Result:
        """Writes bypass the pin: they run on the live writer path."""
        with TRACER.span("execute"):
            result = self._db._execute_statement(statement, params)
        # read-your-writes: re-pin so this session's next read sees the
        # version its own write published
        if self.snapshot_reads:
            self._snapshot = self._db.engine.snapshot
        return result

    def __repr__(self) -> str:
        pin = self.snapshot_version
        at = "live" if pin is None else f"epoch {pin}"
        return f"Session({self.name!r}, {at}, closed={self.closed})"


class PreparedStatement:
    """A statement parsed once and re-executable with bind values.

    ``execute(*params)`` binds the given values to the statement's ``?``
    markers (left to right) and runs it on the owning session.  SELECT
    plans come from the database's shared plan cache, so every prepared
    handle for the same normalized SQL reuses one compiled plan.
    """

    def __init__(self, session: Session, sql: str) -> None:
        self._session = session
        self.sql = sql
        self._key = normalize_sql(sql)
        self._statement = parse_sql(sql)
        #: number of ``?`` markers execute() expects
        self.parameter_count = count_parameters(self._statement)

    def execute(self, *params: object) -> Result:
        return self._session._execute(self._key, self._statement, None, params)

    def explain(self) -> str:
        """The physical plan this statement currently executes."""
        if not isinstance(self._statement, SelectStmt):
            raise ExecutionError("EXPLAIN supports SELECT statements only")
        session = self._session
        entry = session._select_entry(
            self._key, self._statement, None, session._pin()
        )
        return "\n".join(entry.plan.explain())

    def explain_analyze(self, *params: object) -> AnalyzeReport:
        """Execute with per-operator instrumentation; see Database.explain_analyze."""
        return self._session._explain_analyze(
            self._key, self._statement, None, params
        )

    def __repr__(self) -> str:
        return (
            f"PreparedStatement({self.sql!r}, "
            f"{self.parameter_count} parameter(s))"
        )


__all__ = ["PreparedStatement", "Session"]
