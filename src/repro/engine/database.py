"""The user-facing database facade over the catalog / storage / session layers.

A :class:`Database` composes three layers (DESIGN.md §8):

* the **catalog** (:class:`~repro.engine.catalog.CatalogManager`):
  versioned, copy-on-write schema state — table schemas, index
  definitions, statistics, and the execution config, all stamped with
  one monotonically increasing version;
* the **storage engine**
  (:class:`~repro.engine.storage_engine.StorageEngine`): the live
  heaps and index structures behind a single writer lock that publishes
  immutable :class:`~repro.engine.snapshot.EngineSnapshot` versions;
* the **session layer** (:meth:`Database.connect` ->
  :class:`~repro.engine.session.Session`): each session reads a pinned
  snapshot (snapshot isolation) with its own I/O counters and query
  counts.

``Database.execute`` and friends remain the single-threaded public API:
they delegate to a built-in *default session* that reads live storage
through the shared base I/O counters, preserving the pre-layering
behaviour byte for byte.

Repeated SELECTs are served from a bounded LRU plan cache (DB2's package
cache, in miniature): a hit skips lex/parse/optimize/compile entirely
and re-runs the cached operator tree, which builds fresh iterator state
on every ``rows()`` call.  Any plan-relevant change — DDL, ``runstats``,
an exec-config swap — advances the catalog version; plans from older
versions are purged at publish time instead of silently reused.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from typing import Iterator

from repro.engine.advisor import IndexAdvisor
from repro.engine.catalog import CatalogManager, CatalogState
from repro.engine.config import ExecutionConfig
from repro.engine.expr import Binding, ParamBox, compile_expr
from repro.engine.governor import ResourceGovernor
from repro.engine.index import Index
from repro.engine.io import IoRouter
from repro.engine.plan.optimizer import plan_select
from repro.engine.plan_cache import DEFAULT_CAPACITY, PlanCache, normalize_sql
from repro.engine.result import Result
from repro.engine.schema import Column, IndexDef, PartitionSpec, TableSchema
from repro.engine.session import PreparedStatement, Session
from repro.engine.sql.ast import (
    CreateIndexStmt,
    CreateTableStmt,
    DropTableStmt,
    InsertStmt,
    SelectStmt,
    Statement,
    count_parameters,
)
from repro.engine.sql.parser import parse_sql
from repro.engine.statistics import TableStats, collect_stats
from repro.engine.storage import HeapTable, PartitionedHeapTable
from repro.engine.storage_engine import StorageEngine
from repro.engine.system_views import (
    SystemViewTable,
    install_system_views,
    is_system_view_name,
)
from repro.engine.types import type_from_name
from repro.engine.udf import FunctionRegistry
from repro.engine.wal import WriteAheadLog
from repro.errors import CatalogError, CrashPoint, ExecutionError
from repro.obs.explain import AnalyzeReport
from repro.obs.metrics import METRICS
from repro.obs.statements import STATEMENTS
from repro.obs.trace import TRACER


class Database:
    """An in-process object-relational database."""

    def __init__(
        self,
        name: str = "db",
        work_mem_bytes: int | None = None,
        plan_cache_capacity: int = DEFAULT_CAPACITY,
        exec_config: ExecutionConfig | None = None,
    ) -> None:
        self.name = name
        self.registry = FunctionRegistry()
        #: context-dispatching logical-I/O facade baked into every plan;
        #: the benchmark harness resets this before each cold query run
        self.io = IoRouter()
        if work_mem_bytes is not None:
            self.io.work_mem_bytes = work_mem_bytes
        self._catalog_mgr = CatalogManager(exec_config or ExecutionConfig())
        #: the storage layer: live heaps/indexes + writer lock + snapshots
        self.engine = StorageEngine(self._catalog_mgr)
        #: compiled-plan cache; capacity 0 re-plans every execution
        self.plan_cache = PlanCache(plan_cache_capacity)
        self.engine.attach_plan_cache(self.plan_cache)
        #: read-only sys.* telemetry relations (catalog-registered, but
        #: never part of the storage engine's heap map — see
        #: repro.engine.system_views)
        self._system_views: dict[str, SystemViewTable] = (
            install_system_views(self)
        )
        #: open sessions by id (the default session is id 0)
        self._sessions: dict[int, Session] = {}
        self._session_ids = itertools.count(1)
        self._sessions_lock = threading.Lock()
        self._default = Session(
            self, 0, name="default", snapshot_reads=False
        )
        self._sessions[0] = self._default
        # the process-wide XADT structural-index store publishes with
        # this engine's snapshot swaps (imported lazily: repro.xadt's
        # package init imports this module)
        from repro.xadt.structural_index import XINDEX

        self.engine.attach_xindex(XINDEX)
        #: write-ahead log; None runs the engine in volatile mode
        self._wal: WriteAheadLog | None = None
        #: database-wide resource limits (sessions may override)
        self.governor = ResourceGovernor()
        #: set by :func:`repro.engine.recovery.recover_database`
        self.recovery_report = None
        #: lazy partition-parallel worker pool (DESIGN.md §12)
        self._pool = None
        self._pool_lock = threading.Lock()
        #: lazy alternative execution backends by name (DESIGN.md §13)
        self._backends: dict[str, object] = {}
        self._backends_lock = threading.Lock()

    # -- durability --------------------------------------------------------

    @classmethod
    def open(
        cls,
        path: str,
        name: str = "db",
        recover: bool = False,
        sync_mode: str = "group",
        group_window_seconds: float | None = None,
        **database_kwargs,
    ) -> "Database":
        """A database whose writes are logged to the WAL at ``path``.

        ``recover=False`` starts a fresh database with a fresh log.
        ``recover=True`` replays the existing log first (see
        :mod:`repro.engine.recovery`), rebuilding the state of the last
        durable commit, then re-attaches the log in append mode; the
        replay summary rides along as ``db.recovery_report``.
        """
        if recover:
            from repro.engine.recovery import recover_database

            return recover_database(
                path,
                name=name,
                sync_mode=sync_mode,
                group_window_seconds=group_window_seconds,
                **database_kwargs,
            )
        db = cls(name, **database_kwargs)
        wal_kwargs: dict[str, object] = {"sync_mode": sync_mode}
        if group_window_seconds is not None:
            wal_kwargs["group_window_seconds"] = group_window_seconds
        db.attach_wal(WriteAheadLog(path, create=True, **wal_kwargs))
        return db

    def attach_wal(self, wal: WriteAheadLog) -> None:
        """Route every subsequent write transaction through ``wal``."""
        self._wal = wal

    @property
    def wal(self) -> WriteAheadLog | None:
        return self._wal

    def close(self) -> None:
        """Durably flush and detach the WAL; stop the worker pool."""
        if self._wal is not None and not self._wal.closed:
            self._wal.close()
        with self._pool_lock:
            if self._pool is not None:
                self._pool.close()
                self._pool = None

    # -- partition-parallel execution --------------------------------------

    def worker_pool(self):
        """The scatter-gather worker pool, sized by the execution config.

        Returns None while ``parallel_workers`` is 0 (the default: plans
        never contain an Exchange).  The pool spawns lazily on first use
        and is rebuilt when the configured size changes; plans hold this
        *method* as their pool provider, so cached plans follow resizes
        and never pin dead worker processes.
        """
        workers = self.exec_config.parallel_workers
        with self._pool_lock:
            if workers < 1:
                if self._pool is not None:
                    self._pool.close()
                    self._pool = None
                return None
            if self._pool is not None and self._pool.size != workers:
                self._pool.close()
                self._pool = None
            if self._pool is None:
                from repro.engine.parallel import WorkerPool

                self._pool = WorkerPool(workers)
            return self._pool

    def partition_table(
        self,
        name: str,
        column: str,
        partitions: int,
        kind: str = "hash",
        bounds: tuple | list | None = None,
    ) -> None:
        """Hash/range-partition an existing table by ``column``.

        Rebuilds the heap as a
        :class:`~repro.engine.storage.PartitionedHeapTable` under the
        writer lock: rows keep their ids (the unified append-only row
        list is preserved, so row-id ordering — and therefore every
        query result — is unchanged), gaining per-partition row-id
        buckets; attached indexes are rebuilt against the new heap.
        Readers pinned to older snapshots keep the old heap object.
        The catalog version bump purges cached plans, keeping plan-cache
        keys sound under the new partition metadata.
        """
        self._reject_system_name(name, "partition table")
        old_schema = self.catalog.table(name)
        spec = PartitionSpec(
            column=column,
            partitions=partitions,
            kind=kind,
            bounds=tuple(bounds) if bounds is not None else None,
        )
        schema = TableSchema(
            old_schema.name, list(old_schema.columns), partition=spec
        )
        with self._write() as version:
            if self._wal is not None:
                self._wal.log_partition_table(name, spec)
            old_heap = self.engine.heap(name)
            heap = PartitionedHeapTable(schema)
            heap.bulk_insert(list(old_heap.rows))
            definitions = [index.definition for index in old_heap.indexes]
            self._catalog_mgr.replace_table(schema, version)
            self.engine.replace_heap(heap)
            for definition in definitions:
                self.engine.add_index(definition)

    @contextmanager
    def _write(self, marker: str | None = None) -> Iterator[int]:
        """A logged write transaction: writer lock + one WAL txn scope.

        With no WAL attached this is exactly ``engine.write()``.  With
        one, records logged inside the scope share a transaction id and
        the outermost exit appends the commit record (write-ahead: the
        log describes the change before the commit makes it durable).
        On error an ``abort`` record is appended instead — except for
        :class:`~repro.errors.CrashPoint`, which models process death:
        the transaction is simply left open and recovery discards it.
        """
        with self.engine.write() as version:
            wal = self._wal
            if wal is None or wal.closed:
                yield version
                return
            wal.begin(marker)
            try:
                yield version
            except CrashPoint:
                raise
            except BaseException:
                if not wal.closed:
                    wal.abort()
                raise
            else:
                wal.end()

    @contextmanager
    def transaction(self, marker: str | None = None) -> Iterator[int]:
        """Group several writes into one atomic, durable unit.

        ``marker`` names the commit record; the document loader stamps
        one per document so an interrupted bulk load can resume from the
        markers recovery reports (``RecoveryReport.markers``).
        """
        with self._write(marker) as version:
            yield version

    # -- layer views -------------------------------------------------------

    @property
    def catalog(self) -> CatalogState:
        """The current immutable catalog state (read API)."""
        return self._catalog_mgr.state

    @property
    def catalog_version(self) -> int:
        """Version of the last plan-relevant change (what plans key on)."""
        return self._catalog_mgr.state.version

    @property
    def version(self) -> int:
        """The engine epoch of the currently published snapshot."""
        return self.engine.version

    @property
    def exec_config(self) -> ExecutionConfig:
        """Execution-layer knobs the planner bakes into physical plans."""
        return self._catalog_mgr.state.exec_config

    def set_exec_config(self, config: ExecutionConfig) -> None:
        """Swap the execution config; cached plans are invalidated.

        Plans bake in the XADT access path and the Exchange wrapping of
        partitioned scans, so the catalog-version bump purges every
        cached statement at publish time.
        """
        with self._write() as version:
            if self._wal is not None:
                self._wal.log_exec_config(config)
            self._catalog_mgr.set_exec_config(config, version)
            self._sync_structural_indexes()

    # -- XADT structural indexes -------------------------------------------

    def _structural_enabled(self) -> bool:
        return self._catalog_mgr.state.exec_config.xadt_structural_index

    def _register_structural_columns(self, schema: TableSchema) -> bool:
        """Register the schema's XADT columns with the process-wide store."""
        from repro.engine.types import XadtType
        from repro.xadt.structural_index import XINDEX

        registered = False
        for column in schema.columns:
            if isinstance(column.sql_type, XadtType):
                XINDEX.register_column(schema.name, column.name)
                registered = True
        return registered

    def _ingest_structural(self, table: str, rows) -> None:
        """Stage structural indexes for the XADT cells of ``rows``.

        Runs inside the writer transaction (through the
        ``xadt.index_build`` fault site); staged builds become visible
        only when the engine publishes the next snapshot, after the WAL
        transaction committed.
        """
        from repro.xadt.structural_index import XINDEX

        if not XINDEX.active:
            return
        schema = self.heap(table).schema
        names = [column.name for column in schema.columns]
        try:
            with TRACER.span("xindex.build", cat="xadt", args={"table": table}):
                XINDEX.ingest_rows(table, names, rows)
        except BaseException:
            # a failed (or crashed) statement must not leak its builds
            # into the next publish
            XINDEX.discard_staged()
            raise

    def _sync_structural_indexes(self) -> None:
        """Make the store match the config after an exec-config swap.

        Turning the flag on is retroactive: every XADT column already in
        the catalog is registered and its stored fragments are indexed
        inside the same write transaction, so the flip publishes a fully
        built index.  Turning it off leaves built indexes in place (the
        per-statement routing simply stops consulting them).
        """
        if not self._structural_enabled():
            return
        registered = False
        for schema in self._catalog_mgr.state.tables.values():
            registered |= self._register_structural_columns(schema)
        if not registered:
            return
        for heap in self.engine.heaps().values():
            self._ingest_structural(heap.schema.name, heap.scan())

    # -- sessions ----------------------------------------------------------

    def connect(
        self, name: str | None = None, auto_refresh: bool = True
    ) -> Session:
        """Open a new session with its own pinned snapshot.

        ``auto_refresh=True`` (the default) re-pins to the latest
        published snapshot before each statement — read-committed-style
        freshness with per-statement snapshot isolation.  With
        ``auto_refresh=False`` the session keeps reading the snapshot it
        pinned at connect time until :meth:`Session.refresh`.
        """
        with self._sessions_lock:
            session_id = next(self._session_ids)
            session = Session(
                self, session_id, name=name, auto_refresh=auto_refresh
            )
            self._sessions[session_id] = session
        return session

    def sessions(self) -> list[Session]:
        """Open sessions, default session first."""
        with self._sessions_lock:
            return [self._sessions[k] for k in sorted(self._sessions)]

    def _forget_session(self, session: Session) -> None:
        with self._sessions_lock:
            self._sessions.pop(session.session_id, None)

    # -- PlannerContext protocol (live view, for explain/advisor paths) ----

    def heap(self, table_name: str) -> HeapTable:
        view = self._system_views.get(table_name.lower())
        if view is not None:
            return view
        return self.engine.heap(table_name)

    def stats_for(self, table_name: str) -> TableStats | None:
        return self._catalog_mgr.state.stats_for(table_name)

    def live_index(
        self, table_name: str, column_name: str
    ) -> tuple[IndexDef, Index] | None:
        definition = self._catalog_mgr.state.find_index(
            table_name, column_name
        )
        if definition is None:
            return None
        return definition, self.engine.index(definition.name)

    # -- DDL -------------------------------------------------------------------

    def _reject_system_name(self, name: str, action: str) -> None:
        if is_system_view_name(name):
            raise CatalogError(
                f"cannot {action} {name!r}: the sys_* namespace is "
                f"reserved for system views"
            )

    def create_table(self, schema: TableSchema) -> None:
        self._reject_system_name(schema.name, "create table")
        with self._write() as version:
            if self._wal is not None:
                self._wal.log_create_table(schema)
            self._catalog_mgr.add_table(schema, version)
            self.engine.add_heap(schema)
            if self._structural_enabled():
                self._register_structural_columns(schema)

    def drop_table(self, name: str) -> None:
        self._reject_system_name(name, "drop table")
        with self._write() as version:
            if self._wal is not None:
                self._wal.log_drop_table(name)
            self._catalog_mgr.drop_table(name, version)
            self.engine.drop_heap(name)
            if self._structural_enabled():
                from repro.xadt.structural_index import XINDEX

                XINDEX.unregister_table(name)

    def create_index(
        self,
        name: str,
        table: str,
        column: str,
        kind: str = "btree",
        unique: bool = False,
    ) -> None:
        from repro.engine.types import XadtType

        self._reject_system_name(table, "index system view")
        self._reject_system_name(name, "create index")
        column_type = self.catalog.table(table).column(column).sql_type
        if isinstance(column_type, XadtType) and kind == "btree":
            raise CatalogError(
                f"XADT column {column!r} has no ordering; only hash "
                f"indexes apply (XML fragments compare for equality only)"
            )
        definition = IndexDef(name, table, column, kind, unique)
        with self._write() as version:
            if self._wal is not None:
                self._wal.log_create_index(definition)
            self._catalog_mgr.add_index(definition, version)
            self.engine.add_index(definition)

    # -- DML ---------------------------------------------------------------------

    def insert(self, table: str, row: tuple | list) -> int:
        # refuse before anything reaches the WAL
        self._reject_system_name(table, "insert into")
        row = tuple(row)
        with self._write():
            if self._wal is not None:
                self._wal.log_insert(table, row)
            if self._structural_enabled():
                self._ingest_structural(table, (row,))
            return self.heap(table).insert(row)

    def bulk_insert(self, table: str, rows) -> int:
        """Insert a batch atomically (and durably, when a WAL is attached).

        A mid-batch failure rolls the whole batch back
        (:meth:`HeapTable.bulk_insert`) and aborts its WAL transaction.
        When the database-wide governor sets a statement timeout, the
        load checks it every 256 rows.
        """
        self._reject_system_name(table, "insert into")
        logged = self._wal is not None and not self._wal.closed
        structural = self._structural_enabled()
        if logged or structural:
            # materialize once so the WAL, the heap, and the structural
            # indexer see the same batch; rows are serialized inside
            # log_bulk_insert, so later caller mutation cannot reach the
            # log
            rows = list(rows)
        budget = self.governor.budget(statement=f"bulk_insert {table}")
        with self._write():
            if logged:
                self._wal.log_bulk_insert(table, rows)
            heap = self.heap(table)
            if budget is None:
                if structural:
                    self._ingest_structural(table, rows)
                return heap.bulk_insert(rows)
            from repro.engine.snapshot import activate, deactivate

            token = activate(None, None, budget)
            try:
                # stage the structural indexes first (inside the budget
                # scope, so the build's modelled bytes count against the
                # statement): a build failure then aborts before the
                # heap is touched
                if structural:
                    self._ingest_structural(table, rows)
                return heap.bulk_insert(rows)
            finally:
                deactivate(token)

    # -- queries ------------------------------------------------------------------

    def execute(
        self, sql: str, params: tuple | list = (), backend: str = "native"
    ) -> Result:
        """Execute one statement; ``params`` bind any ``?`` markers.

        Runs on the default session (live reads, shared I/O counters).
        SELECTs are served through the plan cache: a repeat of the same
        normalized SQL reuses the compiled plan and only re-runs the
        operator tree.

        ``backend`` selects the execution backend: ``"native"`` (the
        vectorized operator tree) or any name accepted by
        :meth:`backend` — currently ``"sqlite"``, which lowers the same
        logical plan to SQL text over an in-memory SQLite mirror.
        """
        if backend == "native":
            return self._default.execute(sql, params)
        return self.backend(backend).execute(sql, params)

    def backend(self, name: str):
        """The named alternative execution backend (lazily created)."""
        key = name.lower()
        with self._backends_lock:
            existing = self._backends.get(key)
            if existing is not None:
                return existing
            if key == "sqlite":
                from repro.backends.sqlite import SqliteBackend

                created = SqliteBackend(self)
            else:
                from repro.errors import BackendError

                raise BackendError(f"unknown execution backend {name!r}")
            self._backends[key] = created
            return created

    def backend_names(self) -> list[str]:
        """Every selectable backend name."""
        return ["native", "sqlite"]

    def prepare(self, sql: str) -> PreparedStatement:
        """Parse ``sql`` once; execute it repeatedly with bind values."""
        return self._default.prepare(sql)

    def execute_many(
        self, sql: str, param_rows: list[tuple] | list[list]
    ) -> list[Result]:
        """Prepare ``sql`` once and execute it per bind-value row."""
        return self._default.execute_many(sql, param_rows)

    def _execute_statement(
        self, statement: Statement, params: tuple | list
    ) -> Result:
        """Non-SELECT dispatch (the single-writer path sessions call)."""
        if isinstance(statement, InsertStmt):
            box = ParamBox(count_parameters(statement))
            box.bind(tuple(params))
            return self._execute_insert(statement, box)
        if params:
            raise ExecutionError(
                f"{type(statement).__name__} takes no parameters"
            )
        if isinstance(statement, CreateTableStmt):
            columns = [
                Column(c.name, type_from_name(c.type_name), c.primary_key)
                for c in statement.columns
            ]
            partition = None
            if statement.partition_column is not None:
                partition = PartitionSpec(
                    column=statement.partition_column,
                    partitions=statement.partition_count or 0,
                    kind=statement.partition_kind,
                )
            self.create_table(
                TableSchema(statement.table, columns, partition=partition)
            )
            return Result(["status"], [("table created",)])
        if isinstance(statement, CreateIndexStmt):
            self.create_index(
                statement.name,
                statement.table,
                statement.column,
                statement.kind,
                statement.unique,
            )
            return Result(["status"], [("index created",)])
        if isinstance(statement, DropTableStmt):
            self.drop_table(statement.table)
            return Result(["status"], [("table dropped",)])
        raise ExecutionError(f"unsupported statement {type(statement).__name__}")

    def _execute_insert(
        self, statement: InsertStmt, params: ParamBox | None = None
    ) -> Result:
        """Evaluate the VALUES rows, then insert them as one atomic batch.

        Evaluation happens *before* the write transaction opens, so a
        bad expression never holds the writer lock, and the whole
        statement lands through :meth:`bulk_insert` — one WAL record,
        all-or-nothing storage semantics.
        """
        schema = self.heap(statement.table).schema
        empty = Binding([])
        rows: list[tuple] = []
        for value_row in statement.rows:
            values = [
                compile_expr(expr, empty, self.registry, params)(())
                for expr in value_row
            ]
            if statement.columns:
                if len(values) != len(statement.columns):
                    raise ExecutionError("INSERT arity mismatch")
                full: list[object] = [None] * schema.arity()
                for column_name, value in zip(statement.columns, values):
                    full[schema.position(column_name)] = value
                rows.append(tuple(full))
            else:
                rows.append(tuple(values))
        inserted = self.bulk_insert(statement.table, rows)
        return Result(["rows_inserted"], [(inserted,)])

    def explain(self, sql: str) -> str:
        statement = parse_sql(sql)
        if not isinstance(statement, SelectStmt):
            raise ExecutionError("EXPLAIN supports SELECT statements only")
        plan = plan_select(statement, self, ParamBox(count_parameters(statement)))
        return "\n".join(plan.explain())

    def explain_analyze(
        self, sql: str, params: tuple | list = ()
    ) -> AnalyzeReport:
        """Execute ``sql`` with per-operator instrumentation.

        Plans the statement fresh (cached plans are shared and stay
        uninstrumented), attaches rows/timing counters to every physical
        operator, runs the query to completion on the default session —
        the same path ``execute`` takes — and returns an
        :class:`~repro.obs.explain.AnalyzeReport`: actual vs. estimated
        cardinality per operator, inclusive/self wall time, >10x
        estimate-miss flags, and the parse/plan/execute phase breakdown.
        The executed :class:`Result` rides along as ``report.result``.
        """
        return self._default._explain_analyze(
            normalize_sql(sql), None, sql, params
        )

    # -- statistics & advice ------------------------------------------------------

    def runstats(self, table: str | None = None) -> None:
        """Collect statistics for one table or every table.

        Advances the catalog version: cached plans are purged at publish
        time so fresh statistics can change the chosen access paths.
        """
        if table is not None:
            self._reject_system_name(table, "collect statistics on")
        with self._write() as version:
            if self._wal is not None:
                self._wal.log_runstats(table)
            if table is not None:
                fresh = {table.lower(): collect_stats(self.heap(table))}
            else:
                fresh = {
                    key: collect_stats(heap)
                    for key, heap in self.engine.heaps().items()
                }
            self._catalog_mgr.set_stats(fresh, version)

    def advise_indexes(self, workload: list[str]) -> list[str]:
        """DDL suggestions from the index advisor for ``workload``."""
        advisor = IndexAdvisor(self.catalog)
        for sql in workload:
            advisor.observe_sql(sql)
        return advisor.ddl()

    def apply_index_advice(self, workload: list[str]) -> list[str]:
        """Create the advisor's suggested indexes; returns the DDL applied."""
        ddl = self.advise_indexes(workload)
        for statement in ddl:
            self.execute(statement)
        return ddl

    # -- sizing -------------------------------------------------------------------

    def table_count(self) -> int:
        return len(self.engine.heaps())

    def index_count(self) -> int:
        return len(self.engine.indexes())

    def data_size_bytes(self) -> int:
        return sum(heap.data_bytes() for heap in self.engine.heaps().values())

    def index_size_bytes(self) -> int:
        return sum(
            index.byte_size() for index in self.engine.indexes().values()
        )

    def row_count(self, table: str | None = None) -> int:
        if table is not None:
            return self.heap(table).row_count()
        return sum(heap.row_count() for heap in self.engine.heaps().values())

    def size_report(self) -> dict[str, object]:
        """The three quantities of the paper's Tables 1 and 2, plus the
        hit/miss/eviction counters of the plan cache, the process-wide
        XADT decode cache, and the observability layer's own footprint."""
        from repro.xadt.decode_cache import DECODE_CACHE
        from repro.xadt.structural_index import XINDEX

        return {
            "tables": self.table_count(),
            "database_bytes": self.data_size_bytes(),
            "index_bytes": self.index_size_bytes(),
            "rows": self.row_count(),
            "plan_cache": self.plan_cache.report(),
            "xadt_decode_cache": DECODE_CACHE.report(),
            "xadt_structural_index": XINDEX.report(),
            "sessions": len(self.sessions()),
            "engine_version": self.version,
            "catalog_version": self.catalog_version,
            "governor": self.governor.report(),
            "wal": None if self._wal is None else self._wal.report(),
            "observability": {
                "metrics_enabled": METRICS.enabled,
                "metrics_entries": METRICS.entry_count(),
                "trace_enabled": TRACER.enabled,
                "trace_events": len(TRACER.events),
                "trace_dropped_events": TRACER.dropped_events,
                "trace_buffer_bytes": TRACER.buffer_bytes(),
                "statements": STATEMENTS.report(),
                "system_views": sorted(self._system_views),
            },
        }

    def reset_function_stats(self) -> None:
        """Zero the per-name invocation counts *and* the registry's UDF
        counters/latency histograms, so Figure 14 measures each fencing
        variant from zero."""
        self.registry.stats.reset()
        METRICS.reset(prefix="udf.")

    def __repr__(self) -> str:
        return (
            f"Database({self.name!r}, {self.table_count()} tables, "
            f"{self.row_count()} rows)"
        )


__all__ = ["Database", "PreparedStatement"]
