"""SQLite lowering of the logical plan IR.

The native executor and this backend consume the *same* logical plan
(:mod:`repro.engine.plan.logical`): ``plan_logical`` makes every
planning decision once, and :class:`SqliteBackend` turns the decided
tree into one SQL string executed by the stdlib ``sqlite3`` module
against an in-memory mirror of the engine's heaps.

Relational XADT shredding
-------------------------

SQLite has no XML abstract data type, so each XADT column is mirrored
twice: the column itself stores the fragment's serialized text, and a
side table ``{table}__xadt__{column}`` stores one row per element
(plus one document row with ``node = 0``)::

    (doc_id, node, last, parent, tag, parent_tag, path,
     ordinal, depth, outermost, text, xml)

``node`` numbers elements in document order, ``last`` is the highest
node id inside the element's subtree (so *descendant* is the closed
interval ``node..last``), ``ordinal`` is the 1-based position among
same-tag siblings, and ``outermost`` marks elements with no same-tag
ancestor — the occurrences the XADT methods iterate.  The five XADT
methods become correlated subqueries over the shred table; because the
shred tables carry no indexes (and ``automatic_index`` is off), scans
return rows in insertion = document order, which makes
``group_concat(xml, '')`` reassemble fragments byte-identically to the
native event-walk methods.

Statements are compiled once per catalog version and cached in the
shared plan cache under a ``"sqlite::"``-prefixed key, so native plans
and their cache entries are untouched.  All ``sqlite3`` exceptions are
wrapped into :class:`repro.errors.BackendError`; statements using
features with no faithful translation (laterals, general scalar UDFs,
``/`` on integers — SQLite truncates where the engine floors,
level-bounded ``getElm``) raise
:class:`repro.errors.BackendUnsupported` instead of silently
diverging.
"""

from __future__ import annotations

import sqlite3
import threading
from dataclasses import dataclass

from repro.engine.expr import (
    And,
    Arithmetic,
    ColumnRef,
    Comparison,
    Expr,
    FuncCall,
    IsNull,
    Like,
    Literal,
    Negate,
    Not,
    Or,
    ParamBox,
    Parameter,
    Star,
)
from repro.engine.plan.logical import (
    XADT_METHOD_NAMES,
    LogicalAggregate,
    LogicalDistinct,
    LogicalFilter,
    LogicalJoin,
    LogicalLateral,
    LogicalLimit,
    LogicalNode,
    LogicalProject,
    LogicalScan,
    LogicalSort,
    output_name,
)
from repro.engine.plan.optimizer import plan_logical
from repro.engine.plan_cache import CachedPlan, normalize_sql
from repro.engine.result import Result
from repro.engine.schema import Column, TableSchema
from repro.engine.sql.ast import SelectStmt, count_parameters
from repro.engine.sql.parser import parse_sql
from repro.engine.system_views import is_system_view_name
from repro.engine.types import FloatType, IntegerType, XadtType
from repro.errors import BackendError, BackendUnsupported
from repro.obs.metrics import METRICS
from repro.xadt.fragment import XadtValue
from repro.xadt.storage import events_to_text

#: shred-table column names and affinities, in insert order
SHRED_COLUMNS: tuple[tuple[str, str], ...] = (
    ("doc_id", "INTEGER"),
    ("node", "INTEGER"),
    ("last", "INTEGER"),
    ("parent", "INTEGER"),
    ("tag", "TEXT"),
    ("parent_tag", "TEXT"),
    ("path", "TEXT"),
    ("ordinal", "INTEGER"),
    ("depth", "INTEGER"),
    ("outermost", "INTEGER"),
    ("text", "TEXT"),
    ("xml", "TEXT"),
)


def shred_table_name(table: str, column: str) -> str:
    return f"{table}__xadt__{column}"


def _ident(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def _quote(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


def _bind_value(value: object) -> object:
    if isinstance(value, XadtValue):
        return value.to_xml()
    if value is None or isinstance(value, (int, float, str)):
        return value
    return str(value)


# ---------------------------------------------------------------------------
# shredding
# ---------------------------------------------------------------------------


def shred_fragment(doc_id: int, value: object) -> list[tuple]:
    """Decompose one fragment into shred-table rows (document order).

    The first row is the document row (``node = 0``, ``parent`` NULL —
    it must never look like a top-level element's parent) carrying the
    whole character stream and serialization; one row per element
    follows, ordered by ``node``.  ``None`` shreds to no rows at all.
    """
    if value is None:
        return []
    events = list(value.events())
    element_rows: list[dict] = []
    opens: list[dict] = []
    sibling_counts: list[dict[str, int]] = [{}]
    text_parts: list[str] = []
    counter = 0
    for position, event in enumerate(events):
        kind = event[0]
        if kind == "open":
            tag = event[1]
            counter += 1
            scope = sibling_counts[-1]
            ordinal = scope.get(tag, 0) + 1
            scope[tag] = ordinal
            parent = opens[-1] if opens else None
            row = {
                "node": counter,
                "tag": tag,
                "parent": parent["node"] if parent else 0,
                "parent_tag": parent["tag"] if parent else "",
                "path": (parent["path"] if parent else "") + "/" + tag,
                "ordinal": ordinal,
                "depth": len(opens),
                "outermost": 0 if any(r["tag"] == tag for r in opens) else 1,
                "start": position,
            }
            opens.append(row)
            sibling_counts.append({})
        elif kind == "close":
            row = opens.pop()
            sibling_counts.pop()
            row["end"] = position
            row["last"] = counter
            element_rows.append(row)
        else:
            text_parts.append(event[1])
    element_rows.sort(key=lambda r: r["node"])
    out: list[tuple] = [
        (
            doc_id, 0, counter, None, "", "", "", 0, -1, 0,
            "".join(text_parts), events_to_text(events),
        )
    ]
    for row in element_rows:
        window = events[row["start"]: row["end"] + 1]
        out.append(
            (
                doc_id,
                row["node"],
                row["last"],
                row["parent"],
                row["tag"],
                row["parent_tag"],
                row["path"],
                row["ordinal"],
                row["depth"],
                row["outermost"],
                "".join(e[1] for e in window if e[0] == "text"),
                events_to_text(window),
            )
        )
    return out


# ---------------------------------------------------------------------------
# IR -> SQL emission
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _TableSource:
    """One FROM entry: the alias the IR bound plus the mirrored schema."""

    qualifier: str
    table: str
    schema: TableSchema


@dataclass(frozen=True)
class SqliteCompiled:
    """One compiled statement: SQL text plus the output column names."""

    text: str
    columns: tuple[str, ...]
    parameters: int = 0


def _collect(node: LogicalNode) -> tuple[list[_TableSource], list[Expr]]:
    """FROM sources (join order) and every WHERE conjunct of the tree.

    The IR stores each source conjunct in exactly one slot, so joining
    all collected conjuncts with AND reconstructs the statement's WHERE
    clause regardless of the join strategies the optimizer picked.
    """
    sources: list[_TableSource] = []
    conjuncts: list[Expr] = []

    def source_of(n) -> _TableSource:
        return _TableSource(n.ref.qualifier, n.ref.table, n.heap.schema)

    def walk(n: LogicalNode) -> None:
        if isinstance(n, LogicalScan):
            sources.append(source_of(n))
            conjuncts.extend(n.pushed)
        elif isinstance(n, LogicalJoin):
            walk(n.left)
            conjuncts.extend(edge.expr for edge in n.edges)
            if n.right is not None:
                walk(n.right)
            else:
                sources.append(source_of(n))
                conjuncts.extend(n.pushed)
        elif isinstance(n, LogicalFilter):
            walk(n.input)
            conjuncts.append(n.predicate)
        elif isinstance(n, LogicalLateral):
            raise BackendUnsupported(
                "the sqlite backend cannot translate lateral table functions"
            )
        else:
            raise BackendError(
                f"unexpected logical node {type(n).__name__} below the "
                "output chain"
            )

    walk(node)
    return sources, conjuncts


class _SqlEmitter:
    """Emits SQLite SQL for engine expression trees.

    Translation is defensive: anything whose SQLite semantics are not
    bit-compatible with the native evaluator raises
    :class:`BackendUnsupported` rather than producing close-but-wrong
    SQL.  NULL-handling differences are papered over at emission time —
    ``NOT x`` becomes ``NOT COALESCE(x, 0)`` (the engine's two-valued
    logic) and ``NOT LIKE`` keeps the engine's non-NULL requirement.
    """

    def __init__(self, sources: list[_TableSource]):
        self.sources = sources

    # -- name resolution ---------------------------------------------------

    @staticmethod
    def _column(schema: TableSchema, name: str) -> Column | None:
        key = name.lower()
        for column in schema.columns:
            if column.key == key:
                return column
        return None

    def resolve(self, ref: ColumnRef) -> tuple[_TableSource, Column]:
        if ref.qualifier:
            key = ref.qualifier.lower()
            for source in self.sources:
                if source.qualifier == key:
                    column = self._column(source.schema, ref.name)
                    if column is None:
                        raise BackendError(
                            f"no column {ref.name!r} in {source.table!r}"
                        )
                    return source, column
            raise BackendError(f"unknown qualifier {ref.qualifier!r}")
        for source in self.sources:
            column = self._column(source.schema, ref.name)
            if column is not None:
                return source, column
        raise BackendError(f"unknown column {ref.name!r}")

    # -- expressions -------------------------------------------------------

    def expr(self, e: Expr) -> str:
        if isinstance(e, Literal):
            return self._literal(e.value)
        if isinstance(e, Parameter):
            return f":p{e.index}"
        if isinstance(e, ColumnRef):
            source, column = self.resolve(e)
            return f"{_ident(source.qualifier)}.{_ident(column.name)}"
        if isinstance(e, FuncCall):
            return self._func(e)
        if isinstance(e, Comparison):
            return f"({self.expr(e.left)} {e.op} {self.expr(e.right)})"
        if isinstance(e, And):
            return "(" + " AND ".join(self.expr(i) for i in e.items) + ")"
        if isinstance(e, Or):
            return "(" + " OR ".join(self.expr(i) for i in e.items) + ")"
        if isinstance(e, Not):
            # the engine's NOT is two-valued (NULL -> true); fold SQL's
            # three-valued NULL back to false before negating
            return f"(NOT COALESCE({self.expr(e.operand)}, 0))"
        if isinstance(e, Like):
            operand = self.expr(e.operand)
            pattern = _quote(e.pattern)
            if e.negated:
                # engine: NOT LIKE is false on NULL operands
                return f"({operand} IS NOT NULL AND {operand} NOT LIKE {pattern})"
            return f"({operand} LIKE {pattern})"
        if isinstance(e, IsNull):
            check = "IS NOT NULL" if e.negated else "IS NULL"
            return f"({self.expr(e.operand)} {check})"
        if isinstance(e, Arithmetic):
            if e.op == "/":
                raise BackendUnsupported(
                    "integer division diverges (engine floors, sqlite "
                    "truncates); '/' has no faithful translation"
                )
            if e.op not in ("+", "-", "*"):
                raise BackendUnsupported(f"arithmetic operator {e.op!r}")
            return f"({self.expr(e.left)} {e.op} {self.expr(e.right)})"
        if isinstance(e, Negate):
            return f"(-({self.expr(e.operand)}))"
        if isinstance(e, Star):
            raise BackendError("'*' outside COUNT(*)")
        raise BackendUnsupported(
            f"no sqlite translation for expression {type(e).__name__}"
        )

    @staticmethod
    def _literal(value: object) -> str:
        if value is None:
            return "NULL"
        if isinstance(value, bool):
            return "1" if value else "0"
        if isinstance(value, (int, float)):
            return repr(value)
        if isinstance(value, str):
            return _quote(value)
        raise BackendUnsupported(f"literal {value!r} has no SQL spelling")

    def _func(self, call: FuncCall) -> str:
        name = call.name.lower()
        if call.is_aggregate():
            if (
                name == "count"
                and len(call.args) == 1
                and isinstance(call.args[0], Star)
            ):
                return "COUNT(*)"
            if len(call.args) != 1:
                raise BackendUnsupported(f"{call.name}() arity")
            prefix = "DISTINCT " if call.distinct else ""
            return f"{name.upper()}({prefix}{self.expr(call.args[0])})"
        if name in XADT_METHOD_NAMES:
            return self._xadt(call, name)
        raise BackendUnsupported(
            f"scalar function {call.name}() has no sqlite translation"
        )

    # -- XADT methods ------------------------------------------------------

    def _xadt_target(self, call: FuncCall) -> tuple[str, str]:
        """(shred table identifier, owning rowid expression)."""
        if not call.args or not isinstance(call.args[0], ColumnRef):
            raise BackendUnsupported(
                f"{call.name}() needs an XADT column as its fragment "
                "argument under the sqlite backend"
            )
        source, column = self.resolve(call.args[0])
        if not isinstance(column.sql_type, XadtType):
            raise BackendUnsupported(
                f"{call.name}() fragment argument {column.name!r} is not "
                "an XADT column"
            )
        shred = _ident(shred_table_name(source.table, column.name))
        return shred, f"{_ident(source.qualifier)}.rowid"

    def _string_args(self, call: FuncCall, count: int) -> list[object]:
        values: list[object] = []
        for arg in call.args[1:]:
            if not isinstance(arg, Literal):
                raise BackendUnsupported(
                    f"{call.name}() arguments must be literals under the "
                    "sqlite backend"
                )
            values.append(arg.value)
        if len(values) < count:
            raise BackendUnsupported(f"{call.name}() arity")
        return values

    def _xadt(self, call: FuncCall, name: str) -> str:
        shred, owner = self._xadt_target(call)
        if name == "elmtext":
            return (
                f"COALESCE((SELECT n.text FROM {shred} n "
                f"WHERE n.doc_id = {owner} AND n.node = 0), '')"
            )
        if name == "findkeyinelm":
            elm, key = (str(v) for v in self._string_args(call, 2)[:2])
            if not elm and not key:
                raise BackendUnsupported(
                    "findKeyInElm('', '') is an error natively"
                )
            if not elm:
                cond = (
                    f"n.doc_id = {owner} AND n.node = 0 "
                    f"AND instr(n.text, {_quote(key)}) > 0"
                )
            else:
                parts = [f"n.doc_id = {owner}", f"n.tag = {_quote(elm)}"]
                if key:
                    parts.append(f"instr(n.text, {_quote(key)}) > 0")
                cond = " AND ".join(parts)
            return (
                f"(CASE WHEN EXISTS (SELECT 1 FROM {shred} n WHERE {cond}) "
                "THEN 1 ELSE 0 END)"
            )
        if name == "elmequals":
            elm, value = (str(v) for v in self._string_args(call, 2)[:2])
            if not elm:
                raise BackendUnsupported("elmEquals('' ...) is an error natively")
            return (
                f"(CASE WHEN EXISTS (SELECT 1 FROM {shred} n "
                f"WHERE n.doc_id = {owner} AND n.tag = {_quote(elm)} "
                f"AND n.outermost = 1 AND n.text = {_quote(value)}) "
                "THEN 1 ELSE 0 END)"
            )
        if name == "getelmindex":
            values = self._string_args(call, 4)
            parent, child = str(values[0]), str(values[1])
            if not child:
                raise BackendUnsupported(
                    "getElmIndex with an empty child element is an error "
                    "natively"
                )
            try:
                start, end = int(values[2]), int(values[3])
            except (TypeError, ValueError) as exc:
                raise BackendUnsupported(
                    "getElmIndex positions must be integer literals"
                ) from exc
            conds = [
                f"c.doc_id = {owner}",
                f"c.tag = {_quote(child)}",
                f"c.ordinal BETWEEN {start} AND {end}",
            ]
            if parent:
                conds.append(
                    f"EXISTS (SELECT 1 FROM {shred} p "
                    "WHERE p.doc_id = c.doc_id AND p.node = c.parent "
                    f"AND p.tag = {_quote(parent)} AND p.outermost = 1)"
                )
            else:
                conds.append("c.parent = 0")
            return (
                f"COALESCE((SELECT group_concat(c.xml, '') FROM {shred} c "
                f"WHERE {' AND '.join(conds)}), '')"
            )
        if name == "getelm":
            values = self._string_args(call, 1)
            root = str(values[0])
            search = str(values[1]) if len(values) > 1 else ""
            key = str(values[2]) if len(values) > 2 else ""
            level = values[3] if len(values) > 3 else -1
            if not isinstance(level, int) or isinstance(level, bool):
                raise BackendUnsupported("getElm level must be an integer")
            if level >= 0:
                raise BackendUnsupported(
                    "level-bounded getElm has no sqlite translation"
                )
            conds = [f"n.doc_id = {owner}"]
            if root:
                conds += [f"n.tag = {_quote(root)}", "n.outermost = 1"]
            else:
                conds.append("n.parent = 0")
            if search:
                inner = [
                    "d.doc_id = n.doc_id",
                    "d.node BETWEEN n.node AND n.last",
                    f"d.tag = {_quote(search)}",
                ]
                if key:
                    inner.append(f"instr(d.text, {_quote(key)}) > 0")
                conds.append(
                    f"EXISTS (SELECT 1 FROM {shred} d "
                    f"WHERE {' AND '.join(inner)})"
                )
            elif key:
                conds.append(f"instr(n.text, {_quote(key)}) > 0")
            return (
                f"COALESCE((SELECT group_concat(n.xml, '') FROM {shred} n "
                f"WHERE {' AND '.join(conds)}), '')"
            )
        raise BackendUnsupported(f"XADT method {call.name}()")


def emit_select(root: LogicalNode, parameters: int = 0) -> SqliteCompiled:
    """Compile a logical plan into one SQLite SELECT statement."""
    node = root
    limit: int | None = None
    order_by = None
    distinct = False
    aggregate: LogicalAggregate | None = None
    if isinstance(node, LogicalLimit):
        limit = node.limit
        node = node.input
    if isinstance(node, LogicalSort):
        order_by = node.order_by
        node = node.input
    if isinstance(node, LogicalDistinct):
        distinct = True
        node = node.input
    if not isinstance(node, LogicalProject):
        raise BackendError("logical plan lacks a projection root")
    project = node
    node = node.input
    if isinstance(node, LogicalAggregate):
        aggregate = node
        node = node.input

    sources, conjuncts = _collect(node)
    emitter = _SqlEmitter(sources)

    select_exprs: list[str] = []
    columns: list[str] = []
    if project.star:
        for source in sources:
            for column in source.schema.columns:
                select_exprs.append(
                    f"{_ident(source.qualifier)}.{_ident(column.name)}"
                )
                columns.append(column.name)
    else:
        for position, item in enumerate(project.items):
            select_exprs.append(emitter.expr(item.expr))
            columns.append(output_name(item.expr, item.alias, position))

    sql = "SELECT " + ("DISTINCT " if distinct else "")
    sql += ", ".join(select_exprs)
    sql += " FROM " + ", ".join(
        f"{_ident(source.table)} AS {_ident(source.qualifier)}"
        for source in sources
    )
    if conjuncts:
        sql += " WHERE " + " AND ".join(emitter.expr(c) for c in conjuncts)
    if aggregate is not None:
        if aggregate.group_by:
            sql += " GROUP BY " + ", ".join(
                emitter.expr(g) for g in aggregate.group_by
            )
        if aggregate.having is not None:
            sql += " HAVING " + emitter.expr(aggregate.having)
    if order_by:
        # native ordering follows DB2: NULLs sort high (SQLite's sort low)
        sql += " ORDER BY " + ", ".join(
            emitter.expr(o.expr)
            + (" DESC NULLS FIRST" if o.descending else " NULLS LAST")
            for o in order_by
        )
    if limit is not None:
        sql += f" LIMIT {limit}"
    return SqliteCompiled(sql, tuple(columns), parameters)


# ---------------------------------------------------------------------------
# the backend
# ---------------------------------------------------------------------------


class SqliteBackend:
    """Executes SELECTs against an in-memory SQLite mirror of the engine.

    The mirror is rebuilt lazily whenever the catalog version or any
    user table's row count changes (the engine's write surface is
    append-only, so (version, row counts) is a complete staleness
    fingerprint).  Compiled SQL is cached in the database's shared plan
    cache under ``"sqlite::" + normalized_sql`` — invalidated by the
    same catalog-version bump as native plans, invisible to them.
    """

    name = "sqlite"

    def __init__(self, db) -> None:
        self._db = db
        self._conn = sqlite3.connect(":memory:", check_same_thread=False)
        self._conn.execute("PRAGMA case_sensitive_like = ON")
        self._conn.execute("PRAGMA automatic_index = OFF")
        self._fingerprint: tuple | None = None
        self._lock = threading.RLock()
        self._executes = METRICS.counter("backend.sqlite.executes")
        self._compiles = METRICS.counter("backend.sqlite.compiles")
        self._rebuilds = METRICS.counter("backend.sqlite.rebuilds")

    # -- public API --------------------------------------------------------

    def execute(self, sql: str, params: tuple | list = ()) -> Result:
        with self._lock:
            compiled = self._compiled(sql)
            if len(params) != compiled.parameters:
                raise BackendError(
                    f"statement expects {compiled.parameters} parameter(s), "
                    f"got {len(params)}"
                )
            self._refresh()
            bind = {f"p{i}": _bind_value(v) for i, v in enumerate(params)}
            try:
                cursor = self._conn.execute(compiled.text, bind)
                rows = [tuple(row) for row in cursor.fetchall()]
            except sqlite3.Error as exc:
                raise BackendError(f"sqlite execution failed: {exc}") from exc
            self._executes.inc()
            return Result(list(compiled.columns), rows)

    def compile(self, sql: str) -> SqliteCompiled:
        """The SQL this backend would run (for tests and ``\\backends``)."""
        with self._lock:
            return self._compiled(sql)

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    # -- compilation -------------------------------------------------------

    def _compiled(self, sql: str) -> SqliteCompiled:
        catalog = self._db.catalog
        key = "sqlite::" + normalize_sql(sql)
        entry = self._db.plan_cache.lookup(key, catalog.version)
        if entry is not None and isinstance(entry.plan, SqliteCompiled):
            return entry.plan
        statement = parse_sql(sql)
        if not isinstance(statement, SelectStmt):
            raise BackendUnsupported(
                "the sqlite backend executes SELECT statements only"
            )
        root = plan_logical(statement, self._db)
        compiled = emit_select(root, count_parameters(statement))
        self._compiles.inc()
        self._db.plan_cache.store(
            key,
            CachedPlan(
                plan=compiled,
                params=ParamBox(compiled.parameters),
                statement=statement,
                version=catalog.version,
            ),
        )
        return compiled

    # -- mirror maintenance ------------------------------------------------

    def _table_names(self) -> list[str]:
        return [
            name
            for name in self._db.catalog.table_names()
            if not is_system_view_name(name)
        ]

    def _current_fingerprint(self) -> tuple:
        catalog = self._db.catalog
        counts = tuple(
            (name, len(self._db.heap(name).rows))
            for name in self._table_names()
        )
        return (catalog.version, counts)

    def _refresh(self) -> None:
        fingerprint = self._current_fingerprint()
        if fingerprint == self._fingerprint:
            return
        self._rebuild()
        self._fingerprint = fingerprint

    def _rebuild(self) -> None:
        conn = self._conn
        try:
            existing = [
                row[0]
                for row in conn.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table'"
                )
            ]
            for name in existing:
                conn.execute(f"DROP TABLE IF EXISTS {_ident(name)}")
            for table_name in self._table_names():
                heap = self._db.heap(table_name)
                self._mirror_table(table_name, heap.schema, heap.rows)
            conn.commit()
        except sqlite3.Error as exc:
            raise BackendError(f"sqlite mirror rebuild failed: {exc}") from exc
        self._rebuilds.inc()

    def _mirror_table(
        self, table_name: str, schema: TableSchema, rows: list[tuple]
    ) -> None:
        conn = self._conn
        body = ", ".join(
            f"{_ident(column.name)} {self._affinity(column)}"
            for column in schema.columns
        )
        conn.execute(f"CREATE TABLE {_ident(table_name)} ({body})")
        xadt_columns = [
            (position, column)
            for position, column in enumerate(schema.columns)
            if isinstance(column.sql_type, XadtType)
        ]
        shred_inserts: dict[int, str] = {}
        for position, column in xadt_columns:
            shred = shred_table_name(table_name, column.name)
            shred_body = ", ".join(
                f"{_ident(name)} {affinity}" for name, affinity in SHRED_COLUMNS
            )
            conn.execute(f"CREATE TABLE {_ident(shred)} ({shred_body})")
            marks = ", ".join("?" for _ in SHRED_COLUMNS)
            shred_inserts[position] = (
                f"INSERT INTO {_ident(shred)} VALUES ({marks})"
            )
        marks = ", ".join("?" for _ in schema.columns)
        insert = f"INSERT INTO {_ident(table_name)} VALUES ({marks})"
        for doc_id, row in enumerate(rows, start=1):
            conn.execute(insert, tuple(_bind_value(v) for v in row))
            for position, _column in xadt_columns:
                fragments = shred_fragment(doc_id, row[position])
                if fragments:
                    conn.executemany(shred_inserts[position], fragments)

    @staticmethod
    def _affinity(column: Column) -> str:
        if isinstance(column.sql_type, IntegerType):
            return "INTEGER"
        if isinstance(column.sql_type, FloatType):
            return "REAL"
        return "TEXT"


__all__ = [
    "SHRED_COLUMNS",
    "SqliteBackend",
    "SqliteCompiled",
    "emit_select",
    "shred_fragment",
    "shred_table_name",
]
