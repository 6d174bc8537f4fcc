"""Document shredding and bulk loading.

The :class:`Shredder` turns parsed XML documents into tuples for *any*
:class:`~repro.mapping.base.MappedSchema` by following each column's
extraction provenance; :func:`load_documents` creates the tables,
shreds, inserts, and times the whole load (the paper's "loading time"
experiments include parsing and insertion).

Ordering semantics: ``childOrder`` is the 1-based position among
*same-tag* siblings, matching ``getElmIndex`` so that order queries give
identical answers under both mappings (see ``repro.mapping.fields``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable

from repro.engine.database import Database
from repro.errors import ShreddingError
from repro.mapping.base import ColumnKind, MappedColumn, MappedSchema, MappedTable
from repro.xadt.chooser import DEFAULT_THRESHOLD, choose_codec
from repro.xadt.fragment import XadtValue
from repro.xadt.storage import DICT, PLAIN
from repro.xmlkit.dom import Document, Element
from repro.xmlkit.parser import parse


@dataclass
class LoadReport:
    """Outcome of a bulk load."""

    documents: int = 0
    rows_by_table: dict[str, int] = field(default_factory=dict)
    seconds: float = 0.0
    #: chosen codec per XADT column, keyed by "table.column"
    codecs: dict[str, str] = field(default_factory=dict)
    #: counted work by ``repro.engine.io.LOAD_WORK_SECONDS`` name: the
    #: shredder's counts and ``rows_stored``; whoever builds indexes and
    #: runs runstats afterwards adds ``index_entries`` / ``rows_sampled``
    work: dict[str, int] = field(default_factory=dict)

    @property
    def total_rows(self) -> int:
        return sum(self.rows_by_table.values())


class Shredder:
    """Shreds documents into rows of a mapped schema."""

    def __init__(
        self,
        schema: MappedSchema,
        codecs: dict[str, str] | None = None,
    ) -> None:
        self.schema = schema
        #: "table.column" -> codec for XADT columns (default: plain)
        self.codecs = dict(codecs or {})
        self._tables_by_element = {
            table.element: table for table in schema.tables
        }
        self._next_id: dict[str, int] = {
            table.name: 1 for table in schema.tables
        }
        #: counted so far: DOM elements visited, XADT payload bytes
        #: serialized and, of those, bytes the dict codec produced
        self.work = {"nodes_shredded": 0, "fragment_bytes": 0, "compressed_bytes": 0}

    def codec_for(self, table: MappedTable, column: MappedColumn) -> str:
        return self.codecs.get(f"{table.name}.{column.name}", PLAIN)

    def shred(self, document: Document | Element | str) -> dict[str, list[tuple]]:
        """Shred one document; returns rows per table name."""
        root = _root_element(document)
        if root.tag != self.schema.dtd.root:
            raise ShreddingError(
                f"document root {root.tag!r} does not match the DTD root "
                f"{self.schema.dtd.root!r}"
            )
        if root.tag not in self._tables_by_element:
            raise ShreddingError(
                f"the {self.schema.algorithm!r} mapping has no relation for "
                f"the root element {root.tag!r}"
            )
        rows: dict[str, list[tuple]] = {t.name: [] for t in self.schema.tables}
        self.work["nodes_shredded"] += 1
        self._emit(root, None, None, None, rows)
        return rows

    # -- row construction --------------------------------------------------

    def _emit(
        self,
        element: Element,
        parent_element_name: str | None,
        parent_id: int | None,
        child_order: int | None,
        rows: dict[str, list[tuple]],
    ) -> int:
        table = self._tables_by_element[element.tag]
        row_id = self._next_id[table.name]
        self._next_id[table.name] = row_id + 1

        row: list[object] = []
        for column in table.columns:
            kind = column.kind
            if kind is ColumnKind.ID:
                row.append(row_id)
            elif kind is ColumnKind.PARENT_ID:
                row.append(parent_id)
            elif kind is ColumnKind.PARENT_CODE:
                row.append(parent_element_name)
            elif kind is ColumnKind.CHILD_ORDER:
                row.append(child_order)
            elif kind is ColumnKind.VALUE:
                row.append(element.direct_text() or None)
            elif kind is ColumnKind.ATTRIBUTE:
                source = self._navigate(element, column.path)
                row.append(source.get(column.attribute) if source else None)
            elif kind is ColumnKind.INLINED_LEAF:
                source = self._navigate(element, column.path)
                row.append(source.direct_text() if source is not None else None)
            elif kind is ColumnKind.PRESENCE:
                source = self._navigate(element, column.path)
                row.append(1 if source is not None else None)
            elif kind is ColumnKind.XADT:
                children = element.find_all(column.path[-1])
                fragment = XadtValue.from_elements(
                    children, self.codec_for(table, column)
                )
                self.work["fragment_bytes"] += len(fragment.payload)
                if fragment.codec == DICT:
                    self.work["compressed_bytes"] += len(fragment.payload)
                row.append(fragment)
            else:  # pragma: no cover - kinds are exhaustive
                raise ShreddingError(f"unhandled column kind {kind}")
        rows[table.name].append(tuple(row))

        # recurse to relation descendants through inlined intermediates
        self._descend(element, element.tag, row_id, rows)
        return row_id

    def _descend(
        self,
        dom_parent: Element,
        relation_element_name: str,
        relation_row_id: int,
        rows: dict[str, list[tuple]],
    ) -> None:
        order_counters: dict[str, int] = {}
        children = dom_parent.child_elements()
        self.work["nodes_shredded"] += len(children)
        for child in children:
            position = order_counters.get(child.tag, 0) + 1
            order_counters[child.tag] = position
            if child.tag in self._tables_by_element:
                self._emit(
                    child, relation_element_name, relation_row_id, position, rows
                )
            elif not self._consumed_by_column(dom_parent.tag, child.tag):
                # an inlined intermediate: relations may hide below it
                self._descend(child, relation_element_name, relation_row_id, rows)

    def _consumed_by_column(self, parent_tag: str, child_tag: str) -> bool:
        """True when ``child_tag`` under ``parent_tag`` went into an XADT column."""
        table = self._tables_by_element.get(parent_tag)
        if table is None:
            return False
        return any(
            column.kind is ColumnKind.XADT and column.path[-1] == child_tag
            for column in table.columns
        )

    @staticmethod
    def _navigate(element: Element, path: tuple[str, ...]) -> Element | None:
        node: Element | None = element
        for step in path:
            if node is None:
                return None
            node = node.find(step)
        return node


def _root_element(document: Document | Element | str) -> Element:
    if isinstance(document, str):
        document = parse(document)
    if isinstance(document, Document):
        return document.root
    return document


def decide_codecs(
    schema: MappedSchema,
    sample_documents: Iterable[Document | Element | str],
    threshold: float = DEFAULT_THRESHOLD,
) -> dict[str, str]:
    """Pick per-XADT-column codecs by sampling documents (paper §4.1).

    A plain-codec shred of the samples collects each column's fragments;
    :func:`~repro.xadt.chooser.choose_codec` then decides per column.
    """
    shredder = Shredder(schema)
    fragments: dict[str, list[XadtValue]] = {}
    for document in sample_documents:
        for table_name, rows in shredder.shred(document).items():
            table = schema.table(table_name)
            for column_index, column in enumerate(table.columns):
                if column.kind is not ColumnKind.XADT:
                    continue
                key = f"{table.name}.{column.name}"
                bucket = fragments.setdefault(key, [])
                bucket.extend(
                    row[column_index]
                    for row in rows
                    if row[column_index] is not None
                )
    decisions: dict[str, str] = {}
    for key, bucket in fragments.items():
        decisions[key] = choose_codec(bucket, threshold=threshold).codec
    return decisions


def create_tables(db: Database, schema: MappedSchema) -> None:
    """Run the mapping's CREATE TABLE statements (skipping existing ones).

    Idempotence matters for crash recovery: a resumed load re-runs the
    DDL phase against a database whose tables were already rebuilt from
    the WAL.
    """
    catalog = getattr(db, "catalog", None)
    existing = set(catalog.tables) if catalog is not None else set()
    for table, ddl in zip(schema.tables, schema.ddl()):
        if table.name.lower() in existing:
            continue
        db.execute(ddl)


def load_documents(
    db: Database,
    schema: MappedSchema,
    documents: Iterable[Document | Element | str],
    codecs: dict[str, str] | None = None,
    create: bool = True,
    resume_markers: Iterable[str] | None = None,
) -> LoadReport:
    """Create tables (optional), shred, and bulk-insert ``documents``.

    When ``db`` is a :class:`Database`, each document's inserts run in
    one transaction stamped with the marker ``doc:<index>``, so a
    WAL-recovered database reports exactly which documents committed
    (``RecoveryReport.markers``).  Pass those markers back as
    ``resume_markers`` to skip the already-durable documents and finish
    an interrupted load.
    """
    report = LoadReport(codecs=dict(codecs or {}))
    started = time.perf_counter()
    done = set(resume_markers or ())
    transactional = isinstance(db, Database)
    if create:
        create_tables(db, schema)
    shredder = Shredder(schema, codecs)
    for index, document in enumerate(documents):
        marker = f"doc:{index}"
        rows = shredder.shred(document)
        if marker in done:
            # already durable in a previous run; shredding still happened
            # so per-table id counters stay aligned with the stored rows
            continue
        report.documents += 1
        if transactional:
            with db.transaction(marker=marker):
                _insert_document(db, rows, report)
        else:
            _insert_document(db, rows, report)
    report.seconds = time.perf_counter() - started
    report.work = {**shredder.work, "rows_stored": report.total_rows}
    return report


def _insert_document(
    db: Database, rows: dict[str, list[tuple]], report: LoadReport
) -> None:
    for table_name, table_rows in rows.items():
        if not table_rows:
            continue
        db.bulk_insert(table_name, table_rows)
        report.rows_by_table[table_name] = (
            report.rows_by_table.get(table_name, 0) + len(table_rows)
        )
