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

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Iterable

from repro.engine.database import Database
from repro.errors import ShreddingError
from repro.mapping.base import ColumnKind, MappedSchema, MappedTable
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


#: how ``Shredder._emit`` fills a column, as a small integer.  The four
#: key kinds come first: their code indexes ``_emit``'s tuple of
#: ``(row id, parent id, parent code, child order)`` directly.
_FILL = {
    kind: code
    for code, kind in enumerate((
        ColumnKind.ID,
        ColumnKind.PARENT_ID,
        ColumnKind.PARENT_CODE,
        ColumnKind.CHILD_ORDER,
        ColumnKind.VALUE,
        ColumnKind.XADT,
        ColumnKind.INLINED_LEAF,
        ColumnKind.ATTRIBUTE,
        ColumnKind.PRESENCE,
    ))
}
_VALUE = _FILL[ColumnKind.VALUE]
_XADT = _FILL[ColumnKind.XADT]
_INLINED_LEAF = _FILL[ColumnKind.INLINED_LEAF]
_ATTRIBUTE = _FILL[ColumnKind.ATTRIBUTE]
_NO_TAGS: frozenset[str] = frozenset()


class _TablePlan:
    """One relation's row recipe, compiled once per :class:`Shredder`."""

    __slots__ = ("name", "next_id", "columns", "fragment_tags")

    def __init__(self, table: MappedTable, codecs: dict[str, str]) -> None:
        self.name = table.name
        self.next_id = 1
        #: ``(fill, source, detail)`` per column.  An XADT column's
        #: ``source`` is the child tag it stores and its ``detail`` the
        #: codec with the fragment of no children (values are immutable:
        #: every row without such children holds that one); the other
        #: kinds have their element path and, if any, the attribute name
        columns: list[tuple] = []
        for column in table.columns:
            if column.kind is ColumnKind.XADT:
                codec = codecs.get(f"{table.name}.{column.name}", PLAIN)
                empty = XadtValue.from_elements((), codec)
                columns.append((_XADT, column.path[-1], (codec, empty)))
            else:
                columns.append((_FILL[column.kind], column.path, column.attribute))
        self.columns = tuple(columns)
        #: child tags that go into this relation's XADT columns (so no
        #: relation is looked for below them)
        self.fragment_tags = frozenset(
            source for fill, source, _ in self.columns if fill == _XADT
        )


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
        #: relation element -> its plan; everything ``_emit`` would
        #: otherwise work out per row is decided here
        self._plans = {
            table.element: _TablePlan(table, self.codecs) for table in schema.tables
        }
        #: counted so far: DOM elements visited, XADT payload bytes
        #: serialized and, of those, bytes the dict codec produced
        self.work = {"nodes_shredded": 0, "fragment_bytes": 0, "compressed_bytes": 0}

    def shred(self, document: Document | Element | str) -> dict[str, list[tuple]]:
        """Shred one document; returns rows per table name."""
        root = _root_element(document)
        if root.tag != self.schema.dtd.root:
            raise ShreddingError(
                f"document root {root.tag!r} does not match the DTD root "
                f"{self.schema.dtd.root!r}"
            )
        if root.tag not in self._plans:
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
    ) -> None:
        plan = self._plans[element.tag]
        row_id = plan.next_id
        plan.next_id = row_id + 1
        keys = (row_id, parent_id, parent_element_name, child_order)
        fragment_tags = plan.fragment_tags
        if fragment_tags:
            # one pass over the children serves every XADT column
            fragments: dict[str, list[Element]] = {tag: [] for tag in fragment_tags}
            for child in element.children:
                if isinstance(child, Element) and child.tag in fragment_tags:
                    fragments[child.tag].append(child)

        row: list[object] = []
        for fill, source, detail in plan.columns:
            if fill < _VALUE:
                row.append(keys[fill])
            elif fill == _VALUE:
                row.append(element.direct_text() or None)
            elif fill == _XADT:
                codec, fragment = detail
                children = fragments[source]
                if children:
                    fragment = XadtValue.from_elements(children, codec)
                self.work["fragment_bytes"] += len(fragment.payload)
                if codec == DICT:
                    self.work["compressed_bytes"] += len(fragment.payload)
                row.append(fragment)
            else:
                node: Element | None = element
                for step in source:
                    node = node.find(step)
                    if node is None:
                        break
                if node is None:
                    row.append(None)
                elif fill == _INLINED_LEAF:
                    row.append(node.direct_text())
                elif fill == _ATTRIBUTE:
                    row.append(node.get(detail))
                else:  # PRESENCE
                    row.append(1)
        rows[plan.name].append(tuple(row))

        # recurse to relation descendants through inlined intermediates
        self._descend(element, fragment_tags, element.tag, row_id, rows)

    def _descend(
        self,
        dom_parent: Element,
        fragment_tags: frozenset[str],
        relation_element_name: str,
        relation_row_id: int,
        rows: dict[str, list[tuple]],
    ) -> None:
        """Emit the relations below ``dom_parent``, whose children named
        in ``fragment_tags`` already went into XADT columns."""
        plans = self._plans
        order_counters: dict[str, int] = {}
        visited = 0
        for child in dom_parent.children:
            if not isinstance(child, Element):
                continue
            visited += 1
            tag = child.tag
            position = order_counters.get(tag, 0) + 1
            order_counters[tag] = position
            if tag in plans:
                self._emit(
                    child, relation_element_name, relation_row_id, position, rows
                )
            elif tag not in fragment_tags:
                # an inlined intermediate: relations may hide below it
                self._descend(
                    child, _NO_TAGS, relation_element_name, relation_row_id, rows
                )
        self.work["nodes_shredded"] += visited


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

    A plain-codec shred of the samples collects each column's fragments
    — over the schema's XADT columns only, the sample rows' relational
    half is never built; :func:`~repro.xadt.chooser.choose_codec` then
    decides per column.
    """
    fragment_columns = dataclasses.replace(
        schema,
        tables=[
            dataclasses.replace(table, columns=table.xadt_columns())
            for table in schema.tables
        ],
    )
    shredder = Shredder(fragment_columns)
    fragments: dict[str, list[XadtValue]] = {}
    for document in sample_documents:
        shredded = shredder.shred(document)
        for table in fragment_columns.tables:
            rows = shredded[table.name]
            for column_index, column in enumerate(table.columns):
                bucket = fragments.setdefault(f"{table.name}.{column.name}", [])
                bucket.extend(row[column_index] for row in rows)
    return {
        key: choose_codec(bucket, threshold=threshold).codec
        for key, bucket in fragments.items()
    }


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
