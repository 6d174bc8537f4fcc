"""Persistent structural index per XADT column (ROADMAP item 3).

The paper's XADT loses exactly where order access dominates (QS6):
``get_elm_index`` and ``find_key_in_elm`` scan the serialized fragment,
so intra-fragment access is O(fragment bytes).  Native XML stores
(XRecursive, RadegastXDB — see PAPERS.md) win this query class with
persistent structural indexes instead of text scans.  This module is
that index: per fragment, the span directory of
:mod:`repro.xadt.metadata` — whose ``(parent entry, child tag)`` ordinal
arrays resolve ``get_elm_index``'s ``startPos..endPos`` range by array
slicing, and which carries the one directory implementation of every
method — plus an **inverted keyword map**: every maximal word token of
an element's character content posts to the element and its tag, so
``find_key_in_elm`` and ``get_elm`` answer word-key membership without
touching the payload text.  Non-word keys (whitespace/punctuation) fall
back to the directory's bounded per-span scan of just the matching
elements.  No tag-path postings are stored: outermost sets come from
the directory's parent links (DESIGN.md §10).

One :class:`StructuralIndex` is immutable and fragment-scoped; the
process-wide :class:`StructuralIndexStore` (:data:`XINDEX`) holds them
content-keyed per column.  Builds run inside the writer transaction
(through the ``xadt.index_build`` fault site, charged to the governor's
statement memory budget) into a *staged* set; the storage engine
publishes staged indexes together with the catalog snapshot swap, after
WAL commit — the same commit-before-publish ordering every other index
follows, so a crash between build and publish loses nothing: recovery
replays the logged loads and rebuilds deterministically.  ``DROP TABLE``
retires the indexes built for the table's columns.

Routing is per-statement: the session layer pins :func:`routing` to the
catalog's ``ExecutionConfig.xadt_structural_index`` flag, so two
databases in one process (one paper-faithful, one indexed) never
contaminate each other's access paths; the XADT methods read the pin in
one place (``methods._directory``).
"""

from __future__ import annotations

import re
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterable

from repro.engine.faults import FAULTS
from repro.engine.snapshot import active_budget
from repro.obs.metrics import METRICS
from repro.xadt import fastscan
from repro.xadt.metadata import ENTRY_BYTES, HEADER_BYTES, SpanDirectory, SpanEntry

_WORD_RE = re.compile(r"\w+")

#: modelled bytes per posting (one 32-bit entry id)
_POSTING_BYTES = 4
#: modelled per-key overhead of a postings map entry
_KEY_OVERHEAD = 8

_METHODS = ("get_elm", "find_key_in_elm", "get_elm_index")
_HITS = {m: METRICS.counter(f"xindex.hits.{m}") for m in _METHODS}
_MISSES = {m: METRICS.counter(f"xindex.misses.{m}") for m in _METHODS}
_BUILDS = METRICS.counter("xindex.builds")
_BUILD_SECONDS = METRICS.histogram("xindex.build_seconds")


def record_hit(method: str) -> None:
    _HITS[method].inc()


def record_miss(method: str) -> None:
    _MISSES[method].inc()


# ---------------------------------------------------------------------------
# per-fragment index
# ---------------------------------------------------------------------------


class StructuralIndex(SpanDirectory):
    """The structural index of one fragment's tagged text: its span
    directory plus an inverted keyword map.

    Built once from the fragment text (for the dict codec, its canonical
    serialization — element serialization is context-free, so subtree
    slices of the rendered text equal the scan's output for the
    subtree).  The methods are the directory's; the keyword map answers
    their two key hooks for word keys, so those never read the text.
    All answers are parity-equal to the fastscan implementations in
    :mod:`repro.xadt.fastscan`; the randomized suite in
    ``tests/xadt/test_structural_index.py`` enforces that.
    """

    #: the (table, column) the store built this index for (set at ingest)
    owner: tuple[str, str] = ("", "")

    def __init__(self, text: str, entries: list[SpanEntry]) -> None:
        super().__init__(text, entries)
        # inverted keyword map: maximal word runs of each element's
        # concatenated character content (the same concatenation
        # fastscan.text_of sees, so tokens never split at nested tags).
        token_entries: dict[str, list[int]] = {}
        tag_tokens: dict[str, set[str]] = {}
        for index, entry in enumerate(entries):
            if entry.content_end <= entry.content_start:
                continue
            tokens = set(_WORD_RE.findall(self._entry_text(index)))
            tag_tokens.setdefault(entry.tag, set()).update(tokens)
            for token in tokens:
                token_entries.setdefault(token, []).append(index)
        self._token_entries = {
            token: tuple(ids) for token, ids in token_entries.items()
        }
        # whole-fragment tokens, under the tag '': covers top-level text
        # and word runs that straddle element boundaries once tags are
        # stripped.
        tag_tokens[""] = set(_WORD_RE.findall(fastscan.text_of(text)))
        # per-tag token blobs: every token of a tag's elements joined on
        # NUL.  A word key is \w+ so a match can never span the
        # separator — word-key membership (exact or substring-of-token)
        # collapses to one C-speed ``key in blob`` test.
        self._blobs = {
            tag: "\x00".join(tokens) for tag, tokens in tag_tokens.items()
        }
        self._byte_size = self._model_bytes(tag_tokens[""])

    @classmethod
    def from_payload(cls, payload: str | bytes, codec: str) -> "StructuralIndex":
        """Build from a stored payload via its canonical text rendering."""
        from repro.xadt.fragment import XadtValue

        return cls.build(XadtValue(payload, codec).scan_text())

    def _model_bytes(self, fragment_tokens: set[str]) -> int:
        """Modelled storage cost (the governor charges this on build)."""
        if not self.entries:
            return HEADER_BYTES
        cost = HEADER_BYTES + ENTRY_BYTES * len(self.entries)
        for tag in self._by_tag:
            cost += len(tag.encode("utf-8")) + _KEY_OVERHEAD
        for ids in self._ordinals.values():
            cost += _KEY_OVERHEAD + _POSTING_BYTES * len(ids)
        for token, ids in self._token_entries.items():
            cost += len(token.encode("utf-8")) + _KEY_OVERHEAD
            cost += _POSTING_BYTES * len(ids)
        cost += sum(
            len(t.encode("utf-8")) + _POSTING_BYTES for t in fragment_tokens
        )
        cost += sum(len(b.encode("utf-8")) for b in self._blobs.values())
        return cost

    def byte_size(self) -> int:
        return self._byte_size

    # -- the directory's key hooks, answered from the keyword map ----------

    def _keyed_entries(self, search_key: str) -> "frozenset[int] | None":
        if not _WORD_RE.fullmatch(search_key):
            return None  # non-word key: a bounded scan of the candidates
        return frozenset(
            index
            for token, ids in self._token_entries.items()
            if search_key in token
            for index in ids
        )

    def _has_key(self, search_elm: str, search_key: str) -> bool | None:
        if not _WORD_RE.fullmatch(search_key):
            return None
        return search_key in self._blobs.get(search_elm, "")


# ---------------------------------------------------------------------------
# per-statement routing
# ---------------------------------------------------------------------------

#: per-statement routing override: True/False pins the access path for
#: the current statement (set by the session layer from the catalog's
#: ExecutionConfig); None falls back to whether the store holds columns.
_ROUTING: ContextVar[bool | None] = ContextVar("xadt_structural_routing", default=None)


def routing_enabled() -> bool:
    override = _ROUTING.get()
    if override is not None:
        return override
    return XINDEX.active


@contextmanager
def routing(enabled: bool):
    """Pin the access path for a code block: one statement's execution
    (the session layer), or a test's / benchmark's calls."""
    token = _ROUTING.set(enabled)
    try:
        yield
    finally:
        _ROUTING.reset(token)


#: the name the session layer and ``benchmarks/layers`` import
statement_routing = routing


# ---------------------------------------------------------------------------
# column-level store
# ---------------------------------------------------------------------------


class ColumnStats:
    """Build accounting for one registered XADT column."""

    __slots__ = ("table", "column", "fragments", "bytes", "entries")

    def __init__(self, table: str, column: str) -> None:
        self.table = table
        self.column = column
        self.fragments = 0
        self.bytes = 0
        self.entries = 0

    def report(self) -> dict[str, object]:
        return {
            "table": self.table,
            "column": self.column,
            "fragments": self.fragments,
            "bytes": self.bytes,
            "entries": self.entries,
        }


class StructuralIndexStore:
    """Content-keyed structural indexes for the registered XADT columns.

    ``ingest_rows`` (writer transaction) builds into a staged set;
    ``publish`` (called by the storage engine after the WAL commit,
    alongside the catalog snapshot swap) merges staged indexes into a
    fresh published map and swaps it atomically — readers only ever see
    the published map, which is what makes lookups snapshot-consistent:
    a statement pinned to catalog version *v* can only observe indexes
    published at or before *v*, never a build in flight.

    ``epoch`` counts generations (publishes that changed the map, and
    clears); the XADT methods key their memoized predicate verdicts on
    it so a rebuilt index can never serve a verdict computed against the
    previous generation.
    """

    def __init__(self) -> None:
        self.active = False
        self.epoch = 0
        self.catalog_version = 0
        self._columns: dict[tuple[str, str], ColumnStats] = {}
        #: payload -> index; each index remembers its owning
        #: (table, column) in ``owner`` so DROP TABLE can retire it
        self._published: dict[object, StructuralIndex] = {}
        self._staged: dict[object, StructuralIndex] = {}
        self._lock = threading.Lock()

    # -- registration ------------------------------------------------------

    def register_column(self, table: str, column: str) -> None:
        key = (table.lower(), column.lower())
        with self._lock:
            if key not in self._columns:
                self._columns[key] = ColumnStats(*key)
            self.active = True

    def unregister_table(self, table: str) -> None:
        """DROP TABLE: forget the table's columns and retire the indexes
        built for them.  A payload first indexed under the dropped table
        and still stored elsewhere then misses and is scanned."""
        name = table.lower()
        with self._lock:
            for key in [k for k in self._columns if k[0] == name]:
                del self._columns[key]
            if not self._columns:
                self.active = False
            kept = {
                payload: index
                for payload, index in self._published.items()
                if index.owner[0] != name
            }
            if len(kept) != len(self._published):
                self._published = kept
                self.epoch += 1

    def columns_for(self, table: str) -> list[str]:
        name = table.lower()
        return [col for (tbl, col) in self._columns if tbl == name]

    # -- build / publish ---------------------------------------------------

    def ingest_rows(
        self,
        table: str,
        column_names: list[str],
        rows: Iterable[tuple],
    ) -> int:
        """Build staged indexes for every new fragment in ``rows``.

        Runs inside the writer transaction.  Each fragment build passes
        the ``xadt.index_build`` fault site first — a chaos crash there
        leaves only staged (invisible) state behind, and the WAL replay
        rebuilds it.  Modelled index bytes are charged to the active
        statement budget, so runaway builds trip the governor like any
        other memory hog.
        """
        targets = [
            position
            for position, name in enumerate(column_names)
            if (table.lower(), name.lower()) in self._columns
        ]
        if not targets:
            return 0
        built = 0
        budget = active_budget()
        for row in rows:
            for position in targets:
                value = row[position]
                if value is None or not getattr(value, "__xadt__", False):
                    continue
                payload = value.payload
                if payload in self._published or payload in self._staged:
                    continue
                if FAULTS.active:
                    FAULTS.fire("xadt.index_build")
                started = time.perf_counter()
                index = StructuralIndex.build(value.to_xml())
                _BUILD_SECONDS.observe(time.perf_counter() - started)
                _BUILDS.inc()
                index.owner = (table.lower(), column_names[position].lower())
                self._staged[payload] = index
                if budget is not None:
                    budget.charge_memory(index.byte_size())
                built += 1
        return built

    def publish(self, catalog_version: int) -> None:
        """Merge staged indexes into a fresh published map (atomic swap)."""
        with self._lock:
            self.catalog_version = catalog_version
            if not self._staged:
                return
            merged = dict(self._published)
            for payload, index in self._staged.items():
                merged[payload] = index
                stats = self._columns.get(index.owner)
                if stats is not None:
                    stats.fragments += 1
                    stats.bytes += index.byte_size()
                    stats.entries += len(index)
            self._published = merged
            self._staged = {}
            self.epoch += 1

    def discard_staged(self) -> None:
        """Drop staged builds (a writer transaction rolled back)."""
        with self._lock:
            self._staged = {}

    # -- reads -------------------------------------------------------------

    def lookup(self, value: object) -> StructuralIndex | None:
        """The published index of a fragment, or None (never staged)."""
        return self._published.get(getattr(value, "payload", None))

    def __len__(self) -> int:
        return len(self._published)

    # -- maintenance -------------------------------------------------------

    def clear(self) -> None:
        """Forget everything (a cold process start in the chaos harness)."""
        with self._lock:
            self._published = {}
            self._staged = {}
            self._columns = {}
            self.active = False
            self.epoch += 1

    def total_bytes(self) -> int:
        return sum(index.byte_size() for index in self._published.values())

    def report(self) -> dict[str, object]:
        with self._lock:
            columns = [stats.report() for stats in self._columns.values()]
        return {
            "active": self.active,
            "epoch": self.epoch,
            "catalog_version": self.catalog_version,
            "fragments": len(self._published),
            "staged": len(self._staged),
            "bytes": self.total_bytes(),
            "columns": columns,
        }


#: the process-wide store the XADT methods and the engine consult
XINDEX = StructuralIndexStore()


def _collect_metrics() -> dict[str, float]:
    report = XINDEX.report()
    return {
        "xindex.fragments": report["fragments"],
        "xindex.bytes": report["bytes"],
        "xindex.columns": len(report["columns"]),
        "xindex.epoch": report["epoch"],
    }


METRICS.register_collector("xadt.xindex", _collect_metrics)


__all__ = [
    "StructuralIndex",
    "StructuralIndexStore",
    "XINDEX",
    "record_hit",
    "record_miss",
    "routing",
    "routing_enabled",
    "statement_routing",
]
