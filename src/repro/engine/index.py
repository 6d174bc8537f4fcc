"""Secondary indexes: B-tree and hash.

The B-tree is modelled with a sorted key array and binary search — the
asymptotics (O(log n) point lookups, ordered range scans) match a real
B-tree, which is what the query-time comparisons need.  Both index kinds
report a modelled byte size used for the index-size columns of the
paper's Tables 1 and 2.

Concurrency contract (DESIGN.md §8): all mutation happens on the single
writer thread, under the engine's writer lock.  Readers may call
``lookup``/``range``/``contains`` at any time, from any thread:

* the B-tree's sorted arrays live in one ``_data`` tuple that is never
  mutated — the writer stages inserts in a pending list and
  :meth:`finalize` (called at publish time) swaps in freshly built
  arrays with a single reference assignment, so a concurrent reader sees
  either the old arrays or the new ones, never a mix;
* the hash index files a key's first row id bare, swaps in a two-element
  list (one reference store) when a second row shares the key, and
  appends in place from then on, which is safe because readers clamp
  results to their snapshot's row horizon (the ``bound`` argument): a
  row id at or beyond the horizon is invisible no matter when the writer
  filed it.
"""

from __future__ import annotations

import bisect
from itertools import count
from typing import Iterator, Sequence

from repro.engine.pages import PAGE_CAPACITY, PAGE_SIZE
from repro.engine.schema import IndexDef, TableSchema
from repro.engine.storage import HeapTable
from repro.errors import ExecutionError

#: bytes per row-id reference in an index entry
RID_BYTES = 6


def _key_bytes(key: object) -> int:
    if key is None:
        return 1
    if isinstance(key, int):
        return 4
    if isinstance(key, str):
        return 2 + len(key.encode("utf-8"))
    return 8


def _keys_bytes(keys: Sequence[object]) -> int:
    """Sum of :func:`_key_bytes` over a column, decided by the value
    types observed in it."""
    kinds = set(map(type, keys))
    if kinds == {int}:
        return 4 * len(keys)
    if kinds == {str} and all(map(str.isascii, keys)):
        return 2 * len(keys) + sum(map(len, keys))
    return sum(map(_key_bytes, keys))


def _clamp(row_ids: list[int], bound: int | None) -> list[int]:
    """Drop row ids at or beyond the snapshot horizon."""
    if bound is None:
        return row_ids
    return [rid for rid in row_ids if rid < bound]


class Index:
    """Base class of secondary indexes on a single column."""

    kind = "index"

    def __init__(self, definition: IndexDef, table: HeapTable) -> None:
        # the table holds its indexes; an index keeps no reference back,
        # so a dropped database's heaps are freed by reference counting
        self.definition = definition
        self.position = table.schema.position(definition.column)
        self._entry_bytes = 0
        self._entries = 0
        position = self.position
        self.insert_many([row[position] for row in table.rows], 0)
        self.finalize()

    def insert(self, row: tuple, row_id: int) -> None:
        key = row[self.position]
        self._entries += 1
        self._entry_bytes += _key_bytes(key) + RID_BYTES
        self._insert_key(key, row_id)

    def insert_many(self, keys: Sequence[object], first_row_id: int) -> None:
        """:meth:`insert` for the indexed column of a run of consecutive
        rows: ``keys[i]`` belongs to row ``first_row_id + i``."""
        self._entries += len(keys)
        self._entry_bytes += _keys_bytes(keys) + RID_BYTES * len(keys)
        self._insert_keys(keys, first_row_id)

    def _insert_key(self, key: object, row_id: int) -> None:
        raise NotImplementedError

    def _insert_keys(self, keys: Sequence[object], first_row_id: int) -> None:
        for row_id, key in enumerate(keys, first_row_id):
            self._insert_key(key, row_id)

    def finalize(self) -> None:
        """Publish staged inserts (writer-only; no-op when none staged)."""

    # -- batch rollback ----------------------------------------------------

    def mark(self) -> tuple[int, int]:
        """Size-accounting rollback point taken by ``HeapTable.mark``."""
        return (self._entries, self._entry_bytes)

    def rollback_to(self, row_count: int, mark: tuple[int, int]) -> None:
        """Drop entries for row ids >= ``row_count`` (writer-only).

        The abort path of a failed ``bulk_insert``: the heap truncates
        its rows back to ``row_count`` and each index discards every
        entry that referenced the truncated tail, restoring the size
        accounting captured by :meth:`mark`.  Safe against concurrent
        readers for the same reason in-place inserts are — the dropped
        row ids sit beyond every published snapshot's horizon, so no
        reader could see them.
        """
        self._entries, self._entry_bytes = mark
        self._discard_from(row_count)

    def _discard_from(self, row_count: int) -> None:
        raise NotImplementedError

    def lookup(self, key: object, bound: int | None = None) -> list[int]:
        """Row ids whose indexed column equals ``key``, below ``bound``."""
        raise NotImplementedError

    def contains(self, key: object) -> bool:
        """Whether any entry (published or staged) carries ``key``."""
        raise NotImplementedError

    def byte_size(self) -> int:
        """Modelled on-disk size (leaf fill factor + structural overhead)."""
        if self._entries == 0:
            return 0
        leaf_bytes = int(self._entry_bytes / self._fill_factor)
        structural = int(leaf_bytes * self._structure_overhead)
        pages = (leaf_bytes + structural + PAGE_CAPACITY - 1) // PAGE_CAPACITY
        return max(pages, 1) * PAGE_SIZE

    _fill_factor = 0.7
    _structure_overhead = 0.15

    def entry_count(self) -> int:
        return self._entries


class HashIndex(Index):
    """Equality-only index: key -> row ids.

    A bucket is a bare row id while one row carries its key, and a list
    of row ids in row-id order from the second row on: most keys of an
    ID column, and many of a PARENT_ID column, never need the list.
    """

    kind = "hash"
    _fill_factor = 0.6
    _structure_overhead = 0.25

    def __init__(self, definition: IndexDef, table: HeapTable) -> None:
        self._buckets: dict[object, int | list[int]] = {}
        super().__init__(definition, table)

    def _insert_key(self, key: object, row_id: int) -> None:
        self._insert_keys((key,), row_id)

    def _insert_keys(self, keys: Sequence[object], first_row_id: int) -> None:
        buckets = self._buckets
        if not buckets:
            built = dict(zip(keys, count(first_row_id)))
            if len(built) == len(keys):  # distinct, at most one NULL
                built.pop(None, None)  # NULLs are not indexed
                self._buckets = built
                return
        unique = self.definition.unique
        get = buckets.get
        for row_id, key in enumerate(keys, first_row_id):
            if key is None:
                continue  # never equal to anything
            bucket = get(key)
            if bucket is None:
                buckets[key] = row_id
            elif unique:
                raise ExecutionError(
                    f"unique index {self.definition.name!r} rejects "
                    f"duplicate {key!r}"
                )
            elif type(bucket) is list:
                bucket.append(row_id)
            else:
                buckets[key] = [bucket, row_id]

    def _discard_from(self, row_count: int) -> None:
        buckets = self._buckets
        emptied = []
        for key, bucket in buckets.items():
            if type(bucket) is not list:
                if bucket >= row_count:
                    emptied.append(key)
            elif bucket[-1] >= row_count:
                kept = [rid for rid in bucket if rid < row_count]
                if len(kept) > 1:
                    buckets[key] = kept
                elif kept:
                    buckets[key] = kept[0]
                else:
                    emptied.append(key)
        for key in emptied:
            del buckets[key]

    def lookup(self, key: object, bound: int | None = None) -> list[int]:
        bucket = self._buckets.get(key)  # NULL is never filed
        if bucket is None:
            return []
        if type(bucket) is list:
            return _clamp(bucket, bound)
        return [bucket] if bound is None or bucket < bound else []

    def contains(self, key: object) -> bool:
        return key is not None and key in self._buckets


class BTreeIndex(Index):
    """Ordered index supporting point and range lookups.

    The published structure is ``_data = (keys, rids)``: parallel lists
    sorted by key that are treated as immutable once assigned.  Writer
    inserts accumulate in ``_pending`` and :meth:`finalize` merges them
    into *new* arrays, swapping ``_data`` atomically (one reference
    store), so readers racing a write transaction still binary-search a
    consistent sorted pair.  Pending entries are merged into results on
    read so single-threaded callers that never publish (direct heap
    manipulation in tests) observe their inserts immediately; under a
    snapshot, staged row ids always sit beyond the reader's horizon and
    the clamp removes them.
    """

    kind = "btree"

    def __init__(self, definition: IndexDef, table: HeapTable) -> None:
        self._data: tuple[list[object], list[int]] = ([], [])
        self._pending: list[tuple[object, int]] = []
        super().__init__(definition, table)

    def _insert_key(self, key: object, row_id: int) -> None:
        if key is None:
            return
        self._pending.append((key, row_id))

    def _insert_keys(self, keys: Sequence[object], first_row_id: int) -> None:
        self._pending.extend(
            (key, row_id)
            for row_id, key in enumerate(keys, first_row_id)
            if key is not None
        )

    def finalize(self) -> None:
        if not self._pending:
            return
        keys, rids = self._data
        pairs = list(zip(keys, rids))
        pairs.extend(self._pending)
        pairs.sort(key=lambda pair: pair[0])
        # clear pending *before* publishing so a racing reader never
        # counts an entry from both the staged list and the new arrays
        self._pending = []
        self._data = ([pair[0] for pair in pairs], [pair[1] for pair in pairs])

    def _discard_from(self, row_count: int) -> None:
        # unpublished inserts live in the staging list...
        self._pending = [
            (key, rid) for key, rid in self._pending if rid < row_count
        ]
        # ...but an index built mid-transaction (CREATE INDEX after the
        # batch started) may have finalized tail rows into _data; rebuild
        # the published pair only when that actually happened
        keys, rids = self._data
        if any(rid >= row_count for rid in rids):
            kept = [
                (key, rid) for key, rid in zip(keys, rids) if rid < row_count
            ]
            self._data = (
                [pair[0] for pair in kept],
                [pair[1] for pair in kept],
            )

    def _pending_matches(self, key: object) -> list[int]:
        pending = self._pending
        if not pending:
            return []
        return [rid for pending_key, rid in pending if pending_key == key]

    def lookup(self, key: object, bound: int | None = None) -> list[int]:
        if key is None:
            return []
        keys, rids = self._data
        lo = bisect.bisect_left(keys, key)
        hi = bisect.bisect_right(keys, key)
        out = rids[lo:hi]
        staged = self._pending_matches(key)
        if staged:
            out = out + staged
        return _clamp(out, bound)

    def contains(self, key: object) -> bool:
        if key is None:
            return False
        keys, _ = self._data
        lo = bisect.bisect_left(keys, key)
        if lo < len(keys) and keys[lo] == key:
            return True
        return any(pending_key == key for pending_key, _ in self._pending)

    def range(
        self,
        low: object = None,
        high: object = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
        bound: int | None = None,
    ) -> Iterator[int]:
        """Row ids with keys in the given (possibly open) range, in order."""
        keys, rids = self._data
        pending = self._pending
        if pending:
            # merge staged entries so unpublished single-threaded callers
            # see them; key order is preserved by re-sorting the union
            pairs = sorted(
                list(zip(keys, rids)) + list(pending),
                key=lambda pair: pair[0],
            )
            keys = [pair[0] for pair in pairs]
            rids = [pair[1] for pair in pairs]
        if low is None:
            lo = 0
        elif low_inclusive:
            lo = bisect.bisect_left(keys, low)
        else:
            lo = bisect.bisect_right(keys, low)
        if high is None:
            hi = len(keys)
        elif high_inclusive:
            hi = bisect.bisect_right(keys, high)
        else:
            hi = bisect.bisect_left(keys, high)
        return iter(_clamp(rids[lo:hi], bound))


def build_index(definition: IndexDef, table: HeapTable) -> Index:
    """Construct the index structure named by ``definition.kind``."""
    if definition.kind == "hash":
        return HashIndex(definition, table)
    if definition.kind == "btree":
        return BTreeIndex(definition, table)
    raise ExecutionError(f"unknown index kind {definition.kind!r}")


__all__ = [
    "BTreeIndex",
    "HashIndex",
    "Index",
    "IndexDef",
    "TableSchema",
    "build_index",
]
