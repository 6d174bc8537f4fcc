"""Heap tables, page accounting, and indexes."""

import pytest

from repro.engine.database import Database
from repro.engine.index import BTreeIndex, HashIndex, build_index
from repro.engine.pages import PAGE_SIZE, PageAccounting
from repro.engine.schema import Column, IndexDef, TableSchema
from repro.engine.storage import HeapTable
from repro.engine.types import INTEGER, VARCHAR
from repro.errors import CatalogError, ExecutionError


def make_table(rows=0):
    schema = TableSchema(
        "t",
        [
            Column("id", INTEGER, primary_key=True),
            Column("parent", INTEGER),
            Column("name", VARCHAR),
        ],
    )
    table = HeapTable(schema)
    for i in range(rows):
        table.insert((i, i % 5, f"name{i % 3}"))
    return table


class TestSchema:
    def test_position_lookup_case_insensitive(self):
        table = make_table()
        assert table.schema.position("NAME") == 2

    def test_unknown_column_rejected(self):
        with pytest.raises(CatalogError):
            make_table().schema.position("ghost")

    def test_duplicate_column_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema("t", [Column("a", INTEGER), Column("A", VARCHAR)])

    def test_multiple_primary_keys_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema(
                "t",
                [Column("a", INTEGER, primary_key=True),
                 Column("b", INTEGER, primary_key=True)],
            )

    def test_empty_table_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema("t", [])


class TestHeap:
    def test_insert_and_scan(self):
        table = make_table(10)
        assert table.row_count() == 10
        assert list(table.scan())[3] == (3, 3, "name0")

    def test_insert_coerces_values(self):
        table = make_table()
        table.insert(("7", 1, 99))
        assert table.fetch(0) == (7, 1, "99")

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ExecutionError):
            make_table().insert((1, 2))

    def test_duplicate_primary_key_rejected(self):
        table = make_table()
        table.insert((1, 0, "a"))
        with pytest.raises(ExecutionError):
            table.insert((1, 0, "b"))

    def test_null_primary_key_rejected(self):
        with pytest.raises(ExecutionError):
            make_table().insert((None, 0, "a"))

    def test_bulk_insert_counts(self):
        table = make_table()
        assert table.bulk_insert([(i, 0, "x") for i in range(5)]) == 5


class TestStoreRowAtomicity:
    """Regression: a rejected row must leave no partial state behind.

    The old ``_store_row`` added the primary key to ``_pk_seen`` (and
    appended the row) before index maintenance could still raise, so a
    mid-batch ``bulk_insert`` failure left the pk-set/indexes/rows
    mutually inconsistent and retrying the same key reported a spurious
    duplicate.
    """

    def test_failed_row_leaves_pk_set_clean(self):
        table = make_table()
        index = build_index(
            IndexDef("u", "t", "parent", "hash", unique=True), table
        )
        table.attach_index(index)
        table.insert((1, 7, "a"))
        with pytest.raises(ExecutionError):
            table.insert((2, 7, "b"))  # unique index rejects parent=7
        # pk 2 was never stored, so retrying it with a fresh parent works
        assert table.insert((2, 8, "b")) == 1
        assert table.row_count() == 2
        assert index.lookup(8) == [1]

    def test_mid_batch_failure_rolls_back_whole_batch(self):
        """A failed bulk_insert is all-or-nothing (DESIGN.md §9)."""
        table = make_table()
        index = build_index(
            IndexDef("u", "t", "parent", "hash", unique=True), table
        )
        table.attach_index(index)
        before = table.accounting.mark()
        rows = [(1, 10, "a"), (2, 11, "b"), (3, 10, "dup"), (4, 12, "d")]
        with pytest.raises(ExecutionError):
            table.bulk_insert(rows)
        # the stored prefix was rolled back along with the bad row
        assert table.row_count() == 0
        assert table.accounting.mark() == before
        assert index.lookup(10) == []
        assert index.lookup(11) == []
        assert index.entry_count() == 0
        # neither the pk set nor the unique index kept phantom entries:
        # the same batch minus the duplicate now loads cleanly
        assert table.bulk_insert(
            [(1, 10, "a"), (2, 11, "b"), (3, 13, "retry"), (4, 12, "d")]
        ) == 4
        assert [row[0] for row in table.scan()] == [1, 2, 3, 4]
        assert index.lookup(10) == [0]
        assert index.lookup(13) == [2]

    def test_mid_batch_failure_rolls_back_btree_and_accounting(self):
        table = make_table()
        btree = build_index(IndexDef("b", "t", "id", "btree"), table)
        table.attach_index(btree)
        table.bulk_insert([(1, 0, "keep"), (2, 0, "keep")])
        pages_before = table.data_pages()
        entries_before = btree.entry_count()
        with pytest.raises(ExecutionError):
            table.bulk_insert([(3, 0, "new"), (1, 0, "dup-pk")])
        assert table.row_count() == 2
        assert table.data_pages() == pages_before
        assert btree.entry_count() == entries_before
        assert btree.lookup(3) == []
        assert btree.lookup(1) == [0]

    def test_failed_row_not_in_any_index(self):
        table = make_table()
        by_parent = build_index(IndexDef("p", "t", "parent", "hash"), table)
        unique_name = build_index(
            IndexDef("n", "t", "name", "hash", unique=True), table
        )
        table.attach_index(by_parent)
        table.attach_index(unique_name)
        table.insert((1, 5, "taken"))
        with pytest.raises(ExecutionError):
            table.insert((2, 6, "taken"))  # second index rejects the name
        # the first index must not have kept an entry for the dead row
        assert by_parent.lookup(6) == []
        assert table.row_count() == 1


class TestPageAccounting:
    def test_rows_pack_into_pages(self):
        accounting = PageAccounting()
        accounting.add_rows([80] * 100)
        assert accounting.pages == 2  # ~96 rows per 8 KB page at 80+4 B

    def test_oversized_row_spans_pages(self):
        accounting = PageAccounting()
        accounting.add_rows([3 * PAGE_SIZE])
        assert accounting.pages >= 3

    def test_table_data_bytes_multiple_of_page(self):
        table = make_table(100)
        assert table.data_bytes() % PAGE_SIZE == 0
        assert table.data_bytes() >= PAGE_SIZE

    def test_wider_rows_use_more_space(self):
        narrow = make_table(500)
        wide_schema = TableSchema(
            "w", [Column("id", INTEGER, primary_key=True), Column("v", VARCHAR)]
        )
        wide = HeapTable(wide_schema)
        for i in range(500):
            wide.insert((i, "x" * 200))
        assert wide.data_bytes() > narrow.data_bytes()


class TestIndexes:
    def test_hash_lookup(self):
        table = make_table(20)
        index = build_index(IndexDef("i", "t", "parent", "hash"), table)
        assert isinstance(index, HashIndex)
        assert sorted(index.lookup(2)) == [2, 7, 12, 17]

    def test_hash_lookup_miss(self):
        table = make_table(5)
        index = build_index(IndexDef("i", "t", "parent", "hash"), table)
        assert index.lookup(99) == []

    def test_null_keys_not_indexed(self):
        table = make_table()
        table.insert((1, None, "a"))
        index = build_index(IndexDef("i", "t", "parent", "hash"), table)
        assert index.lookup(None) == []
        assert index.entry_count() == 1  # entry counted, key skipped

    def test_btree_point_lookup(self):
        table = make_table(20)
        index = build_index(IndexDef("i", "t", "id", "btree"), table)
        assert isinstance(index, BTreeIndex)
        assert index.lookup(7) == [7]

    def test_btree_range(self):
        table = make_table(20)
        index = build_index(IndexDef("i", "t", "id", "btree"), table)
        assert list(index.range(5, 8)) == [5, 6, 7, 8]
        assert list(index.range(5, 8, low_inclusive=False)) == [6, 7, 8]
        assert list(index.range(None, 2)) == [0, 1, 2]

    def test_index_maintained_on_insert(self):
        table = make_table(5)
        index = build_index(IndexDef("i", "t", "parent", "hash"), table)
        table.attach_index(index)
        table.insert((100, 2, "late"))
        assert 5 in index.lookup(2)

    def test_unique_hash_rejects_duplicates(self):
        table = make_table()
        table.insert((1, 7, "a"))
        index = build_index(IndexDef("i", "t", "parent", "hash", unique=True), table)
        table.attach_index(index)
        with pytest.raises(ExecutionError):
            table.insert((2, 7, "b"))

    def test_index_size_grows_with_entries(self):
        small = build_index(
            IndexDef("i", "t", "id", "btree"), make_table(10)
        )
        big = build_index(
            IndexDef("i", "t", "id", "btree"), make_table(5000)
        )
        assert big.byte_size() > small.byte_size()

    def test_empty_index_size_zero(self):
        index = build_index(IndexDef("i", "t", "id", "btree"), make_table(0))
        assert index.byte_size() == 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ExecutionError):
            build_index(IndexDef("i", "t", "id", "rtree"), make_table(1))


class TestPublishedVersions:
    """``StorageEngine._publish`` keeps a heap's previous ``TableVersion``
    while its row count has not moved instead of capturing it again."""

    def test_snapshot_after_an_aborted_batch_equals_a_fresh_capture(self):
        db = Database("publish")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name VARCHAR)")
        db.execute("CREATE TABLE u (id INTEGER PRIMARY KEY)")
        db.bulk_insert("t", [(1, "a"), (2, "b")])
        before = db.engine.snapshot
        with pytest.raises(ExecutionError):
            db.bulk_insert("t", [(3, "a long value " * 40), (1, "duplicate")])
        after = db.engine.snapshot
        assert after.version > before.version
        assert len(after.tables) == 2
        for heap, version in after.tables.items():
            assert version == heap.capture_version()
            assert version is before.tables[heap]
        # a heap that did move is captured again; the other is not
        db.bulk_insert("t", [(3, "c")])
        moved = db.engine.snapshot
        t, u = moved.heaps["t"], moved.heaps["u"]
        assert moved.tables[t] == t.capture_version() != after.tables[t]
        assert moved.tables[u] is after.tables[u]
        # a re-created table is a new heap object with a version of its own
        db.execute("DROP TABLE u")
        db.execute("CREATE TABLE u (id INTEGER PRIMARY KEY)")
        fresh = db.engine.snapshot
        assert u not in fresh.tables
        assert fresh.tables[fresh.heaps["u"]] == fresh.heaps["u"].capture_version()
