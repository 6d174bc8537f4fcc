"""``HashIndex`` against a dict-of-lists model, under any write history.

A bucket holds a bare row id until a second row shares its key, so the
index is held, operation by operation, to ``ListBucketIndex``: the same
``Index`` accounting over buckets that are always lists.  Unique and
non-unique indexes both run ``insert``, ``insert_many`` (into an empty
index too, the build path), ``mark`` / ``rollback_to`` and the reads,
``lookup`` with and without a snapshot bound, ``contains``,
``byte_size`` and ``entry_count``.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.engine.index import HashIndex, Index
from repro.engine.schema import Column, IndexDef, TableSchema
from repro.engine.storage import HeapTable
from repro.engine.types import VARCHAR
from repro.errors import ExecutionError


class ListBucketIndex(Index):
    """The model: ``key -> [row ids]``, a list from the first row on."""

    def __init__(self, definition, table):
        self.buckets = {}
        super().__init__(definition, table)

    def _insert_key(self, key, row_id):
        if key is None:
            return
        if self.definition.unique and key in self.buckets:
            raise ExecutionError(
                f"unique index {self.definition.name!r} rejects duplicate {key!r}"
            )
        self.buckets.setdefault(key, []).append(row_id)

    def _discard_from(self, row_count):
        self.buckets = {
            key: kept
            for key, row_ids in self.buckets.items()
            if (kept := [rid for rid in row_ids if rid < row_count])
        }

    def lookup(self, key, bound=None):
        row_ids = self.buckets.get(key, []) if key is not None else []
        return [rid for rid in row_ids if bound is None or rid < bound]

    def contains(self, key):
        return key is not None and key in self.buckets


#: equal across types (1 == 1.0 == True) on purpose: both structures
#: file such keys in one bucket, under the first spelling seen
keys = st.one_of(
    st.none(),
    st.integers(0, 5),
    st.sampled_from([1.0, True, "a", "b", "é"]),
)


def outcome(call, *args):
    try:
        return ("ok", call(*args))
    except ExecutionError as error:
        return ("raised", str(error))


class HashIndexMachine(RuleBasedStateMachine):
    @initialize(unique=st.booleans(), rows=st.lists(keys, max_size=8))
    def build(self, unique, rows):
        if unique:  # a unique index is only ever built over distinct keys
            rows = list(dict.fromkeys(key for key in rows if key is not None))
        table = HeapTable(TableSchema("t", [Column("k", VARCHAR)]))
        table.rows.extend((key,) for key in rows)  # any key type
        definition = IndexDef("t_k", "t", "k", "hash", unique)
        self.index = HashIndex(definition, table)
        self.model = ListBucketIndex(definition, table)
        self.row_count = len(rows)
        self.marks = [(self.row_count, self.index.mark(), self.model.mark())]

    @rule(key=keys)
    def insert(self, key):
        row_id = self.row_count
        got = outcome(self.index.insert, (key,), row_id)
        assert got == outcome(self.model.insert, (key,), row_id)
        self.row_count += got[0] == "ok"

    @rule(batch=st.lists(keys, max_size=6))
    def insert_many(self, batch):
        got = outcome(self.index.insert_many, batch, self.row_count)
        assert got == outcome(self.model.insert_many, batch, self.row_count)
        self.row_count += len(batch)

    @rule()
    def mark(self):
        self.marks.append((self.row_count, self.index.mark(), self.model.mark()))

    @rule(data=st.data())
    def rollback(self, data):
        position = data.draw(st.integers(0, len(self.marks) - 1))
        row_count, index_mark, model_mark = self.marks[position]
        del self.marks[position + 1:]  # later marks lie past the new end
        self.index.rollback_to(row_count, index_mark)
        self.model.rollback_to(row_count, model_mark)
        self.row_count = row_count

    @rule(key=keys, data=st.data())
    def lookup(self, key, data):
        bound = data.draw(st.none() | st.integers(0, self.row_count + 1))
        assert self.index.lookup(key, bound=bound) == self.model.lookup(
            key, bound=bound
        )

    @rule(key=keys)
    def contains(self, key):
        assert self.index.contains(key) == self.model.contains(key)

    @invariant()
    def same_accounting(self):
        assert self.index.byte_size() == self.model.byte_size()
        assert self.index.entry_count() == self.model.entry_count()
        assert self.index.mark() == self.model.mark()

    @invariant()
    def a_list_only_from_the_second_row(self):
        for key, bucket in self.index._buckets.items():
            model = self.model.buckets[key]
            if type(bucket) is list:
                assert bucket == model and len(bucket) > 1
            else:
                assert [bucket] == model


HashIndexMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None
)
TestHashIndexAgainstModel = HashIndexMachine.TestCase


class TestBuild:
    def build(self, rows, unique=False):
        table = HeapTable(TableSchema("t", [Column("k", VARCHAR)]))
        table.rows.extend((key,) for key in rows)
        return HashIndex(IndexDef("t_k", "t", "k", "hash", unique), table)

    def test_distinct_keys_are_bare_row_ids(self):
        index = self.build(["a", None, "b", "c"])
        assert index._buckets == {"a": 0, "b": 2, "c": 3}
        assert index.lookup("b") == [2] and index.lookup(None) == []

    def test_a_shared_key_becomes_a_list(self):
        index = self.build(["a", "b", "a", None, None])
        assert index._buckets == {"a": [0, 2], "b": 1}
        index.insert(("b",), 5)
        assert index._buckets == {"a": [0, 2], "b": [1, 5]}

    def test_rollback_leaves_a_single_survivor_bare(self):
        index = self.build(["a", "b"])
        mark = index.mark()
        index.insert_many(["a", "c"], 2)
        assert index._buckets == {"a": [0, 2], "b": 1, "c": 3}
        index.rollback_to(2, mark)
        assert index._buckets == {"a": 0, "b": 1}

    def test_unique_build_rejects_a_duplicate(self):
        with pytest.raises(ExecutionError, match="rejects duplicate 'a'"):
            self.build(["a", "b", "a"], unique=True)
