"""The codegen expression compiler must agree with the reference evaluator.

``compile_row_expr`` — the only compiler a plan holds — lowers an Expr
tree into one generated closure; ``compile_expr`` walks the same tree
with per-node closures and is kept as the reference semantics.  Every
test here pins the generated code to it — NULL three-valued logic, LIKE
pattern translation, parameter rebinding, arithmetic, post-aggregate
slot references.
"""

import random

import pytest

from repro.engine import Database
from repro.engine.expr import Binding, ColumnRef, ParamBox, Slot, compile_expr
from repro.engine.expr_compile import compile_projection, compile_row_expr
from repro.engine.plan.logical import rebuild_with_slots
from repro.engine.sql.parser import parse_expression
from repro.engine.types import INTEGER, VARCHAR
from repro.engine.udf import FunctionRegistry
from repro.errors import ExecutionError, PlanError


@pytest.fixture()
def binding():
    return Binding([
        Slot("t", "a", INTEGER),
        Slot("t", "b", INTEGER),
        Slot("t", "s", VARCHAR),
        Slot("t", "u", VARCHAR),
    ])


@pytest.fixture()
def registry():
    return FunctionRegistry()


def both(text, binding, registry, row, params=None):
    """Evaluate ``text`` compiled and interpreted; assert agreement."""
    expr = parse_expression(text)
    generated = compile_row_expr(expr, binding, registry, params)
    interpreted = compile_expr(expr, binding, registry, params)
    got = generated(row)
    assert got == interpreted(row), (
        f"{text!r} on {row}: compiled {got!r} != interpreted "
        f"{interpreted(row)!r} (source: {generated.source})"
    )
    return got


class TestNullThreeValuedLogic:
    """NULL comparisons are false; AND/OR/NOT see that falseness."""

    def test_null_comparisons_are_false(self, binding, registry):
        row = (None, 2, None, "x")
        for text in ("a = 1", "a <> 1", "a < 1", "a <= 1",
                     "a > 1", "a >= 1", "a = b", "s = 'x'"):
            assert both(text, binding, registry, row) is False

    def test_null_equals_null_is_false(self, binding, registry):
        # SQL: NULL = NULL is UNKNOWN, i.e. row filtered out
        assert both("s = u", binding, registry, (1, 1, None, None)) is False

    def test_is_null_and_negation(self, binding, registry):
        assert both("a IS NULL", binding, registry, (None, 1, "x", "y")) is True
        assert both("a IS NOT NULL", binding, registry, (None, 1, "x", "y")) is False
        assert both("a IS NULL", binding, registry, (0, 1, "x", "y")) is False

    def test_not_of_null_comparison(self, binding, registry):
        # NOT(UNKNOWN) stays filtered-out-equivalent in both engines
        assert both("NOT (a = 1)", binding, registry, (None, 1, "x", "y")) == \
            both("NOT (a = 1)", binding, registry, (None, 1, "x", "y"))

    def test_and_or_with_null_operand(self, binding, registry):
        row = (None, 2, "x", "y")
        assert both("a = 1 AND b = 2", binding, registry, row) is False
        assert both("a = 1 OR b = 2", binding, registry, row) is True
        assert both("b = 2 AND s = 'x'", binding, registry, row) is True

    def test_results_are_booleans(self, binding, registry):
        # AND/OR must not leak operand values the way Python and/or do
        expr = parse_expression("a = 1 AND b = 2")
        fn = compile_row_expr(expr, binding, FunctionRegistry())
        assert fn((1, 2, "x", "y")) is True
        assert fn((1, 3, "x", "y")) is False


class TestLikeTranslation:
    ROW = (1, 2, "abcde", None)

    def test_percent_wildcard(self, binding, registry):
        assert both("s LIKE 'ab%'", binding, registry, self.ROW) is True
        assert both("s LIKE '%cd%'", binding, registry, self.ROW) is True
        assert both("s LIKE '%z%'", binding, registry, self.ROW) is False
        # % matches the empty string
        assert both("s LIKE 'abcde%'", binding, registry, self.ROW) is True

    def test_underscore_wildcard(self, binding, registry):
        assert both("s LIKE 'a_cde'", binding, registry, self.ROW) is True
        assert both("s LIKE 'a_de'", binding, registry, self.ROW) is False
        assert both("s LIKE '_____'", binding, registry, self.ROW) is True
        assert both("s LIKE '____'", binding, registry, self.ROW) is False

    def test_regex_specials_are_literal(self, binding, registry):
        # the pattern language is only % and _; regex metacharacters in
        # the pattern must match themselves, never act as regex
        row = (1, 2, "a.c", None)
        assert both("s LIKE 'a.c'", binding, registry, row) is True
        assert both("s LIKE '...'", binding, registry, row) is False
        row = (1, 2, "a+b(c)", None)
        assert both("s LIKE 'a+b(c)'", binding, registry, row) is True
        assert both("s LIKE '%(c)'", binding, registry, row) is True

    def test_like_on_null_operand(self, binding, registry):
        row = (1, 2, None, None)
        assert both("s LIKE '%'", binding, registry, row) is False
        assert both("s NOT LIKE '%'", binding, registry, row) is False


class TestParameters:
    def test_rebinding_reuses_compiled_closure(self, binding, registry):
        box = ParamBox(1)
        expr = parse_expression("a = ?")
        fn = compile_row_expr(expr, binding, registry, box)
        box.bind((1,))
        assert fn((1, 0, "x", "y")) is True
        assert fn((2, 0, "x", "y")) is False
        box.bind((2,))  # same closure, new bind values
        assert fn((2, 0, "x", "y")) is True
        box.bind((None,))
        assert fn((2, 0, "x", "y")) is False

    def test_marker_outside_prepared_statement_rejected(self, binding, registry):
        with pytest.raises(PlanError):
            compile_row_expr(parse_expression("a = ?"), binding, registry, None)

    def test_execute_many_rebinds_across_executions(self):
        db = Database("exprs")
        db.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, s VARCHAR)")
        for i in range(20):
            db.insert("t", (i, f"name{i}"))
        results = db.execute_many(
            "SELECT s FROM t WHERE a = ?", [(3,), (7,), (99,)]
        )
        assert [list(r) for r in results] == [
            [("name3",)], [("name7",)], [],
        ]


class TestArithmetic:
    def test_integer_division_truncates(self, binding, registry):
        assert both("a / b", binding, registry, (7, 2, "x", "y")) == 3
        assert both("a / b", binding, registry, (-7, 2, "x", "y")) == \
            both("a / b", binding, registry, (-7, 2, "x", "y"))

    def test_null_propagates(self, binding, registry):
        for text in ("a + b", "a - b", "a * b", "a / b", "-a"):
            assert both(text, binding, registry, (None, 2, "x", "y")) is None

    def test_division_by_zero(self, binding, registry):
        expr = parse_expression("a / b")
        fn = compile_row_expr(expr, binding, registry)
        with pytest.raises(ExecutionError):
            fn((1, 0, "x", "y"))


#: expression templates for the randomized agreement sweep — mixed
#: comparisons, boolean structure, arithmetic, LIKE, and IS NULL
TEMPLATES = [
    "a = b",
    "a <> b",
    "a < b AND b < 100",
    "a >= 5 OR b <= 3",
    "NOT (a = b)",
    "a + b > 10",
    "a * 2 = b",
    "(a = 1 OR b = 2) AND s LIKE '%a%'",
    "s LIKE 'v_l%'",
    "s = u",
    "s < u",
    "a IS NULL OR s IS NOT NULL",
    "a - b < 0 AND NOT (s = 'value3')",
]


def _random_row(rng):
    def maybe_null(value):
        return None if rng.random() < 0.25 else value
    return (
        maybe_null(rng.randrange(-5, 12)),
        maybe_null(rng.randrange(-5, 12)),
        maybe_null(f"value{rng.randrange(6)}"),
        maybe_null(f"val{rng.randrange(6)}"),
    )


class TestRandomizedAgreement:
    def test_compiled_matches_interpreted(self, binding, registry):
        rng = random.Random(20260806)
        rows = [_random_row(rng) for _ in range(300)]
        for text in TEMPLATES:
            expr = parse_expression(text)
            generated = compile_row_expr(expr, binding, registry)
            interpreted = compile_expr(expr, binding, registry)
            for row in rows:
                assert generated(row) == interpreted(row), (text, row)
            # the batch companions must agree with the row loop
            kept = [row for row in rows if interpreted(row)]
            assert generated.batch_filter(rows) == kept
            assert generated.batch_eval(rows) == [
                generated(row) for row in rows
            ]

    def test_slot_substituted_expressions_match(self, registry):
        # the post-aggregate form: columns replaced by SlotRef placeholders,
        # compiled against no binding at all
        rng = random.Random(14)
        rows = [_random_row(rng) for _ in range(100)]
        slots = {ColumnRef(None, name): i for i, name in enumerate("abs")}
        slots[ColumnRef(None, "u")] = 3
        for text in TEMPLATES + ["a / 2", "-a", "a / (b - b)"]:
            expr = rebuild_with_slots(parse_expression(text), slots)
            assert not list(expr.column_refs())
            generated = compile_row_expr(expr, Binding([]), registry)
            interpreted = compile_expr(expr, Binding([]), registry)
            for row in rows:
                try:
                    expected = interpreted(row)
                except ExecutionError:
                    with pytest.raises(ExecutionError):
                        generated(row)
                else:
                    got = generated(row)
                    assert (got, type(got)) == (expected, type(expected)), (text, row)

    def test_projection_matches_per_row_tuples(self, binding, registry):
        rng = random.Random(7)
        rows = [_random_row(rng) for _ in range(100)]
        exprs = [parse_expression(t) for t in ("a + b", "s", "a * 2")]
        projection = compile_projection(exprs, binding, registry)
        parts = [compile_expr(e, binding, registry) for e in exprs]
        expected = [tuple(part(row) for part in parts) for row in rows]
        assert [projection(row) for row in rows] == expected
        assert projection.batch_eval(rows) == expected

    def test_single_column_projection_stays_a_tuple(self, binding, registry):
        projection = compile_projection(
            [parse_expression("a")], binding, registry
        )
        assert projection((5, 0, "x", "y")) == (5,)
        assert projection.batch_eval([(5, 0, "x", "y")]) == [(5,)]
