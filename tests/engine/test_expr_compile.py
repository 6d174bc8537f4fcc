"""The codegen expression compiler must agree with the reference evaluator.

``compile_filter`` / ``compile_column`` / ``compile_projection`` — the
only compiler a plan holds — lower an Expr tree into one generated batch
function; ``compile_expr`` (``tests/engine/reference_expr.py``) walks
the same tree with per-node closures, one row at a time, and is kept as
the reference semantics.  Every test
here pins the generated code to it — NULL three-valued logic, LIKE
pattern translation, parameter rebinding, arithmetic, post-aggregate
slot references — and pins that each expression site of a plan is
one batch function whose source is compiled at most once per process.
"""

import random

import pytest

from repro.engine import Database, expr_compile
from repro.engine.expr import Binding, ColumnRef, ParamBox, Slot
from repro.engine.expr_compile import (
    compile_column,
    compile_filter,
    compile_projection,
)
from repro.engine.plan.logical import rebuild_with_slots
from repro.engine.plan.optimizer import plan_select
from repro.engine.plan.physical import Operator
from repro.engine.sql.ast import count_parameters
from repro.engine.sql.parser import parse_expression, parse_sql
from repro.engine.types import INTEGER, VARCHAR
from repro.engine.udf import FunctionRegistry
from repro.errors import ExecutionError, PlanError
from tests.engine.reference_expr import compile_expr


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
    generated = compile_column(expr, binding, registry, params)
    interpreted = compile_expr(expr, binding, registry, params)
    (got,) = generated([row])
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
        fn = compile_column(expr, binding, FunctionRegistry())
        got = fn([(1, 2, "x", "y"), (1, 3, "x", "y")])
        assert [type(value) for value in got] == [bool, bool]
        assert got == [True, False]


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
        fn = compile_filter(expr, binding, registry, box)
        rows = [(1, 0, "x", "y"), (2, 0, "x", "y")]
        box.bind((1,))
        assert fn(rows) == rows[:1]
        box.bind((2,))  # same function, new bind values
        assert fn(rows) == rows[1:]
        box.bind((None,))
        assert fn(rows) == []

    def test_marker_outside_prepared_statement_rejected(self, binding, registry):
        for compiler in (compile_filter, compile_column):
            with pytest.raises(PlanError):
                compiler(parse_expression("a = ?"), binding, registry, None)

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
        fn = compile_column(expr, binding, registry)
        with pytest.raises(ExecutionError):
            fn([(1, 1, "x", "y"), (1, 0, "x", "y")])


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
            interpreted = compile_expr(expr, binding, registry)
            values = compile_column(expr, binding, registry)(rows)
            assert values == [interpreted(row) for row in rows], text
            kept = [row for row in rows if interpreted(row)]
            assert compile_filter(expr, binding, registry)(rows) == kept

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
            generated = compile_column(expr, Binding([]), registry)
            interpreted = compile_expr(expr, Binding([]), registry)
            for row in rows:
                try:
                    expected = interpreted(row)
                except ExecutionError:
                    with pytest.raises(ExecutionError):
                        generated([row])
                else:
                    (got,) = generated([row])
                    assert (got, type(got)) == (expected, type(expected)), (text, row)

    def test_projection_matches_per_row_tuples(self, binding, registry):
        rng = random.Random(7)
        rows = [_random_row(rng) for _ in range(100)]
        exprs = [parse_expression(t) for t in ("a + b", "s", "a * 2")]
        projection = compile_projection(exprs, binding, registry)
        parts = [compile_expr(e, binding, registry) for e in exprs]
        expected = [tuple(part(row) for part in parts) for row in rows]
        assert projection(rows) == expected

    def test_single_column_projection_stays_a_tuple(self, binding, registry):
        projection = compile_projection(
            [parse_expression("a")], binding, registry
        )
        assert projection([(5, 0, "x", "y")]) == [(5,)]


# -- one compile() per expression site ------------------------------------------


def _sites(plan):
    """The batch functions a physical plan holds, one per expression
    site (an operator attribute or list entry with generated source)."""
    found = []

    def visit(value):
        if callable(value) and hasattr(value, "source"):
            found.append(value)
        elif isinstance(value, (list, tuple)):
            for item in value:
                visit(item)
        elif hasattr(value, "arg"):  # an aggregate's spec
            visit(value.arg)

    def walk(op):
        for value in vars(op).values():
            if isinstance(value, Operator):
                walk(value)
            else:
                visit(value)

    walk(plan)
    return found


def sites_database():
    """Two tables, two hash indexes, a scalar UDF ``twice`` and a table
    function ``spread(n, k)`` (``n % k + 1`` rows), sized so that the
    planner picks index probes for selective keys."""
    db = Database("sites")
    db.registry.register_scalar("twice", lambda value: value * 2)
    db.registry.register_table(
        "spread", lambda n, k: [(i,) for i in range(n % k + 1)], [("n", INTEGER)]
    )
    db.execute(
        "CREATE TABLE t (a INTEGER PRIMARY KEY, c INTEGER, b INTEGER, pad VARCHAR)"
    )
    db.execute("CREATE TABLE u (id INTEGER PRIMARY KEY, name VARCHAR)")
    db.bulk_insert("t", [(i, i % 1000, i % 7, "x" * 100) for i in range(5000)])
    db.bulk_insert("u", [(i, f"n{i % 5}") for i in range(50)])
    db.create_index("t_a", "t", "a", "hash")
    db.create_index("t_c", "t", "c", "hash")
    db.runstats()
    return db


#: one statement per operator kind that holds expressions: scan filter,
#: SELECT list, index residual and ``?`` key, index-join residual, filter
#: over a hash join, group keys, aggregate arguments, HAVING, pre- and
#: post-projection ORDER BY keys, lateral arguments (columnar and
#: constant) and the lateral's filter
SITE_QUERIES = [
    ("SELECT a + 1, twice(b) FROM t WHERE b > 2 AND twice(a) > 4", ()),
    ("SELECT a FROM t WHERE c = ? AND twice(b) > 10", (7,)),
    (
        "SELECT u.name, t.b FROM u, t "
        "WHERE t.c = u.id AND u.id = 7 AND twice(t.b) <> 4",
        (),
    ),
    ("SELECT t.a, u.name FROM t, u WHERE t.c = u.id AND twice(t.b) > u.id", ()),
    (
        "SELECT c, COUNT(*), SUM(twice(b)) FROM t GROUP BY c "
        "HAVING COUNT(*) > 1 ORDER BY c DESC",
        (),
    ),
    ("SELECT a AS k FROM t ORDER BY k DESC", ()),
    ("SELECT a, b FROM t WHERE c = 3 ORDER BY twice(b) DESC, a", ()),
    ("SELECT u.id, s.n FROM u, TABLE(spread(twice(u.id), ?)) s WHERE s.n > 0", (3,)),
]


@pytest.fixture()
def sites_db():
    return sites_database()


class TestOneCompilePerSite:
    def test_the_queries_reach_every_expression_site(self, sites_db):
        plans = "\n".join(sites_db.explain(sql) for sql, _ in SITE_QUERIES)
        for shape in (
            "SeqScan t as t filter[", "(key = ?) residual[",
            "(outer key u.id) residual[", "HashJoin on", "Filter [",
            "HashAggregate groups=1", "Sort keys=2", "LateralFunctionScan",
        ):
            assert shape in plans, shape

    @pytest.mark.parametrize("sql,params", SITE_QUERIES)
    def test_planning_compiles_each_site_once_and_running_compiles_none(
        self, sites_db, monkeypatch, sql, params
    ):
        expr_compile._code.cache_clear()
        built, sources = [], []
        build = expr_compile._compile

        def building(lines, env):
            built.append(build(lines, env))
            return built[-1]

        def counting(source, *args, **kwargs):
            sources.append(source)
            return compile(source, *args, **kwargs)

        monkeypatch.setattr(expr_compile, "_compile", building)
        monkeypatch.setattr(expr_compile, "compile", counting, raising=False)
        statement = parse_sql(sql)
        box = ParamBox(count_parameters(statement))
        plan = plan_select(statement, sites_db, box)
        sites = _sites(plan)
        # one batch function per site, each distinct source compiled once
        assert sites and sorted(map(id, built)) == sorted(map(id, sites))
        assert sorted(sources) == sorted({fn.source for fn in sites})
        box.bind(params)
        first = list(plan.rows())
        assert first and list(plan.rows()) == first
        # running builds and compiles nothing
        assert len(built) == len(sites)
        assert len(sources) == len({fn.source for fn in sites})

    def test_plans_differing_in_a_string_literal_share_code_not_values(
        self, sites_db
    ):
        def plan(name):
            statement = parse_sql(f"SELECT id, name FROM u WHERE name = '{name}'")
            return plan_select(statement, sites_db, ParamBox(0))

        ones, twos = plan("n1"), plan("n2")
        for one, two in zip(_sites(ones), _sites(twos), strict=True):
            assert one.source == two.source
            assert one.__code__ is two.__code__
            assert one.__globals__ is not two.__globals__
        assert {name for _, name in ones.rows()} == {"n1"}
        assert {name for _, name in twos.rows()} == {"n2"}
        assert len(list(ones.rows())) == len(list(twos.rows())) == 10

        # number literals are bound the same way: a new integer or float
        # constant reuses the code object instead of compiling again
        def numbered(low, scale):
            statement = parse_sql(
                f"SELECT id, name FROM u WHERE id > {low} AND id * {scale} < 60"
            )
            return plan_select(statement, sites_db, ParamBox(0))

        highs, mids = numbered(45, 1.0), numbered(20, 2.5)
        for one, two in zip(_sites(highs), _sites(mids), strict=True):
            assert one.source == two.source
            assert one.__code__ is two.__code__
            assert one.__globals__ is not two.__globals__
        assert sorted(id_ for id_, _ in highs.rows()) == [46, 47, 48, 49]
        assert sorted(id_ for id_, _ in mids.rows()) == [21, 22, 23]

    def test_a_prepared_insert_compiles_its_values_once(self, monkeypatch):
        db = Database("inserts")
        db.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, s VARCHAR, n INTEGER)")
        expr_compile._code.cache_clear()
        sources = []

        def counting(source, *args, **kwargs):
            sources.append(source)
            return compile(source, *args, **kwargs)

        monkeypatch.setattr(expr_compile, "compile", counting, raising=False)
        db.execute_many(
            "INSERT INTO t VALUES (?, upper(?), ? * 2), (? + 100, 'k', NULL)",
            [(i, f"r{i}", i, i) for i in range(5)],
        )
        assert len(sources) == 1  # every cell of every row, in one projection
        assert db.execute("SELECT a, s, n FROM t WHERE a = 3 OR a = 104").rows == [
            (3, "R3", 6), (104, "k", None),
        ]
