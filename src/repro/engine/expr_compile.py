"""Source-level expression compilation: the one compiler a plan holds.

Every predicate, projection, group key, aggregate argument and sort key
of a plan (and of a worker fragment) is lowered here into a single
Python source fragment, compiled once per (cached) plan, and returned as
one closure whose body is the whole expression — per-row cost is one
call plus the work itself, where the closure *tree* of the reference
evaluator :func:`repro.engine.expr.compile_expr` (one lambda per AST
node) costs five calls for ``a = 3 AND b LIKE '%x%'``.

The compiled closure carries two batch-level companions as attributes
(compiled from the same fragment against the same environment, each on
its first call):

* ``fn.batch_filter(batch)`` — ``[row for row in batch if <expr>]``
* ``fn.batch_eval(batch)``   — ``[<expr> for row in batch]``

so batch operators can run a whole batch inside one list comprehension
without re-entering Python call dispatch per row.

Semantics are bit-identical to the reference evaluator (enforced by
``tests/engine/test_expr_compile.py``): NULL comparisons are not true,
LIKE on NULL is false, ``NOT LIKE`` requires a non-NULL operand,
arithmetic propagates NULL and divides ints with ``//``, and scalar
function calls — bound to their function object once, here — go
through ``FunctionRegistry.invoke_scalar`` so UDF invocation counts
(Figure 14) are unchanged.  Typed fast paths — a
comparison of an INTEGER/VARCHAR column against a literal of the same
kind compiles to a bare ``==``/``<`` with explicit NULL guards — apply
only where the storage layer guarantees the operand types.

**The column form.**  ``fn(row)`` crosses the UDF boundary once per
call and stays the reference.  The companions of an expression that
holds scalar calls cross it once per *batch* instead (the source is
generated on a companion's first call; an expression without calls keeps
exactly the two comprehensions above and never lowers twice):

* *hoisting* — every call that row order evaluates unconditionally (not
  under a non-first operand of ``AND``/``OR``) is lifted out of the
  comprehension into a statement ``_cK = _invoke_scalar_batch(function,
  _n, [args...], columnar)`` computing its whole column; literal and
  ``?`` arguments stay scalars, a nested hoisted call feeds its column
  straight in, any other argument is evaluated into a column first.
  Conditional calls keep the inline ``_invoke_scalar(...)``.
* *conjunct cascade* — ``batch_filter`` over a top-level ``AND`` runs
  conjunct by conjunct over the rows the earlier conjuncts kept, which
  are exactly the rows short-circuit evaluation reaches, so the calls
  of ``code = 'SCENE' AND findKeyInElm(...) = 1`` are hoisted too.

Call counts, arguments and results equal row order's
(``tests/engine/test_udf_batch.py``).  Evaluation is column-major, so
when two call sites of one expression can both fail, the first *call
site's* error surfaces rather than the first row's — the same
``ReproError`` class either way — and calls of earlier sites have been
made for the whole batch by then.
"""

from __future__ import annotations

import math
import re
from functools import partial
from typing import Sequence

from repro.engine import values as value_ops
from repro.engine.expr import (
    And,
    Arithmetic,
    Binding,
    ColumnRef,
    Comparison,
    Compiled,
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
    SlotRef,
    Star,
    conjuncts_of,
)
from repro.engine.types import IntegerType, VarcharType
from repro.engine.udf import FunctionRegistry, ScalarFunction
from repro.errors import ExecutionError, PlanError

#: the XADT method names (lowercased) whose calls can route through the
#: structural index; lowering records them so EXPLAIN can label the
#: access path (``xadt[xindex]`` vs ``xadt[scan]``)
XADT_METHOD_NAMES = frozenset(
    {"getelm", "findkeyinelm", "getelmindex", "elmequals", "elmtext"}
)

#: the per-row name ``_vK`` of hoisted call ``K``'s value in column-form
#: source (its column is ``_cK``); no other generated name has this shape
_HOISTED = re.compile(r"\b_v(\d+)\b")


# -- arithmetic helpers (bound into generated source) ------------------------
#
# Each mirrors the corresponding branch of expr.compile_expr: NULL
# propagates, int/int division floors, failures raise ExecutionError.


def _arith_add(lv: object, rv: object) -> object:
    if lv is None or rv is None:
        return None
    try:
        return lv + rv  # type: ignore[operator]
    except TypeError as exc:
        raise ExecutionError(f"arithmetic failed: {lv!r} + {rv!r}") from exc


def _arith_sub(lv: object, rv: object) -> object:
    if lv is None or rv is None:
        return None
    try:
        return lv - rv  # type: ignore[operator]
    except TypeError as exc:
        raise ExecutionError(f"arithmetic failed: {lv!r} - {rv!r}") from exc


def _arith_mul(lv: object, rv: object) -> object:
    if lv is None or rv is None:
        return None
    try:
        return lv * rv  # type: ignore[operator]
    except TypeError as exc:
        raise ExecutionError(f"arithmetic failed: {lv!r} * {rv!r}") from exc


def _arith_div(lv: object, rv: object) -> object:
    if lv is None or rv is None:
        return None
    try:
        if isinstance(lv, int) and isinstance(rv, int):
            return lv // rv
        return lv / rv  # type: ignore[operator]
    except (TypeError, ZeroDivisionError) as exc:
        raise ExecutionError(f"arithmetic failed: {lv!r} / {rv!r}") from exc


_ARITH_FNS = {
    "+": _arith_add,
    "-": _arith_sub,
    "*": _arith_mul,
    "/": _arith_div,
}


def _negate(value: object) -> object:
    if value is None:
        return None
    if not isinstance(value, (int, float)):
        raise ExecutionError(f"cannot negate {value!r}")
    return -value  # type: ignore[operator]


class _Lowering:
    """One compilation unit: accumulates the closure environment."""

    __slots__ = (
        "binding", "registry", "params", "env", "_counter", "xadt_methods",
        "calls", "hoisted", "_conditional",
    )

    def __init__(
        self,
        binding: Binding,
        registry: FunctionRegistry,
        params: ParamBox | None,
    ) -> None:
        self.binding = binding
        self.registry = registry
        self.params = params
        self.env: dict[str, object] = {
            "__builtins__": {},
            "bool": bool,
            "_invoke_scalar": registry.invoke_scalar,
        }
        self._counter = 0
        #: XADT method names seen while lowering (for EXPLAIN labels)
        self.xadt_methods: set[str] = set()
        #: scalar call sites lowered
        self.calls = 0
        #: column form only (:meth:`column_form`): the statements that
        #: compute the hoisted calls' columns ``_c0``, ``_c1``, ...
        self.hoisted: list[str] | None = None
        #: lowering an operand row order reaches only conditionally
        self._conditional = False

    def column_form(self) -> "_Lowering":
        """A lowering of the same unit for one batch companion.

        It hoists the calls row order evaluates unconditionally into
        columns, continues this lowering's names, and works on a private
        copy of the environment: two companions — or two threads sharing
        a cached plan — may generate their column source at once.
        """
        column = _Lowering(self.binding, self.registry, self.params)
        column.env = dict(
            self.env,
            len=len,
            list=list,
            zip=zip,
            _invoke_scalar_batch=self.registry.invoke_scalar_batch,
        )
        column._counter = self._counter
        column.hoisted = []
        return column

    def bind(self, value: object, prefix: str = "_g") -> str:
        name = f"{prefix}{self._counter}"
        self._counter += 1
        self.env[name] = value
        return name

    # -- node lowering -----------------------------------------------------

    def lower(self, expr: Expr) -> str:
        if isinstance(expr, Literal):
            return self._literal(expr.value)
        if isinstance(expr, Parameter):
            if self.params is None:
                raise PlanError(
                    "parameter marker '?' outside a prepared statement"
                )
            self.env["_params"] = self.params
            return f"_params.values[{expr.index}]"
        if isinstance(expr, ColumnRef):
            return f"row[{self.binding.resolve(expr)}]"
        if isinstance(expr, SlotRef):  # post-aggregation slot placeholder
            return f"row[{expr.index}]"
        if isinstance(expr, Star):
            raise PlanError("'*' is only valid inside COUNT(*)")
        if isinstance(expr, FuncCall):
            if expr.is_aggregate():
                raise PlanError(
                    f"aggregate {expr.name}() in a non-aggregate context"
                )
            if expr.name.lower() in XADT_METHOD_NAMES:
                self.xadt_methods.add(expr.name.lower())
            function = self.registry.bind_scalar(expr.name, len(expr.args))
            self.calls += 1
            if self.hoisted is not None and not self._conditional:
                return self._hoist(function, expr.args)
            args = ", ".join(self.lower(arg) for arg in expr.args)
            return f"_invoke_scalar({self.bind(function, '_f')}, [{args}])"
        if isinstance(expr, Comparison):
            return self._comparison(expr)
        if isinstance(expr, Like):
            matcher = value_ops.like_matcher(expr.pattern, expr.negated)
            name = self.bind(matcher, "_like")
            return f"{name}({self.lower(expr.operand)})"
        if isinstance(expr, IsNull):
            check = "is not None" if expr.negated else "is None"
            return f"({self.lower(expr.operand)} {check})"
        if isinstance(expr, And):
            inner = " and ".join(self._short_circuit(expr.items))
            return f"bool({inner})"
        if isinstance(expr, Or):
            inner = " or ".join(self._short_circuit(expr.items))
            return f"bool({inner})"
        if isinstance(expr, Not):
            return f"(not ({self.lower(expr.operand)}))"
        if isinstance(expr, Arithmetic):
            if expr.op not in _ARITH_FNS:
                raise ExecutionError(
                    f"unknown arithmetic operator {expr.op!r}"
                )
            name = self.bind(_ARITH_FNS[expr.op], "_arith")
            return f"{name}({self.lower(expr.left)}, {self.lower(expr.right)})"
        if isinstance(expr, Negate):
            self.env.setdefault("_negate", _negate)
            return f"_negate({self.lower(expr.operand)})"
        raise PlanError(f"cannot compile expression node {type(expr).__name__}")

    def _short_circuit(self, items: tuple[Expr, ...]) -> list[str]:
        """The operands of an AND/OR: row order reaches every operand
        but the first conditionally, so calls under those stay inline."""
        outer = self._conditional
        fragments = []
        for item in items:
            fragments.append(f"({self.lower(item)})")
            self._conditional = True
        self._conditional = outer
        return fragments

    def _hoist(self, function: ScalarFunction, args: tuple[Expr, ...]) -> str:
        """Lift one unconditional call out of the per-row comprehension.

        Emits the statement that computes the call's column ``_cK`` for
        the whole batch and returns ``_vK``, the name its value goes by
        inside a comprehension over :meth:`over_rows`.  Literal and
        ``?`` arguments stay scalars, a nested hoisted call feeds its
        column straight in, anything else is evaluated into a column.
        """
        lowered = []
        columnar = []
        for arg in args:
            fragment = self.lower(arg)
            constant = isinstance(arg, (Literal, Parameter))
            columnar.append(not constant)
            if constant:
                lowered.append(fragment)
            elif _HOISTED.fullmatch(fragment):
                lowered.append("_c" + fragment[2:])
            else:
                lowered.append(f"[{fragment} {self.over_rows(fragment)}]")
        number = len(self.hoisted)
        self.hoisted.append(
            f"_c{number} = _invoke_scalar_batch({self.bind(function, '_f')}, "
            f"_n, [{', '.join(lowered)}], {tuple(columnar)!r})"
        )
        return f"_v{number}"

    def over_rows(self, fragment: str) -> str:
        """The ``for ... in ...`` clause that walks ``_batch`` together
        with the hoisted columns ``fragment`` reads."""
        used = sorted({int(k) for k in _HOISTED.findall(fragment)})
        if not used:
            return "for row in _batch"
        targets = ", ".join(f"_v{k}" for k in used)
        sources = ", ".join(f"_c{k}" for k in used)
        return f"for row, {targets} in zip(_batch, {sources})"

    def _literal(self, value: object) -> str:
        if value is None or value is True or value is False:
            return repr(value)
        if isinstance(value, int):
            return repr(value)
        if isinstance(value, float) and math.isfinite(value):
            return repr(value)
        return self.bind(value)

    # -- comparisons ---------------------------------------------------------

    def _comparison(self, expr: Comparison) -> str:
        fast = self._typed_comparison(expr)
        if fast is not None:
            return fast
        fn = value_ops.COMPARE_FNS.get(expr.op)
        if fn is None:
            raise ExecutionError(f"unknown comparison operator {expr.op!r}")
        name = self.bind(fn, "_cmp")
        return f"{name}({self.lower(expr.left)}, {self.lower(expr.right)})"

    def _side_kind(self, expr: Expr) -> tuple[str, bool] | None:
        """(kind, maybe_null) for operands with storage-guaranteed types."""
        if isinstance(expr, ColumnRef):
            sql_type = self.binding.slot_of(expr).sql_type
            if isinstance(sql_type, IntegerType):
                return "int", True
            if isinstance(sql_type, VarcharType):
                return "str", True
            return None
        if isinstance(expr, Literal):
            value = expr.value
            if value is None:
                return "null", False
            if isinstance(value, int) and not isinstance(value, bool):
                return "int", False
            if isinstance(value, str):
                return "str", False
        return None

    def _typed_comparison(self, expr: Comparison) -> str | None:
        op = expr.op
        if op not in ("=", "<>", "<", "<=", ">", ">="):
            return None
        left_kind = self._side_kind(expr.left)
        right_kind = self._side_kind(expr.right)
        if left_kind is None or right_kind is None:
            return None
        if "null" in (left_kind[0], right_kind[0]):
            return "False"  # NULL comparisons are never true
        if left_kind[0] != right_kind[0]:
            return None  # int/str mixes keep the implicit-cast helper
        left = self.lower(expr.left)
        right = self.lower(expr.right)
        guards = []
        if op == "=":
            # ``L == R`` alone is wrong only when both sides are NULL
            if left_kind[1] and right_kind[1]:
                guards.append(f"{left} is not None")
        else:
            if left_kind[1]:
                guards.append(f"{left} is not None")
            if right_kind[1]:
                guards.append(f"{right} is not None")
        python_op = "!=" if op == "<>" else ("==" if op == "=" else op)
        body = f"{left} {python_op} {right}"
        if guards:
            return "(" + " and ".join(guards) + f" and {body})"
        return f"({body})"


def _compile_fragment(source: str, env: dict[str, object]):
    return eval(compile(source, "<expr-compile>", "eval"), env)  # noqa: S307


def _compile_companion(lines: list[str], env: dict[str, object]):
    """Compile a multi-statement batch companion (the column form)."""
    source = "def _companion(_batch):\n" + "".join(
        f"    {line}\n" for line in lines
    )
    scope: dict[str, object] = {}
    exec(compile(source, "<expr-compile>", "exec"), env, scope)  # noqa: S102
    companion = scope["_companion"]
    companion.source = source
    return companion


def _lazy(source: str, env: dict[str, object]):
    """A batch companion that compiles ``source`` when it is first called.

    Most closures are used through one form only (a scan predicate never
    runs per row, a join residual's ``batch_eval`` never runs at all), and
    a plan that misses the plan cache pays ``compile()`` for every form it
    builds.  The stub must not reference the closure it hangs on: a cycle
    would keep a dropped plan — and the tables its operators hold — alive
    until the next full collection.
    """
    compiled: list = []

    def companion(batch: list) -> list:
        if not compiled:
            compiled.append(_compile_fragment(source, env))
        return compiled[0](batch)

    return companion


def _lazy_column(build):
    """:func:`_lazy` for the column form: ``build()`` lowers the
    expression a second time and compiles the result, on the first call.

    ``build`` holds the row lowering and the expression; it is dropped
    once used, so a cached plan keeps them only for companions it never
    ran (every object a cached plan retains is one more for each full
    collection to walk — measurably so when the cache is full of ad-hoc
    plans).
    """
    compiled: list = []

    def companion(batch: list) -> list:
        nonlocal build
        if not compiled:
            pending = build  # None: another thread has just built it
            if pending is not None:
                compiled.append(pending())
                build = None
        return compiled[0](batch)

    return companion


def _companion_of(lowering: _Lowering, plain: str, column_builder, *args):
    """The lazy companion of one lowered unit: the ``plain``
    comprehension over the fragment already lowered when the unit holds
    no scalar call (nothing else is kept, nothing is lowered twice),
    else ``column_builder``'s column form."""
    if not lowering.calls:
        return _lazy(plain, lowering.env)
    return _lazy_column(partial(column_builder, lowering, *args, plain))


def _column_filter(lowering: _Lowering, expr: Expr, plain: str):
    """``batch_filter`` of a predicate with scalar calls: the conjunct
    cascade.

    The top-level AND runs conjunct by conjunct, each over the rows the
    earlier ones kept — exactly the rows short-circuit evaluation
    reaches — so a conjunct's unconditional calls are made column-wise
    with exact counts.  Neighbouring conjuncts that hoist nothing share
    one comprehension.  Nothing to hoist: the ``plain`` comprehension.
    """
    column = lowering.column_form()
    lines: list[str] = []
    pending: list[str] = []  # conditions awaiting one shared comprehension

    def flush() -> None:
        if pending:
            condition = " and ".join(pending)
            lines.append(f"_batch = [row for row in _batch if {condition}]")
            pending.clear()

    for conjunct in conjuncts_of(expr):
        before = len(column.hoisted)
        condition = f"({column.lower(conjunct)})"
        statements = column.hoisted[before:]
        if not statements:
            pending.append(condition)
            continue
        flush()
        if not lines:  # a first stage may be handed any iterable
            lines.append("_batch = list(_batch)")
        lines.append("_n = len(_batch)")
        lines.extend(statements)
        lines.append(
            f"_batch = [row {column.over_rows(condition)} if {condition}]"
        )
    if not column.hoisted:
        return _compile_fragment(plain, lowering.env)
    flush()
    lines.append("return _batch")
    return _compile_companion(lines, column.env)


def _tuple_source(fragments: list[str]) -> str:
    body = ", ".join(fragments) + ("," if len(fragments) == 1 else "")
    return f"({body})"


def _column_eval(
    lowering: _Lowering, exprs: Sequence[Expr], tupled: bool, plain: str
):
    """``batch_eval`` with every unconditional scalar call hoisted into
    a column; the ``plain`` comprehension when there is none to hoist."""
    column = lowering.column_form()
    fragments = [column.lower(expr) for expr in exprs]
    if not column.hoisted:
        return _compile_fragment(plain, lowering.env)
    lines = ["_batch = list(_batch)", "_n = len(_batch)", *column.hoisted]
    if tupled:
        body = _tuple_source(fragments)
    else:
        (body,) = fragments
    if _HOISTED.fullmatch(body):  # the expression *is* a call: its column
        lines.append(f"return _c{body[2:]}")
    else:
        lines.append(f"return [{body} {column.over_rows(body)}]")
    return _compile_companion(lines, column.env)


def compile_row_expr(
    expr: Expr,
    binding: Binding,
    registry: FunctionRegistry,
    params: ParamBox | None = None,
) -> Compiled:
    """Lower ``expr`` to one generated closure (plus batch companions).

    ``fn(row)`` evaluates the expression; the callable additionally
    exposes ``batch_filter``, ``batch_eval``, and the generated
    ``source`` fragment.
    """
    lowering = _Lowering(binding, registry, params)
    fragment = lowering.lower(expr)
    fn = _compile_fragment(f"lambda row: {fragment}", lowering.env)
    fn.batch_filter = _companion_of(
        lowering, f"lambda _batch: [row for row in _batch if {fragment}]",
        _column_filter, expr,
    )
    fn.batch_eval = _companion_of(
        lowering, f"lambda _batch: [{fragment} for row in _batch]",
        _column_eval, (expr,), False,
    )
    fn.source = fragment
    fn.xadt_methods = frozenset(lowering.xadt_methods)
    return fn


def compile_projection(
    exprs: list[Expr],
    binding: Binding,
    registry: FunctionRegistry,
    params: ParamBox | None = None,
) -> Compiled:
    """One closure computing the whole SELECT-list tuple per row.

    ``fn(row)`` returns the projected tuple; ``fn.batch_eval(batch)``
    projects a whole batch in a single list comprehension.
    """
    lowering = _Lowering(binding, registry, params)
    source = _tuple_source([lowering.lower(expr) for expr in exprs])
    fn = _compile_fragment(f"lambda row: {source}", lowering.env)
    fn.batch_eval = _companion_of(
        lowering, f"lambda _batch: [{source} for row in _batch]",
        _column_eval, exprs, True,
    )
    fn.source = source
    fn.xadt_methods = frozenset(lowering.xadt_methods)
    return fn


__all__ = ["XADT_METHOD_NAMES", "compile_projection", "compile_row_expr"]
