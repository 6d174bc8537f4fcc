"""The reference semantics of the expression language, for tests.

:func:`compile_expr` evaluates an expression one row and one UDF call at
a time, through per-node closures.  The engine never runs it: every
expression of a plan, and the constants of ``INSERT ... VALUES``, go
through the batch functions of :mod:`repro.engine.expr_compile`, which
``test_expr.py``, ``test_expr_compile.py``, ``test_udf_batch.py``,
``test_work_model.py`` and ``test_prepared.py`` diff against this
reference — values, call counts and arguments alike.
"""

from __future__ import annotations

from typing import Callable

from repro.engine import values as value_ops
from repro.engine.expr import (
    And,
    Arithmetic,
    Binding,
    ColumnRef,
    Comparison,
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
)
from repro.engine.udf import FunctionRegistry
from repro.errors import ExecutionError, PlanError

Compiled = Callable[[tuple], object]


def compile_expr(
    expr: Expr,
    binding: Binding,
    registry: FunctionRegistry,
    params: ParamBox | None = None,
) -> Compiled:
    """Compile ``expr`` to a tree of per-node closures over row tuples:
    one row and one UDF call (``FunctionRegistry.invoke_scalar``) at a
    time.

    ``params`` is the bind-value box Parameter markers read from; plans
    compiled without one reject markers at plan time.

    Aggregates must have been rewritten away by the planner before
    compilation; finding one here is a planning bug surfaced as PlanError.
    """
    if isinstance(expr, Literal):
        constant = expr.value
        return lambda row: constant
    if isinstance(expr, Parameter):
        if params is None:
            raise PlanError(
                "parameter marker '?' outside a prepared statement"
            )
        slot_index = expr.index
        box = params
        return lambda row: box.values[slot_index]
    if isinstance(expr, ColumnRef):
        index = binding.resolve(expr)
        return lambda row: row[index]
    if isinstance(expr, SlotRef):
        index = expr.index
        return lambda row: row[index]
    if isinstance(expr, Star):
        raise PlanError("'*' is only valid inside COUNT(*)")
    if isinstance(expr, FuncCall):
        if expr.is_aggregate():
            raise PlanError(
                f"aggregate {expr.name}() in a non-aggregate context"
            )
        function = registry.bind_scalar(expr.name, len(expr.args))
        compiled_args = [
            compile_expr(a, binding, registry, params) for a in expr.args
        ]

        def call(row: tuple) -> object:
            return registry.invoke_scalar(function, [arg(row) for arg in compiled_args])

        return call
    if isinstance(expr, Comparison):
        left = compile_expr(expr.left, binding, registry, params)
        right = compile_expr(expr.right, binding, registry, params)
        op = expr.op
        return lambda row: value_ops.compare(op, left(row), right(row))
    if isinstance(expr, Like):
        operand = compile_expr(expr.operand, binding, registry, params)
        pattern = expr.pattern
        if expr.negated:

            def not_like(row: tuple) -> bool:
                value = operand(row)  # once: it may be a UDF call
                return value is not None and not value_ops.like(value, pattern)

            return not_like
        return lambda row: value_ops.like(operand(row), pattern)
    if isinstance(expr, IsNull):
        operand = compile_expr(expr.operand, binding, registry, params)
        if expr.negated:
            return lambda row: operand(row) is not None
        return lambda row: operand(row) is None
    if isinstance(expr, And):
        compiled = [
            compile_expr(item, binding, registry, params) for item in expr.items
        ]
        return lambda row: all(item(row) for item in compiled)
    if isinstance(expr, Or):
        compiled = [
            compile_expr(item, binding, registry, params) for item in expr.items
        ]
        return lambda row: any(item(row) for item in compiled)
    if isinstance(expr, Not):
        operand = compile_expr(expr.operand, binding, registry, params)
        return lambda row: not operand(row)
    if isinstance(expr, Arithmetic):
        left = compile_expr(expr.left, binding, registry, params)
        right = compile_expr(expr.right, binding, registry, params)
        op = expr.op

        def arith(row: tuple) -> object:
            lv, rv = left(row), right(row)
            if lv is None or rv is None:
                return None
            try:
                if op == "+":
                    return lv + rv
                if op == "-":
                    return lv - rv
                if op == "*":
                    return lv * rv
                if op == "/":
                    return lv // rv if isinstance(lv, int) and isinstance(rv, int) else lv / rv
            except (TypeError, ZeroDivisionError) as exc:
                raise ExecutionError(f"arithmetic failed: {lv!r} {op} {rv!r}") from exc
            raise ExecutionError(f"unknown arithmetic operator {op!r}")

        return arith
    if isinstance(expr, Negate):
        operand = compile_expr(expr.operand, binding, registry, params)

        def negate(row: tuple) -> object:
            value = operand(row)
            if value is None:
                return None
            if not isinstance(value, (int, float)):
                raise ExecutionError(f"cannot negate {value!r}")
            return -value

        return negate
    raise PlanError(f"cannot compile expression node {type(expr).__name__}")
