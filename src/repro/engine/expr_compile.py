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
function calls — bound to their function object once, here — still go
through ``FunctionRegistry.invoke_scalar`` so UDF invocation counts
(Figure 14) are unchanged.  Typed fast paths — a
comparison of an INTEGER/VARCHAR column against a literal of the same
kind compiles to a bare ``==``/``<`` with explicit NULL guards — apply
only where the storage layer guarantees the operand types.
"""

from __future__ import annotations

import math

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
)
from repro.engine.types import IntegerType, VarcharType
from repro.engine.udf import FunctionRegistry
from repro.errors import ExecutionError, PlanError

#: the XADT method names (lowercased) whose calls can route through the
#: structural index; lowering records them so EXPLAIN can label the
#: access path (``xadt[xindex]`` vs ``xadt[scan]``)
XADT_METHOD_NAMES = frozenset(
    {"getelm", "findkeyinelm", "getelmindex", "elmequals", "elmtext"}
)


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
            inner = " and ".join(f"({self.lower(i)})" for i in expr.items)
            return f"bool({inner})"
        if isinstance(expr, Or):
            inner = " or ".join(f"({self.lower(i)})" for i in expr.items)
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
    env = lowering.env
    fn = _compile_fragment(f"lambda row: {fragment}", env)
    fn.batch_filter = _lazy(
        f"lambda _batch: [row for row in _batch if {fragment}]", env
    )
    fn.batch_eval = _lazy(f"lambda _batch: [{fragment} for row in _batch]", env)
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
    fragments = [lowering.lower(expr) for expr in exprs]
    body = ", ".join(fragments) + ("," if len(fragments) == 1 else "")
    source = f"({body})"
    env = lowering.env
    fn = _compile_fragment(f"lambda row: {source}", env)
    fn.batch_eval = _lazy(f"lambda _batch: [{source} for row in _batch]", env)
    fn.source = source
    fn.xadt_methods = frozenset(lowering.xadt_methods)
    return fn


__all__ = ["XADT_METHOD_NAMES", "compile_projection", "compile_row_expr"]
