"""The resource governor: per-statement timeouts, caps, and memory budgets.

A production engine serving many sessions cannot let one runaway
statement monopolize the machine (DB2 calls this the governor; other
systems call it workload management).  This module provides the engine's
equivalent across three enforcement layers:

* **statement timeout** — checked per batch inside every physical
  operator (the batch executor wraps each operator's stream when a
  deadline is set), per UDF call inside the batch crossing, and every
  256 rows of a bulk load.  Granularity is therefore one batch / one UDF
  call, which keeps the no-governor fast path free and bounds abort
  latency by the cost of a single batch.
* **result caps** — ``max_result_rows`` / ``max_result_bytes`` are
  enforced where the session drains the plan's batches into a
  :class:`~repro.engine.result.Result`.
* **memory budget** — buffering operators (hash join build, nested-loop
  materialization, sort, distinct, aggregation) charge their estimated
  working-set bytes against the statement's budget as they accumulate.

Every violation raises a typed error
(:class:`~repro.errors.StatementTimeout` /
:class:`~repro.errors.ResourceExceeded` — both
:class:`~repro.errors.FatalError`: retrying without raising the limit
would fail identically).  Abort paths roll back any in-flight stored
batch (see :meth:`HeapTable.bulk_insert`) and never touch the snapshot
horizon or the catalog version.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.errors import ConfigError, ResourceExceeded, StatementTimeout
from repro.obs.metrics import METRICS

_TIMEOUTS = METRICS.counter("governor.timeouts")
_ROW_CAPS = METRICS.counter("governor.row_cap_aborts")
_BYTE_CAPS = METRICS.counter("governor.byte_cap_aborts")
_MEMORY_CAPS = METRICS.counter("governor.memory_cap_aborts")
_STATEMENTS = METRICS.counter("governor.statements_governed")


@dataclass(frozen=True)
class GovernorLimits:
    """Per-statement resource limits; ``None`` disables a dimension."""

    statement_timeout_seconds: float | None = None
    max_result_rows: int | None = None
    max_result_bytes: int | None = None
    memory_budget_bytes: int | None = None

    def __post_init__(self) -> None:
        for name in (
            "statement_timeout_seconds",
            "max_result_rows",
            "max_result_bytes",
            "memory_budget_bytes",
        ):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigError(f"{name} must be positive, got {value!r}")

    def any(self) -> bool:
        return (
            self.statement_timeout_seconds is not None
            or self.max_result_rows is not None
            or self.max_result_bytes is not None
            or self.memory_budget_bytes is not None
        )

    def as_dict(self) -> dict[str, object]:
        return {
            "statement_timeout_seconds": self.statement_timeout_seconds,
            "max_result_rows": self.max_result_rows,
            "max_result_bytes": self.max_result_bytes,
            "memory_budget_bytes": self.memory_budget_bytes,
        }

    def merged(self, **overrides: float | int | None) -> "GovernorLimits":
        """These limits with per-field ``overrides`` applied.

        The network front-end uses this to enforce a per-request
        statement timeout on top of the server's default limits: only
        keys passed with a non-None value replace the base field, so a
        request cannot silently clear a server-side cap."""
        fields = self.as_dict()
        for name, value in overrides.items():
            if name not in fields:
                raise ConfigError(f"unknown governor limit {name!r}")
            if value is not None:
                fields[name] = value
        return GovernorLimits(**fields)  # type: ignore[arg-type]


#: the all-off default: zero enforcement, zero per-statement overhead
UNLIMITED = GovernorLimits()


class StatementBudget:
    """One statement's live spend against a :class:`GovernorLimits`.

    Created per statement by the session (or the write path), installed
    into the execution context, and consulted by the operators.  All
    methods are cheap enough to call per batch; ``tick`` is the timeout
    check and does one ``perf_counter`` read.
    """

    __slots__ = (
        "limits", "deadline", "started", "rows", "result_bytes",
        "memory_bytes", "statement",
    )

    def __init__(self, limits: GovernorLimits, statement: str = "") -> None:
        self.limits = limits
        self.statement = statement
        self.started = time.perf_counter()
        timeout = limits.statement_timeout_seconds
        self.deadline = None if timeout is None else self.started + timeout
        self.rows = 0
        self.result_bytes = 0
        self.memory_bytes = 0

    # -- checks ------------------------------------------------------------

    def tick(self) -> None:
        """Timeout check; called per batch / UDF call / 256 bulk rows."""
        if self.deadline is not None and time.perf_counter() > self.deadline:
            _TIMEOUTS.inc()
            raise StatementTimeout(
                f"statement exceeded its "
                f"{self.limits.statement_timeout_seconds:g}s timeout"
            )

    def add_result_rows(self, count: int) -> None:
        self.rows += count
        cap = self.limits.max_result_rows
        if cap is not None and self.rows > cap:
            _ROW_CAPS.inc()
            raise ResourceExceeded(
                f"result exceeded the {cap}-row cap"
            )

    def add_result_bytes(self, amount: int) -> None:
        self.result_bytes += amount
        cap = self.limits.max_result_bytes
        if cap is not None and self.result_bytes > cap:
            _BYTE_CAPS.inc()
            raise ResourceExceeded(
                f"result exceeded the {cap}-byte cap"
            )

    def charge_memory(self, amount: int) -> None:
        """Account ``amount`` bytes of operator working memory."""
        self.memory_bytes += amount
        cap = self.limits.memory_budget_bytes
        if cap is not None and self.memory_bytes > cap:
            _MEMORY_CAPS.inc()
            raise ResourceExceeded(
                f"statement working memory exceeded the {cap}-byte budget "
                f"(used ~{self.memory_bytes} bytes)"
            )

    def elapsed(self) -> float:
        return time.perf_counter() - self.started


class ResourceGovernor:
    """Database-wide default limits plus lifetime abort accounting."""

    def __init__(self, limits: GovernorLimits | None = None) -> None:
        self._limits = limits or UNLIMITED
        self._lock = threading.Lock()

    @property
    def limits(self) -> GovernorLimits:
        return self._limits

    def set_limits(self, limits: GovernorLimits) -> None:
        with self._lock:
            self._limits = limits

    def configure(self, **changes) -> GovernorLimits:
        """Swap individual limits, keeping the others (None clears one)."""
        with self._lock:
            fields = self._limits.as_dict()
            for name, value in changes.items():
                if name not in fields:
                    raise ConfigError(f"unknown governor limit {name!r}")
                fields[name] = value
            self._limits = GovernorLimits(**fields)  # type: ignore[arg-type]
            return self._limits

    def budget(self, statement: str = "") -> StatementBudget | None:
        """A fresh budget under the current limits (None when unlimited)."""
        limits = self._limits
        if not limits.any():
            return None
        _STATEMENTS.inc()
        return StatementBudget(limits, statement)

    def budget_for(
        self, limits: "GovernorLimits | None", statement: str = ""
    ) -> StatementBudget | None:
        """A budget under ``limits`` (session override) or the defaults."""
        if limits is None:
            return self.budget(statement)
        if not limits.any():
            return None
        _STATEMENTS.inc()
        return StatementBudget(limits, statement)

    def report(self) -> dict[str, object]:
        return {
            "limits": self._limits.as_dict(),
            "timeouts": _TIMEOUTS.value,
            "row_cap_aborts": _ROW_CAPS.value,
            "byte_cap_aborts": _BYTE_CAPS.value,
            "memory_cap_aborts": _MEMORY_CAPS.value,
            "statements_governed": _STATEMENTS.value,
        }


__all__ = [
    "GovernorLimits",
    "ResourceGovernor",
    "StatementBudget",
    "UNLIMITED",
]
