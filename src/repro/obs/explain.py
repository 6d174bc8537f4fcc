"""EXPLAIN ANALYZE: runtime operator statistics and the report.

``Database.explain_analyze()`` plans a SELECT, attaches one
:class:`OperatorStats` to every node of the physical tree, drains the
plan, and builds an :class:`AnalyzeReport` pairing each operator's
*estimated* cardinality with what actually happened: rows produced,
``rows()`` invocations, and inclusive/self wall time.  Estimate misses
beyond :data:`MISS_FACTOR` (the paper's QG1-QG6 anomaly was exactly such
a mismatch between modelled and actual UDF cost) are flagged so a reader
— or the index advisor workflow — can see where the cost model lied.

This module is deliberately free of engine imports: it works against the
duck type of ``repro.engine.plan.physical.Operator`` (``children()``,
``explain(depth)``, ``estimated_rows``, ``stats``), which keeps the
dependency arrow pointing engine -> obs only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

#: actual/estimated (or estimated/actual) ratio beyond which a node is flagged
MISS_FACTOR = 10.0


@dataclass
class OperatorStats:
    """Runtime counters one instrumented operator accumulates."""

    rows_out: int = 0
    #: number of times ``rows()`` was invoked (rescans > 1)
    loops: int = 0
    #: inclusive wall seconds spent pulling this operator's iterator
    seconds: float = 0.0
    #: perf_counter at first pull / at exhaustion (for trace spans)
    started_at: float | None = None
    finished_at: float | None = None


def walk(plan) -> list[tuple[object, int]]:
    """The operator tree as (node, depth) pairs in explain order."""
    out: list[tuple[object, int]] = []

    def visit(node, depth: int) -> None:
        out.append((node, depth))
        for child in node.children():
            visit(child, depth + 1)

    visit(plan, 0)
    return out


def attach_stats(plan) -> list[tuple[object, int]]:
    """Give every node a fresh :class:`OperatorStats`; returns the walk."""
    nodes = walk(plan)
    for node, _ in nodes:
        node.stats = OperatorStats()
    return nodes


def detach_stats(nodes: Iterable[tuple[object, int]]) -> None:
    for node, _ in nodes:
        node.stats = None


@dataclass
class OperatorReport:
    """One analyzed node of the plan."""

    label: str               #: the operator's own EXPLAIN line (no children)
    depth: int
    estimated_rows: float
    actual_rows: int
    loops: int
    seconds: float           #: inclusive wall time
    self_seconds: float      #: inclusive minus children's inclusive
    miss_factor: float       #: max(actual/est, est/actual), floored at 1
    flagged: bool            #: miss_factor > MISS_FACTOR

    def to_dict(self) -> dict[str, object]:
        return {
            "label": self.label,
            "depth": self.depth,
            "estimated_rows": self.estimated_rows,
            "actual_rows": self.actual_rows,
            "loops": self.loops,
            "seconds": self.seconds,
            "self_seconds": self.self_seconds,
            "miss_factor": self.miss_factor,
            "flagged": self.flagged,
        }


@dataclass
class AnalyzeReport:
    """What EXPLAIN ANALYZE returns: operators + phases + the result."""

    operators: list[OperatorReport]
    #: parse/plan/execute wall seconds
    phases: dict[str, float]
    result: object  #: the repro.engine.result.Result of the execution
    #: the ``IoCounters`` this one statement was charged (duck-typed,
    #: like the operators'); None for a report built without them
    io: Any = None

    @property
    def root(self) -> OperatorReport:
        return self.operators[0]

    def estimate_misses(self) -> list[OperatorReport]:
        """The flagged nodes — input for advisor follow-ups."""
        return [op for op in self.operators if op.flagged]

    def text(self) -> str:
        lines = []
        for op in self.operators:
            note = f"  ** est miss {op.miss_factor:.1f}x" if op.flagged else ""
            lines.append(
                f"{op.label} (actual {op.actual_rows} rows, loops {op.loops}, "
                f"time {op.seconds * 1000:.3f} ms, "
                f"self {op.self_seconds * 1000:.3f} ms){note}"
            )
        lines.append(
            "phases: "
            + ", ".join(
                f"{name} {seconds * 1000:.3f} ms"
                for name, seconds in self.phases.items()
            )
        )
        model = self.model()
        if model:
            counted = ", ".join(
                f"{name} {count}" for name, count in model["counters"].items() if count
            )
            lines.append(
                f"counted: {counted}\nmodeled: cpu "
                f"{model['cpu_seconds'] * 1000:.3f} ms + disk "
                f"{model['disk_seconds'] * 1000:.3f} ms"
            )
        return "\n".join(lines)

    def model(self) -> dict[str, Any]:
        """What the statement was charged (pages and work, by name) and
        the two modeled terms that prices to; empty without ``io``."""
        io = self.io
        if io is None:
            return {}
        pages = zip(("sequential_pages", "random_pages", "spill_pages"), io.snapshot())
        return {
            "counters": {**dict(pages), **io.work},
            "cpu_seconds": io.cpu_seconds(),
            "disk_seconds": io.disk_seconds(),
        }

    def to_dict(self) -> dict[str, object]:
        return {
            "operators": [op.to_dict() for op in self.operators],
            "phases": dict(self.phases),
            "row_count": len(self.result),  # type: ignore[arg-type]
            **self.model(),
        }

    def __str__(self) -> str:
        return self.text()


def build_report(
    nodes: list[tuple[object, int]],
    phases: dict[str, float],
    result,
    io=None,
) -> AnalyzeReport:
    """Fold the attached :class:`OperatorStats` into an AnalyzeReport
    (``io``: the counters the statement was charged, if it had its own)."""
    operators: list[OperatorReport] = []
    for node, depth in nodes:
        stats: OperatorStats = node.stats
        child_seconds = sum(
            child.stats.seconds for child in node.children() if child.stats
        )
        estimated = float(node.estimated_rows)
        actual = stats.rows_out
        if estimated <= 0.0 and actual == 0:
            miss = 1.0
        else:
            high = max(estimated, float(actual), 1.0)
            low = max(min(estimated, float(actual)), 0.1)
            miss = high / low
        operators.append(
            OperatorReport(
                label=node.explain(depth)[0],
                depth=depth,
                estimated_rows=estimated,
                actual_rows=actual,
                loops=stats.loops,
                seconds=stats.seconds,
                self_seconds=max(stats.seconds - child_seconds, 0.0),
                miss_factor=miss,
                flagged=miss > MISS_FACTOR,
            )
        )
    return AnalyzeReport(operators=operators, phases=phases, result=result, io=io)


__all__ = [
    "AnalyzeReport",
    "MISS_FACTOR",
    "OperatorReport",
    "OperatorStats",
    "attach_stats",
    "build_report",
    "detach_stats",
    "walk",
]
