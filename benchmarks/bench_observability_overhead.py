"""Observability overhead: the metrics-off path must stay within noise.

The instrumentation contract (DESIGN.md): with metrics disabled and
tracing off, the only cost the observability layer adds to the execution
hot path is one attribute check *per batch pull* (``Operator.batches``
looks at ``self.stats``) and one branch per would-be counter update —
under vectorized execution that check amortizes over up to
``batch_size`` rows.  This benchmark enforces the contract on the
Figure 11 query set: it drains each XORator plan twice per round —

* *raw*: every operator's ``batches`` is shadowed with its ``_execute``
  implementation, recreating the pre-instrumentation batch-iterator
  path with zero added work;
* *off*: the shipped template-method path with ``METRICS.enabled=False``
  and the tracer disabled.

and asserts the *off* total is at most 5 % above *raw* (plus a small
absolute epsilon so microsecond-scale totals cannot trip the ratio).

A second gate covers the statement-statistics collector
(:data:`repro.obs.statements.STATEMENTS`): running the same workload
through ``Database.execute`` with statement stats *and* wait profiling
enabled must stay within 10 % of the collector-off path — the cost of
one observation object, the wait-sink contextvar set/reset, and one
locked dict fold per statement.
"""

from __future__ import annotations

import time

import pytest
from conftest import print_report

from repro.engine.expr import ParamBox
from repro.engine.plan.optimizer import plan_select
from repro.engine.sql.parser import parse_sql
from repro.obs import METRICS, STATEMENTS, TRACER, walk
from repro.workloads import SHAKESPEARE_QUERIES

#: allowed relative overhead of the instrumented-but-disabled path
OVERHEAD_BOUND = 0.05
#: allowed relative overhead with statement stats + wait profiling on
STATEMENTS_BOUND = 0.10
#: absolute slack in seconds (guards tiny totals against timer noise)
ABSOLUTE_EPSILON = 0.002
#: timing rounds per query; the minimum is the reported figure
ROUNDS = 9


def _plans(pair):
    """(key, bound physical plan) for every Figure 11 XORator query."""
    db = pair.xorator.db
    out = []
    for query in SHAKESPEARE_QUERIES:
        box = ParamBox(0)
        plan = plan_select(parse_sql(query.xorator_sql), db, box)
        box.bind(())
        out.append((query.key, plan))
    return out


def _drain_seconds(plan) -> float:
    started = time.perf_counter()
    consumed = 0
    for batch in plan.batches():
        consumed += len(batch)
    return time.perf_counter() - started


def _shadow_raw(nodes) -> None:
    """Bypass the template method: ``batches`` becomes ``_execute``."""
    for node, _ in nodes:
        node.batches = node._execute


def _unshadow(nodes) -> None:
    for node, _ in nodes:
        del node.__dict__["batches"]


def test_disabled_instrumentation_within_bound(shakespeare_pair_x1, benchmark):
    plans = _plans(shakespeare_pair_x1)
    prior_trace = TRACER.enabled
    TRACER.enabled = False
    METRICS.enabled = False
    try:
        raw_total = 0.0
        off_total = 0.0
        lines = [f"{'query':8}{'raw':>12}{'metrics-off':>14}{'overhead':>10}"]
        for key, plan in plans:
            nodes = walk(plan)
            # warm both paths (decode cache, allocator) before timing
            _drain_seconds(plan)
            _shadow_raw(nodes)
            _drain_seconds(plan)
            _unshadow(nodes)

            raw_best = float("inf")
            off_best = float("inf")
            for _ in range(ROUNDS):
                _shadow_raw(nodes)
                raw_best = min(raw_best, _drain_seconds(plan))
                _unshadow(nodes)
                off_best = min(off_best, _drain_seconds(plan))
            raw_total += raw_best
            off_total += off_best
            overhead = off_best / raw_best - 1.0 if raw_best else 0.0
            lines.append(
                f"{key:8}{raw_best * 1000:>10.3f}ms"
                f"{off_best * 1000:>12.3f}ms{overhead:>9.1%}"
            )

        total_overhead = off_total / raw_total - 1.0 if raw_total else 0.0
        lines.append(
            f"{'TOTAL':8}{raw_total * 1000:>10.3f}ms"
            f"{off_total * 1000:>12.3f}ms{total_overhead:>9.1%}"
        )
        lines.append(
            f"(bound: {OVERHEAD_BOUND:.0%} + {ABSOLUTE_EPSILON * 1000:.0f}ms "
            f"absolute epsilon; min of {ROUNDS} rounds per query)"
        )
        print_report(
            "Observability overhead — instrumented-but-disabled vs raw "
            "iterator path (Figure 11 XORator queries)",
            "\n".join(lines),
        )
        assert off_total <= raw_total * (1.0 + OVERHEAD_BOUND) + ABSOLUTE_EPSILON, (
            f"metrics-off execution {off_total:.6f}s exceeds raw "
            f"{raw_total:.6f}s by more than {OVERHEAD_BOUND:.0%}"
        )

        # the timed payload: the shipped (metrics-off) path end to end
        benchmark(lambda: [_drain_seconds(plan) for _, plan in plans])
    finally:
        METRICS.enabled = True
        TRACER.enabled = prior_trace


def test_statement_stats_overhead_within_bound(shakespeare_pair_x1, benchmark):
    """Statement stats + wait profiling cost <=10% on ``Database.execute``.

    Unlike the iterator-path gate above, this measures the full
    statement path (parse/plan-cache/execute) because that is where the
    collector hooks in; plans are cached by the warmup, so per-statement
    bookkeeping is the dominant delta being bounded.
    """
    db = shakespeare_pair_x1.xorator.db
    workload = [query.xorator_sql for query in SHAKESPEARE_QUERIES]
    prior_trace = TRACER.enabled
    TRACER.enabled = False
    STATEMENTS.reset()
    STATEMENTS.disable()

    def run_workload() -> float:
        started = time.perf_counter()
        for sql in workload:
            db.execute(sql)
        return time.perf_counter() - started

    try:
        run_workload()  # warm plan cache and decode cache
        off_best = float("inf")
        on_best = float("inf")
        for _ in range(ROUNDS):
            STATEMENTS.disable()
            off_best = min(off_best, run_workload())
            STATEMENTS.enable()
            on_best = min(on_best, run_workload())
        overhead = on_best / off_best - 1.0 if off_best else 0.0
        print_report(
            "Statement-statistics overhead — collector+wait profiling vs "
            "collector off (Figure 11 XORator queries, Database.execute)",
            f"off {off_best * 1000:.3f}ms  on {on_best * 1000:.3f}ms  "
            f"overhead {overhead:.1%}  (bound {STATEMENTS_BOUND:.0%} + "
            f"{ABSOLUTE_EPSILON * 1000:.0f}ms epsilon, min of {ROUNDS} "
            f"rounds; {len(STATEMENTS.statements())} keys tracked)",
        )
        assert on_best <= off_best * (1.0 + STATEMENTS_BOUND) + ABSOLUTE_EPSILON, (
            f"statement-stats path {on_best:.6f}s exceeds off path "
            f"{off_best:.6f}s by more than {STATEMENTS_BOUND:.0%}"
        )
        STATEMENTS.disable()
        benchmark(run_workload)
    finally:
        STATEMENTS.disable()
        STATEMENTS.reset()
        TRACER.enabled = prior_trace


def test_enabled_metrics_do_not_change_results(shakespeare_pair_x1):
    """Sanity: flipping the switch affects timing, never row counts."""
    db = shakespeare_pair_x1.xorator.db
    sql = SHAKESPEARE_QUERIES[0].xorator_sql
    with_metrics = len(db.execute(sql))
    METRICS.enabled = False
    try:
        without_metrics = len(db.execute(sql))
    finally:
        METRICS.enabled = True
    assert with_metrics == without_metrics


@pytest.mark.parametrize("state", ["enabled", "disabled"])
def test_execute_under_both_switch_states(shakespeare_pair_x1, benchmark, state):
    """pytest-benchmark comparison row for the two metric states."""
    db = shakespeare_pair_x1.xorator.db
    sql = SHAKESPEARE_QUERIES[0].xorator_sql
    METRICS.enabled = state == "enabled"
    try:
        benchmark(db.execute, sql)
    finally:
        METRICS.enabled = True
