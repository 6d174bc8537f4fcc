"""Partition-parallel execution: worker pool, fragment protocol, retry.

The scatter-gather Exchange operator (:mod:`repro.engine.plan.exchange`)
splits a scan of a :class:`~repro.engine.storage.PartitionedHeapTable`
into per-partition *fragments* and runs them on a pool of forked worker
processes.  This module owns everything below the operator:

* the **fragment task** — a plain picklable dict carrying the table
  schema, alias, pushed predicate/projection ASTs, bind-parameter
  values, and (for partial aggregation) the GROUP BY / aggregate
  expression ASTs.  Workers re-compile the expressions locally with
  :func:`repro.engine.expr_compile.compile_row_expr`, so no closures or
  locks ever cross the process boundary;
* the **snapshot slice** — the partition's visible ``(row_id, row)``
  pairs under the statement's snapshot horizon.  Slices ship at most
  once per ``(table, partition, catalog version, horizon)`` key and are
  cached worker-side; small slices travel inline over the pipe, large
  ones via :mod:`multiprocessing.shared_memory` (XADT payloads make
  rows wide).  Everything is serialized with pickle protocol 5;
* the **worker lifecycle** — fork-started daemons on per-worker duplex
  pipes, strict request/reply (at most one outstanding fragment per
  worker, so pipes cannot deadlock), death detection while gathering,
  respawn on the next dispatch;
* :func:`execute_fragment` — the fragment interpreter itself, shared by
  the worker child and the coordinator's inline-degradation path so a
  fragment computes identical results wherever it runs;
* **retry** — a failed fragment is re-dispatched under the shared
  :class:`~repro.retry.RetryPolicy` (DESIGN.md §9): transient failures
  (a killed worker, an injected fault) retry with jittered exponential
  backoff, everything else surfaces immediately.

The ``worker.crash`` fault site fires coordinator-side at each
dispatch; when it raises, the pool terminates the target worker before
surfacing a :class:`~repro.errors.WorkerError`, so chaos plans exercise
the real respawn + slice-reship path, not a simulation of it.
"""

from __future__ import annotations

import gc
import pickle
import signal
from multiprocessing import get_context
from multiprocessing import shared_memory
from operator import itemgetter
from types import SimpleNamespace
from typing import Callable, Iterable

from repro.engine.expr import Binding, Slot
from repro.engine.expr_compile import compile_row_expr
from repro.engine.faults import FAULTS
from repro.engine.io import IoCounters, work_counters
from repro.engine.snapshot import activate, current_context, deactivate
from repro.engine.udf import FunctionRegistry
from repro.engine.values import batch_group_keys
from repro.errors import (
    ConfigError,
    ExecutionError,
    FaultInjected,
    WorkerError,
)
from repro.obs.metrics import METRICS
from repro.retry import RetryPolicy

#: batch serialization format for tasks, slices, and replies
PICKLE_PROTOCOL = 5
#: slices at least this large ship via shared memory, not the pipe
SHM_THRESHOLD = 256 * 1024

_TASKS = METRICS.counter("exchange.tasks")
_RETRIES = METRICS.counter("exchange.retries")
_INLINE_FALLBACKS = METRICS.counter("exchange.inline_fallbacks")
_RESPAWNS = METRICS.counter("exchange.worker_respawns")
_SLICES_SHIPPED = METRICS.counter("exchange.slices_shipped")
_SLICE_BYTES = METRICS.counter("exchange.slice_bytes")


# ---------------------------------------------------------------------------
# the fragment interpreter (runs in workers and in the inline fallback)
# ---------------------------------------------------------------------------


# Per-kind accumulator updates for one non-NULL value.  ``HashAggregate``
# binds one per aggregate and applies it column by column; the fragment
# interpreter goes through ``PartialAgg.add``.


def _add_count(acc: "PartialAgg", value: object) -> None:
    acc.count += 1


def _add_total(acc: "PartialAgg", value: object) -> None:
    if not isinstance(value, (int, float)):
        raise ExecutionError(f"{acc.kind.upper()} over non-numeric {value!r}")
    acc.count += 1
    acc.total += value


def _add_min(acc: "PartialAgg", value: object) -> None:
    acc.count += 1
    if acc.best is None or value < acc.best:  # type: ignore[operator]
        acc.best = value


def _add_max(acc: "PartialAgg", value: object) -> None:
    acc.count += 1
    if acc.best is None or value > acc.best:  # type: ignore[operator]
        acc.best = value


AGG_UPDATES = {
    "count": _add_count,
    "sum": _add_total,
    "avg": _add_total,
    "min": _add_min,
    "max": _add_max,
}


class PartialAgg:
    """Mergeable accumulator state for one non-DISTINCT aggregate.

    The one accumulator of the engine: ``HashAggregate`` extends it with
    a DISTINCT set, the coordinator applies ``merge`` across partitions.
    DISTINCT aggregates are never pushed down, so no distinct-set state
    crosses a worker boundary.
    """

    __slots__ = ("kind", "count", "total", "best")

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.count = 0
        self.total: float | int = 0
        self.best: object = None

    def add(self, value: object) -> None:
        if value is not None:
            AGG_UPDATES[self.kind](self, value)

    def dump(self) -> tuple:
        return (self.count, self.total, self.best)

    def merge(self, state: tuple) -> None:
        count, total, best = state
        self.count += count
        self.total += total
        if best is not None:
            if self.best is None:
                self.best = best
            elif self.kind == "min" and best < self.best:  # type: ignore[operator]
                self.best = best
            elif self.kind == "max" and best > self.best:  # type: ignore[operator]
                self.best = best

    def result(self) -> object:
        kind = self.kind
        if kind == "count":
            return self.count
        if kind == "sum":
            return self.total if self.count else None
        if kind == "avg":
            return (self.total / self.count) if self.count else None
        return self.best


def _full_binding(schema, alias: str) -> Binding:
    qualifier = alias.lower()
    return Binding(
        [Slot(qualifier, c.name, c.sql_type) for c in schema.columns]
    )


def row_picker(projection: list[int] | None):
    """A row → pruned-tuple function for a pushed-down column list."""
    if projection is None:
        return None
    if not projection:
        return lambda row: ()
    if len(projection) == 1:
        index = projection[0]
        return lambda row: (row[index],)
    return itemgetter(*projection)


def worker_registry() -> FunctionRegistry:
    """A fresh registry with the XADT method suite, for one worker."""
    from repro.xadt.register import register_xadt_functions

    registry = FunctionRegistry()
    register_xadt_functions(SimpleNamespace(registry=registry))
    return registry


def execute_fragment(
    task: dict, pairs: list[tuple[int, tuple]], registry: FunctionRegistry
) -> object:
    """Run one partition fragment over ``pairs`` = ``[(row_id, row), ...]``.

    The predicate compiles against the full storage-row binding and the
    projection prunes afterwards — the same contract as ``SeqScan`` — so
    partitioned and unpartitioned execution see identical row streams.
    A pushed-down SELECT list (``task["project"]``, expression ASTs over
    the pruned binding) then evaluates per row exactly as the ``Project``
    operator would.  Returns ``[(row_id, out_row), ...]`` for scan
    fragments, or a ``{group_key: (raw_key, first_row_id, [state, ...])}``
    dict for partial-aggregation fragments.  Charges the work counters
    the inline operators would.
    """
    work = work_counters().work
    work["scan_rows"] += len(pairs)
    schema = task["schema"]
    binding = _full_binding(schema, task["alias"])
    params = SimpleNamespace(values=tuple(task["params"]))
    predicate = task["predicate"]
    if predicate is not None:
        fn = compile_row_expr(predicate, binding, registry, params)
        pairs = [(rid, row) for rid, row in pairs if fn(row)]
    projection = task["projection"]
    pick = row_picker(projection)
    out_binding = (
        binding
        if projection is None
        else Binding([binding.slots[i] for i in projection])
    )
    if pick is not None:
        pairs = [(rid, pick(row)) for rid, row in pairs]
    if task["kind"] == "scan":
        project = task.get("project")
        if project is not None:
            work["operator_rows"] += len(pairs)
            fns = [
                compile_row_expr(expr, out_binding, registry, params)
                for expr in project
            ]
            pairs = [
                (rid, tuple(fn(row) for fn in fns)) for rid, row in pairs
            ]
        return pairs

    group_fns = [
        compile_row_expr(expr, out_binding, registry, params)
        for expr in task["group"]
    ]
    agg_fns = [
        (
            kind,
            compile_row_expr(arg, out_binding, registry, params)
            if arg is not None
            else None,
        )
        for kind, arg in task["aggs"]
    ]
    work["group_rows"] += len(pairs)
    groups: dict[tuple, tuple[tuple, int, list[PartialAgg]]] = {}
    raw_keys = [tuple([fn(out) for fn in group_fns]) for _, out in pairs]
    keys = batch_group_keys(raw_keys, True)
    for (rid, out), raw_key, key in zip(pairs, raw_keys, keys):
        entry = groups.get(key)
        if entry is None:
            entry = (raw_key, rid, [PartialAgg(kind) for kind, _ in agg_fns])
            groups[key] = entry
        for (kind, fn), accumulator in zip(agg_fns, entry[2]):
            if fn is None:  # COUNT(*)
                accumulator.count += 1
            else:
                accumulator.add(fn(out))
    return {
        key: (raw_key, first_rid, [acc.dump() for acc in accumulators])
        for key, (raw_key, first_rid, accumulators) in groups.items()
    }


def execute_lane_fragment(
    task: dict, pairs: list[tuple[int, tuple]], registry: FunctionRegistry
) -> tuple[object, dict[str, int]]:
    """:func:`execute_fragment` under counters of its own: returns
    ``(result, counted work)`` for the Exchange to book on the lane that
    ran it — a worker's, or the coordinator's on an inline fallback."""
    lane = IoCounters()
    context = current_context()  # None in a worker process
    token = activate(context and context.snapshot, lane, context and context.budget)
    try:
        result = execute_fragment(task, pairs, registry)
    finally:
        deactivate(token)
    return result, dict(lane.work)


# ---------------------------------------------------------------------------
# the worker child
# ---------------------------------------------------------------------------


def _attach_shm(name: str) -> shared_memory.SharedMemory:
    """Attach to a coordinator-created segment without tracker noise.

    Python 3.13+ takes ``track=False``; earlier interpreters register
    the attachment, which is harmless here because forked children share
    the coordinator's resource-tracker process (registration is a set
    add for an already-tracked name) and the coordinator's ``unlink()``
    after the reply performs the single unregister.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - interpreter-version dependent
        return shared_memory.SharedMemory(name=name)


def _load_slice(payload: tuple) -> list[tuple[int, tuple]]:
    if payload[0] == "inline":
        return pickle.loads(payload[1])
    _, name, nbytes = payload
    segment = _attach_shm(name)
    try:
        return pickle.loads(bytes(segment.buf[:nbytes]))
    finally:
        segment.close()


def _resolve_slice(task: dict, cache: dict) -> list[tuple[int, tuple]]:
    bucket = (task["table"], task["partition"])
    key = tuple(task["slice_key"])
    payload = task["slice"]
    if payload is not None:
        pairs = _load_slice(payload)
        cache[bucket] = (key, pairs)  # one cached slice per partition
        return pairs
    entry = cache.get(bucket)
    if entry is None or entry[0] != key:
        raise ExecutionError(f"worker missing snapshot slice for {key}")
    return entry[1]


def _worker_main(conn) -> None:
    """Fragment loop of one worker child: recv task, reply result."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # The fork inherits the coordinator's whole heap (catalog, loaded
    # tables, plan caches).  A gen-2 collection in the child would
    # traverse those millions of objects and dirty their copy-on-write
    # pages for nothing — fragments only allocate short-lived tuples —
    # so freeze the inherited heap and run without the cyclic collector.
    gc.freeze()
    gc.disable()
    registry = worker_registry()
    cache: dict = {}
    while True:
        try:
            payload = conn.recv_bytes()
        except (EOFError, OSError):
            break
        task = pickle.loads(payload)
        if task.get("op") == "stop":
            break
        seq = task.get("seq")
        try:
            pairs = _resolve_slice(task, cache)
            reply = ("ok", seq, *execute_lane_fragment(task, pairs, registry))
        except Exception as exc:
            reply = ("error", seq, f"{type(exc).__name__}: {exc}", None)
        try:
            conn.send_bytes(pickle.dumps(reply, protocol=PICKLE_PROTOCOL))
        except (BrokenPipeError, OSError):
            break
    conn.close()


# ---------------------------------------------------------------------------
# the coordinator-side pool
# ---------------------------------------------------------------------------


class _Worker:
    """One child process plus its pipe and shipped-slice bookkeeping."""

    __slots__ = ("process", "conn", "shipped", "pending_seq", "pending_ship",
                 "pending_shm")

    def __init__(self, ctx, index: int) -> None:
        parent, child = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main,
            args=(child,),
            daemon=True,
            name=f"repro-exchange-{index}",
        )
        self.process.start()
        child.close()
        self.conn = parent
        #: (table, partition) -> slice_key the worker holds
        self.shipped: dict[tuple, tuple] = {}
        self.pending_seq: int | None = None
        self.pending_ship: tuple | None = None
        self.pending_shm: shared_memory.SharedMemory | None = None


class WorkerPool:
    """A fixed-size pool of fragment workers with scatter-gather rounds.

    Strictly one outstanding fragment per worker: a round scatters at
    most one task to each worker, then gathers every reply, so the pipe
    protocol is pure request/reply and cannot deadlock on full buffers.
    Task failures — a worker-reported error, a dead process, an injected
    ``worker.crash`` — surface per task; the pool retries each under
    ``self.retry`` (respawning the worker, which forces a slice
    reship) and reports ``("failed", reason)`` only once the retry
    budget is spent, at which point the caller degrades that fragment to
    inline execution.
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ConfigError("worker pool size must be at least 1")
        self.size = size
        try:
            # start the shm resource tracker *before* forking, so every
            # worker inherits the coordinator's tracker instead of
            # spawning its own (a private child tracker would warn about
            # segments the coordinator already unlinked)
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - tracker is best-effort
            pass
        try:
            self._ctx = get_context("fork")
        except ValueError:  # pragma: no cover - non-posix fallback
            self._ctx = get_context()
        self._workers: list[_Worker | None] = [None] * size
        #: slots that have spawned at least once — a later spawn at such
        #: a slot is a *respawn* (the previous worker died or was killed)
        self._spawned = [False] * size
        self._seq = 0
        self._closed = False
        #: re-dispatch budget for a failed fragment: three more tries,
        #: ~20 ms then ~40 ms apart, before the caller degrades inline
        self.retry = RetryPolicy(attempts=3, base_delay=0.02)

    # -- lifecycle ---------------------------------------------------------

    def _ensure(self, index: int) -> _Worker:
        if self._closed:
            raise WorkerError("worker pool is closed")
        worker = self._workers[index]
        if worker is None or not worker.process.is_alive():
            if worker is not None:
                self._reap(index)
            if self._spawned[index]:
                _RESPAWNS.inc()
            worker = _Worker(self._ctx, index)
            self._workers[index] = worker
            self._spawned[index] = True
        return worker

    def _reap(self, index: int) -> None:
        """Tear down a (possibly dead) worker; next dispatch respawns."""
        worker = self._workers[index]
        if worker is None:
            return
        self._workers[index] = None
        self._discard_shm(worker)
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=5)

    def _kill(self, index: int) -> None:
        worker = self._workers[index]
        if worker is not None and worker.process.is_alive():
            worker.process.terminate()
        self._reap(index)

    def workers_alive(self) -> list[int]:
        """PIDs of currently live workers (chaos harness / sys view)."""
        return [
            w.process.pid
            for w in self._workers
            if w is not None and w.process.is_alive() and w.process.pid
        ]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for index, worker in enumerate(self._workers):
            if worker is None:
                continue
            try:
                worker.conn.send_bytes(
                    pickle.dumps({"op": "stop"}, protocol=PICKLE_PROTOCOL)
                )
            except (BrokenPipeError, OSError):
                pass
            self._discard_shm(worker)
            try:
                worker.conn.close()
            except OSError:
                pass
            worker.process.join(timeout=5)
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.terminate()
                worker.process.join(timeout=5)
            self._workers[index] = None

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass

    # -- dispatch ----------------------------------------------------------

    @staticmethod
    def _discard_shm(worker: _Worker) -> None:
        segment = worker.pending_shm
        worker.pending_shm = None
        if segment is None:
            return
        try:
            segment.close()
            segment.unlink()
        except FileNotFoundError:
            pass
        except OSError:  # pragma: no cover - already torn down
            pass

    def _dispatch(self, index: int, task: dict, provider: Callable) -> None:
        """Ship one fragment (and its slice, if the worker lacks it)."""
        worker = self._ensure(index)
        if FAULTS.active:
            try:
                FAULTS.fire("worker.crash")
            except FaultInjected as exc:
                # the fault models the worker dying at dispatch: kill it
                # for real so the retry exercises respawn + slice reship
                self._kill(index)
                raise WorkerError(str(exc)) from exc
        bucket = (task["table"], task["partition"])
        key = tuple(task["slice_key"])
        self._seq += 1
        message = dict(task)
        message["op"] = "task"
        message["seq"] = self._seq
        message["slice"] = None
        worker.pending_ship = None
        if worker.shipped.get(bucket) != key:
            blob = pickle.dumps(list(provider()), protocol=PICKLE_PROTOCOL)
            _SLICES_SHIPPED.inc()
            _SLICE_BYTES.inc(len(blob))
            if len(blob) >= SHM_THRESHOLD:
                segment = shared_memory.SharedMemory(
                    create=True, size=len(blob)
                )
                segment.buf[: len(blob)] = blob
                worker.pending_shm = segment
                message["slice"] = ("shm", segment.name, len(blob))
            else:
                message["slice"] = ("inline", blob)
            worker.pending_ship = (bucket, key)
        worker.pending_seq = self._seq
        _TASKS.inc()
        try:
            worker.conn.send_bytes(
                pickle.dumps(message, protocol=PICKLE_PROTOCOL)
            )
        except (BrokenPipeError, OSError) as exc:
            self._kill(index)
            raise WorkerError(f"exchange worker died at dispatch: {exc}") from exc

    def _collect(self, index: int) -> tuple[object, dict[str, int]]:
        """Receive the ``(result, counted work)`` reply for the worker's
        in-flight fragment."""
        worker = self._workers[index]
        if worker is None:
            raise WorkerError("exchange worker vanished before reply")
        try:
            try:
                while not worker.conn.poll(0.05):
                    if not worker.process.is_alive():
                        raise WorkerError(
                            "exchange worker died mid-fragment "
                            f"(pid {worker.process.pid})"
                        )
                payload = worker.conn.recv_bytes()
            except (EOFError, OSError) as exc:
                raise WorkerError(
                    f"exchange worker connection lost: {exc}"
                ) from exc
        except WorkerError:
            self._kill(index)
            raise
        finally:
            self._discard_shm(worker)
        status, seq, result, work = pickle.loads(payload)
        if seq != worker.pending_seq:  # pragma: no cover - protocol bug guard
            self._kill(index)
            raise WorkerError(
                f"exchange protocol desync (expected {worker.pending_seq}, "
                f"got {seq})"
            )
        # the reply acks slice receipt regardless of fragment outcome
        if worker.pending_ship is not None:
            bucket, key = worker.pending_ship
            worker.shipped[bucket] = key
            worker.pending_ship = None
        if status != "ok":
            raise WorkerError(f"exchange fragment failed in worker: {result}")
        return result, work

    def run_tasks(
        self, tasks: Iterable[tuple[dict, Callable]]
    ) -> list[tuple]:
        """Scatter-gather ``(task, slice_provider)`` pairs over the pool.

        Returns one ``("ok", result, counted work, lane)`` or
        ``("failed", reason, None, lane)`` outcome per task, in task
        order; ``lane`` is the worker slot the fragment ran on (the
        Exchange's overlap credit groups fragment work by lane).
        Each round scatters up to ``size`` tasks (one per worker) and
        gathers them; failed fragments retry serially under
        ``self.retry`` before degrading.
        """
        items = list(tasks)
        outcomes: list[tuple | None] = [None] * len(items)
        size = self.size
        for start in range(0, len(items), size):
            chunk = items[start : start + size]
            sent: list[tuple[int, int, WorkerError | None]] = []
            for offset, (task, provider) in enumerate(chunk):
                position = start + offset
                index = offset % size
                try:
                    self._dispatch(index, task, provider)
                    sent.append((position, index, None))
                except WorkerError as exc:
                    sent.append((position, index, exc))
            for position, index, error in sent:
                task, provider = items[position]
                if error is None:
                    try:
                        outcomes[position] = ("ok", *self._collect(index), index)
                        continue
                    except WorkerError as exc:
                        error = exc

                def attempt(index=index, task=task, provider=provider):
                    _RETRIES.inc()
                    self._dispatch(index, task, provider)
                    return self._collect(index)

                try:
                    outcomes[position] = ("ok", *self.retry.run(attempt), index)
                except WorkerError as exc:
                    _INLINE_FALLBACKS.inc()
                    outcomes[position] = (
                        "failed", f"{error}; then {exc}", None, index
                    )
        return outcomes  # type: ignore[return-value]


__all__ = [
    "PICKLE_PROTOCOL",
    "PartialAgg",
    "SHM_THRESHOLD",
    "WorkerPool",
    "execute_fragment",
    "execute_lane_fragment",
    "worker_registry",
]
