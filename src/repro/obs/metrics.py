"""Process-wide metrics registry: counters, gauges, and histograms.

Every subsystem of the engine reports into one shared
:class:`MetricsRegistry` (module singleton :data:`METRICS`), the way a
production DBMS exposes its monitor switches: the plan cache counts
hits/misses/evictions, the UDF dispatcher counts invocations and
latencies per fencing mode, the storage layer counts rows and pages
written, the I/O model counts pages charged, and the database facade
records a latency histogram per statement kind.

Two overhead disciplines keep the instrumentation out of the hot path's
way (DESIGN.md records the guarantee; ``benchmarks/
bench_observability_overhead.py`` enforces it):

* *event* instruments (``Counter.inc`` / ``Histogram.observe`` /
  ``observe_many``) check
  the registry's ``enabled`` flag first and no-op when metrics are off —
  the disabled cost is one attribute load and one branch;
* *state* that some other component already tracks (the XADT decode
  cache, table sizes) is pulled at snapshot time through registered
  *collectors* rather than pushed per event, so it costs nothing while
  queries run.

Histograms use fixed bucket boundaries (Prometheus ``le`` semantics: a
value lands in the first bucket whose upper bound is >= the value, with
one overflow bucket past the last boundary), so snapshots are mergeable
and bounded in size.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from typing import Callable

from repro.errors import ConfigError

#: default latency boundaries in seconds (100 us .. 5 s, log-ish spacing)
DEFAULT_LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


class Counter:
    """A monotonically increasing count.

    ``inc`` locks only when metrics are enabled — ``+=`` on an attribute
    is read-modify-write and loses updates under concurrent readers; the
    disabled path stays one attribute load and one branch.
    """

    __slots__ = ("name", "value", "_registry", "_lock")

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self.value = 0
        self._registry = registry
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if self._registry.enabled:
            with self._lock:
                self.value += amount

    def reset(self) -> None:
        self.value = 0


class Gauge:
    """A point-in-time value (set, not accumulated)."""

    __slots__ = ("name", "value", "_registry")

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self.value: float = 0.0
        self._registry = registry

    def set(self, value: float) -> None:
        if self._registry.enabled:
            self.value = value

    def reset(self) -> None:
        self.value = 0.0


class Histogram:
    """Fixed-bucket histogram with ``le`` (upper-bound) semantics.

    ``counts`` has ``len(buckets) + 1`` cells; the last is the overflow
    bucket for observations above every boundary.
    """

    __slots__ = (
        "name", "buckets", "counts", "sum", "count", "_registry", "_lock",
    )

    def __init__(
        self,
        name: str,
        registry: "MetricsRegistry",
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ConfigError("histogram buckets must be sorted and non-empty")
        self.name = name
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0
        self._registry = registry
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        if not self._registry.enabled:
            return
        with self._lock:
            self.counts[bisect_left(self.buckets, value)] += 1
            self.sum += value
            self.count += 1

    def observe_many(self, value: float, n: int) -> None:
        """``n`` observations of ``value`` under one lock.

        For a caller that timed ``n`` events together and reports their
        mean: ``count`` and ``sum`` stay exact, and all ``n`` land in the
        mean's bucket.
        """
        if not self._registry.enabled:
            return
        with self._lock:
            self.counts[bisect_left(self.buckets, value)] += n
            self.sum += value * n
            self.count += n

    def reset(self) -> None:
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile from bucket upper bounds.

        Reports the boundary of the bucket holding the target rank
        (overflow observations report the last boundary) — the same
        upper-bound estimate Prometheus' ``histogram_quantile`` would
        give for these fixed buckets.
        """
        if self.count == 0:
            return 0.0
        target = q * self.count
        running = 0
        for index, cell in enumerate(self.counts):
            running += cell
            if running >= target:
                return self.buckets[min(index, len(self.buckets) - 1)]
        return self.buckets[-1]

    def as_dict(self) -> dict[str, object]:
        cumulative: list[int] = []
        running = 0
        for cell in self.counts:
            running += cell
            cumulative.append(running)
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            # cumulative[i] = observations <= buckets[i]; the final cell is
            # the +Inf bucket and always equals ``count``
            "cumulative": cumulative,
            "sum": self.sum,
            "count": self.count,
        }


class MetricsRegistry:
    """Name -> instrument registry with snapshot/JSON export."""

    def __init__(self) -> None:
        #: master switch; when False every inc/set/observe is a no-op
        self.enabled = True
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._collectors: dict[str, Callable[[], dict[str, float]]] = {}
        #: guards get-or-create races on the instrument dicts (two threads
        #: registering the same name must resolve to one instrument)
        self._create_lock = threading.Lock()

    # -- instrument creation (idempotent by name) -------------------------

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            with self._create_lock:
                instrument = self._counters.get(name)
                if instrument is None:
                    instrument = self._counters[name] = Counter(name, self)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            with self._create_lock:
                instrument = self._gauges.get(name)
                if instrument is None:
                    instrument = self._gauges[name] = Gauge(name, self)
        return instrument

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            with self._create_lock:
                instrument = self._histograms.get(name)
                if instrument is None:
                    instrument = self._histograms[name] = Histogram(
                        name, self, buckets
                    )
        return instrument

    def register_collector(
        self, name: str, fn: Callable[[], dict[str, float]]
    ) -> None:
        """Pull-based source: ``fn`` contributes gauges at snapshot time.

        ``fn`` returns a flat metric-name -> number mapping; re-registering
        under the same ``name`` replaces the previous collector.
        """
        self._collectors[name] = fn

    # -- reading ----------------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        """A JSON-serializable view of every instrument and collector.

        Counter values and histogram cells are read under each
        instrument's own lock in one pass, so a snapshot taken while
        writers are active never sees a histogram whose ``sum`` and
        ``counts`` disagree.  Collector callbacks are isolated: one that
        raises degrades to a ``collector.<name>.error`` gauge plus an
        entry in ``collector_errors`` instead of breaking the snapshot.
        """
        counters: dict[str, int] = {}
        for name, counter in sorted(self._counters.items()):
            with counter._lock:
                counters[name] = counter.value
        gauges = {name: g.value for name, g in sorted(self._gauges.items())}
        collector_errors: dict[str, str] = {}
        for cname, fn in sorted(self._collectors.items()):
            try:
                values = fn()
            except Exception as exc:  # noqa: BLE001 - isolation is the point
                gauges[f"collector.{cname}.error"] = 1.0
                collector_errors[cname] = f"{type(exc).__name__}: {exc}"
                continue
            for name, value in values.items():
                gauges[name] = value
        histograms: dict[str, object] = {}
        for name, histogram in sorted(self._histograms.items()):
            with histogram._lock:
                histograms[name] = histogram.as_dict()
        return {
            "enabled": self.enabled,
            "counters": counters,
            "gauges": dict(sorted(gauges.items())),
            "histograms": histograms,
            "collector_errors": collector_errors,
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.snapshot(), indent=indent)

    def entry_count(self) -> int:
        """Registered instruments + collectors (for size accounting)."""
        return (
            len(self._counters)
            + len(self._gauges)
            + len(self._histograms)
            + len(self._collectors)
        )

    # -- maintenance ------------------------------------------------------

    def reset(self, prefix: str = "") -> None:
        """Zero every instrument whose name starts with ``prefix``.

        The empty prefix resets everything.  Instruments stay registered
        (callers hold direct references to them).
        """
        for group in (self._counters, self._gauges, self._histograms):
            for name, instrument in group.items():
                if name.startswith(prefix):
                    instrument.reset()


#: the process-wide registry every engine subsystem reports into
METRICS = MetricsRegistry()


__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "METRICS",
    "MetricsRegistry",
]
