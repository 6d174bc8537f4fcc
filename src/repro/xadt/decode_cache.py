"""Byte-bounded LRU memoization of decoded XADT fragments.

The XADT methods (``getElm``/``findKeyInElm``/``getElmIndex``) scan a
fragment's tagged text; for the ``dict`` codec that would mean running
the XMill-style decompressor and the serializer on every call, and for
the ``indexed`` codec rebuilding the element-span directory whenever a
value is reconstructed (e.g. unpickled, or read back by WAL replay).
QS/QG workloads touch the same fragments query after query, so this
module keeps recently decoded artifacts — a dict payload's tagged text,
an indexed payload's directory, a ``findKeyInElm`` verdict — in a
process-wide LRU keyed on *fragment identity*: the payload content
itself, which is stable no matter how many
:class:`~repro.xadt.fragment.XadtValue` instances wrap it.  Fragments a
method *returns* are never cached: every call scans.

The cache is bounded by an approximate byte budget (the in-memory size
of the cached artifact, not the encoded payload), evicts least recently
used entries when over budget, and refuses oversized single entries
outright.  Correctness is cache-independent: entries are immutable
(strings, ints) or never mutated by consumers (directories), and the
budget only affects how much decoding is repeated, never the result.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.obs.metrics import METRICS

#: default budget: enough for the benchmark corpora's hot fragments
DEFAULT_BUDGET_BYTES = 8 * 1024 * 1024

#: per-entry bookkeeping overhead charged on top of the payload estimate
_ENTRY_OVERHEAD = 64


@dataclass
class DecodeCacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    oversize_rejections: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.oversize_rejections = 0


class DecodeCache:
    """LRU map from fragment identity to a decoded artifact.

    Keys are ``(kind, payload)`` tuples — ``kind`` separates the decoded
    text of dict payloads from the span directories of indexed
    payloads, so the two artifact families never alias.
    """

    def __init__(self, budget_bytes: int = DEFAULT_BUDGET_BYTES) -> None:
        if budget_bytes < 0:
            raise ConfigError("decode cache budget cannot be negative")
        self.budget_bytes = budget_bytes
        self.enabled = True
        self.stats = DecodeCacheStats()
        self.current_bytes = 0
        self._entries: "OrderedDict[tuple, tuple[object, int]]" = OrderedDict()
        #: the cache is process-wide and hit from every reader thread;
        #: LRU reordering + byte accounting must be atomic per operation
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> object | None:
        if not self.enabled:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry[0]

    def put(self, key: tuple, value: object, cost_bytes: int) -> None:
        if not self.enabled:
            return
        cost = cost_bytes + _ENTRY_OVERHEAD
        with self._lock:
            if cost > self.budget_bytes:
                self.stats.oversize_rejections += 1
                return
            old = self._entries.pop(key, None)
            if old is not None:
                self.current_bytes -= old[1]
            self._entries[key] = (value, cost)
            self.current_bytes += cost
            while self.current_bytes > self.budget_bytes and self._entries:
                _, (_, evicted_cost) = self._entries.popitem(last=False)
                self.current_bytes -= evicted_cost
                self.stats.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.current_bytes = 0

    def configure(
        self,
        budget_bytes: int | None = None,
        enabled: bool | None = None,
    ) -> None:
        """Resize and/or toggle the cache; shrinking evicts immediately."""
        if enabled is not None:
            self.enabled = enabled
            if not enabled:
                self.clear()
        if budget_bytes is not None:
            if budget_bytes < 0:
                raise ConfigError("decode cache budget cannot be negative")
            with self._lock:
                self.budget_bytes = budget_bytes
                while self.current_bytes > self.budget_bytes and self._entries:
                    _, (_, evicted_cost) = self._entries.popitem(last=False)
                    self.current_bytes -= evicted_cost
                    self.stats.evictions += 1

    def report(self) -> dict[str, object]:
        return {
            "hits": self.stats.hits,
            "misses": self.stats.misses,
            "evictions": self.stats.evictions,
            "oversize_rejections": self.stats.oversize_rejections,
            "hit_rate": round(self.stats.hit_rate, 4),
            "entries": len(self._entries),
            "current_bytes": self.current_bytes,
            "budget_bytes": self.budget_bytes,
            "enabled": self.enabled,
        }


#: the process-wide cache instance all XADT decoding goes through
DECODE_CACHE = DecodeCache()

#: flat cost charged for a memoized predicate verdict (small int + key)
PREDICATE_ENTRY_BYTES = 48


def memoize_predicate(kind: str, payload: object, args: tuple, compute, *compute_args):
    """Memoize a per-fragment predicate verdict (e.g. findKeyInElm).

    Keys on fragment identity (the payload content) plus the predicate's
    arguments, so repeated scans of the same document with the same
    search terms — the shape of every Fig11/Fig13 XADT filter — skip the
    span walk.  ``kind`` names the predicate; only scanned verdicts are
    memoized (a directory's probe never is), so nothing else can change
    a payload's verdict.  Verdicts are tiny, so the byte budget charges
    a flat :data:`PREDICATE_ENTRY_BYTES` per entry.
    ``compute(*compute_args)`` runs only on a miss; its result must
    never be None (the miss sentinel).
    """
    key = (kind, payload, *args)
    cached = DECODE_CACHE.get(key)
    if cached is not None:
        return cached
    result = compute(*compute_args)
    DECODE_CACHE.put(key, result, PREDICATE_ENTRY_BYTES)
    return result


def _collect_metrics() -> dict[str, float]:
    """Snapshot-time contribution to the process metrics registry.

    Pull-based (a collector, not per-event counters) so cache traffic
    pays no instrumentation cost beyond its own stats bookkeeping.
    """
    stats = DECODE_CACHE.stats
    return {
        "xadt.decode_cache.hits": stats.hits,
        "xadt.decode_cache.misses": stats.misses,
        "xadt.decode_cache.evictions": stats.evictions,
        "xadt.decode_cache.oversize_rejections": stats.oversize_rejections,
        "xadt.decode_cache.entries": len(DECODE_CACHE),
        "xadt.decode_cache.current_bytes": DECODE_CACHE.current_bytes,
    }


METRICS.register_collector("xadt.decode_cache", _collect_metrics)


__all__ = [
    "DECODE_CACHE",
    "DEFAULT_BUDGET_BYTES",
    "DecodeCache",
    "DecodeCacheStats",
    "PREDICATE_ENTRY_BYTES",
    "memoize_predicate",
]
