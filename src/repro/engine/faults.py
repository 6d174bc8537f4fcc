"""Deterministic fault injection at named engine sites.

Chaos tests need to fail the engine *inside* its real code paths — not
by monkeypatching internals, which silently drifts from the code it
claims to test.  The engine therefore calls :func:`fire` at a small set
of named sites on its hot paths:

=================  ====================================================
site               fires
=================  ====================================================
``wal.append``     per record appended to the write-ahead log
``wal.fsync``      per WAL fsync (group-commit boundary)
``heap.store_row`` per row stored by :meth:`HeapTable._store_row`
                   or :meth:`HeapTable._store_batch`, before the point
                   of no return
``index.publish``  per snapshot publication, before index finalize
``xadt.decode``    per compressed (dict-codec) fragment decode
``io.charge``      per modelled-I/O charge through the
                   :class:`~repro.engine.io.IoRouter`
``xadt.index_build``  per structural-index build of one fragment
                   (:meth:`~repro.xadt.structural_index.StructuralIndexStore.ingest_rows`)
``server.accept``  per TCP connection accepted by the network
                   front-end (a raise drops the connection before the
                   handshake; the accept loop must survive)
``server.read``    per wire frame read from a client (a raise models
                   the peer vanishing mid-request)
``server.write``   per response frame written to a client (a raise
                   drops the connection mid-result-stream)
``server.session_evict``  per session-pool sweep; a raise makes the
                   pool kill one in-use session, modelling a pooled
                   session dying under a live request
=================  ====================================================

When no plan is installed the cost at each site is one module-attribute
load and one branch (``if FAULTS.active:``) — the same discipline the
metrics registry uses.

A :class:`FaultPlan` is *deterministic*: rules either trigger on exact
hit counts (``crash_at(site, hit=3)`` fires on the third visit) or via
a seeded RNG (``raise_at(site, probability=0.25, seed=...)``), so a
failing chaos run reproduces from its seed.  Three actions exist:

* ``raise`` — raise :class:`~repro.errors.FaultInjected` (a
  :class:`~repro.errors.TransientError`; the retry layer may absorb it);
* ``crash`` — raise :class:`~repro.errors.CrashPoint` (a
  ``BaseException`` modelling process death; only a chaos harness that
  abandons the engine and recovers from the WAL may catch it);
* ``delay`` — sleep a fixed number of seconds (for governor-timeout and
  backoff tests).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from random import Random

from repro.errors import ConfigError, CrashPoint, FaultInjected
from repro.obs.metrics import METRICS

#: the engine's named injection sites (fire() rejects unknown names)
SITES = (
    "wal.append",
    "wal.fsync",
    "heap.store_row",
    "index.publish",
    "xadt.decode",
    "io.charge",
    "xadt.index_build",
    "worker.crash",
    "server.accept",
    "server.read",
    "server.write",
    "server.session_evict",
)

_INJECTED = METRICS.counter("faults.injected")
_CRASHES = METRICS.counter("faults.crashes")
_DELAYS = METRICS.counter("faults.delays")


@dataclass
class FaultRule:
    """One site's trigger: exact hit numbers and/or seeded probability."""

    site: str
    action: str                    #: "raise" | "crash" | "delay"
    hits: frozenset[int] = frozenset()   #: exact 1-based hit numbers
    probability: float = 0.0       #: per-hit chance when ``hits`` empty
    times: int | None = None       #: max triggers (None = unlimited)
    seconds: float = 0.0           #: sleep length for "delay"
    triggered: int = field(default=0, compare=False)

    def should_trigger(self, hit: int, rng: Random) -> bool:
        if self.times is not None and self.triggered >= self.times:
            return False
        if self.hits:
            return hit in self.hits
        return rng.random() < self.probability


class FaultPlan:
    """A seeded, reusable set of fault rules keyed by site."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = Random(seed)
        self._rules: dict[str, list[FaultRule]] = {}
        self._hits: dict[str, int] = {}
        #: concurrent readers hit the same sites; exact-hit rules must
        #: trigger exactly once even when threads race on the counter
        self._fire_lock = threading.Lock()

    # -- building ----------------------------------------------------------

    def _add(self, rule: FaultRule) -> "FaultPlan":
        if rule.site not in SITES:
            raise ConfigError(
                f"unknown fault site {rule.site!r}; sites are {SITES}"
            )
        self._rules.setdefault(rule.site, []).append(rule)
        return self

    def crash_at(self, site: str, hit: int = 1) -> "FaultPlan":
        """Simulate process death on the ``hit``-th visit to ``site``."""
        return self._add(FaultRule(site, "crash", hits=frozenset({hit})))

    def raise_at(
        self,
        site: str,
        hit: int | None = None,
        probability: float = 0.0,
        times: int | None = None,
    ) -> "FaultPlan":
        """Raise a transient :class:`FaultInjected` at ``site``.

        Either pin an exact ``hit`` number, or give a per-hit
        ``probability`` (seeded; optionally capped by ``times``).
        """
        hits = frozenset() if hit is None else frozenset({hit})
        return self._add(
            FaultRule(site, "raise", hits=hits,
                      probability=probability, times=times)
        )

    def delay_at(
        self,
        site: str,
        seconds: float,
        times: int | None = None,
        probability: float = 1.0,
    ) -> "FaultPlan":
        """Sleep ``seconds`` at every (or a sampled subset of) visit."""
        return self._add(
            FaultRule(site, "delay", probability=probability,
                      times=times, seconds=seconds)
        )

    # -- firing ------------------------------------------------------------

    def fire(self, site: str) -> None:
        sleep_for = 0.0
        with self._fire_lock:
            rules = self._rules.get(site)
            hit = self._hits.get(site, 0) + 1
            self._hits[site] = hit
            if not rules:
                return
            for rule in rules:
                if not rule.should_trigger(hit, self._rng):
                    continue
                rule.triggered += 1
                if rule.action == "crash":
                    _CRASHES.inc()
                    raise CrashPoint(site)
                if rule.action == "raise":
                    _INJECTED.inc()
                    raise FaultInjected(site)
                _DELAYS.inc()
                sleep_for += rule.seconds
        if sleep_for > 0:  # sleep outside the lock: delays may overlap
            time.sleep(sleep_for)

    def hits(self, site: str) -> int:
        """How many times ``site`` has fired under this plan."""
        return self._hits.get(site, 0)

    def report(self) -> dict[str, object]:
        return {
            "seed": self.seed,
            "hits": dict(self._hits),
            "rules": [
                {
                    "site": rule.site,
                    "action": rule.action,
                    "triggered": rule.triggered,
                }
                for rules in self._rules.values()
                for rule in rules
            ],
        }


class FaultInjector:
    """Process-wide injection switchboard the engine sites consult.

    ``active`` is a plain attribute so the disabled fast path at every
    site is one load and one branch; installing/clearing a plan flips it
    under a lock.  ``fire`` delegates to the installed plan — hit
    counting is plan-owned, so one plan driven across several engine
    instances (a chaos harness crashing and recovering repeatedly) keeps
    one deterministic hit sequence.
    """

    def __init__(self) -> None:
        self.active = False
        self._plan: FaultPlan | None = None
        self._lock = threading.Lock()

    def install(self, plan: FaultPlan) -> FaultPlan:
        with self._lock:
            self._plan = plan
            self.active = True
        return plan

    def clear(self) -> None:
        with self._lock:
            self._plan = None
            self.active = False

    @property
    def plan(self) -> FaultPlan | None:
        return self._plan

    def fire(self, site: str) -> None:
        plan = self._plan
        if plan is not None:
            plan.fire(site)


#: the process-wide injector every instrumented site consults
FAULTS = FaultInjector()


__all__ = [
    "FAULTS",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "SITES",
]
