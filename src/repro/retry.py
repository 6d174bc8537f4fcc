"""The one retry substrate: bounded, transient-only, seeded jitter.

:class:`RetryPolicy` is shared by everything that re-attempts work
(DESIGN.md §9): today that is the bundled wire client re-sending a
request (:mod:`repro.server.client`).  The rules are:

* only :class:`~repro.errors.TransientError` is retried — a fatal error
  would fail identically, so it surfaces on its first occurrence;
* ``attempts`` bounds the *calls*, first try included;
* the sleep before retry *n* is ``base_delay * multiplier**(n-1)``
  capped at ``max_delay``, jittered 0.5x..1.5x from a
  :class:`random.Random` seeded per policy, so a failing chaos run
  replays the exact same backoff schedule;
* an error carrying a ``retry_after`` hint (a shedding server knows its
  queue depth better than our curve) raises the sleep to at least that.

This module imports nothing but :mod:`repro.errors`, so both the engine
and the network front-end can depend on it.
"""

from __future__ import annotations

import time
from random import Random
from typing import Callable, TypeVar

from repro.errors import ConfigError, is_transient

T = TypeVar("T")


class RetryPolicy:
    """Jittered exponential backoff with a deterministic seed."""

    def __init__(
        self,
        attempts: int = 5,
        base_delay: float = 0.02,
        max_delay: float = 1.0,
        multiplier: float = 2.0,
        seed: int = 0,
    ) -> None:
        if attempts < 1:
            raise ConfigError(f"attempts must be >= 1, got {attempts!r}")
        if base_delay < 0 or max_delay < 0:
            raise ConfigError("retry delays cannot be negative")
        if multiplier < 1:
            raise ConfigError(f"multiplier must be >= 1, got {multiplier!r}")
        self.attempts = attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.multiplier = multiplier
        self._rng = Random(seed)

    def delay(self, attempt: int, hint: float | None = None) -> float:
        """Sleep length before retry number ``attempt`` (1-based)."""
        backoff = min(
            self.max_delay,
            self.base_delay * (self.multiplier ** (attempt - 1)),
        )
        jittered = backoff * (0.5 + self._rng.random())  # 0.5x..1.5x
        if hint is not None:
            return max(hint, jittered)
        return jittered

    def run(
        self,
        fn: Callable[[], T],
        on_retry: Callable[[int, BaseException], None] | None = None,
    ) -> T:
        """Call ``fn`` until it returns, retrying transient failures.

        ``on_retry(attempt, exc)`` sees every absorbed error before the
        backoff sleep (callers count retries there); the error that
        ends the loop — fatal, or transient on the last attempt —
        propagates unchanged.
        """
        attempt = 0
        while True:
            attempt += 1
            try:
                return fn()
            except Exception as exc:
                if attempt >= self.attempts or not is_transient(exc):
                    raise
                if on_retry is not None:
                    on_retry(attempt, exc)
                pause = self.delay(attempt, getattr(exc, "retry_after", None))
                if pause > 0:
                    time.sleep(pause)


__all__ = ["RetryPolicy"]
