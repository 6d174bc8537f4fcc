"""The one retry substrate (``repro.retry.RetryPolicy``), unit by unit.

The wire client gets its retry loop from ``RetryPolicy.run``, so the
contract is pinned once, here: transient-only, bounded, seeded,
``retry_after`` as a floor, every absorbed error visible to
``on_retry``.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro import retry
from repro.errors import (
    ConfigError,
    ExecutionError,
    FaultInjected,
    Overloaded,
    TransientError,
)
from repro.retry import RetryPolicy


@pytest.fixture()
def sleeps(monkeypatch):
    """Record the policy's sleeps instead of taking them."""
    taken: list[float] = []
    monkeypatch.setattr(retry, "time", SimpleNamespace(sleep=taken.append))
    return taken


def failing(errors):
    """A callable raising ``errors`` in turn, then returning "done"."""
    pending = list(errors)
    calls = []

    def fn():
        calls.append(len(calls) + 1)
        if pending:
            raise pending.pop(0)
        return "done"

    fn.calls = calls
    return fn


class TestValidation:
    def test_bad_retry_settings_rejected(self):
        for bad in (
            {"attempts": 0},
            {"base_delay": -0.5},
            {"max_delay": -1.0},
            {"multiplier": 0.5},
        ):
            with pytest.raises(ConfigError):
                RetryPolicy(**bad)

    def test_zero_delay_policy_never_sleeps(self, sleeps):
        fn = failing([TransientError("a"), TransientError("b")])
        assert RetryPolicy(attempts=3, base_delay=0.0).run(fn) == "done"
        assert sleeps == []


class TestRun:
    def test_fatal_errors_are_never_retried(self, sleeps):
        fn = failing([ExecutionError("same again next time")])
        absorbed = []
        with pytest.raises(ExecutionError):
            RetryPolicy(attempts=5).run(
                fn, on_retry=lambda attempt, exc: absorbed.append(exc)
            )
        assert fn.calls == [1]
        assert absorbed == [] and sleeps == []

    def test_non_repro_exceptions_propagate_at_once(self, sleeps):
        fn = failing([KeyError("bug")])
        with pytest.raises(KeyError):
            RetryPolicy(attempts=5).run(fn)
        assert fn.calls == [1]

    def test_at_most_attempts_calls(self, sleeps):
        fn = failing([TransientError(str(i)) for i in range(10)])
        with pytest.raises(TransientError) as raised:
            RetryPolicy(attempts=4).run(fn)
        assert fn.calls == [1, 2, 3, 4]
        # the error that ends the loop is the last attempt's own
        assert str(raised.value) == "3"
        assert len(sleeps) == 3

    def test_on_retry_sees_every_absorbed_error(self, sleeps):
        errors = [TransientError("a"), FaultInjected("b")]
        seen = []
        result = RetryPolicy(attempts=3).run(
            failing(errors),
            on_retry=lambda attempt, exc: seen.append((attempt, exc)),
        )
        assert result == "done"
        assert seen == [(1, errors[0]), (2, errors[1])]

    def test_same_seed_same_delay_schedule(self, sleeps):
        def schedule(seed):
            del sleeps[:]
            with pytest.raises(TransientError):
                RetryPolicy(attempts=6, seed=seed).run(
                    failing([TransientError("x")] * 6)
                )
            return list(sleeps)

        first = schedule(13)
        assert first == schedule(13)
        assert first != schedule(14)
        # jittered exponential: each sleep within 0.5x..1.5x of its step
        for step, pause in enumerate(first):
            backoff = min(1.0, 0.02 * 2.0**step)
            assert 0.5 * backoff <= pause <= 1.5 * backoff

    def test_max_delay_caps_the_backoff(self, sleeps):
        policy = RetryPolicy(attempts=8, base_delay=0.1, max_delay=0.2)
        with pytest.raises(TransientError):
            policy.run(failing([TransientError("x")] * 8))
        assert max(sleeps) <= 0.2 * 1.5

    def test_retry_after_hint_is_a_floor(self, sleeps):
        shed = Overloaded("queue full", retry_after=0.75)
        RetryPolicy(attempts=2, base_delay=0.01).run(failing([shed]))
        assert sleeps == [0.75]
        # ... a floor, not a replacement: a larger backoff still wins
        del sleeps[:]
        small = Overloaded("queue full", retry_after=0.001)
        RetryPolicy(attempts=2, base_delay=0.5).run(failing([small]))
        assert sleeps[0] >= 0.25
