"""Deterministic fault injection and the XADT decode degradation switch."""

import time

import pytest

from repro.engine.faults import FAULTS, FaultPlan, SITES
from repro.errors import ConfigError, CrashPoint, FaultInjected
from repro.xadt import compress
from repro.xadt.fragment import XadtValue
from repro.xadt.storage import (
    DEGRADATION,
    dict_payload_text,
    reset_degradation,
    text_to_events,
)


@pytest.fixture(autouse=True)
def clean_injector():
    FAULTS.clear()
    yield
    FAULTS.clear()
    reset_degradation()


class TestFaultPlan:
    def test_unknown_site_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan().crash_at("disk.melt")

    def test_exact_hit_raises_once(self):
        plan = FaultPlan().raise_at("io.charge", hit=2)
        plan.fire("io.charge")  # hit 1: silent
        with pytest.raises(FaultInjected) as exc:
            plan.fire("io.charge")
        assert exc.value.site == "io.charge"
        plan.fire("io.charge")  # hit 3: silent again
        assert plan.hits("io.charge") == 3

    def test_crash_raises_base_exception(self):
        plan = FaultPlan().crash_at("wal.append", hit=1)
        with pytest.raises(CrashPoint):
            plan.fire("wal.append")
        # un-catchable by the generic handlers the engine uses
        assert not isinstance(CrashPoint("wal.append"), Exception)

    def test_delay_sleeps(self):
        plan = FaultPlan().delay_at("heap.store_row", seconds=0.02, times=1)
        started = time.perf_counter()
        plan.fire("heap.store_row")
        assert time.perf_counter() - started >= 0.015
        plan.fire("heap.store_row")  # times=1: second visit is free

    def test_seeded_probability_is_reproducible(self):
        def pattern(seed):
            plan = FaultPlan(seed).raise_at("io.charge", probability=0.5)
            hits = []
            for _ in range(50):
                try:
                    plan.fire("io.charge")
                    hits.append(False)
                except FaultInjected:
                    hits.append(True)
            return hits

        assert pattern(7) == pattern(7)
        assert pattern(7) != pattern(8)
        assert any(pattern(7))

    def test_times_caps_probabilistic_rule(self):
        plan = FaultPlan().raise_at("io.charge", probability=1.0, times=2)
        failures = 0
        for _ in range(10):
            try:
                plan.fire("io.charge")
            except FaultInjected:
                failures += 1
        assert failures == 2

    def test_report_counts_triggers(self):
        plan = FaultPlan(seed=3).raise_at("wal.fsync", hit=1)
        with pytest.raises(FaultInjected):
            plan.fire("wal.fsync")
        report = plan.report()
        assert report["seed"] == 3
        assert report["hits"]["wal.fsync"] == 1
        assert report["rules"][0]["triggered"] == 1


class TestInjector:
    def test_install_and_clear_toggle_active(self):
        assert FAULTS.active is False
        plan = FAULTS.install(FaultPlan())
        assert FAULTS.active is True
        assert FAULTS.plan is plan
        FAULTS.clear()
        assert FAULTS.active is False
        assert FAULTS.plan is None

    def test_fire_without_plan_is_noop(self):
        FAULTS.fire("io.charge")  # must not raise

    def test_all_documented_sites_accepted(self):
        plan = FaultPlan()
        for site in SITES:
            plan.raise_at(site, hit=10**9)


class TestDecodeDegradation:
    def payload(self):
        return XadtValue.from_xml("<sp><l>out</l> damned <l>spot</l></sp>",
                                  "dict").payload

    def events(self, payload):
        return list(text_to_events(dict_payload_text(payload)))

    def test_threshold_flips_to_tagged_fallback(self):
        reset_degradation(threshold=2)
        payload = self.payload()
        expected = list(compress.decode_events(payload))
        FAULTS.install(FaultPlan().raise_at("xadt.decode", probability=1.0))
        with pytest.raises(FaultInjected):
            dict_payload_text(payload)
        assert DEGRADATION.active is False
        # second fault reaches the threshold: the access is served from
        # the tagged text instead of surfacing the error
        events = self.events(payload)
        assert DEGRADATION.active is True
        assert events == expected
        # degraded mode bypasses the fault site entirely
        assert self.events(payload) == expected

    def test_reset_clears_degraded_mode(self):
        reset_degradation(threshold=1)
        FAULTS.install(FaultPlan().raise_at("xadt.decode", hit=1))
        payload = self.payload()
        dict_payload_text(payload)
        assert DEGRADATION.active is True
        assert DEGRADATION.report()["faults"] == 1
        reset_degradation()
        FAULTS.clear()
        assert DEGRADATION.active is False
        assert self.events(payload) == list(compress.decode_events(payload))
