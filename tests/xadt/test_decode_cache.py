"""XADT decode memoization: correctness, budget eviction, counters."""

import pytest

from repro.xadt.decode_cache import DECODE_CACHE, DecodeCache
from repro.xadt.fragment import XadtValue
from repro.xadt.methods import find_key_in_elm, get_elm, get_elm_index
from repro.xadt.unnest import unnest_values

XML = (
    "<SPEECH><SPEAKER>HAMLET</SPEAKER>"
    "<LINE>To be, or not to be</LINE>"
    "<LINE>that is the question</LINE></SPEECH>"
    "<SPEECH><SPEAKER>OPHELIA</SPEAKER>"
    "<LINE>Good my lord</LINE></SPEECH>"
)


@pytest.fixture(autouse=True)
def fresh_cache():
    saved_budget = DECODE_CACHE.budget_bytes
    saved_enabled = DECODE_CACHE.enabled
    DECODE_CACHE.clear()
    DECODE_CACHE.stats.reset()
    DECODE_CACHE.configure(enabled=True)
    yield
    DECODE_CACHE.configure(budget_bytes=saved_budget, enabled=saved_enabled)
    DECODE_CACHE.clear()
    DECODE_CACHE.stats.reset()


def _method_answers(value):
    return (
        get_elm(value, "SPEECH", "SPEAKER", "HAMLET").to_xml(),
        find_key_in_elm(value, "LINE", "question"),
        get_elm_index(value, "SPEECH", "LINE", 1, 1).to_xml(),
    )


class TestDictCodecCorrectness:
    def test_enabled_and_disabled_agree(self):
        value = XadtValue.from_xml(XML, "dict")
        plain = XadtValue.from_xml(XML, "plain")
        enabled = _method_answers(value)
        DECODE_CACHE.configure(enabled=False)
        disabled = _method_answers(XadtValue.from_xml(XML, "dict"))
        assert enabled == disabled == _method_answers(plain)

    def test_repeat_scans_hit(self):
        value = XadtValue.from_xml(XML, "dict")
        first = value.text()
        assert DECODE_CACHE.stats.misses == 1
        assert value.text() == first
        assert XadtValue.from_xml(XML, "dict").text() == first
        # a new instance over the same payload shares the cached decode
        assert DECODE_CACHE.stats.hits == 2

    def test_cached_text_is_the_one_artifact(self):
        # one miss decodes the payload to its tagged text; every later
        # access — any method, any instance — is a hit on that one entry
        value = XadtValue.from_xml(XML, "dict")
        assert value.scan_text() == XML
        assert (DECODE_CACHE.stats.misses, len(DECODE_CACHE)) == (1, 1)
        again = XadtValue.from_xml(XML, "dict")
        get_elm(again, "SPEECH")
        get_elm_index(again, "SPEECH", "LINE", 1, 1)
        unnest_values(again, "LINE")
        assert again.scan_text() is value.scan_text()
        assert (DECODE_CACHE.stats.misses, len(DECODE_CACHE)) == (1, 1)
        assert DECODE_CACHE.stats.hits == 5

    def test_cached_events_not_consumed(self):
        # the event view re-tokenizes the cached text: full both times
        value = XadtValue.from_xml(XML, "dict")
        events = list(value.events())
        assert events and list(value.events()) == events
        assert unnest_values(value, "LINE") == unnest_values(value, "LINE")

    def test_disabled_cache_stores_nothing(self):
        DECODE_CACHE.configure(enabled=False)
        value = XadtValue.from_xml(XML, "dict")
        value.text()
        assert len(DECODE_CACHE) == 0
        assert DECODE_CACHE.stats.misses == 0


class TestDirectoryMemoization:
    def test_rebuilt_value_reuses_directory(self):
        value = XadtValue.from_xml(XML, "indexed")
        built = value.directory()
        assert DECODE_CACHE.stats.misses == 1
        # a fresh instance (an unpickled value, a replayed row) hits
        again = XadtValue(value.payload, "indexed").directory()
        assert again is built
        assert DECODE_CACHE.stats.hits == 1

    def test_directory_results_unchanged_when_disabled(self):
        value = XadtValue.from_xml(XML, "indexed")
        cached_answer = get_elm(value, "SPEECH", "SPEAKER", "OPHELIA").to_xml()
        DECODE_CACHE.configure(enabled=False)
        fresh = XadtValue(value.payload, "indexed")
        assert get_elm(fresh, "SPEECH", "SPEAKER", "OPHELIA").to_xml() == (
            cached_answer
        )


class TestVerdictMemoization:
    def test_equal_payload_and_terms_hit(self):
        assert find_key_in_elm(XadtValue.from_xml(XML), "LINE", "question") == 1
        hits = DECODE_CACHE.stats.hits
        # a fresh instance over the same payload: the verdict is keyed on
        # the payload and the search terms only
        assert find_key_in_elm(XadtValue.from_xml(XML), "LINE", "question") == 1
        assert DECODE_CACHE.stats.hits == hits + 1
        misses = DECODE_CACHE.stats.misses
        find_key_in_elm(XadtValue.from_xml(XML), "LINE", "lord")
        assert DECODE_CACHE.stats.misses == misses + 1


class TestBudget:
    def test_eviction_respects_budget(self):
        cache = DecodeCache(budget_bytes=1024)
        for i in range(50):
            cache.put(("k", i), [("text", "x" * 50)], 100)
            assert cache.current_bytes <= cache.budget_bytes
        assert cache.stats.evictions > 0
        assert len(cache) < 50

    def test_oversize_entry_rejected(self):
        cache = DecodeCache(budget_bytes=128)
        cache.put(("big",), [("text", "y" * 4096)], 4096)
        assert len(cache) == 0
        assert cache.stats.oversize_rejections == 1

    def test_lru_victim_order(self):
        cache = DecodeCache(budget_bytes=400)
        cache.put(("a",), "A", 100)
        cache.put(("b",), "B", 100)
        assert cache.get(("a",)) == "A"  # refresh a
        cache.put(("c",), "C", 100)      # over budget: evicts b
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == "A"
        assert cache.get(("c",)) == "C"

    def test_shrinking_budget_evicts_immediately(self):
        cache = DecodeCache(budget_bytes=4096)
        for i in range(4):
            cache.put(("k", i), i, 400)
        cache.configure(budget_bytes=600)
        assert cache.current_bytes <= 600

    def test_disable_clears(self):
        cache = DecodeCache()
        cache.put(("k",), 1, 10)
        cache.configure(enabled=False)
        assert len(cache) == 0
        assert cache.get(("k",)) is None

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            DecodeCache(budget_bytes=-1)
        with pytest.raises(ValueError):
            DecodeCache().configure(budget_bytes=-5)

    def test_report_shape(self):
        report = DecodeCache().report()
        for key in (
            "hits", "misses", "evictions", "oversize_rejections",
            "hit_rate", "entries", "current_bytes", "budget_bytes", "enabled",
        ):
            assert key in report
