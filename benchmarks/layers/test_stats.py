"""Self-tests of the benchmark's statistics helpers.

Run with ``python -m pytest benchmarks/layers -q``; not part of the
tier-1 ``testpaths``.
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

import stats  # noqa: E402
from spans import SpanRecorder  # noqa: E402


class TestSupportedPercentile:
    def test_needs_ten_samples_beyond_it(self):
        assert stats.supported_percentile(200) == 95.0
        assert stats.supported_percentile(199) == 90.0
        assert stats.supported_percentile(100) == 90.0
        assert stats.supported_percentile(99) == 75.0
        assert stats.supported_percentile(1000) == 99.0
        assert stats.supported_percentile(10_000) == 99.9

    def test_falls_back_to_the_median(self):
        assert stats.supported_percentile(39) == 50.0
        assert stats.supported_percentile(40) == 75.0

    def test_percentile_interpolates(self):
        assert stats.percentile([1, 2, 3, 4, 5], 50) == 3
        assert stats.percentile([10, 20], 25) == 12.5
        assert stats.percentile([7], 90) == 7
        with pytest.raises(ValueError):
            stats.percentile([], 50)


class TestBestSet:
    def test_lower_is_better(self):
        best, noise = stats.best_set([128.0, 129.0, 146.0, 160.0])
        assert best == 128.0
        assert noise == pytest.approx(0.25)

    def test_higher_is_better(self):
        best, noise = stats.best_set([50.0, 40.0], better="higher")
        assert best == 50.0
        assert noise == pytest.approx(0.2)

    def test_rejects_nonsense(self):
        with pytest.raises(ValueError):
            stats.best_set([])
        with pytest.raises(ValueError):
            stats.best_set([1.0], better="sideways")


def span(id_, parent, start, end, name="s"):
    return {"id": id_, "parent": parent, "start": start, "end": end, "name": name}


class TestSelfTimes:
    def test_nested_spans(self):
        own = stats.self_times([
            span(1, None, 0.0, 10.0), span(2, 1, 1.0, 7.0), span(3, 2, 2.0, 5.0),
        ])
        assert own == {1: 4.0, 2: 3.0, 3: 3.0}

    def test_sibling_spans(self):
        own = stats.self_times([
            span(1, None, 0.0, 10.0), span(2, 1, 1.0, 3.0), span(3, 1, 5.0, 9.0),
        ])
        assert own[1] == 4.0

    def test_overlapping_siblings_are_subtracted_once(self):
        own = stats.self_times([
            span(1, None, 0.0, 10.0), span(2, 1, 1.0, 6.0), span(3, 1, 4.0, 8.0),
        ])
        assert own[1] == 3.0

    def test_child_is_clipped_to_its_parent(self):
        own = stats.self_times([span(1, None, 0.0, 4.0), span(2, 1, 3.0, 9.0)])
        assert own == {1: 3.0, 2: 6.0}

    def test_by_name_sums_self_time(self):
        totals = stats.self_time_by_name([
            span(1, None, 0.0, 10.0, "pass"),
            span(2, 1, 0.0, 4.0, "engine.exec"),
            span(3, 1, 4.0, 9.0, "engine.exec"),
        ])
        assert totals == {"pass": 1.0, "engine.exec": 9.0}

    def test_recorder_feeds_self_times(self):
        rec = SpanRecorder()
        rec.new_trace()
        with rec.span("pass") as outer:
            with rec.span("query"):
                pass
            rec.add("engine.exec.SeqScan", outer["start"], 0.0, outer, rows=3)
        own = stats.self_times(rec.spans)
        assert [s["parent"] for s in rec.spans] == [None, 1, 1]
        assert sum(own.values()) == pytest.approx(outer["end"] - outer["start"])


class TestAdopt:
    def recorded(self, *durations):
        other = SpanRecorder()
        for index, seconds in enumerate(durations):
            root = other.add(f"stage{index}", 100.0 + 10 * index, seconds)
            other.add("inner", root["start"], seconds / 2, root)
        return other.spans

    def test_stages_are_laid_end_to_end_under_the_parent(self):
        rec = SpanRecorder()
        parent = rec.add("server.request", 5.0, 10.0)
        rec.adopt(self.recorded(2.0, 4.0), parent)
        own = stats.self_times(rec.spans)
        assert [(s["name"], s["start"], s["end"]) for s in rec.spans[1:]] == [
            ("stage0", 5.0, 7.0), ("inner", 5.0, 6.0),
            ("stage1", 7.0, 11.0), ("inner", 7.0, 9.0),
        ]
        assert own[parent["id"]] == 4.0  # what the stages leave uncovered
        assert sum(own.values()) == 10.0

    def test_stages_longer_than_the_parent_shrink_to_fit(self):
        rec = SpanRecorder()
        parent = rec.add("server.request", 0.0, 3.0)
        rec.adopt(self.recorded(2.0, 4.0), parent)
        own = stats.self_times(rec.spans)
        assert own[parent["id"]] == 0.0
        assert sum(own.values()) == pytest.approx(3.0)
        assert rec.spans[3]["end"] == pytest.approx(3.0)


class TestDigest:
    def test_xadt_cells_do_not_sort_but_do_digest(self):
        from repro.xadt import XadtValue

        rows = [(XadtValue.from_xml("<a>2</a>"), 1), (XadtValue.from_xml("<a>1</a>"), 2)]
        with pytest.raises(TypeError):
            sorted(rows)
        assert stats.digest(rows) == stats.digest(list(reversed(rows)))

    def test_native_sqlite_and_wire_forms_agree(self):
        from repro.xadt import XadtValue

        native = [(XadtValue.from_xml("<a>x</a>"), 0.1 + 0.2)]
        as_text = [("<a>x</a>", 0.3)]       # the SQLite mirror stores text
        off_the_wire = [["<a>x</a>", 0.3]]  # JSON rows are lists
        assert stats.digest(native) == stats.digest(as_text)
        assert stats.digest(native) == stats.digest(off_the_wire)

    def test_different_results_differ(self):
        assert stats.digest([(1,)]) != stats.digest([(2,)])
        assert stats.digest([(1,), (1,)]) != stats.digest([(1,)])


def test_spread_is_iqr_over_median():
    assert stats.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)
