"""Benchmark harness mechanics (small scale; full runs live in benchmarks/)."""

import pytest

from repro.bench import build_pair, cold_query, compare_sizes
from repro.errors import BenchmarkError


@pytest.fixture(scope="module")
def tiny_pair():
    return build_pair("sigmod", 1)


class TestBuildPair:
    def test_pair_structure(self, tiny_pair):
        assert tiny_pair.hybrid.algorithm == "hybrid"
        assert tiny_pair.xorator.algorithm == "xorator"
        assert tiny_pair.hybrid.documents == tiny_pair.xorator.documents

    def test_side_lookup(self, tiny_pair):
        assert tiny_pair.side("hybrid") is tiny_pair.hybrid
        with pytest.raises(BenchmarkError):
            tiny_pair.side("monet")

    def test_unknown_dataset_rejected(self):
        with pytest.raises(BenchmarkError):
            build_pair("tpch", 1)

    def test_bad_scale_rejected(self):
        with pytest.raises(BenchmarkError):
            build_pair("sigmod", 0)

    def test_indexes_created_and_stats_collected(self, tiny_pair):
        assert tiny_pair.hybrid.index_ddl
        assert tiny_pair.hybrid.db.stats_for("atuple") is not None

    def test_codec_decision_recorded(self, tiny_pair):
        assert tiny_pair.xorator.codecs.get("pp.pp_slist") == "dict"

    def test_load_modeled_time_is_cpu_plus_disk(self, tiny_pair):
        loaded = tiny_pair.hybrid
        load = loaded.load_to_dict()
        assert load["cpu_seconds"] > 0 and load["disk_seconds"] > 0
        assert loaded.load_modeled_seconds == (
            load["cpu_seconds"] + load["disk_seconds"]
        )
        assert loaded.load_wall_seconds > 0  # recorded beside, not summed


class TestColdQuery:
    def test_counters_captured(self, tiny_pair):
        run = cold_query(tiny_pair.hybrid.db, "SELECT COUNT(*) FROM atuple")
        assert run.rows == 1
        assert run.sequential_pages > 0
        assert run.work["scan_rows"] == tiny_pair.hybrid.db.row_count("atuple")
        assert run.cpu_seconds > 0 and run.disk_seconds > 0
        assert run.modeled_seconds == run.cpu_seconds + run.disk_seconds
        assert run.wall_seconds > 0  # recorded beside, not summed

    def test_each_run_is_cold(self, tiny_pair):
        first = cold_query(tiny_pair.hybrid.db, "SELECT COUNT(*) FROM atuple")
        second = cold_query(tiny_pair.hybrid.db, "SELECT COUNT(*) FROM atuple")
        assert first.sequential_pages == second.sequential_pages


class TestSizing:
    def test_size_comparison_shape(self, tiny_pair):
        comparison = compare_sizes(tiny_pair)
        assert comparison.hybrid.tables == 7
        assert comparison.xorator.tables == 1
        assert 0 < comparison.database_ratio < 1
        assert comparison.xorator.index_bytes < comparison.hybrid.index_bytes
