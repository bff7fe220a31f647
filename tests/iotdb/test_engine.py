"""StorageEngine integration: write path, flush, query, separation, WAL."""

from __future__ import annotations

import pytest

from repro.errors import QueryError, StorageError
from repro.iotdb import IoTDBConfig, Space, StorageEngine
from repro.sorting import PAPER_ALGORITHMS
from repro.workloads import log_normal
from tests.conftest import make_delayed_stream


def _fill(engine, stream, device="root.d1", sensor="s1"):
    for t, v in zip(stream.timestamps, stream.values):
        engine.write(device, sensor, t, v)


class TestWriteAndFlush:
    def test_flush_triggered_at_threshold(self):
        engine = StorageEngine.create(IoTDBConfig(memtable_flush_threshold=100))
        stream = make_delayed_stream(350, seed=1)
        _fill(engine, stream)
        assert engine.describe()["flushes"]["seq"] >= 3
        assert len(engine.flush_reports) >= 3

    def test_flush_reports_carry_sort_breakdown(self):
        engine = StorageEngine.create(IoTDBConfig(memtable_flush_threshold=200))
        _fill(engine, make_delayed_stream(200, seed=2))
        report = engine.flush_reports[0]
        assert report.total_points == 200
        assert report.total_seconds > 0
        assert report.sort_seconds >= 0
        assert 0.0 <= report.sort_fraction <= 1.0
        assert report.chunks[0].device == "root.d1"

    def test_flush_all_covers_remainder(self):
        engine = StorageEngine.create(IoTDBConfig(memtable_flush_threshold=10_000))
        _fill(engine, make_delayed_stream(500, seed=3))
        assert engine.describe()["flushes"]["seq"] == 0
        reports = engine.flush_all()
        assert len(reports) == 1
        assert engine.describe()["flushes"]["seq"] == 1

    def test_batch_write_length_check(self):
        engine = StorageEngine.create()
        with pytest.raises(StorageError):
            engine.write_batch("d", "s", [1, 2], [1.0])


class TestQuery:
    def test_query_spans_memtable_and_files(self):
        engine = StorageEngine.create(IoTDBConfig(memtable_flush_threshold=300))
        stream = make_delayed_stream(1_000, seed=4)
        _fill(engine, stream)
        result = engine.query("root.d1", "s1", 0, 1_000)
        assert result.timestamps == list(range(1_000))
        assert result.stats.sources_visited >= 2  # sealed files + memtable

    def test_query_result_sorted_within_window(self):
        engine = StorageEngine.create(IoTDBConfig(memtable_flush_threshold=500))
        _fill(engine, make_delayed_stream(2_000, lam=0.2, seed=5))
        result = engine.query("root.d1", "s1", 700, 900)
        assert result.timestamps == list(range(700, 900))

    def test_duplicate_timestamp_overwritten_by_latest(self):
        engine = StorageEngine.create(IoTDBConfig(memtable_flush_threshold=10_000))
        engine.write("d", "s", 5, 1.0)
        engine.write("d", "s", 5, 2.0)
        result = engine.query("d", "s", 0, 10)
        assert result.timestamps == [5]
        assert result.values == [2.0]

    def test_overwrite_across_flush_boundary(self):
        # First value sealed into a TsFile; rewrite lands in the unsequence
        # memtable (timestamp below the watermark) and must win the merge.
        engine = StorageEngine.create(IoTDBConfig(memtable_flush_threshold=10))
        for t in range(10):
            engine.write("d", "s", t, float(t))
        assert engine.describe()["flushes"]["seq"] == 1
        engine.write("d", "s", 5, 99.0)
        result = engine.query("d", "s", 0, 10)
        assert result.values[5] == 99.0

    def test_query_sort_cost_recorded_for_unsorted_memtable(self):
        engine = StorageEngine.create(IoTDBConfig(memtable_flush_threshold=100_000))
        _fill(engine, make_delayed_stream(3_000, lam=0.3, seed=6))
        result = engine.query("root.d1", "s1", 0, 3_000)
        assert result.stats.sort_seconds > 0

    def test_empty_range_rejected(self):
        engine = StorageEngine.create()
        with pytest.raises(QueryError):
            engine.query("d", "s", 10, 10)

    def test_unknown_column_returns_empty(self):
        engine = StorageEngine.create()
        result = engine.query("ghost", "s", 0, 100)
        assert len(result) == 0

    def test_latest_time(self):
        engine = StorageEngine.create(IoTDBConfig(memtable_flush_threshold=50))
        _fill(engine, make_delayed_stream(120, seed=7))
        assert engine.latest_time("root.d1", "s1") == 119
        assert engine.latest_time("ghost", "s1") is None


class TestSeparation:
    def test_late_points_routed_to_unseq(self):
        engine = StorageEngine.create(IoTDBConfig(memtable_flush_threshold=100))
        for t in range(100):
            engine.write("d", "s", t, float(t))  # flush -> watermark 99
        engine.write("d", "s", 5, 0.5)  # far in the past
        counts = engine.separation.routed_counts()
        assert counts[Space.UNSEQUENCE] == 1
        result = engine.query("d", "s", 0, 100)
        assert result.values[5] == 0.5

    def test_unseq_flush_produces_unseq_file(self):
        engine = StorageEngine.create(IoTDBConfig(memtable_flush_threshold=50))
        for t in range(50):
            engine.write("d", "s", t, float(t))
        for t in range(40):  # all below watermark 49
            engine.write("d", "s", t, float(t + 1000))
        for t in range(50, 60):
            engine.write("d", "s", t, float(t))
        engine.flush_all()
        counts = engine.sealed_file_count()
        assert counts[Space.UNSEQUENCE] >= 1
        result = engine.query("d", "s", 0, 40)
        assert result.values == [float(t + 1000) for t in range(40)]


class TestSorterPluggability:
    @pytest.mark.parametrize("name", PAPER_ALGORITHMS)
    def test_every_paper_algorithm_drives_the_engine(self, name):
        engine = StorageEngine.create(IoTDBConfig(memtable_flush_threshold=250, sorter=name))
        stream = make_delayed_stream(600, lam=0.4, seed=8)
        _fill(engine, stream)
        result = engine.query("root.d1", "s1", 0, 600)
        assert result.timestamps == list(range(600))

    def test_sorter_options_forwarded(self):
        engine = StorageEngine.create(
            IoTDBConfig(sorter="backward", sorter_options={"theta": 0.1, "l0": 8})
        )
        assert engine.sorter.theta == 0.1


class TestWalRecovery:
    def test_recover_unflushed_writes(self):
        config = IoTDBConfig(wal_enabled=True, memtable_flush_threshold=10_000)
        engine = StorageEngine.create(config)
        _fill(engine, make_delayed_stream(200, seed=9))
        # Simulate a crash: abandon the engine (never closed, nothing
        # flushed) and reopen over the store it owned.
        reborn = StorageEngine.open(config, backend=engine.store)
        assert reborn._instruments.wal_replayed.value == 200
        result = reborn.query("root.d1", "s1", 0, 200)
        assert result.timestamps == list(range(200))
        reborn.close()

    def test_wal_truncated_after_flush(self):
        config = IoTDBConfig(wal_enabled=True, memtable_flush_threshold=100)
        engine = StorageEngine.create(config)
        _fill(engine, make_delayed_stream(100, seed=10))
        shard = engine.shards[0]
        with shard._lock:
            wal = shard._wals[Space.SEQUENCE]
        assert wal.size_bytes() == 0


class TestOnDiskFiles:
    def test_data_dir_persists_tsfiles(self, tmp_path):
        config = IoTDBConfig(memtable_flush_threshold=100, data_dir=tmp_path / "data")
        engine = StorageEngine.create(config)
        _fill(engine, make_delayed_stream(250, seed=11))
        engine.close()
        files = sorted((tmp_path / "data").rglob("*.tsfile"))
        assert len(files) == 3  # 2 threshold flushes + final flush_all
        assert all(f.stat().st_size > 0 for f in files)


class TestDescribe:
    def test_engine_snapshot(self):
        engine = StorageEngine.create(IoTDBConfig(memtable_flush_threshold=100))
        _fill(engine, make_delayed_stream(250, seed=12))
        info = engine.describe()
        assert info["points_written"] == 250
        assert info["sealed_files"] == 2
        assert info["working_points"]["seq"] + info["working_points"]["unseq"] == 50
        assert info["flushes"]["seq"] == 2
        assert "root.d1" in info["watermarks"]
        assert info["sealed"][0]["points"] == 100
