"""The sharded engine: router, per-shard pipelines, front door, recovery."""

from __future__ import annotations

import warnings
import zlib

import pytest

from repro.errors import StorageError
from repro.iotdb import IoTDBConfig, Space, StorageEngine
from repro.obs import Observability

DEVICES = [f"root.sg.d{i}" for i in range(8)]


def _fill(engine, devices=DEVICES, points=50):
    for device in devices:
        for t in range(points):
            engine.write(device, "s1", t, float(t))


class TestRouter:
    def test_routing_is_the_documented_stable_hash(self):
        engine = StorageEngine.create(IoTDBConfig(shards=4))
        for device in DEVICES:
            expected = zlib.crc32(device.encode("utf-8")) % 4
            assert engine.shard_for(device).shard_id == expected

    def test_single_shard_short_circuits(self):
        engine = StorageEngine.create(IoTDBConfig(shards=1))
        assert all(engine.shard_for(d).shard_id == 0 for d in DEVICES)

    def test_each_device_lives_in_exactly_one_shard(self):
        engine = StorageEngine.create(
            IoTDBConfig(shards=4, memtable_flush_threshold=10_000)
        )
        _fill(engine)
        for device in DEVICES:
            owner = engine.shard_for(device)
            for shard in engine.shards:
                points = len(shard.query(device, "s1", 0, 10_000))
                assert points == (50 if shard is owner else 0)


class TestDirectories:
    def test_shard_dirs_exist_even_unsharded(self, tmp_path):
        config = IoTDBConfig(data_dir=tmp_path / "data", shards=1)
        engine = StorageEngine.create(config)
        engine.close()
        assert (tmp_path / "data" / "shard-00").is_dir()

    def test_files_land_in_the_owning_shard_dir(self, tmp_path):
        config = IoTDBConfig(
            data_dir=tmp_path / "data", shards=4, memtable_flush_threshold=10
        )
        engine = StorageEngine.create(config)
        _fill(engine, points=20)
        engine.close()
        for device in DEVICES:
            owner_dir = tmp_path / "data" / engine.shard_for(device).prefix
            assert list(owner_dir.glob("*.tsfile"))
        sharded = set((tmp_path / "data").rglob("*.tsfile"))
        root_level = set((tmp_path / "data").glob("*.tsfile"))
        assert sharded and not root_level


class TestOpen:
    def test_multi_shard_recovery_round_trip(self, tmp_path):
        config = IoTDBConfig(
            data_dir=tmp_path / "data",
            wal_enabled=True,
            shards=4,
            memtable_flush_threshold=30,
        )
        engine = StorageEngine.create(config)
        _fill(engine)  # 50 points/device: sealed files AND unflushed WAL tails
        del engine
        reborn = StorageEngine.open(config)
        for device in DEVICES:
            assert reborn.query(device, "s1", 0, 100).timestamps == list(range(50))
        reborn.close()

    def test_shard_count_mismatch_is_rejected(self, tmp_path):
        config = IoTDBConfig(data_dir=tmp_path / "data", shards=4)
        StorageEngine.create(config).close()
        with pytest.raises(StorageError, match="shard"):
            StorageEngine.open(IoTDBConfig(data_dir=tmp_path / "data", shards=2))

    def test_stray_root_level_tsfile_is_rejected(self, tmp_path):
        config = IoTDBConfig(data_dir=tmp_path / "data", shards=2)
        StorageEngine.create(config).close()
        (tmp_path / "data" / "seq-000000.tsfile").write_bytes(b"junk")
        with pytest.raises(StorageError, match="shard-NN"):
            StorageEngine.open(config)


class TestFrontDoor:
    def test_factories_do_not_warn(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            StorageEngine.create(IoTDBConfig())
            config = IoTDBConfig(data_dir=tmp_path / "data")
            StorageEngine.create(config).close()
            StorageEngine.open(config).close()


class TestBatchPath:
    def test_write_batch_span_reports_actual_work(self):
        obs = Observability()
        engine = StorageEngine.create(
            IoTDBConfig(shards=4, memtable_flush_threshold=40), obs=obs
        )
        engine.write_batch("root.sg.d0", "s1", list(range(100)), [0.0] * 100)
        span = obs.tracer.find("engine.write_batch")
        assert span.attributes["shard"] == engine.shard_for("root.sg.d0").shard_id
        assert span.attributes["points"] == 100
        # 100 sequential points with threshold 40: the end-of-batch check
        # fires once (the batch path flushes at batch boundaries only).
        assert span.attributes["flushes_triggered"] == 1

    def test_batch_survives_recovery_via_batched_wal_append(self, tmp_path):
        config = IoTDBConfig(
            data_dir=tmp_path / "data", wal_enabled=True, shards=2,
            memtable_flush_threshold=10_000,
        )
        engine = StorageEngine.create(config)
        engine.write_batch("root.sg.d0", "s1", list(range(200)), [1.0] * 200)
        del engine  # crash before any flush: only the WAL has the batch
        reborn = StorageEngine.open(config)
        assert reborn.query("root.sg.d0", "s1", 0, 200).timestamps == list(range(200))
        reborn.close()

    def test_batch_length_mismatch_is_rejected(self):
        engine = StorageEngine.create(IoTDBConfig())
        with pytest.raises(StorageError):
            engine.write_batch("d", "s", [1, 2], [1.0])


class TestFlushPool:
    def test_concurrent_flush_all_is_correct(self, tmp_path):
        config = IoTDBConfig(
            data_dir=tmp_path / "data",
            shards=4,
            flush_workers=3,
            memtable_flush_threshold=10_000,
        )
        engine = StorageEngine.create(config)
        _fill(engine)
        reports = engine.flush_all()
        assert sum(r.total_points for r in reports) == len(DEVICES) * 50
        for device in DEVICES:
            assert engine.query(device, "s1", 0, 100).timestamps == list(range(50))
        engine.close()


class TestObservability:
    def test_flush_reports_carry_the_shard_label(self):
        engine = StorageEngine.create(
            IoTDBConfig(shards=4, memtable_flush_threshold=10)
        )
        _fill(engine, points=20)
        engine.flush_all()
        shards_seen = {r.shard for r in engine.flush_reports}
        assert shards_seen == {s.shard_id for s in engine.shards if s.flush_reports}
        assert len(shards_seen) > 1

    def test_shard_labelled_metrics_sum_to_the_global_counter(self):
        obs = Observability()
        engine = StorageEngine.create(IoTDBConfig(shards=4), obs=obs)
        _fill(engine)
        per_shard = obs.registry.get("engine_shard_points_written_total")
        total = sum(child.value for _, child in per_shard.children())
        assert total == obs.registry.get("engine_points_written_total").value == 400

    def test_describe_aggregates_and_lists_shards(self):
        engine = StorageEngine.create(
            IoTDBConfig(shards=4, memtable_flush_threshold=10_000)
        )
        _fill(engine)
        info = engine.describe()
        assert info["points_written"] == 400
        assert [snap["shard"] for snap in info["shards"]] == [0, 1, 2, 3]
        assert sum(snap["points_written"] for snap in info["shards"]) == 400
