"""Differential parity across persistence backends.

The store must change nothing: the same workload driven over a
``data_dir`` tree (stamped v1), an explicit ``LocalDirStore`` (v2-local),
and a ``MemoryStore`` (v2-memory) must produce identical query results,
identical persisted bytes (below ``meta/``), and identical post-crash
recoveries.  These tests are the differential proof behind the "v1 stays
byte-for-byte identical" guarantee — and the reason the ops baseline
pins a single ``ingest/backend=local`` cell.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.iotdb import IoTDBConfig, LocalDirStore, MemoryStore, StorageEngine
from tests.conftest import make_delayed_stream

BACKENDS = ("v1", "v2-local", "v2-memory")


def _config(data_dir=None, **kw):
    defaults = dict(
        data_dir=data_dir,
        wal_enabled=True,
        memtable_flush_threshold=120,
        shards=2,
    )
    defaults.update(kw)
    return IoTDBConfig(**defaults)


def _build(backend, tmp_path, **kw):
    """(engine, store, data_dir) for one backend flavour."""
    if backend == "v1":
        data_dir = tmp_path / backend / "data"
        engine = StorageEngine.create(_config(data_dir, **kw))
        return engine, engine.store, data_dir
    if backend == "v2-local":
        data_dir = tmp_path / backend / "data"
        store = LocalDirStore(data_dir)
    else:
        data_dir, store = None, MemoryStore()
    return StorageEngine.create(_config(**kw), backend=store), store, data_dir


def _reopen(backend, store, data_dir):
    """``StorageEngine.open`` through the access path ``_build`` used."""
    if backend == "v1":
        return StorageEngine.open(_config(data_dir))
    if backend == "v2-local":
        # A fresh store object: nothing may ride over in process memory.
        store = LocalDirStore(data_dir)
    return StorageEngine.open(_config(), backend=store)


def _drive(engine, n=500, seed=3):
    stream = make_delayed_stream(n, lam=0.4, seed=seed)
    for i, (t, v) in enumerate(zip(stream.timestamps, stream.values)):
        device = f"d{i % 3}"
        engine.write(device, "s", t, v)
    return max(stream.timestamps) + 1


def _query_state(engine, horizon):
    return {
        device: engine.query(device, "s", 0, horizon)
        for device in ("d0", "d1", "d2")
    }


def _tree_bytes(data_dir: Path) -> dict[str, bytes]:
    """Relative path → bytes of every file below data_dir, meta/ excluded."""
    return {
        p.relative_to(data_dir).as_posix(): p.read_bytes()
        for p in sorted(data_dir.rglob("*"))
        if p.is_file() and not p.relative_to(data_dir).as_posix().startswith("meta/")
    }


def _store_bytes(store) -> dict[str, bytes]:
    return {
        key: store.get(key)
        for key in store.list("")
        if not key.startswith("meta/")
    }


class TestQueryParity:
    def test_identical_results_across_backends(self, tmp_path):
        results = {}
        for backend in BACKENDS:
            engine, _, _ = _build(backend, tmp_path)
            horizon = _drive(engine)
            engine.drain_flushes()
            results[backend] = {
                device: (r.timestamps, r.values)
                for device, r in _query_state(engine, horizon).items()
            }
            engine.close()
        assert results["v2-local"] == results["v1"]
        assert results["v2-memory"] == results["v2-local"]

    def test_identical_aggregates_across_backends(self, tmp_path):
        aggregates = {}
        for backend in BACKENDS:
            engine, _, _ = _build(backend, tmp_path)
            horizon = _drive(engine)
            aggregates[backend] = engine.aggregate("d0", "s", 0, horizon)
            engine.close()
        assert aggregates["v2-local"] == aggregates["v1"]
        assert aggregates["v2-memory"] == aggregates["v2-local"]


class TestByteParity:
    def test_v2_local_tree_is_byte_identical_to_v1(self, tmp_path):
        trees = {}
        for backend in ("v1", "v2-local"):
            engine, _, data_dir = _build(backend, tmp_path)
            _drive(engine)
            engine.close()
            trees[backend] = _tree_bytes(data_dir)
        assert trees["v2-local"].keys() == trees["v1"].keys()
        assert trees["v2-local"] == trees["v1"]

    def test_v2_memory_blobs_match_v2_local_files(self, tmp_path):
        engine, _, data_dir = _build("v2-local", tmp_path)
        _drive(engine)
        engine.close()
        local_tree = _tree_bytes(data_dir)

        engine, store, _ = _build("v2-memory", tmp_path)
        _drive(engine)
        engine.close()
        memory_tree = _store_bytes(store)

        assert memory_tree.keys() == local_tree.keys()
        assert memory_tree == local_tree

    def test_meta_stamps_differ_only_in_version(self, tmp_path):
        from repro.iotdb import read_meta

        for backend, version in (("v1", 1), ("v2-local", 2)):
            engine, _, data_dir = _build(backend, tmp_path)
            engine.close()
            meta = read_meta(LocalDirStore(data_dir))
            assert meta.version == version
            assert meta.backend == "local"
            assert meta.shards == 2


class TestCrashReopenParity:
    def test_abrupt_reopen_recovers_identically(self, tmp_path):
        recovered = {}
        for backend in BACKENDS:
            engine, store, data_dir = _build(backend, tmp_path)
            horizon = _drive(engine)
            # Abandon without close: sealed files + WAL tails must carry
            # the full state through StorageEngine.open on every backend.
            del engine
            reborn = _reopen(backend, store, data_dir)
            recovered[backend] = {
                device: (r.timestamps, r.values)
                for device, r in _query_state(reborn, horizon).items()
            }
            reborn.close()
        assert recovered["v2-local"] == recovered["v1"]
        assert recovered["v2-memory"] == recovered["v2-local"]

    def test_recovered_points_are_complete(self, tmp_path):
        engine, store, _ = _build("v2-memory", tmp_path)
        n = 500
        stream = make_delayed_stream(n, lam=0.4, seed=3)
        written = {}
        for i, (t, v) in enumerate(zip(stream.timestamps, stream.values)):
            device = f"d{i % 3}"
            engine.write(device, "s", t, v)
            written.setdefault(device, {})[t] = v
        horizon = max(stream.timestamps) + 1
        del engine
        reborn = _reopen("v2-memory", store, None)
        for device, expected in written.items():
            result = reborn.query(device, "s", 0, horizon)
            assert dict(zip(result.timestamps, result.values)) == expected
        reborn.close()
