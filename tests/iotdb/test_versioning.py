"""Engine-version dispatch: meta/engine.json stamping, inference, refusal.

``StorageEngine.open`` must dispatch on the tree's own stamp — inferring
and stamping unversioned trees, rebuilding torn stamps, and refusing
(never rewriting) well-framed stamps it cannot honour.  Every resolution
outcome is pinned here, along with the create-side parameter contract.
"""

from __future__ import annotations

import pytest

from repro.errors import MetaCorruptionError, StorageError
from repro.iotdb import (
    ENGINE_META_KEY,
    EngineMeta,
    IoTDBConfig,
    LocalDirStore,
    MemoryStore,
    StorageEngine,
    read_meta,
)
from repro.iotdb.meta import check_supported_version, decode_meta, encode_meta


def _config(tmp_path=None, **kw):
    defaults = dict(wal_enabled=True, memtable_flush_threshold=50)
    if tmp_path is not None:
        defaults["data_dir"] = tmp_path / "data"
    defaults.update(kw)
    return IoTDBConfig(**defaults)


def _fill(engine, n=120):
    for t in range(n):
        engine.write("d", "s", t, float(t))


def _meta_outcome(engine, outcome):
    return engine._instruments.meta_recoveries.labels(outcome=outcome).value


class TestCreateStamps:
    def test_v1_create_stamps_version_1(self, tmp_path):
        engine = StorageEngine.create(_config(tmp_path))
        engine.close()
        meta = read_meta(LocalDirStore(tmp_path / "data"))
        assert meta == EngineMeta(version=1, backend="local", shards=1)

    def test_v2_local_create_stamps_version_2(self, tmp_path):
        store = LocalDirStore(tmp_path / "data")
        engine = StorageEngine.create(_config(), backend=store)
        engine.close()
        assert read_meta(store) == EngineMeta(version=2, backend="local", shards=1)

    def test_v2_memory_create_stamps_store(self):
        store = MemoryStore()
        engine = StorageEngine.create(_config(shards=3), backend=store)
        engine.close()
        assert read_meta(store) == EngineMeta(version=2, backend="memory", shards=3)

    def test_in_memory_engine_owns_a_stamped_memory_store(self):
        engine = StorageEngine.create(IoTDBConfig())
        assert isinstance(engine.store, MemoryStore)
        assert all(shard.store is engine.store for shard in engine.shards)
        assert engine.engine_version == 2
        assert read_meta(engine.store) == EngineMeta(
            version=2, backend="memory", shards=1
        )
        engine.close()


class TestCreateParameterContract:
    def test_v2_rejects_backend_plus_data_dir(self, tmp_path):
        with pytest.raises(StorageError, match="not both"):
            StorageEngine.create(_config(tmp_path), backend=MemoryStore())

    def test_open_rejects_backend_plus_data_dir(self, tmp_path):
        with pytest.raises(StorageError, match="not both"):
            StorageEngine.open(_config(tmp_path), backend=MemoryStore())

    def test_open_requires_some_access_path(self):
        with pytest.raises(StorageError, match="data_dir configuration or a backend"):
            StorageEngine.open(_config())


class TestOpenDispatch:
    def test_validated_v1_roundtrip(self, tmp_path):
        engine = StorageEngine.create(_config(tmp_path))
        _fill(engine)
        del engine
        reborn = StorageEngine.open(_config(tmp_path))
        assert reborn.engine_version == 1
        assert _meta_outcome(reborn, "validated") == 1
        assert reborn.query("d", "s", 0, 120).timestamps == list(range(120))
        reborn.close()

    def test_validated_v2_local_roundtrip(self, tmp_path):
        # Matrix row 2: a v2 tree created through an explicit LocalDirStore
        # reopens through data_dir as validated v2.
        engine = StorageEngine.create(
            _config(), backend=LocalDirStore(tmp_path / "data")
        )
        _fill(engine)
        del engine
        reborn = StorageEngine.open(_config(tmp_path))
        assert reborn.engine_version == 2
        assert _meta_outcome(reborn, "validated") == 1
        assert reborn.query("d", "s", 0, 120).timestamps == list(range(120))
        reborn.close()

    def test_validated_v2_memory_roundtrip(self):
        store = MemoryStore()
        engine = StorageEngine.create(_config(), backend=store)
        _fill(engine)
        engine.close()
        reborn = StorageEngine.open(_config(), backend=store)
        assert reborn.engine_version == 2
        assert _meta_outcome(reborn, "validated") == 1
        assert reborn.query("d", "s", 0, 120).timestamps == list(range(120))
        reborn.close()

    def test_unversioned_local_inferred_v1_and_stamped(self, tmp_path):
        engine = StorageEngine.create(_config(tmp_path))
        _fill(engine)
        engine.close()
        # Simulate a pre-stamp tree: remove the meta.
        (tmp_path / "data" / "meta" / "engine.json").unlink()
        reborn = StorageEngine.open(_config(tmp_path))
        assert reborn.engine_version == 1
        assert _meta_outcome(reborn, "stamped-unversioned") == 1
        assert reborn.query("d", "s", 0, 120).timestamps == list(range(120))
        reborn.close()
        assert read_meta(LocalDirStore(tmp_path / "data")).version == 1

    def test_unversioned_store_inferred_v2_and_stamped(self):
        store = MemoryStore()
        engine = StorageEngine.create(_config(), backend=store)
        _fill(engine)
        engine.close()
        store.delete(ENGINE_META_KEY)
        reborn = StorageEngine.open(_config(), backend=store)
        assert reborn.engine_version == 2
        assert _meta_outcome(reborn, "stamped-unversioned") == 1
        reborn.close()
        assert read_meta(store).version == 2

    def test_torn_meta_rebuilt_never_misread(self, tmp_path):
        engine = StorageEngine.create(_config(tmp_path))
        _fill(engine)
        engine.close()
        store = LocalDirStore(tmp_path / "data")
        blob = store.get(ENGINE_META_KEY)
        store.put(ENGINE_META_KEY, blob[: len(blob) // 2])  # torn tail
        with pytest.raises(MetaCorruptionError):
            read_meta(store)
        reborn = StorageEngine.open(_config(tmp_path))
        assert reborn.engine_version == 1
        assert _meta_outcome(reborn, "rebuilt-corrupt") == 1
        assert reborn.query("d", "s", 0, 120).timestamps == list(range(120))
        reborn.close()
        assert read_meta(store) == EngineMeta(version=1, backend="local", shards=1)

    def test_stray_meta_part_is_garbage_collected(self, tmp_path):
        engine = StorageEngine.create(_config(tmp_path))
        engine.close()
        store = LocalDirStore(tmp_path / "data")
        store.put(ENGINE_META_KEY + ".part", b"torn mid-publish")
        StorageEngine.open(_config(tmp_path)).close()
        assert not store.exists(ENGINE_META_KEY + ".part")

    def test_future_version_refused_precisely(self, tmp_path):
        engine = StorageEngine.create(_config(tmp_path))
        engine.close()
        store = LocalDirStore(tmp_path / "data")
        store.put(
            ENGINE_META_KEY,
            encode_meta(EngineMeta(version=9, backend="local", shards=1)),
        )
        with pytest.raises(StorageError, match="version 9 is not supported"):
            StorageEngine.open(_config(tmp_path))
        # Refused, not rewritten: the future stamp survives untouched.
        assert read_meta(store).version == 9

    def test_malformed_version_field_refused_not_rewritten(self, tmp_path):
        import json
        import zlib

        engine = StorageEngine.create(_config(tmp_path))
        engine.close()
        store = LocalDirStore(tmp_path / "data")
        payload = json.dumps(
            {"backend": "local", "shards": 1, "version": "two"},
            sort_keys=True,
            separators=(",", ":"),
        )
        crc = zlib.crc32(payload.encode()) & 0xFFFFFFFF
        blob = f"REPROMETA1\n{crc:08x}\n{payload}\n".encode()
        store.put(ENGINE_META_KEY, blob)
        with pytest.raises(StorageError, match="malformed version"):
            StorageEngine.open(_config(tmp_path))
        assert store.get(ENGINE_META_KEY) == blob

    def test_v1_tree_refused_through_explicit_backend(self):
        store = MemoryStore()
        store.put(
            ENGINE_META_KEY,
            encode_meta(EngineMeta(version=1, backend="local", shards=1)),
        )
        with pytest.raises(StorageError, match="version 1"):
            StorageEngine.open(_config(), backend=store)

    def test_backend_kind_mismatch_refused(self, tmp_path):
        engine = StorageEngine.create(_config(tmp_path))
        engine.close()
        store = LocalDirStore(tmp_path / "data")
        store.put(
            ENGINE_META_KEY,
            encode_meta(EngineMeta(version=2, backend="memory", shards=1)),
        )
        with pytest.raises(StorageError, match="backend kind"):
            StorageEngine.open(_config(tmp_path))

    def test_meta_shards_mismatch_refused(self):
        store = MemoryStore()
        engine = StorageEngine.create(_config(shards=3), backend=store)
        engine.close()
        with pytest.raises(StorageError, match="3 shards"):
            StorageEngine.open(_config(shards=2), backend=store)

    def test_legacy_shard_count_check_still_fires(self, tmp_path):
        engine = StorageEngine.create(_config(tmp_path, shards=2))
        _fill(engine)
        engine.close()
        (tmp_path / "data" / "meta" / "engine.json").unlink()
        with pytest.raises(StorageError, match="2 shard directories"):
            StorageEngine.open(_config(tmp_path, shards=3))


class TestMetaCodec:
    def test_roundtrip(self):
        meta = EngineMeta(version=2, backend="memory", shards=4)
        assert decode_meta(encode_meta(meta)) == meta

    @pytest.mark.parametrize(
        "blob",
        [
            b"",
            b"\xff\xfe garbage",
            b"WRONGMAGIC\n00000000\n{}\n",
            b"REPROMETA1\nnothex\n{}\n",
            b"REPROMETA1\n00000000\n{}",  # missing trailing newline
            b"REPROMETA1\ndeadbeef\n{}\n",  # CRC mismatch
        ],
    )
    def test_structural_damage_is_corruption(self, blob):
        with pytest.raises(MetaCorruptionError):
            decode_meta(blob)

    def test_supported_versions(self):
        check_supported_version(1)
        check_supported_version(2)
        with pytest.raises(StorageError, match="supported: 1, 2"):
            check_supported_version(3)
