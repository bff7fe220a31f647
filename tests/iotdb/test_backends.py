"""BlobStore contract tests: LocalDirStore and MemoryStore behave alike.

The two backends must be observationally equivalent: the property test
drives the same random op sequence through a store and a plain
``dict[str, bytes]`` model and checks every readable surface after each
op.  Everything the engine relies on — put atomicity keys, rename as the
publish primitive, prefix listing, streaming handles — is pinned here
against both implementations.
"""

from __future__ import annotations

import io
import tempfile

import pytest
from hypothesis import given, strategies as st

from repro.errors import BlobNotFoundError, StorageError
from repro.iotdb.backends import (
    LocalDirStore,
    MemoryStore,
    validate_key,
)

KEYS = ("a", "b.bin", "dir/a", "dir/b.part", "deep/er/key.log")


@pytest.fixture(params=["local", "memory"])
def store(request, tmp_path):
    if request.param == "local":
        return LocalDirStore(tmp_path / "blobs")
    return MemoryStore()


class TestKeyValidation:
    @pytest.mark.parametrize(
        "bad",
        ["", "/abs", "trailing/", "a//b", "../up", "a/./b", "a/../b", "win\\path"],
    )
    def test_rejects_malformed_keys(self, bad):
        with pytest.raises(StorageError):
            validate_key(bad)

    @pytest.mark.parametrize("good", KEYS)
    def test_accepts_relative_slash_keys(self, good):
        validate_key(good)

    def test_stores_validate_on_every_entry_point(self, store):
        for call in (
            lambda: store.put("../x", b"y"),
            lambda: store.get("../x"),
            lambda: store.delete("../x"),
            lambda: store.open_write("../x"),
            lambda: store.open_read("../x"),
            lambda: store.rename_atomic("../x", "a"),
        ):
            with pytest.raises(StorageError):
                call()


class TestBasicOps:
    def test_put_get_roundtrip(self, store):
        store.put("dir/a", b"hello")
        assert store.get("dir/a") == b"hello"
        assert store.exists("dir/a")

    def test_put_overwrites(self, store):
        store.put("k", b"one")
        store.put("k", b"two")
        assert store.get("k") == b"two"

    def test_get_missing_raises(self, store):
        with pytest.raises(BlobNotFoundError):
            store.get("nope")

    def test_delete_and_missing_ok(self, store):
        store.put("k", b"x")
        store.delete("k")
        assert not store.exists("k")
        with pytest.raises(BlobNotFoundError):
            store.delete("k")
        store.delete("k", missing_ok=True)  # no raise

    def test_list_is_sorted_string_prefix(self, store):
        for key in KEYS:
            store.put(key, b"x")
        assert store.list("") == sorted(KEYS)
        assert store.list("dir/") == ["dir/a", "dir/b.part"]
        # String prefix, not path prefix: "d" matches both dir/ and deep/.
        assert store.list("d") == ["deep/er/key.log", "dir/a", "dir/b.part"]
        assert store.list("zzz") == []

    @pytest.mark.parametrize(
        "prefix", ["", "shard-00/", "shard-0", "shard-01/seq", "missing/", "gone", "../"]
    )
    def test_list_matches_the_filtered_full_listing(self, store, prefix):
        # LocalDirStore walks only the prefix's directory: it must answer
        # exactly what filtering the whole store by the string prefix does.
        keys = [f"shard-{s:02d}/{kind}-{n:06d}.tsfile" for s in range(3)
                for kind in ("seq", "unseq") for n in range(1, 4)]
        keys += ["meta/engine.json", "shard-00/wal/seq/seg-000001.log", "top"]
        for key in keys:
            store.put(key, b"x")
        full = store.list("")
        assert full == sorted(keys)
        assert store.list(prefix) == [key for key in full if key.startswith(prefix)]

    def test_rename_atomic_moves_bytes(self, store):
        store.put("k.part", b"payload")
        store.rename_atomic("k.part", "k")
        assert store.get("k") == b"payload"
        assert not store.exists("k.part")

    def test_rename_atomic_replaces_target(self, store):
        store.put("k", b"old")
        store.put("k.part", b"new")
        store.rename_atomic("k.part", "k")
        assert store.get("k") == b"new"

    def test_rename_missing_source_raises(self, store):
        with pytest.raises(BlobNotFoundError):
            store.rename_atomic("ghost", "k")

    def test_ensure_prefix_is_idempotent(self, store):
        store.ensure_prefix("shard-00/")
        store.ensure_prefix("shard-00/")
        store.put("shard-00/f", b"x")
        assert store.list("shard-00/") == ["shard-00/f"]


class TestHandles:
    def test_open_write_streams_and_reads_back(self, store):
        handle = store.open_write("w/stream")
        handle.write(b"abc")
        handle.flush()
        handle.write(b"def")
        handle.close()
        assert store.get("w/stream") == b"abcdef"

    def test_open_write_handle_is_seekable_rw(self, store):
        handle = store.open_write("k")
        handle.write(b"0123456789")
        handle.seek(2)
        assert handle.read(3) == b"234"
        handle.seek(0, io.SEEK_END)
        assert handle.tell() == 10
        handle.seek(4)
        handle.truncate()
        handle.close()
        assert store.get("k") == b"0123"

    def test_open_read_is_read_only(self, store):
        store.put("k", b"bytes")
        handle = store.open_read("k")
        assert handle.read() == b"bytes"
        with pytest.raises((io.UnsupportedOperation, OSError)):
            handle.write(b"nope")
        handle.close()

    def test_open_read_missing_raises(self, store):
        with pytest.raises(BlobNotFoundError):
            store.open_read("ghost")

    def test_handle_survives_rename(self, store):
        # The seal protocol renames <key>.part to <key> while the sink
        # handle may still be open (the shard keeps reading sealed files
        # through it) — like an OS fd, the handle must stay valid.
        handle = store.open_write("f.part")
        handle.write(b"sealed-bytes")
        handle.flush()
        store.rename_atomic("f.part", "f")
        handle.seek(0)
        assert handle.read() == b"sealed-bytes"
        handle.close()
        assert store.get("f") == b"sealed-bytes"


class TestMemorySnapshot:
    def test_snapshot_is_deep_and_restorable(self):
        store = MemoryStore()
        store.put("a", b"1")
        handle = store.open_write("b")
        handle.write(b"partial")
        snap = store.snapshot()
        handle.write(b"-more")
        store.put("a", b"2")
        assert snap == {"a": b"1", "b": b"partial"}
        restored = MemoryStore.from_snapshot(snap)
        assert restored.get("a") == b"1"
        assert restored.get("b") == b"partial"
        # The restored store is independent of the snapshot dict.
        restored.put("a", b"3")
        assert snap["a"] == b"1"


# -- property: both stores vs the dict model -----------------------------

_key = st.sampled_from(KEYS)
_data = st.binary(max_size=64)
_op = st.one_of(
    st.tuples(st.just("put"), _key, _data),
    st.tuples(st.just("delete"), _key),
    st.tuples(st.just("rename"), _key, _key),
    st.tuples(st.just("rewrite"), _key, _data),
)


def _apply(store, model: dict, op) -> None:
    if op[0] == "put":
        store.put(op[1], op[2])
        model[op[1]] = op[2]
    elif op[0] == "delete":
        store.delete(op[1], missing_ok=True)
        model.pop(op[1], None)
    elif op[0] == "rename":
        src, dst = op[1], op[2]
        if src in model:
            store.rename_atomic(src, dst)
            data = model.pop(src)
            if src != dst:
                model[dst] = data
            else:
                model[src] = data
        else:
            with pytest.raises(BlobNotFoundError):
                store.rename_atomic(src, dst)
    elif op[0] == "rewrite":
        # open_write truncates ("wb+" semantics) on both backends.
        handle = store.open_write(op[1])
        handle.write(op[2])
        handle.close()
        model[op[1]] = op[2]


@given(ops=st.lists(_op, max_size=24))
def test_stores_match_dict_model(ops):
    with tempfile.TemporaryDirectory(prefix="repro-blob-prop-") as tmp:
        local = LocalDirStore(tmp)
        memory = MemoryStore()
        for name, store in (("local", local), ("memory", memory)):
            model: dict[str, bytes] = {}
            for op in ops:
                _apply(store, model, op)
            assert store.list("") == sorted(model), name
            for key, data in model.items():
                assert store.get(key) == data, (name, key)
                assert store.exists(key), (name, key)
