"""Restart rebuilds its per-column state from each sealed footer, once.

Two guards on the metadata walk of :meth:`StorageShard.recover` and its
neighbours:

- a differential check that the watermarks and column type pins rebuilt by
  ``StorageEngine.open`` equal brute-force definitions over the sealed
  files' chunk metadata (read through ``TsFileReader.describe``, which
  walks the raw chunk table and none of the reader's derived views);
- a deterministic linearity guard: ``open``, a flush's index registration
  and a compaction each traverse a file's chunk table a constant number of
  times, not once per device.  It counts traversals, so it needs no clock.
"""

from __future__ import annotations

import random

import pytest

from repro.iotdb import IoTDBConfig, Space, StorageEngine, TsFileReader
from repro.iotdb.config import TSDataType

_VALUE_OF_TYPE = {
    "i": lambda rng: rng.randrange(-1000, 1000),
    "x": lambda rng: rng.random(),
    "t": lambda rng: f"v{rng.randrange(100)}",
}


def _multi_file_tree(seed: int) -> StorageEngine:
    """A 3-shard in-memory tree: many sealed seq and unseq files, columns of
    three types, and a WAL tail that is never sealed."""
    rng = random.Random(seed)
    engine = StorageEngine.create(
        IoTDBConfig(shards=3, wal_enabled=True, memtable_flush_threshold=60)
    )
    devices = [f"root.d{i}" for i in range(12)]
    clock = {d: 0 for d in devices}
    for i in range(80):
        if i == 60:
            engine.flush_all()  # seals the unsequence memtable too
        device = rng.choice(devices)
        sensor = rng.choice(sorted(_VALUE_OF_TYPE))
        if rng.random() < 0.25 and clock[device] > 20:
            # Late points, most of them below the watermark: unsequence.
            ts = sorted(rng.sample(range(1, clock[device] // 2), 5))
        else:
            ts = list(range(clock[device] + 1, clock[device] + 1 + rng.randrange(5, 30)))
            clock[device] = ts[-1]
        engine.write_batch(
            device, sensor, ts, [_VALUE_OF_TYPE[sensor](rng) for _ in ts]
        )
    return engine


def _expected_state(shard) -> tuple[dict[str, int], dict[tuple[str, str], TSDataType]]:
    """Watermarks and pins by definition: the per-device maximum of the
    sequence chunks' ``max_time``, and the type of each column's stalest
    chunk (sequence files, then unsequence files, each in write order)."""
    watermarks: dict[str, int] = {}
    pins: dict[tuple[str, str], TSDataType] = {}
    ordered = sorted(
        shard._sealed, key=lambda f: (f.space is not Space.SEQUENCE, f.file_id)
    )
    for sealed in ordered:
        for column in sealed.reader.describe()["columns"]:
            if not column["pages"]:
                continue
            device = column["device"]
            if sealed.space is Space.SEQUENCE:
                watermarks[device] = max(
                    watermarks.get(device, column["max_time"]), column["max_time"]
                )
            pins.setdefault((device, column["sensor"]), TSDataType(column["dtype"]))
    return watermarks, pins


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_open_rebuilds_watermarks_and_pins_from_the_sealed_chunks(seed):
    engine = _multi_file_tree(seed)
    store = engine.store
    del engine  # no close: the unsealed tail stays in the WAL only

    reopened = StorageEngine.open(
        IoTDBConfig(shards=3, wal_enabled=True, memtable_flush_threshold=60),
        backend=store,
    )
    files = sum(sum(s.sealed_file_count().values()) for s in reopened.shards)
    unseq = sum(s.sealed_file_count()[Space.UNSEQUENCE] for s in reopened.shards)
    assert files >= 6 and unseq >= 1  # the tree is as rich as it claims
    for shard in reopened.shards:
        with shard._lock:
            watermarks, pins = _expected_state(shard)
            assert dict(shard.separation._watermarks) == watermarks
            assert {key: shard._column_types[key] for key in pins} == pins
    reopened.close()


class _CountingChunkMap(dict):
    """A reader's chunk table that counts whole-table traversals."""

    def __init__(self, chunks) -> None:
        super().__init__(chunks)
        self.traversals = 0

    def __iter__(self):
        self.traversals += 1
        return super().__iter__()

    def keys(self):
        self.traversals += 1
        return super().keys()

    def values(self):
        self.traversals += 1
        return super().values()

    def items(self):
        self.traversals += 1
        return super().items()


#: Traversals of one file's chunk table allowed per operation.  Anything
#: per device (300 here) means restart and compaction are quadratic again.
MAX_TRAVERSALS_PER_FILE = 2
DEVICES = 300


def test_chunk_tables_are_walked_a_constant_number_of_times(monkeypatch):
    tables: list[_CountingChunkMap] = []
    load_index = TsFileReader._load_index

    def counting_load_index(reader):
        load_index(reader)
        reader._chunks = _CountingChunkMap(reader._chunks)
        tables.append(reader._chunks)

    def walks_per_file():
        counts = [table.traversals for table in tables]
        for table in tables:
            table.traversals = 0
        return counts

    config = IoTDBConfig(shards=1, wal_enabled=True, memtable_flush_threshold=10**6)
    engine = StorageEngine.create(config)
    devices = [f"root.d{i:03d}" for i in range(DEVICES)]
    for round_ in range(3):
        for device in devices:
            engine.write_batch(device, "s", [10 * round_ + 1, 10 * round_ + 2], [1, 2])
        engine.flush_all()
    for device in devices[::2]:
        engine.write_batch(device, "s", [5], [50])  # late: an unsequence file
    engine.flush_all()
    store = engine.store
    engine.close()

    monkeypatch.setattr(TsFileReader, "_load_index", counting_load_index)
    reopened = StorageEngine.open(config, backend=store)
    assert len(tables) == 4
    assert all(len(table) >= DEVICES // 2 for table in tables)
    open_walks = walks_per_file()

    for device in devices:
        reopened.write_batch(device, "s", [100], [100])
    reopened.flush_all()  # seals a fifth file and registers it in the index
    assert len(tables) == 5
    flush_walks = walks_per_file()

    report = reopened.compact()
    assert report.files_selected == 5
    compact_walks = walks_per_file()
    reopened.close()

    assert max(open_walks) <= MAX_TRAVERSALS_PER_FILE, open_walks
    assert max(flush_walks) <= MAX_TRAVERSALS_PER_FILE, flush_walks
    assert max(compact_walks) <= MAX_TRAVERSALS_PER_FILE, compact_walks
