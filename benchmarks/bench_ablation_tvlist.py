"""Ablations of the storage substrate: TVList array size and encodings.

The TVList backing-array size (IoTDB default 32, §V-B) trades allocation
count against wasted slots; the encoding choice trades flush CPU against
file size.  Both are benchmarked on the same flush workload.
"""

from __future__ import annotations

import io

import pytest

from repro.iotdb import IoTDBConfig, MemTable, TsFileWriter, flush_memtable, get_encoder
from repro.iotdb.config import TSDataType
from repro.sorting import get_sorter
from repro.workloads import log_normal

_N = 8_000


@pytest.mark.parametrize("array_size", (8, 32, 256))
def test_tvlist_array_size_ingest(benchmark, array_size):
    benchmark.group = "ablation: TVList array size (ingest)"
    stream = log_normal(_N, mu=1.0, sigma=1.0, seed=7)
    config = IoTDBConfig(array_size=array_size, memtable_flush_threshold=_N + 1)

    def run():
        memtable = MemTable(config)
        memtable.write_batch(
            "d", "s", stream.timestamps, stream.values, dtype=TSDataType.DOUBLE
        )
        return memtable

    memtable = benchmark(run)
    benchmark.extra_info["allocated_slots"] = memtable.memory_slots()


@pytest.mark.parametrize("array_size", (8, 32, 256))
def test_tvlist_array_size_flush(benchmark, array_size):
    benchmark.group = "ablation: TVList array size (flush)"
    stream = log_normal(_N, mu=1.0, sigma=1.0, seed=7)
    config = IoTDBConfig(array_size=array_size, memtable_flush_threshold=_N + 1)
    sorter = get_sorter("backward")

    def setup():
        memtable = MemTable(config)
        memtable.write_batch(
            "d", "s", stream.timestamps, stream.values, dtype=TSDataType.DOUBLE
        )
        memtable.mark_flushing()
        return (memtable,), {}

    benchmark.pedantic(
        lambda mt: flush_memtable(mt, TsFileWriter(io.BytesIO()), sorter),
        setup=setup,
        rounds=3,
    )


@pytest.mark.parametrize("encoding", ("plain", "gorilla"))
def test_value_encoding_cost(benchmark, encoding):
    """Encoder CPU on a sorted double column (the flush's encode stage)."""
    benchmark.group = "ablation: value encoding (8k doubles)"
    stream = log_normal(_N, mu=1.0, sigma=1.0, seed=7)
    values = sorted(stream.values)
    blob = benchmark(lambda: get_encoder(encoding, TSDataType.DOUBLE).encode(values))
    benchmark.extra_info["bytes"] = len(blob)


@pytest.mark.parametrize("encoding", ("plain", "ts2diff"))
def test_time_encoding_cost(benchmark, encoding):
    """Encoder CPU + output size on a sorted timestamp column."""
    benchmark.group = "ablation: time encoding (8k sorted int64)"
    ts = sorted(log_normal(_N, mu=1.0, sigma=1.0, seed=7).timestamps)
    blob = benchmark(lambda: get_encoder(encoding, TSDataType.INT64).encode(ts))
    benchmark.extra_info["bytes"] = len(blob)


@pytest.mark.parametrize("compression", ("none", "zlib"))
def test_page_compression_flush(benchmark, compression):
    """Flush cost and file size with and without page compression."""
    benchmark.group = "ablation: page compression (flush)"
    stream = log_normal(_N, mu=1.0, sigma=1.0, seed=7)
    config = IoTDBConfig(compression=compression, memtable_flush_threshold=_N + 1)
    sorter = get_sorter("backward")

    def setup():
        memtable = MemTable(config)
        memtable.write_batch(
            "d", "s", stream.timestamps, stream.values, dtype=TSDataType.DOUBLE
        )
        memtable.mark_flushing()
        return (memtable,), {}

    report = benchmark.pedantic(
        lambda mt: flush_memtable(mt, TsFileWriter(io.BytesIO()), sorter, config),
        setup=setup,
        rounds=3,
    )
    benchmark.extra_info["file_bytes"] = report.file_bytes


@pytest.mark.parametrize("strategy", ("flatten", "direct"))
def test_tvlist_sort_strategy(benchmark, strategy):
    """§V-C ablation: flatten-sort-writeback vs index-arithmetic in place.

    In Java the direct path wins (no copy); in CPython the per-access
    div/mod usually costs more than the flat copy saves — measured here.
    """
    benchmark.group = "ablation: TVList sort strategy (backward sort)"
    stream = log_normal(_N, mu=1.0, sigma=1.0, seed=7)

    def setup():
        memtable = MemTable(IoTDBConfig(memtable_flush_threshold=_N + 1))
        memtable.write_batch(
            "d", "s", stream.timestamps, stream.values, dtype=TSDataType.DOUBLE
        )
        return (memtable.chunk("d", "s"),), {}

    if strategy == "flatten":
        sorter = get_sorter("backward")

        def run(tvlist):
            tvlist.sort_in_place(sorter)
    else:
        from repro.iotdb.tvlist_sort import backward_sort_tvlist_inplace

        def run(tvlist):
            backward_sort_tvlist_inplace(tvlist)

    benchmark.pedantic(run, setup=setup, rounds=3)
