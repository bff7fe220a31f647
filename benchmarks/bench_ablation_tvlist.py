"""Ablations of the storage substrate: encodings, compression and the
§V-C TVList sort strategy.

The encoding and compression choices trade flush CPU against file size on
the same flush workload; the sort-strategy ablation sets the engine's flat
columns against IoTDB's deque of fixed-size arrays (§V-B).
"""

from __future__ import annotations

import io
from array import array

import pytest

from repro.iotdb import IoTDBConfig, MemTable, TsFileWriter, flush_memtable, get_encoder
from repro.iotdb.config import TSDataType
from repro.sorting import get_sorter
from repro.workloads import log_normal

_N = 8_000


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
    """§V-C ablation: flat-column sort vs index arithmetic over a deque.

    ``flatten`` sorts a DOUBLE TVList's two flat columns through
    :meth:`TVList.sort_in_place`; ``direct`` sorts IoTDB's layout, a deque
    of 32-slot typed arrays built from the same columns in ``setup``, in
    place.  In Java the direct path wins (no copy); in CPython the
    per-access div/mod usually costs more than the flat copy saves —
    measured here.
    """
    benchmark.group = "ablation: TVList sort strategy (backward sort)"
    stream = log_normal(_N, mu=1.0, sigma=1.0, seed=7)

    if strategy == "flatten":
        sorter = get_sorter("backward")

        def setup():
            memtable = MemTable(IoTDBConfig(memtable_flush_threshold=_N + 1))
            memtable.write_batch(
                "d", "s", stream.timestamps, stream.values, dtype=TSDataType.DOUBLE
            )
            return (memtable.chunk("d", "s"),), {}

        def run(tvlist):
            tvlist.sort_in_place(sorter)
    else:
        from repro.iotdb.tvlist_sort import ArrayDeque, backward_sort_tvlist_inplace

        def setup():
            deque = ArrayDeque(array("q", stream.timestamps), array("d", stream.values))
            return (deque,), {}

        def run(deque):
            backward_sort_tvlist_inplace(deque)

    benchmark.pedantic(run, setup=setup, rounds=3)
