"""Figures 16-18 bench: flush time (with sort share) per sorting algorithm.

Benchmarks the flush pipeline directly: fill a memtable from a dataset's
arrival stream, transition it to flushing, and time sort → encode → write
into an in-memory TsFile.  The extra-info column records the sort share of
the flush, reproducing the stacked split of Figures 16-18.  Expected shape:
the Backward row flushes fastest; its sort share is the smallest.
"""

from __future__ import annotations

import io

import pytest

from repro.iotdb import IoTDBConfig, MemTable, TsFileWriter, flush_memtable
from repro.iotdb.config import TSDataType
from repro.sorting import PAPER_ALGORITHMS, get_sorter
from repro.workloads import load_dataset

from conftest import SYSTEM_POINTS

_DATASETS = ("lognormal", "samsung-s10")


def _fresh_memtable(dataset):
    config = IoTDBConfig(memtable_flush_threshold=SYSTEM_POINTS + 1)
    params = {"mu": 1.0, "sigma": 1.0} if dataset == "lognormal" else {}
    stream = load_dataset(dataset, SYSTEM_POINTS, seed=16, **params)

    def _setup():
        memtable = MemTable(config)
        memtable.write_batch(
            "root.d1", "s1", stream.timestamps, stream.values, dtype=TSDataType.DOUBLE
        )
        memtable.mark_flushing()
        return (memtable,), {}

    return _setup


@pytest.mark.parametrize("dataset", _DATASETS)
@pytest.mark.parametrize("algorithm", PAPER_ALGORITHMS)
def test_flush_time(benchmark, algorithm, dataset):
    benchmark.group = f"fig16-18 flush of {SYSTEM_POINTS} pts, {dataset}"
    sorter = get_sorter(algorithm)
    reports = []

    def run(memtable):
        report = flush_memtable(memtable, TsFileWriter(io.BytesIO()), sorter)
        reports.append(report)

    benchmark.pedantic(run, setup=_fresh_memtable(dataset), rounds=3)
    mean_sort = sum(r.sort_seconds for r in reports) / len(reports)
    mean_total = sum(r.total_seconds for r in reports) / len(reports)
    benchmark.extra_info["sort_share"] = mean_sort / mean_total
    assert all(r.total_points == SYSTEM_POINTS for r in reports)
