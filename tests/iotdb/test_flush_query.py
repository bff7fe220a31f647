"""Flush pipeline and query executor specifics."""

from __future__ import annotations

import io
import random
import sys
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.iotdb import (
    IoTDBConfig,
    MemTable,
    StorageEngine,
    TsFileReader,
    TsFileWriter,
    flush_memtable,
)
from repro.iotdb.config import TSDataType
from repro.iotdb.query import TimeRangeQueryExecutor, merge_last_write_wins
from repro.errors import QueryError
from repro.sorting import get_sorter
from tests.conftest import make_delayed_stream

DOUBLE = TSDataType.DOUBLE


def _flushing_memtable(stream, config=None, device="d", sensor="s"):
    memtable = MemTable(config or IoTDBConfig(memtable_flush_threshold=10**9))
    memtable.write_batch(device, sensor, stream.timestamps, stream.values, dtype=DOUBLE)
    memtable.mark_flushing()
    return memtable


class TestFlushPipeline:
    def test_flushed_file_is_sorted_and_complete(self):
        stream = make_delayed_stream(2_000, lam=0.3, seed=1)
        memtable = _flushing_memtable(stream)
        buf = io.BytesIO()
        flush_memtable(memtable, TsFileWriter(buf), get_sorter("backward"))
        reader = TsFileReader(buf)
        ts, vs = reader.read_chunk("d", "s")
        assert ts == sorted(stream.timestamps)

    def test_duplicates_deduped_keeping_last(self):
        memtable = MemTable(IoTDBConfig())
        memtable.write_batch(
            "d", "s", [1, 2, 2, 3, 1], [1.0, 2.0, 20.0, 3.0, 10.0], dtype=DOUBLE
        )
        memtable.mark_flushing()
        buf = io.BytesIO()
        report = flush_memtable(memtable, TsFileWriter(buf), get_sorter("tim"))
        reader = TsFileReader(buf)
        ts, vs = reader.read_chunk("d", "s")
        assert ts == [1, 2, 3]
        assert vs == [10.0, 20.0, 3.0]  # last write wins (stable sort)
        assert report.chunks[0].deduped_points == 3
        assert report.chunks[0].points == 5

    def test_duplicates_deduped_keeping_last_with_unstable_sorter(self):
        # Regression: with the unstable default sorter the tie group could
        # come out of the sort reordered, resolving the overwrite to the
        # older value.  dedupe_arrival now collapses duplicates pre-sort.
        memtable = MemTable(IoTDBConfig())
        ts = list(range(50)) + list(range(50))
        memtable.write_batch("d", "s", ts, [float(i) for i in range(100)], dtype=DOUBLE)
        memtable.mark_flushing()
        buf = io.BytesIO()
        report = flush_memtable(memtable, TsFileWriter(buf), get_sorter("backward"))
        got_ts, got_vs = TsFileReader(buf).read_chunk("d", "s")
        assert got_ts == list(range(50))
        assert got_vs == [float(t + 50) for t in range(50)]  # second pass wins
        assert report.chunks[0].points == 100
        assert report.chunks[0].deduped_points == 50

    def test_report_sums_per_chunk(self):
        stream = make_delayed_stream(1_000, seed=2)
        memtable = MemTable(IoTDBConfig())
        half = len(stream) // 2
        ts, vs = stream.timestamps, stream.values
        memtable.write_batch("d1", "s", ts[:half], vs[:half], dtype=DOUBLE)
        memtable.write_batch("d2", "s", ts[half:], vs[half:], dtype=DOUBLE)
        memtable.mark_flushing()
        report = flush_memtable(memtable, TsFileWriter(io.BytesIO()), get_sorter("quick"))
        assert len(report.chunks) == 2
        assert report.sort_seconds == pytest.approx(
            sum(c.sort_seconds for c in report.chunks)
        )
        assert report.total_points == 1_000
        assert report.file_bytes > 0

    def test_flush_marks_memtable_flushed(self):
        from repro.iotdb import MemTableState

        memtable = _flushing_memtable(make_delayed_stream(100, seed=3))
        flush_memtable(memtable, TsFileWriter(io.BytesIO()), get_sorter("merge"))
        assert memtable.state is MemTableState.FLUSHED

    def test_empty_memtable_flushes_cleanly(self):
        memtable = MemTable(IoTDBConfig())
        memtable.mark_flushing()
        report = flush_memtable(memtable, TsFileWriter(io.BytesIO()), get_sorter("tim"))
        assert report.total_points == 0
        assert report.chunks == []


class TestQueryExecutor:
    def _reader_with(self, ts, vs, device="d", sensor="s"):
        buf = io.BytesIO()
        writer = TsFileWriter(buf)
        writer.write_chunk(device, sensor, DOUBLE, ts, vs)
        writer.close()
        return TsFileReader(buf)

    def test_merges_files_and_memtable(self):
        executor = TimeRangeQueryExecutor(get_sorter("backward"))
        reader = self._reader_with([0, 1, 2], [0.0, 1.0, 2.0])
        memtable = MemTable(IoTDBConfig())
        memtable.write_batch("d", "s", [3, 5, 4], [3.0, 5.0, 4.0], dtype=DOUBLE)
        result = executor.execute(
            "d", "s", 0, 10, files=[(None, reader)], memtables=[memtable]
        )
        assert result.timestamps == [0, 1, 2, 3, 4, 5]
        assert result.values == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_freshness_order(self):
        # Same timestamp everywhere: the working memtable must win.
        executor = TimeRangeQueryExecutor(get_sorter("tim"))
        seq = self._reader_with([5], [1.0])
        unseq = self._reader_with([5], [2.0])
        flushing = MemTable(IoTDBConfig())
        flushing.write_batch("d", "s", [5], [3.0], dtype=DOUBLE)
        working = MemTable(IoTDBConfig())
        working.write_batch("d", "s", [5], [4.0], dtype=DOUBLE)
        result = executor.execute(
            "d", "s", 0, 10,
            files=[(None, seq), (None, unseq)], memtables=[flushing, working],
        )
        assert result.values == [4.0]

    def test_window_filters_memtable_points(self):
        executor = TimeRangeQueryExecutor(get_sorter("backward"))
        memtable = MemTable(IoTDBConfig())
        memtable.write_batch("d", "s", [1, 50, 99], [1.0, 50.0, 99.0], dtype=DOUBLE)
        result = executor.execute("d", "s", 40, 60, memtables=[memtable])
        assert result.timestamps == [50]

    def test_memtable_missing_the_range_is_not_a_source(self):
        # 2 000 shuffled live points at t=1000..2999: a query of [0, 500)
        # must not flatten, let alone sort, a TVList that cannot intersect.
        engine = StorageEngine.create(IoTDBConfig(memtable_flush_threshold=10**9))
        ts = list(range(1_000, 3_000))
        random.Random(0).shuffle(ts)
        engine.write_batch("d", "s", ts, [float(t) for t in ts])
        stats = engine.query("d", "s", 0, 500).stats
        assert stats.sources_visited == 0
        assert stats.points_scanned == 0
        assert stats.sort_stats.comparisons == 0
        assert len(engine.query("d", "s", 2_500, 2_600)) == 100

    def test_rejects_empty_range(self):
        executor = TimeRangeQueryExecutor(get_sorter("backward"))
        with pytest.raises(QueryError):
            executor.execute("d", "s", 5, 5)

    def test_stats_scanned_vs_returned(self):
        executor = TimeRangeQueryExecutor(get_sorter("backward"))
        memtable = MemTable(IoTDBConfig())
        memtable.write_batch(
            "d", "s", list(range(100)), [float(i) for i in range(100)], dtype=DOUBLE
        )
        result = executor.execute("d", "s", 10, 20, memtables=[memtable])
        assert result.stats.points_scanned == 100
        assert result.stats.points_returned == 10
        assert result.stats.total_seconds > 0

    def test_in_order_rewrite_returns_the_new_value(self):
        # t=1..5, then a batch that rewrites the latest timestamp in order:
        # one point at t=5 carrying the new value, from the live memtable,
        # the sealed file and the compacted file alike.
        engine = StorageEngine.create(IoTDBConfig(memtable_flush_threshold=10**9))
        engine.write_batch("d", "s", [1, 2, 3, 4, 5], [1.0, 2.0, 3.0, 4.0, 5.0])
        engine.write_batch("d", "s", (5, 6), (50.0, 6.0))
        expected = ([1, 2, 3, 4, 5, 6], [1.0, 2.0, 3.0, 4.0, 50.0, 6.0])
        for step in (None, engine.flush_all, engine.compact):
            if step is not None:
                step()
            result = engine.query("d", "s", 0, 10)
            assert (result.timestamps, result.values) == expected
            at_five = engine.query("d", "s", 5, 6)
            assert (at_five.timestamps, at_five.values) == ([5], [50.0])

    def test_sealed_points_scanned_counts_decoded_points(self):
        # [50, 150) touches two 100-point pages: both are decoded, half of
        # each survives the range cut.
        engine = StorageEngine.create(
            IoTDBConfig(memtable_flush_threshold=1_000, page_size=100)
        )
        for t in range(1_000):
            engine.write("d", "s", t, float(t))
        stats = engine.query("d", "s", 50, 150).stats
        assert stats.points_scanned == 200
        assert stats.points_returned == 100


def _tail_query_run(sorter: str, tail_queries: bool):
    """Four devices of delayed points in batches of 50, with rewrites of
    old and latest timestamps mixed in; optionally one tail query after
    every ``write_batch``.  Returns the tail answers, the number of
    backward merges they made, the full-range answers after ``flush_all``
    and the sealed TsFiles' bytes."""
    engine = StorageEngine.create(
        IoTDBConfig(memtable_flush_threshold=700, sorter=sorter)
    )
    rng = random.Random(7)
    streams = {f"d{i}": make_delayed_stream(1_200, seed=i) for i in range(4)}
    latest = dict.fromkeys(streams, 0)
    tails = []
    merges = 0
    for at in range(0, 1_200, 50):
        for device, stream in streams.items():
            ts = list(stream.timestamps[at : at + 50])
            if rng.random() < 0.3:  # rewrite a few earlier timestamps
                ts[:3] = rng.sample(stream.timestamps[: at + 50], 3)
            if rng.random() < 0.3:  # rewrite the latest one
                ts[-1] = latest[device] or ts[-1]
            engine.write_batch(device, "s", ts, [float(rng.random()) for _ in ts])
            latest[device] = max(latest[device], *ts)
            if tail_queries:
                result = engine.query(device, "s", latest[device] - 200, latest[device] + 1)
                tails.append((result.timestamps, result.values))
                merges += result.stats.sort_stats.merges
    engine.flush_all()
    answers = [
        (r.timestamps, r.values)
        for r in (engine.query(device, "s", 0, 10**9) for device in streams)
    ]
    store = engine.store
    sealed = {key: store.get(key) for key in store.list("") if key.endswith(".tsfile")}
    return tails, merges, answers, sealed


class TestInPlaceQuerySort:
    """A query sorts the live TVList in place, under the shard lock, and
    the flush inherits it: answers and sealed bytes must be the ones a
    query-free run gives, and racing threads must see consistent lists."""

    @pytest.mark.parametrize("sorter", ["backward", "quick", "tim"])
    def test_tail_queries_change_no_answer_and_no_sealed_byte(self, sorter):
        tails, merges, answers, sealed = _tail_query_run(sorter, tail_queries=True)
        _, _, quiet_answers, quiet_sealed = _tail_query_run(sorter, tail_queries=False)
        assert len(tails) == 96 and all(ts for ts, _ in tails)
        assert merges > 0  # the queries sorted suffixes into sorted prefixes
        assert answers == quiet_answers
        assert sealed and sealed == quiet_sealed

    def test_queries_racing_writers_and_flushes(self):
        # Two writers and two tail readers on one shard, more threads than
        # cores and a tiny switch interval: every in-place sort, write and
        # flush of a live TVList runs under the shard lock, so each answer
        # is strictly increasing with each value equal to its timestamp,
        # and nothing written is lost.
        engine = StorageEngine.create(IoTDBConfig(memtable_flush_threshold=300))
        streams = {f"d{i}": make_delayed_stream(4_000, seed=i) for i in range(2)}
        errors: list[BaseException] = []
        done = threading.Event()

        def write(device):
            ts = streams[device].timestamps
            for at in range(0, len(ts), 25):
                batch = ts[at : at + 25]
                engine.write_batch(device, "s", batch, [float(t) for t in batch])

        def read(seed):
            rng = random.Random(seed)
            while not done.is_set():
                device = rng.choice(sorted(streams))
                result = engine.query(device, "s", rng.randrange(4_000), 10**6)
                ts = result.timestamps
                assert all(a < b for a, b in zip(ts, ts[1:]))
                assert result.values == [float(t) for t in ts]

        def guarded(fn, arg):
            try:
                fn(arg)
            except BaseException as exc:  # surfaced by the assertion below
                errors.append(exc)
                done.set()

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            readers = [threading.Thread(target=guarded, args=(read, s)) for s in (1, 2)]
            writers = [threading.Thread(target=guarded, args=(write, d)) for d in streams]
            for thread in readers + writers:
                thread.start()
            for thread in writers:
                thread.join(timeout=60)
            done.set()
            for thread in readers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in readers + writers)
        assert errors == []
        for device, stream in streams.items():
            expected = sorted(set(stream.timestamps))
            assert engine.query(device, "s", 0, 10**9).timestamps == expected


@st.composite
def _stalest_first_columns(draw):
    """0–5 strictly increasing columns over a narrow time span, so drawn
    spans are disjoint, touch at one timestamp, overlap or nest; each value
    names its column so the winner of a timestamp is visible."""
    columns = []
    for index in range(draw(st.integers(0, 5))):
        start = draw(st.integers(0, 60))
        width = draw(st.integers(0, 20))
        ts = sorted(draw(st.sets(st.integers(start, start + width), max_size=width + 1)))
        columns.append((ts, [(index, t) for t in ts]))
    return columns


def _dict_model(columns):
    merged = {}
    for ts, vs in columns:
        merged.update(zip(ts, vs))
    keys = sorted(merged)
    return keys, [merged[t] for t in keys]


def _column(ts, index):
    return list(ts), [(index, t) for t in ts]


class TestMergeLastWriteWins:
    @settings(max_examples=300, deadline=None)
    @given(columns=_stalest_first_columns())
    @example(columns=[])
    @example(columns=[_column([], 0)])
    @example(columns=[_column([3, 4, 5], 0)])
    @example(columns=[_column([6, 7], 0), _column([1, 2], 1), _column([], 2)])  # disjoint
    @example(columns=[_column([1, 2, 5], 0), _column([5, 9], 1)])  # touch at t=5
    @example(columns=[_column([1, 4, 8], 0), _column([3, 4, 6], 1)])  # overlap
    @example(columns=[_column([1, 9], 0), _column([4, 5], 1), _column([20], 2)])  # nest
    def test_matches_dict_model(self, columns):
        assert merge_last_write_wins(columns) == _dict_model(columns)

    def test_lone_column_is_returned_unchanged(self):
        ts, vs = [1, 2, 3], ["a", "b", "c"]
        out_t, out_v = merge_last_write_wins([([], []), (ts, vs), ([], [])])
        assert out_t is ts and out_v is vs

    def test_disjoint_columns_concatenate_in_start_order(self):
        out = merge_last_write_wins([([10, 11], ["c", "d"]), ([1, 2], ["a", "b"])])
        assert out == ([1, 2, 10, 11], ["a", "b", "c", "d"])

    def test_fresher_column_wins_inside_an_overlap_group(self):
        stale = ([1, 5, 9], ["s1", "s5", "s9"])
        fresh = ([5, 6], ["f5", "f6"])
        after = ([20, 21], ["x", "y"])
        out = merge_last_write_wins([after, stale, fresh])
        assert out == ([1, 5, 6, 9, 20, 21], ["s1", "f5", "f6", "s9", "x", "y"])
