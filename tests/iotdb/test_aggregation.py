"""Aggregation queries: statistics fast path vs raw scan, always equal."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import QueryError
from repro.iotdb import IoTDBConfig, StorageEngine
from repro.iotdb.aggregation import AGGREGATIONS, aggregate_from_points, is_close
from tests.conftest import make_delayed_stream


def _engine(threshold=500, page_size=64):
    return StorageEngine.create(
        IoTDBConfig(memtable_flush_threshold=threshold, page_size=page_size)
    )


class TestAggregationBasics:
    def test_known_values(self):
        engine = _engine()
        for t in range(10):
            engine.write("d", "s", t, float(t))
        agg = engine.aggregate("d", "s", 2, 7)  # values 2..6
        assert agg.count == 5
        assert agg.sum == 20.0
        assert agg.avg == 4.0
        assert agg.min_value == 2.0
        assert agg.max_value == 6.0
        assert agg.first == 2.0
        assert agg.last == 6.0

    def test_empty_range_result(self):
        engine = _engine()
        engine.write("d", "s", 1, 1.0)
        agg = engine.aggregate("d", "s", 100, 200)
        assert agg.count == 0
        assert agg.sum is None and agg.avg is None
        assert agg.first is None and agg.last is None

    def test_invalid_range_rejected(self):
        engine = _engine()
        with pytest.raises(QueryError):
            engine.aggregate("d", "s", 5, 5)

    def test_get_accessor(self):
        engine = _engine()
        engine.write("d", "s", 1, 2.0)
        agg = engine.aggregate("d", "s", 0, 10)
        for name in AGGREGATIONS:
            agg.get(name)
        with pytest.raises(QueryError):
            agg.get("median")

    def test_non_numeric_column(self):
        engine = _engine()
        engine.write("d", "s", 1, "a")
        engine.write("d", "s", 2, "b")
        agg = engine.aggregate("d", "s", 0, 10)
        assert agg.count == 2
        assert agg.sum is None and agg.avg is None
        assert agg.first == "a" and agg.last == "b"


class TestFastPath:
    def test_sealed_only_range_skips_pages(self):
        engine = _engine(threshold=1_000, page_size=100)
        for t in range(1_000):
            engine.write("d", "s", t, float(t))
        # Everything flushed (threshold hit exactly); memtable now empty.
        agg = engine.aggregate("d", "s", 0, 1_000)
        assert agg.count == 1_000
        assert agg.sum == float(sum(range(1_000)))
        assert agg.pages_skipped == 10
        assert agg.pages_decoded == 0

    def test_partial_pages_decoded(self):
        engine = _engine(threshold=1_000, page_size=100)
        for t in range(1_000):
            engine.write("d", "s", t, float(t))
        agg = engine.aggregate("d", "s", 50, 950)
        assert agg.count == 900
        assert agg.pages_skipped == 8
        assert agg.pages_decoded == 2
        assert agg.sum == float(sum(range(50, 950)))

    def test_fast_path_spans_multiple_seq_files(self):
        engine = _engine(threshold=200, page_size=50)
        for t in range(600):
            engine.write("d", "s", t, 1.0)
        agg = engine.aggregate("d", "s", 0, 600)
        assert agg.count == 600
        assert agg.pages_skipped == 12

    def test_live_memtable_blocks_fast_path(self):
        engine = _engine(threshold=1_000, page_size=100)
        for t in range(1_000):
            engine.write("d", "s", t, float(t))
        engine.write("d", "s", 1_500, 5.0)  # live point outside range though?
        # The live point's range [1500,1501) does not overlap [0,1000): fast
        # path must still apply.
        agg = engine.aggregate("d", "s", 0, 1_000)
        assert agg.pages_skipped == 10
        # A live point inside the range forces the raw scan...
        engine.write("d", "s", 500, 999.0)
        agg = engine.aggregate("d", "s", 0, 1_000)
        assert agg.pages_skipped == 0
        # ... and the overwrite is honoured.
        assert agg.max_value == 999.0

    def test_unseq_overwrite_not_double_counted(self):
        engine = _engine(threshold=100, page_size=10)
        for t in range(100):
            engine.write("d", "s", t, 1.0)  # sealed seq file, watermark 99
        for t in range(50):
            engine.write("d", "s", t, 2.0)  # unseq rewrites
        engine.flush_all()
        agg = engine.aggregate("d", "s", 0, 100)
        assert agg.count == 100
        assert agg.sum == 50 * 2.0 + 50 * 1.0


    def test_first_last_after_partial_compaction(self):
        # Overlap-policy compaction appends the merged [0, 199] file *after*
        # the untouched [200, 299] one: the fold must order by time, not by
        # a file's position in the sealed list.
        engine = StorageEngine.create(
            IoTDBConfig(
                memtable_flush_threshold=100,
                page_size=10,
                compaction_policy="overlap",
                compaction_overlap_threshold=2,
            )
        )
        for t in range(300):
            engine.write("d", "s", t, float(t))
        for t in range(50, 150):
            engine.write("d", "s", t, float(t))
        engine.flush_all()
        engine.compact()
        agg = engine.aggregate("d", "s", 0, 300)
        assert agg.pages_skipped == 30  # answered from statistics
        assert (agg.first, agg.last) == (0.0, 299.0)
        assert (agg.first_time, agg.last_time) == (0, 299)


class TestFastSlowEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        start=st.integers(0, 900),
        width=st.integers(1, 900),
        threshold=st.sampled_from([150, 400, 2_000]),
        policy=st.sampled_from(["full", "overlap"]),
        compact_after=st.none() | st.integers(0, 999),
    )
    def test_aggregate_equals_scan(
        self, start, width, threshold, policy, compact_after
    ):
        stream = make_delayed_stream(1_000, lam=0.2, seed=31)
        engine = StorageEngine.create(
            IoTDBConfig(
                memtable_flush_threshold=threshold,
                page_size=64,
                compaction_policy=policy,
                compaction_overlap_threshold=1,
            )
        )
        for i, (t, v) in enumerate(zip(stream.timestamps, stream.values)):
            engine.write("d", "s", t, v)
            if i == compact_after:
                engine.flush_all()
                engine.compact()
        end = start + width
        fast = engine.aggregate("d", "s", start, end)
        slow = aggregate_from_points(engine.query("d", "s", start, end))
        assert fast.count == slow.count
        assert is_close(fast.sum, slow.sum)
        assert is_close(fast.avg, slow.avg)
        assert fast.first == slow.first
        assert fast.last == slow.last
        if fast.count:
            assert fast.min_value == pytest.approx(slow.min_value)
            assert fast.max_value == pytest.approx(slow.max_value)


class TestWindowedAggregation:
    def test_group_by_time(self):
        engine = _engine()
        for t in range(60):
            engine.write("d", "s", t, float(t % 10))
        buckets = engine.aggregate_windows("d", "s", 0, 60, window=10)
        assert len(buckets) == 6
        for b in buckets:
            assert b.result.count == 10
            assert b.result.avg == pytest.approx(4.5)
        assert buckets[0].start == 0 and buckets[0].end == 10
        assert buckets[-1].start == 50 and buckets[-1].end == 60

    def test_empty_buckets_reported(self):
        engine = _engine()
        engine.write("d", "s", 5, 1.0)
        engine.write("d", "s", 25, 2.0)
        buckets = engine.aggregate_windows("d", "s", 0, 30, window=10)
        assert [b.result.count for b in buckets] == [1, 0, 1]

    def test_partial_final_bucket(self):
        engine = _engine()
        for t in range(25):
            engine.write("d", "s", t, 1.0)
        buckets = engine.aggregate_windows("d", "s", 0, 25, window=10)
        assert [(b.start, b.end) for b in buckets] == [(0, 10), (10, 20), (20, 25)]
        assert [b.result.count for b in buckets] == [10, 10, 5]

    def test_windows_respect_overwrites(self):
        engine = _engine(threshold=50)
        for t in range(50):
            engine.write("d", "s", t, 1.0)  # flushed
        engine.write("d", "s", 5, 100.0)  # unseq rewrite
        buckets = engine.aggregate_windows("d", "s", 0, 50, window=10)
        assert buckets[0].result.sum == pytest.approx(9 * 1.0 + 100.0)
        assert buckets[1].result.sum == pytest.approx(10.0)

    def test_bad_window_rejected(self):
        engine = _engine()
        engine.write("d", "s", 1, 1.0)
        with pytest.raises(QueryError):
            engine.aggregate_windows("d", "s", 0, 10, window=0)

    def test_buckets_sum_to_total(self):
        stream = make_delayed_stream(500, lam=0.2, seed=17)
        engine = _engine(threshold=120)
        for t, v in zip(stream.timestamps, stream.values):
            engine.write("d", "s", t, v)
        total = engine.aggregate("d", "s", 0, 500)
        buckets = engine.aggregate_windows("d", "s", 0, 500, window=37)
        assert sum(b.result.count for b in buckets) == total.count
        assert sum(b.result.sum or 0.0 for b in buckets) == pytest.approx(total.sum)
