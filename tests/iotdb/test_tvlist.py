"""TVList: deque-of-arrays layout, sorted tracking, sort paths, typing."""

from __future__ import annotations

import pytest

from repro.errors import InvalidParameterError
from repro.iotdb import (
    BooleanTVList,
    DoubleTVList,
    IntTVList,
    LongTVList,
    TSDataType,
    TextTVList,
    TVList,
    dedupe_arrival,
    infer_dtype,
    tvlist_for,
)
from repro.sorting import get_sorter
from tests.conftest import make_delayed_stream


class TestLayout:
    def test_put_and_get(self):
        tv = TVList(array_size=4)
        for i, t in enumerate([3, 1, 4, 1, 5, 9, 2, 6]):
            tv.put(t, f"v{i}")
        assert len(tv) == 8
        assert tv.get_time(0) == 3
        assert tv.get_time(7) == 6
        assert tv.get_value(5) == "v5"

    def test_arrays_allocated_lazily(self):
        tv = TVList(array_size=32)
        assert tv.memory_slots() == 0
        tv.put(1, "a")
        assert tv.memory_slots() == 32
        for i in range(32):
            tv.put(i, "b")
        assert tv.memory_slots() == 64  # second array after crossing 32

    def test_index_bounds(self):
        tv = TVList()
        tv.put(1, "a")
        with pytest.raises(IndexError):
            tv.get_time(1)
        with pytest.raises(IndexError):
            tv.get_value(-1)

    def test_iteration_and_flat_copies(self):
        tv = TVList(array_size=3)
        pairs = [(5, "a"), (2, "b"), (9, "c"), (1, "d")]
        for t, v in pairs:
            tv.put(t, v)
        assert list(tv) == pairs
        assert tv.timestamps() == [5, 2, 9, 1]
        assert tv.values() == ["a", "b", "c", "d"]

    def test_put_all_checks_lengths(self):
        tv = TVList()
        with pytest.raises(InvalidParameterError):
            tv.put_all([1, 2], ["a"])

    def test_bad_array_size(self):
        with pytest.raises(InvalidParameterError):
            TVList(array_size=0)


class TestSortedTracking:
    def test_in_order_appends_stay_sorted(self):
        tv = TVList()
        for t in (1, 2, 5):
            tv.put(t, None)
        tv.put_all((6, 7), (None, None))
        assert tv.is_sorted
        assert tv.max_time == 7

    def test_in_order_rewrite_is_not_sorted(self):
        # ``is_sorted`` means strictly increasing: repeating the latest
        # timestamp clears it, so the rewrite is resolved by the same
        # arrival-order dedupe + sort as an out-of-order write.
        tv = TVList()
        for t, v in ((1, "a"), (2, "b"), (2, "c"), (5, "d")):
            tv.put(t, v)
        assert not tv.is_sorted
        assert tv.max_time == 5
        ts, vs, _ = tv.get_sorted_arrays(get_sorter("backward"))
        assert (ts, vs) == ([1, 2, 5], ["a", "c", "d"])

    def test_rewrite_inside_one_batch_is_not_sorted(self):
        tv = TVList()
        tv.put_all((1, 2, 2), ("a", "b", "c"))
        assert not tv.is_sorted

    def test_batch_starting_at_the_latest_timestamp_is_not_sorted(self):
        tv = TVList()
        tv.put_all((1, 2, 3), ("a", "b", "c"))
        assert tv.is_sorted
        tv.put_all((3, 4), ("new", "d"))
        assert not tv.is_sorted
        tv.sort_in_place(get_sorter("quick"))
        assert tv.is_sorted
        assert (tv.timestamps(), tv.values()) == ([1, 2, 3, 4], ["a", "b", "new", "d"])

    def test_out_of_order_append_flags(self):
        tv = TVList()
        tv.put(5, None)
        tv.put(3, None)
        assert not tv.is_sorted

    def test_sort_in_place(self):
        stream = make_delayed_stream(500, seed=1)
        tv = TVList(array_size=7)
        for t, v in zip(stream.timestamps, stream.values):
            tv.put(t, v)
        assert not tv.is_sorted
        timed = tv.sort_in_place(get_sorter("backward"))
        assert tv.is_sorted
        assert tv.timestamps() == sorted(stream.timestamps)
        assert timed.seconds > 0

    def test_sort_in_place_skips_when_sorted(self):
        tv = TVList()
        for t in range(100):
            tv.put(t, t)
        timed = tv.sort_in_place(get_sorter("quick"))
        assert timed.seconds == 0.0
        assert timed.stats.comparisons == 0

    def test_get_sorted_arrays_does_not_mutate(self):
        stream = make_delayed_stream(200, seed=2)
        tv = TVList()
        for t, v in zip(stream.timestamps, stream.values):
            tv.put(t, v)
        ts, vs, timed = tv.get_sorted_arrays(get_sorter("tim"))
        assert ts == sorted(stream.timestamps)
        assert tv.timestamps() == stream.timestamps  # untouched
        assert not tv.is_sorted

    def test_values_follow_timestamps_through_sort(self):
        tv = TVList(array_size=2)
        tv.put(3, "three")
        tv.put(1, "one")
        tv.put(2, "two")
        tv.sort_in_place(get_sorter("backward"))
        assert tv.values() == ["one", "two", "three"]


class TestDedupeArrival:
    """Pre-sort dedupe: last arrival wins regardless of sorter stability."""

    def test_keeps_last_arrival(self):
        ts, vs = dedupe_arrival([3, 1, 3, 2, 1], list("abcde"))
        assert ts == [3, 2, 1]
        assert vs == ["c", "d", "e"]

    def test_no_duplicates_passthrough_is_identity(self):
        ts_in, vs_in = [3, 1, 2], list("abc")
        ts, vs = dedupe_arrival(ts_in, vs_in)
        assert ts is ts_in and vs is vs_in

    def test_empty(self):
        assert dedupe_arrival([], []) == ([], [])

    def test_sort_in_place_resolves_overwrites_with_unstable_sorter(self):
        # Regression: Backward-Sort's block quicksort is unstable, so tie
        # groups reached a post-sort dedupe in arbitrary order and "keep the
        # last" resolved an overwrite to the *older* value.  Two full passes over
        # the same timestamps: the second pass (values t+50) must win.
        tv = TVList()
        for i, t in enumerate(list(range(50)) + list(range(50))):
            tv.put(t, i)
        tv.sort_in_place(get_sorter("backward"))
        assert len(tv) == 50  # duplicates physically collapsed
        assert tv.timestamps() == list(range(50))
        assert tv.values() == [t + 50 for t in range(50)]

    def test_get_sorted_arrays_resolves_overwrites_without_mutation(self):
        tv = TVList()
        for i, t in enumerate(list(range(50)) + list(range(50))):
            tv.put(t, i)
        ts, vs, _ = tv.get_sorted_arrays(get_sorter("backward"))
        assert ts == list(range(50))
        assert vs == [t + 50 for t in range(50)]
        assert len(tv) == 100  # query path never mutates

    def test_shrink_drops_surplus_backing_arrays(self):
        tv = TVList(array_size=4)
        for i, t in enumerate([5, 3, 5, 3, 5, 3, 5, 3, 5]):
            tv.put(t, i)
        tv.sort_in_place(get_sorter("backward"))
        assert len(tv) == 2
        assert (tv.timestamps(), tv.values()) == ([3, 5], [7, 8])
        assert tv.memory_slots() == 4  # three backing arrays trimmed to one


class TestTypedTVLists:
    def test_int32_range_checked(self):
        tv = IntTVList()
        tv.put(1, 2**31 - 1)
        with pytest.raises(InvalidParameterError):
            tv.put(2, 2**31)
        with pytest.raises(InvalidParameterError):
            tv.put(3, 1.5)
        with pytest.raises(InvalidParameterError):
            tv.put(4, True)

    def test_long_rejects_floats(self):
        tv = LongTVList()
        tv.put(1, 2**62)
        with pytest.raises(InvalidParameterError):
            tv.put(2, 1.0)

    def test_double_accepts_ints_and_floats(self):
        tv = DoubleTVList()
        tv.put(1, 1.5)
        tv.put(2, 3)
        with pytest.raises(InvalidParameterError):
            tv.put(3, "x")

    def test_boolean_strict(self):
        tv = BooleanTVList()
        tv.put(1, True)
        with pytest.raises(InvalidParameterError):
            tv.put(2, 1)

    def test_text_strict(self):
        tv = TextTVList()
        tv.put(1, "hello")
        with pytest.raises(InvalidParameterError):
            tv.put(2, 7)

    def test_factory(self):
        assert isinstance(tvlist_for(TSDataType.DOUBLE), DoubleTVList)
        assert tvlist_for(TSDataType.INT32, array_size=8).dtype is TSDataType.INT32

    def test_infer_dtype(self):
        assert infer_dtype(True) is TSDataType.BOOLEAN
        assert infer_dtype(7) is TSDataType.INT64
        assert infer_dtype(1.5) is TSDataType.DOUBLE
        assert infer_dtype("x") is TSDataType.TEXT
        with pytest.raises(InvalidParameterError):
            infer_dtype(object())
