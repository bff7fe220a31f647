"""TVList: flat-column layout, sorted tracking, sort paths, typing."""

from __future__ import annotations

from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InvalidParameterError
from repro.iotdb import (
    BooleanTVList,
    DoubleTVList,
    FloatTVList,
    IntTVList,
    IoTDBConfig,
    LongTVList,
    MemTable,
    TSDataType,
    TextTVList,
    TVList,
    dedupe_arrival,
    infer_dtype,
    tvlist_for,
)
from repro.iotdb.memtable import check_timestamps
from repro.iotdb.query import TimeRangeQueryExecutor
from repro.sorting import available_sorters, get_sorter
from tests.conftest import make_delayed_stream


class TestLayout:
    def test_put_and_get(self):
        tv = TVList()
        for i, t in enumerate([3, 1, 4, 1, 5, 9, 2, 6]):
            tv.put(t, f"v{i}")
        tv.put_all((7, 0), ("v8", "v9"))
        assert len(tv) == 10
        assert tv.timestamps() == [3, 1, 4, 1, 5, 9, 2, 6, 7, 0]
        assert tv.values() == [f"v{i}" for i in range(10)]

    def test_typed_columns_are_one_buffer_each(self):
        tv = DoubleTVList()
        tv.put_all((1, 2), (1.5, 2))
        tv.put(3, 3.5)
        assert (tv._times, tv._values) == (array("q", [1, 2, 3]), array("d", [1.5, 2.0, 3.5]))
        text = TextTVList()
        text.put_all((1, 2), ("a", "b"))
        assert (text._times, text._values) == (array("q", [1, 2]), ["a", "b"])

    def test_index_bounds(self):
        # A range cut whose bounds fall outside the list, or cross, is
        # empty rather than an index error.
        tv = TVList()
        assert tv.cut_range(0, 10) == ([], [])
        tv.put(1, "a")
        assert tv.cut_range(2, 10) == ([], [])
        assert tv.cut_range(5, -5) == ([], [])
        assert tv.cut_range(-(2**63), 2**63) == ([1], ["a"])

    def test_iteration_and_flat_copies(self):
        tv = TVList()
        pairs = [(5, "a"), (2, "b"), (9, "c"), (1, "d")]
        for t, v in pairs:
            tv.put(t, v)
        assert list(tv) == pairs
        ts, vs = tv.timestamps(), tv.values()
        assert (ts, vs) == ([5, 2, 9, 1], ["a", "b", "c", "d"])
        ts.append(0)
        vs.append("e")  # copies: the list itself is unchanged
        assert (len(tv), tv.timestamps(), tv.values()) == (4, [5, 2, 9, 1], list("abcd"))

    def test_put_all_checks_lengths(self):
        tv = TVList()
        with pytest.raises(InvalidParameterError):
            tv.put_all([1, 2], ["a"])

    def test_put_all_is_all_or_nothing(self):
        tv = LongTVList()
        tv.put_all((1, 2), (10, 20))
        with pytest.raises(InvalidParameterError):
            tv.put_all((3, 4), (30, 1.5))  # a bad value
        with pytest.raises(OverflowError):
            tv.put_all((3, 2**63), (30, 40))  # a time the column cannot hold
        assert (tv.timestamps(), tv.values(), tv.is_sorted) == ([1, 2], [10, 20], True)


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
        # timestamp leaves the sorted prefix behind, so the query's in-place
        # sort resolves the rewrite like an out-of-order write.
        tv = TVList()
        for t, v in ((1, "a"), (2, "b"), (2, "c"), (5, "d")):
            tv.put(t, v)
        assert not tv.is_sorted
        assert tv.max_time == 5
        tv.sort_in_place(get_sorter("backward"), site="query")
        assert tv.is_sorted
        assert (tv.timestamps(), tv.values()) == ([1, 2, 5], ["a", "c", "d"])

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
        tv = TVList()
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

    def test_values_follow_timestamps_through_sort(self):
        tv = TVList()
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

    def test_sort_in_place_resolves_prefix_overwrites(self):
        # The first pass is sorted (by a query); the second pass rewrites
        # every timestamp of that prefix, so the suffix sort and the merge
        # must drop each prefix copy in favour of the fresher point.
        tv = TVList()
        for i, t in enumerate(range(50)):
            tv.put(t, i)
        tv.put(0, "late")  # leaves the 50-point prefix unsorted behind it
        tv.sort_in_place(get_sorter("backward"), site="query")
        assert tv.sorted_upto == 50
        tv.put_all(list(range(50)), [t + 50 for t in range(50)])
        assert tv.sorted_upto == 50
        timed = tv.sort_in_place(get_sorter("backward"), site="query")
        assert tv.timestamps() == list(range(50))
        assert tv.values() == [t + 50 for t in range(50)]
        assert len(tv) == 50  # the query collapsed the duplicates in place
        assert timed.stats.merges == 1

    def test_shrink_drops_surplus_backing_arrays(self):
        # The dedupe's write-back shrinks both columns to the survivors.
        tv = LongTVList()
        for i, t in enumerate([5, 3, 5, 3, 5, 3, 5, 3, 5]):
            tv.put(t, i)
        tv.sort_in_place(get_sorter("backward"))
        assert len(tv) == 2
        assert (tv.timestamps(), tv.values()) == ([3, 5], [7, 8])
        assert (tv._times, tv._values) == (array("q", [3, 5]), array("q", [7, 8]))
        # The merge path shrinks too: a sorted prefix, then rewrites of it.
        tv.put_all((3, 5), (9, 10))
        tv.sort_in_place(get_sorter("backward"))
        assert (tv._times, tv._values) == (array("q", [3, 5]), array("q", [9, 10]))


class TestSortedPrefix:
    def test_prefix_grows_by_whole_batches_only(self):
        tv = TVList()
        tv.put_all((1, 2, 3), "abc")
        assert tv.sorted_upto == 3
        # In order up to 6, then late: the in-order run inside the batch
        # does not join the prefix.
        tv.put_all((4, 5, 6, 0), "defg")
        assert tv.sorted_upto == 3
        # A strictly increasing batch behind an unsorted suffix cannot
        # join it either.
        tv.put_all((7, 8), "hi")
        assert tv.sorted_upto == 3
        tv.sort_in_place(get_sorter("quick"), site="query")
        assert tv.sorted_upto == len(tv) == 9
        tv.put_all((9, 10), "jk")
        assert tv.is_sorted and tv.sorted_upto == 11

    def test_short_prefix_sorts_the_whole_list(self):
        # A prefix shorter than the suffix is not worth merging into.
        tv = TVList()
        tv.put_all((1, 2), "ab")
        tv.put_all((9, 3, 8, 4, 7), "cdefg")
        timed = tv.sort_in_place(get_sorter("backward"))
        assert timed.stats.merges == 0
        assert tv.timestamps() == [1, 2, 3, 4, 7, 8, 9]
        assert tv.values() == list("abdfgec")

    def test_query_sorts_only_what_arrived_since(self):
        # Sorted once, then one late batch: the second sort hands the
        # sorter the batch alone and merges from the first prefix point it
        # reaches back into, so the flush that follows has nothing to do.
        tv = TVList()
        tv.put_all(list(range(0, 400, 2)), list(range(200)))
        tv.put_all((401, 395, 399, 397), "abcd")
        calls = []

        class Recording:
            def timed_sort(self, ts, vs, **kwargs):
                calls.append(list(ts))
                return get_sorter("backward").timed_sort(ts, vs, **kwargs)

        tv.sort_in_place(Recording(), site="query")
        assert calls == [[401, 395, 399, 397]]
        assert tv.timestamps()[-4:] == [397, 398, 399, 401]
        assert tv.is_sorted
        assert tv.sort_in_place(Recording(), site="flush").stats.comparisons == 0
        assert len(calls) == 1

    def test_cut_range_bisects_the_backing_arrays(self):
        tv = DoubleTVList()
        tv.put_all(list(range(0, 40, 2)), list(range(20)))
        assert tv.cut_range(5, 11) == ([6, 8, 10], [3, 4, 5])
        assert tv.cut_range(-10, 1) == ([0], [0])
        assert tv.cut_range(38, 100) == ([38], [19])
        assert tv.cut_range(39, 100) == ([], [])
        assert tv.cut_range(-10, 0) == ([], [])


_BATCH_KINDS = ("in-order", "late", "in-batch-dups", "rewrite-prefix", "rewrite-latest")

_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("put"),
            st.sampled_from(_BATCH_KINDS),
            st.lists(st.integers(0, 40), min_size=1, max_size=12),
        ),
        st.tuples(st.just("read"), st.integers(-5, 150), st.integers(1, 80)),
        st.tuples(st.just("sort")),
    ),
    max_size=30,
)


def _batch_times(kind: str, draws: list[int], model: dict) -> list[int]:
    """Interpret one drawn batch against the model's current contents."""
    top = max(model, default=40)
    if kind == "in-order":  # strictly increasing past everything seen
        out, t = [], max(model, default=-1)
        for gap in draws:
            t += 1 + gap
            out.append(t)
        return out
    if kind == "late":  # back in time, the latest timestamp included
        return [max(0, top - d) for d in draws]
    if kind == "in-batch-dups":
        return [max(0, top - d % 4) for d in draws]
    if kind == "rewrite-prefix":
        keys = sorted(model) or [0]
        return [keys[d % len(keys)] for d in draws]
    # rewrite-latest: in order, but starting at the latest timestamp
    return [top] + [top + 1 + i + d for i, d in enumerate(sorted(draws))]


def _assert_strictly_increasing(tv) -> None:
    ts = tv.timestamps()
    assert all(a < b for a, b in zip(ts, ts[1:]))
    assert tv.is_sorted and tv.sorted_upto == len(tv)


class TestSortInPlaceProperty:
    """Interleaved batches, executor range reads and in-place sorts agree
    with a last-arrival-wins dict for every sorter, batch split and column
    type.

    ``batch_cap`` splits each drawn batch into ``write_batch`` calls of at
    most that many points: the sorted prefix grows by whole batches only,
    so a cap of 1 lets it take every in-order point, while 32 (above any
    drawn batch) keeps each batch whole.
    """

    @pytest.mark.parametrize("text", [False, True], ids=["typed", "text"])
    @pytest.mark.parametrize("batch_cap", [1, 2, 32])
    @pytest.mark.parametrize("sorter_name", available_sorters())
    @settings(max_examples=25, deadline=None)
    @given(ops=_OPS)
    def test_matches_last_arrival_wins_model(self, sorter_name, batch_cap, text, ops):
        sorter = get_sorter(sorter_name)
        memtable = MemTable(IoTDBConfig(memtable_flush_threshold=10**9))
        executor = TimeRangeQueryExecutor(sorter)
        model: dict[int, object] = {}
        arrivals = 0
        for op in ops:
            if op[0] == "put":
                ts = _batch_times(op[1], op[2], model)
                vs = []
                for t in ts:
                    arrivals += 1
                    vs.append(f"v{arrivals}" if text else float(arrivals))
                dtype = TSDataType.TEXT if text else TSDataType.DOUBLE
                for i in range(0, len(ts), batch_cap):
                    part = slice(i, i + batch_cap)
                    memtable.write_batch("d", "s", ts[part], vs[part], dtype=dtype)
                model.update(zip(ts, vs))
                continue
            tv = memtable.chunk("d", "s")
            if op[0] == "read":
                start, end = op[1], op[1] + op[2]
                result = executor.execute("d", "s", start, end, memtables=[memtable])
                keys = [t for t in sorted(model) if start <= t < end]
                assert result.timestamps == keys
                assert result.values == [model[t] for t in keys]
            elif tv is not None:
                tv.sort_in_place(sorter, series="d.s")
            if tv is not None:
                _assert_strictly_increasing(tv)
                assert tv.timestamps() == sorted(model)
                assert tv.values() == [model[t] for t in sorted(model)]


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
        assert tvlist_for(TSDataType.INT32).dtype is TSDataType.INT32

    def test_infer_dtype(self):
        assert infer_dtype(True) is TSDataType.BOOLEAN
        assert infer_dtype(7) is TSDataType.INT64
        assert infer_dtype(1.5) is TSDataType.DOUBLE
        assert infer_dtype("x") is TSDataType.TEXT
        with pytest.raises(InvalidParameterError):
            infer_dtype(object())


class _MyInt(int):
    pass


#: Every kind of value a batch may carry, including the ones a whole-batch
#: check can stumble on: bools (an int subclass), other int subclasses,
#: ints beyond int64 and beyond the double range, NaN and infinities, and
#: strings with a lone surrogate (not UTF-8 encodable).
_ANY_VALUE = st.one_of(
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([2**31, -(2**31) - 1, 2**63, -(2**63) - 1, 2**1100, -(2**1100)]),
    st.integers(min_value=-5, max_value=5).map(_MyInt),
    st.floats(),
    st.text(max_size=4),
    st.sampled_from(["\ud800", "a\udfff"]),
    st.none(),
)

_TYPED = [IntTVList, LongTVList, FloatTVList, DoubleTVList, BooleanTVList, TextTVList]


def _first_rejection(check, values) -> str | None:
    """The per-value reference: the message of the first rejected value."""
    for value in values:
        try:
            check(value)
        except InvalidParameterError as exc:
            return str(exc)
    return None


def _outcome(check_all, values) -> str | None:
    try:
        check_all(values)
    except InvalidParameterError as exc:
        return str(exc)
    return None


class TestBatchValidation:
    """``validate_all``/``check_timestamps`` take a whole-batch shortcut; it
    must accept and reject exactly what the per-value loop does, with the
    same message."""

    @settings(max_examples=300)
    @given(
        cls=st.sampled_from(_TYPED),
        values=st.lists(_ANY_VALUE, max_size=6),
        homogeneous=st.booleans(),
    )
    def test_validate_all_matches_the_per_value_rule(self, cls, values, homogeneous):
        if homogeneous and values:
            # Most real batches are one type: make sure the shortcut sees them.
            values = [v for v in values if type(v) is type(values[0])]
        assert _outcome(cls.validate_all, values) == _first_rejection(
            cls._validate_value, values
        )

    @settings(max_examples=200)
    @given(ts=st.lists(_ANY_VALUE, max_size=6), tuple_input=st.booleans())
    def test_check_timestamps_matches_the_per_value_rule(self, ts, tuple_input):
        def one(t):
            if not isinstance(t, int) or isinstance(t, bool):
                raise InvalidParameterError(f"timestamp must be int, got {type(t).__name__}")
            if not -(2**63) <= t <= 2**63 - 1:
                raise InvalidParameterError(f"timestamp {t} out of int64 range")

        batch = tuple(ts) if tuple_input else ts
        assert _outcome(check_timestamps, batch) == _first_rejection(one, ts)

    @pytest.mark.parametrize("cls", [FloatTVList, DoubleTVList])
    def test_floating_columns_reject_ints_no_double_can_hold(self, cls):
        limit = int(1.7976931348623157e308)
        cls.validate_all([1.5, limit, -limit, float("inf"), float("nan")])
        for bad in (limit + 1, -limit - 1, 2**1100):
            with pytest.raises(InvalidParameterError, match="out of"):
                cls.validate_all([1.5, bad])
            with pytest.raises(InvalidParameterError, match="out of"):
                cls().put(1, bad)

    def test_text_rejects_strings_utf8_cannot_encode(self):
        TextTVList.validate_all(["", "ünï", "日本"])
        with pytest.raises(InvalidParameterError, match="UTF-8"):
            TextTVList.validate_all(["ok", "\ud800"])

    def test_memtable_builds_a_new_column_from_the_given_type(self):
        mt = MemTable()
        mt.write_batch("d", "s", [1, 2], [3, 4], dtype=TSDataType.DOUBLE)
        assert mt.chunk_dtype("d", "s") is TSDataType.DOUBLE
        assert mt.chunk("d", "s").values() == [3.0, 4.0]
        mt.write_batch("d", "t", [1], [3], dtype=TSDataType.INT64)
        assert mt.chunk_dtype("d", "t") is TSDataType.INT64
        with pytest.raises(TypeError):
            mt.write_batch("d", "u", [1], [3])  # the type is the caller's to give
