"""The never-flatten Backward-Sort over IoTDB's deque-of-arrays layout (§V-C)."""

from __future__ import annotations

import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InvalidParameterError
from repro.iotdb.tvlist import TVList
from repro.iotdb.tvlist_sort import ArrayDeque, backward_sort_tvlist_inplace
from tests.conftest import make_delayed_stream


def _deque_from(ts, vs, width=7):
    return ArrayDeque(list(ts), list(vs), width=width)


class TestInPlaceTVListSort:
    def test_sorts_delay_only_stream(self):
        stream = make_delayed_stream(3_000, lam=0.3, seed=1)
        tv = _deque_from(stream.timestamps, stream.values, width=32)
        timed = backward_sort_tvlist_inplace(tv)
        assert tv.timestamps() == sorted(stream.timestamps)
        assert tv.is_sorted
        assert timed.stats.block_size is not None

    def test_values_track_timestamps(self):
        tv = _deque_from([3, 1, 2], ["c", "a", "b"], width=2)
        backward_sort_tvlist_inplace(tv)
        assert tv.timestamps() == [1, 2, 3]
        assert tv.values() == ["a", "b", "c"]

    def test_already_sorted_is_noop(self):
        tv = _deque_from(range(100), range(100))
        timed = backward_sort_tvlist_inplace(tv)
        assert timed.stats.comparisons == 0

    def test_matches_flatten_path(self):
        from repro.sorting import get_sorter

        stream = make_delayed_stream(2_000, lam=0.2, seed=2)
        tv_direct = _deque_from(stream.timestamps, stream.values, width=32)
        tv_flat = TVList()
        tv_flat.put_all(stream.timestamps, stream.values)
        backward_sort_tvlist_inplace(tv_direct)
        tv_flat.sort_in_place(get_sorter("backward"))
        assert tv_direct.timestamps() == tv_flat.timestamps()

    def test_degenerate_reverse_input(self):
        ts = list(range(500, 0, -1))
        tv = _deque_from(ts, ts)
        stats = backward_sort_tvlist_inplace(tv).stats
        assert tv.timestamps() == sorted(ts)
        assert stats.block_size == 500  # quicksort degenerate case

    @pytest.mark.parametrize("width", (1, 2, 13, 32, 1000))
    def test_any_array_width(self, width):
        rng = random.Random(width)
        ts = rng.sample(range(600), 300)
        tv = _deque_from(ts, range(300), width=width)
        assert len(tv.time_arrays) == -(-300 // width)
        backward_sort_tvlist_inplace(tv)
        assert tv.timestamps() == sorted(ts)

    @settings(max_examples=40, deadline=None)
    @given(
        ts=st.lists(st.integers(0, 500), max_size=200),
        width=st.integers(1, 40),
    )
    def test_property_sorted_permutation(self, ts, width):
        tv = _deque_from(ts, range(len(ts)), width=width)
        backward_sort_tvlist_inplace(tv)
        assert tv.timestamps() == sorted(ts)
        assert sorted(tv.values()) == list(range(len(ts)))
        # ``is_sorted`` promises strictly increasing: never set over duplicates.
        assert tv.is_sorted == (len(set(ts)) == len(ts))

    def test_duplicates_leave_the_list_unsorted(self):
        tv = _deque_from([5, 3, 5, 1], ["a", "b", "c", "d"], width=2)
        backward_sort_tvlist_inplace(tv)
        assert tv.timestamps() == [1, 3, 5, 5]
        assert not tv.is_sorted

    def test_stats_mirror_algorithm_phases(self):
        stream = make_delayed_stream(5_000, lam=0.5, seed=3)
        tv = _deque_from(stream.timestamps, stream.values, width=32)
        stats = backward_sort_tvlist_inplace(tv).stats
        assert stats.block_size_loops >= 1
        assert stats.block_count >= 1
        assert stats.merges == stats.block_count - 1

    def test_typed_columns_give_typed_backing_arrays(self):
        ts = array("q", [5, 3, 9, 1, 7])
        tv = ArrayDeque(ts, array("d", [5.0, 3.0, 9.0, 1.0, 7.0]), width=2)
        assert [len(a) for a in tv.time_arrays] == [2, 2, 1]
        assert all(isinstance(a, array) for a in tv.time_arrays + tv.value_arrays)
        backward_sort_tvlist_inplace(tv)
        assert tv.timestamps() == [1, 3, 5, 7, 9]
        assert tv.values() == [1.0, 3.0, 5.0, 7.0, 9.0]
        assert list(ts) == [5, 3, 9, 1, 7]  # the source column is untouched

    def test_bad_width(self):
        with pytest.raises(InvalidParameterError):
            ArrayDeque([1], [1], width=0)
        with pytest.raises(InvalidParameterError):
            ArrayDeque([1, 2], [1])
