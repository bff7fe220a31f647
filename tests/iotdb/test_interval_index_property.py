"""Property suite: the interval index equals the brute-force overlap scan.

The index's whole value is that its candidate set is *provably* the same
set a linear scan over every sealed file's ``[min_time, max_time]`` range
would produce — pruning may skip work, never data.  Hypothesis drives
randomized file tables (tight time ranges force duplicates, point ranges,
and adjacent ranges) and compares the indexed answer against the obvious
O(n) reference, plus the persistence layer's corruption detection at every
possible truncation point.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IndexCorruptionError
from repro.iotdb.backends import LocalDirStore
from repro.iotdb.interval_index import INDEX_FILE_NAME as KEY
from repro.iotdb.interval_index import IndexEntry, IntervalIndex


@st.composite
def _entry_tables(draw, max_size=30):
    """Random file tables over a tiny time domain: collisions, point
    ranges (min == max), and adjacent ranges all occur constantly."""
    size = draw(st.integers(0, max_size))
    entries = []
    for i in range(size):
        a = draw(st.integers(0, 50))
        b = draw(st.integers(0, 50))
        space = draw(st.sampled_from(["seq", "unseq"]))
        entries.append(
            IndexEntry(
                file_id=f"{space}-{i:06d}",
                space=space,
                min_time=min(a, b),
                max_time=max(a, b),
            )
        )
    return entries


def _brute_force(entries, start, end):
    """The O(n) reference: scan every file's range."""
    return {e.file_id for e in entries if e.max_time >= start and e.min_time < end}


@settings(max_examples=200, deadline=None)
@given(entries=_entry_tables(), start=st.integers(-5, 55), length=st.integers(1, 60))
def test_candidates_equal_brute_force_scan(entries, start, length):
    index = IntervalIndex(entries)
    assert index.candidates(start, start + length) == _brute_force(
        entries, start, start + length
    )


@settings(max_examples=200, deadline=None)
@given(entries=_entry_tables(), start=st.integers(-5, 55), length=st.integers(1, 60))
def test_pruned_files_are_provably_disjoint(entries, start, length):
    # The contrapositive the executor relies on: every file *not* in the
    # candidate set lies entirely outside the query range.
    end = start + length
    candidates = IntervalIndex(entries).candidates(start, end)
    for e in entries:
        if e.file_id not in candidates:
            assert e.max_time < start or e.min_time >= end


@settings(max_examples=100, deadline=None)
@given(entries=_entry_tables(), lo=st.integers(-5, 55), width=st.integers(0, 60))
def test_overlapping_equals_closed_interval_scan(entries, lo, width):
    # The compaction scheduler's overlap measure: closed-interval both ends.
    hi = lo + width
    got = IntervalIndex(entries).overlapping(lo, hi)
    expected = [e for e in entries if e.min_time <= hi and e.max_time >= lo]
    assert sorted(got) == sorted(expected)


@settings(max_examples=100, deadline=None)
@given(
    entries=_entry_tables(max_size=15),
    removals=st.lists(st.integers(0, 14), max_size=8),
    start=st.integers(-5, 55),
    length=st.integers(1, 60),
)
def test_incremental_maintenance_matches_rebuild(entries, removals, start, length):
    # add()/remove() one at a time must land on the same structure as
    # building from scratch — the shard maintains the index incrementally
    # across seals and compactions.
    incremental = IntervalIndex()
    for e in entries:
        incremental.add(e)
    gone = {entries[i].file_id for i in removals if i < len(entries)}
    incremental.remove(gone)
    survivors = [e for e in entries if e.file_id not in gone]
    rebuilt = IntervalIndex(survivors)
    assert incremental.entries() == rebuilt.entries()
    assert incremental.candidates(start, start + length) == rebuilt.candidates(
        start, start + length
    )
    for e in entries:
        assert incremental.covers(e.file_id) == (e.file_id not in gone)


@settings(max_examples=50, deadline=None)
@given(entries=_entry_tables(), start=st.integers(-5, 55))
def test_empty_and_inverted_ranges_have_no_candidates(entries, start):
    index = IntervalIndex(entries)
    assert index.candidates(start, start) == set()
    assert index.candidates(start, start - 3) == set()


@settings(max_examples=50, deadline=None)
@given(entries=_entry_tables())
def test_save_load_roundtrip(entries, tmp_path_factory):
    store = LocalDirStore(tmp_path_factory.mktemp("idx"))
    index = IntervalIndex(entries)
    index.save_to(store, KEY)
    loaded = IntervalIndex.load_from(store, KEY)
    assert loaded.entries() == index.entries()


def test_every_truncation_prefix_is_detected(tmp_path):
    store = LocalDirStore(tmp_path)
    entries = [
        IndexEntry(file_id=f"seq-{i:06d}", space="seq", min_time=i, max_time=i + 5)
        for i in range(4)
    ]
    IntervalIndex(entries).save_to(store, KEY)
    blob = store.get(KEY)
    for cut in range(len(blob)):
        store.put(KEY, blob[:cut])
        with pytest.raises(IndexCorruptionError):
            IntervalIndex.load_from(store, KEY)
    store.put(KEY, blob)
    loaded = IntervalIndex.load_from(store, KEY)
    assert loaded.entries() == IntervalIndex(entries).entries()


def test_bit_flips_are_detected(tmp_path):
    store = LocalDirStore(tmp_path)
    IntervalIndex(
        [IndexEntry(file_id="unseq-000001", space="unseq", min_time=3, max_time=9)]
    ).save_to(store, KEY)
    blob = store.get(KEY)
    flipped = bytearray(blob)
    # Flip one bit inside the JSON payload (past magic + checksum lines).
    payload_start = blob.index(b"\n", blob.index(b"\n") + 1) + 1
    flipped[payload_start + 5] ^= 0x04
    store.put(KEY, bytes(flipped))
    with pytest.raises(IndexCorruptionError):
        IntervalIndex.load_from(store, KEY)


def test_missing_file_is_corruption_not_crash(tmp_path):
    with pytest.raises(IndexCorruptionError):
        IntervalIndex.load_from(LocalDirStore(tmp_path), "no-such-index.json")
