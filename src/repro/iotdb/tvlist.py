"""TVList — IoTDB's in-memory buffer of <T, V> pairs (paper §V-B).

A TVList stores one sensor's points as parallel *lists of fixed-size
arrays* ("a common compromise ... to allocate contiguous block memory,
similar to the design pattern of Deque, to achieve a trade-off between
memory utilization and memory access").  Appends fill the tail array and
allocate a new one when full; random access decomposes an index into
(array, offset).

Sorting: a TVList remembers how far it is sorted.  Its first
``sorted_upto`` points are *strictly* increasing, and
:attr:`TVList.is_sorted` means the whole list is.  The prefix grows by whole
batches only: a :meth:`TVList.put_all` batch that strictly increases past
the maximum of an already sorted list extends it; any other batch (one that
goes back in time *or rewrites the latest timestamp*) leaves it where it
was.  A sorted list is therefore also duplicate-free, which is the read
path's source contract (:mod:`repro.iotdb.query`).

:meth:`TVList.sort_in_place` is the one sort entry point, for the query
path and the flush path alike, and both call it under the shard lock.  It
sorts only the points that arrived since the last sort: the unsorted
suffix has its duplicates collapsed in arrival order
(:func:`dedupe_arrival`), is sorted by the configured
:class:`~repro.core.sorter.Sorter`, and is backward-merged into the sorted
prefix (:func:`merge_fresh_suffix`).  Under delay-only arrival the merge
touches only the prefix tail the suffix reaches back into, which
Proposition 4 bounds.  So a tail query sorts what arrived since the previous
one, and the flush inherits the query's work.  When the prefix is shorter
than the suffix, the whole list is sorted as one.  The sort materialises
only the affected slice into flat arrays and writes it back.  IoTDB sorts
in place over the backing arrays through the same index arithmetic; the
flatten/write-back cost is the same for every algorithm, so relative
comparisons are preserved (DESIGN.md §4).

Column storage is pluggable per subclass: the base class backs both columns
with plain Python lists, while the typed subclasses in
:mod:`repro.iotdb.typed_tvlists` declare :data:`array.array` typecodes
(``'q'`` for int64 times and integer values, ``'d'`` for float values) so a
column is one contiguous typed buffer per backing array.  Bulk operations —
:meth:`TVList.put_all`, :meth:`TVList._write_back` — move whole slices
between the flat arrays and the backing arrays instead of decomposing every
index through ``divmod``.  ``put_all`` is the only ingest routine:
:meth:`TVList.put` is ``put_all`` of one point, so the sorted/min/max
bookkeeping exists once.  A sorted list answers a range read with
:meth:`TVList.cut_range`, which bisects the heads of the backing arrays and
flattens only the in-range slice.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import ClassVar, Iterator

from repro.core.backward_merge import merge_block_into_suffix
from repro.core.instrumentation import SortStats, TimedResult
from repro.core.sorter import Sorter
from repro.errors import InvalidParameterError
from repro.iotdb.config import TSDataType


class TVList:
    """Append-only list of (timestamp, value) pairs in arrival order.

    Subclasses (one per :class:`TSDataType`, mirroring IoTDB's DoubleTVList
    etc.) override :meth:`_validate_value`; this base class accepts any
    value.
    """

    dtype: TSDataType | None = None

    #: ``array.array`` typecode backing the time / value columns; ``None``
    #: keeps the column as a plain Python list (accepts any value).  The
    #: typed subclasses in :mod:`repro.iotdb.typed_tvlists` set these so a
    #: numeric column is one contiguous typed buffer per backing array.
    _TIME_TYPECODE: ClassVar[str | None] = None
    _VALUE_TYPECODE: ClassVar[str | None] = None

    def __init__(self, array_size: int = 32) -> None:
        if array_size < 1:
            raise InvalidParameterError(f"array_size must be >= 1, got {array_size}")
        self._array_size = array_size
        self._time_arrays: list = []
        self._value_arrays: list = []
        self._size = 0
        self._max_time_seen: int | None = None
        self._min_time_seen: int | None = None
        #: ``[0, _sorted_upto)`` is strictly increasing.
        self._sorted_upto = 0

    # -- backing-array storage --------------------------------------------

    def _new_time_array(self):
        """One fixed-size backing array for the time column."""
        if self._TIME_TYPECODE is None:
            return [0] * self._array_size
        return array(self._TIME_TYPECODE, (0,)) * self._array_size

    def _new_value_array(self):
        """One fixed-size backing array for the value column."""
        if self._VALUE_TYPECODE is None:
            return [None] * self._array_size
        return array(self._VALUE_TYPECODE, (0,)) * self._array_size

    def _as_time_buffer(self, ts):
        """A slice-assignable buffer matching the time-column storage."""
        if self._TIME_TYPECODE is None:
            return ts if isinstance(ts, list) else list(ts)
        return array(self._TIME_TYPECODE, ts)

    def _as_value_buffer(self, vs):
        """A slice-assignable buffer matching the value-column storage."""
        if self._VALUE_TYPECODE is None:
            return vs if isinstance(vs, list) else list(vs)
        return array(self._VALUE_TYPECODE, vs)

    # -- ingestion ---------------------------------------------------------

    def put(self, timestamp: int, value) -> None:
        """Append one point: a batch of one (see :meth:`put_all`)."""
        self.put_all((timestamp,), (value,))

    @classmethod
    def validate_all(cls, values) -> None:
        """Reject the whole batch if any value is of the wrong type.

        A class method, so a batch can be checked against a column type
        before any TVList of it exists.  The common batch passes on a few
        C-level scans (:meth:`_batch_is_valid`); any other batch is judged
        value by value by :meth:`_validate_value`.
        """
        if cls._batch_is_valid(values):
            return
        for value in values:
            cls._validate_value(value)

    @classmethod
    def _batch_is_valid(cls, values) -> bool:
        """Subclass hook: True only when ``values`` certainly all pass
        :meth:`_validate_value`.  False sends the batch to the per-value
        loop, so the shortcut never decides a rejection or its message."""
        return False

    def put_all(self, timestamps, values, *, validated: bool = False) -> None:
        """Append many points at once — the only ingest path.

        All-or-nothing on validation: every value is validated *before* any
        mutation, so a bad value mid-batch leaves the list untouched (the
        memtable's atomic ``write_batch`` relies on this).  A caller that
        already ran :meth:`validate_all` over exactly these values (the
        shard validates a batch before logging it) passes
        ``validated=True`` so no value is checked twice.  The batch is
        slice-filled into whole backing arrays, and the min/max/sorted
        bookkeeping — which exists only here — is updated once per batch.
        """
        n = len(timestamps)
        if n != len(values):
            raise InvalidParameterError("timestamps and values lengths differ")
        if n == 0:
            return
        if not validated:
            self.validate_all(values)
        was_sorted = self._sorted_upto == self._size
        tbuf = self._as_time_buffer(timestamps)
        vbuf = self._as_value_buffer(values)
        asize = self._array_size
        pos = 0
        while pos < n:
            offset = self._size % asize
            if offset == 0:
                self._time_arrays.append(self._new_time_array())
                self._value_arrays.append(self._new_value_array())
            take = min(asize - offset, n - pos)
            self._time_arrays[-1][offset : offset + take] = tbuf[pos : pos + take]
            self._value_arrays[-1][offset : offset + take] = vbuf[pos : pos + take]
            self._size += take
            pos += take
        if was_sorted:
            # The sorted prefix takes the whole batch only if the batch
            # strictly increases and starts after everything seen so far;
            # otherwise it stays where it was.  ``prev`` tracks the running
            # max, which *is* the previous element while the scan stays
            # strictly increasing.
            prev = self._max_time_seen
            for t in timestamps:
                if prev is not None and t <= prev:
                    break
                prev = t
            else:
                self._sorted_upto = self._size
        mn = min(timestamps)
        mx = max(timestamps)
        if self._max_time_seen is None or mx > self._max_time_seen:
            self._max_time_seen = mx
        if self._min_time_seen is None or mn < self._min_time_seen:
            self._min_time_seen = mn

    @classmethod
    def _validate_value(cls, value) -> None:
        """Subclass hook: reject values of the wrong type."""

    # -- access ------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def is_sorted(self) -> bool:
        """True when the timestamps strictly increase in list order."""
        return self._sorted_upto == self._size

    @property
    def sorted_upto(self) -> int:
        """Length of the strictly increasing prefix."""
        return self._sorted_upto

    @property
    def max_time(self) -> int | None:
        """Largest timestamp ingested so far (None when empty)."""
        return self._max_time_seen

    @property
    def min_time(self) -> int | None:
        """Smallest timestamp ingested so far (None when empty)."""
        return self._min_time_seen

    def get_time(self, index: int) -> int:
        self._check_index(index)
        return self._time_arrays[index // self._array_size][index % self._array_size]

    def get_value(self, index: int):
        self._check_index(index)
        return self._value_arrays[index // self._array_size][index % self._array_size]

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self._size:
            raise IndexError(f"index {index} out of range for TVList of size {self._size}")

    def __iter__(self) -> Iterator[tuple[int, object]]:
        for i in range(self._size):
            yield self.get_time(i), self.get_value(i)

    def timestamps(self) -> list[int]:
        """Flat copy of all timestamps in list order."""
        return self._flat(self._time_arrays, 0, self._size)

    def values(self) -> list:
        """Flat copy of all values in list order."""
        return self._flat(self._value_arrays, 0, self._size)

    def _flat(self, arrays: list, lo: int, hi: int) -> list:
        """Flat copy of slots ``[lo, hi)`` of one column's backing arrays."""
        if lo >= hi:
            return []
        asize = self._array_size
        first, a = divmod(lo, asize)
        last, b = divmod(hi - 1, asize)
        if first == last:
            return list(arrays[first][a : b + 1])
        out = list(arrays[first][a:])
        for arr in arrays[first + 1 : last]:
            out.extend(arr)
        out.extend(arrays[last][: b + 1])
        return out

    def _bisect(self, t: int, hi: int) -> int:
        """First index in ``[0, hi)`` whose timestamp is ``>= t``, else
        ``hi``; ``[0, hi)`` must be sorted.

        Two binary searches: one over the heads of the backing arrays, one
        inside the array whose head is the last below ``t``.
        """
        if hi == 0:
            return 0
        asize = self._array_size
        arrays = self._time_arrays
        index = bisect_left(arrays, t, 0, -(-hi // asize), key=itemgetter(0))
        if index == 0:
            return 0
        base = (index - 1) * asize
        return base + bisect_left(arrays[index - 1], t, 0, min(asize, hi - base))

    def cut_range(self, start: int, end: int) -> tuple[list[int], list]:
        """The points with ``start <= t < end`` of a *sorted* list.

        The live memtable's range cut: it bisects the backing arrays and
        flattens only the in-range slice.
        """
        lo = self._bisect(start, self._size)
        hi = self._bisect(end, self._size)
        return (
            self._flat(self._time_arrays, lo, hi),
            self._flat(self._value_arrays, lo, hi),
        )

    def memory_slots(self) -> int:
        """Allocated slots (>= size): the deque trade-off made visible."""
        return len(self._time_arrays) * self._array_size

    # -- sorting -----------------------------------------------------------

    def sort_in_place(
        self, sorter: Sorter, *, obs=None, site: str = "flush", series=None
    ) -> TimedResult:
        """Sort the list in place, leaving it strictly increasing.

        The one sort entry point: the query executor (``site="query"``) and
        the flush (``site="flush"``) both call it under the shard lock, so
        the flush inherits whatever a query already sorted.  An already
        sorted list costs nothing (IoTDB checks the same flag).

        When the sorted prefix ``[0, k)`` holds at least half the list, only
        the suffix ``[k, n)`` that arrived since is deduplicated and sorted,
        then merged into the prefix from ``w``, the first prefix point not
        below the suffix minimum (:func:`merge_fresh_suffix`); only
        ``[w, n)`` is flattened and written back.  Otherwise the whole list
        is deduplicated and sorted as one.  Either way duplicate timestamps
        collapse, the last arrival winning, and the list shrinks — see
        :func:`dedupe_arrival` for why that happens before the sort.

        The returned ``seconds`` time the sorter; its ``stats`` also count
        the merge.  ``obs``/``site``/``series`` flow through to
        :meth:`Sorter.timed_sort`, so the sort lands in the span tree and the
        per-sorter metrics, and a sorter that caches state per series
        (:class:`~repro.core.backward_sort.BackwardSorter`'s block-size
        cache) can key it.
        """
        n = self._size
        k = self._sorted_upto
        if k == n:
            return TimedResult(seconds=0.0, stats=SortStats())
        if 2 * k < n:
            k = 0
        ts, vs = dedupe_arrival(
            self._flat(self._time_arrays, k, n), self._flat(self._value_arrays, k, n)
        )
        timed = sorter.timed_sort(ts, vs, obs=obs, site=site, series=series)
        w = self._bisect(ts[0], k)
        if w < k:
            ts = self._flat(self._time_arrays, w, k) + ts
            vs = self._flat(self._value_arrays, w, k) + vs
            merge_fresh_suffix(ts, vs, k - w, timed.stats)
        self._shrink_to(w + len(ts))
        self._write_back(ts, vs, w)
        self._sorted_upto = self._size
        return timed

    def _shrink_to(self, size: int) -> None:
        if size == self._size:
            return
        self._size = size
        arrays = -(-size // self._array_size)
        del self._time_arrays[arrays:]
        del self._value_arrays[arrays:]

    def _write_back(self, ts: list[int], vs: list, start: int) -> None:
        """Copy the flat sorted arrays over slots ``[start, len)``.

        Whole-array slice assignment instead of a per-element ``divmod``
        loop: each backing array receives its span of the flat arrays in
        one bulk copy (a C-speed ``memcpy`` for typed columns).
        """
        tbuf = self._as_time_buffer(ts)
        vbuf = self._as_value_buffer(vs)
        asize = self._array_size
        index, offset = divmod(start, asize)
        pos = 0
        while pos < len(tbuf):
            take = min(asize - offset, len(tbuf) - pos)
            self._time_arrays[index][offset : offset + take] = tbuf[pos : pos + take]
            self._value_arrays[index][offset : offset + take] = vbuf[pos : pos + take]
            pos += take
            index += 1
            offset = 0


def dedupe_arrival(ts: list[int], vs: list) -> tuple[list[int], list]:
    """Collapse duplicate timestamps in *arrival-order* arrays, last write wins.

    Must run **before** the sort: several registry sorters (Backward-Sort's
    block quicksort included) are unstable, so once a tie group has been
    through them the arrival order is gone and "keep the last element of the
    tie" resolves the overwrite to an arbitrary value.  Collapsing first
    means the sorter only ever sees unique keys, so stability stops
    mattering.  Survivors keep their original relative order.
    """
    last: dict[int, int] = {}
    for i, t in enumerate(ts):
        last[t] = i
    if len(last) == len(ts):
        return ts, vs
    keep = sorted(last.values())  # repro: allow(stats-accounting): O(k log k) dedupe index sort, not a point sort
    return [ts[i] for i in keep], [vs[i] for i in keep]  # repro: allow(parallel-arrays): dedupe, not a sort


def merge_fresh_suffix(ts: list[int], vs: list, split: int, stats: SortStats) -> None:
    """Merge the fresher ``ts[split:]`` into ``ts[:split]`` in place, last
    write wins.

    Both halves must be strictly increasing, and every point of the second
    must have arrived after every point of the first: the points since a
    TVList's last sort, merged into its sorted prefix.  Backward-Sort's own
    backward merge (:func:`~repro.core.backward_merge.merge_block_into_suffix`)
    interleaves them.  It is stable, so a timestamp on both sides comes out
    as the older point directly followed by the fresher one.  Such pairs
    sit at or below the old maximum ``ts[split - 1]``, so only that head is
    scanned, and the older point of each pair is dropped.  Comparisons and
    moves are counted into ``stats``.
    """
    old_max = ts[split - 1]
    merge_block_into_suffix(ts, vs, 0, split, stats)
    head = bisect_right(ts, old_max)
    stale = {i for i in range(head - 1) if ts[i] == ts[i + 1]}
    stats.comparisons += max(head.bit_length(), 1) + max(head - 1, 0)
    if stale:
        keep = [i for i in range(head) if i not in stale]
        ts[:head] = [ts[i] for i in keep]
        vs[:head] = [vs[i] for i in keep]
        stats.moves += len(ts)  # the kept head, and the tail shifted after it
