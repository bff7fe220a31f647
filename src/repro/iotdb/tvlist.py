"""TVList — IoTDB's in-memory buffer of <T, V> pairs (paper §V-B).

A TVList stores one sensor's points as parallel *lists of fixed-size
arrays* ("a common compromise ... to allocate contiguous block memory,
similar to the design pattern of Deque, to achieve a trade-off between
memory utilization and memory access").  Appends fill the tail array and
allocate a new one when full; random access decomposes an index into
(array, offset).

Sorting: a TVList tracks whether its timestamps are *strictly* increasing
in arrival order (:attr:`TVList.is_sorted`): an append that goes back in
time *or rewrites the latest timestamp* clears the flag.  A sorted list is
therefore also duplicate-free, which is the read path's source contract
(:mod:`repro.iotdb.query`); every other list has its duplicates collapsed
in arrival order (:func:`dedupe_arrival`) before it is sorted, on the query
path and the flush path alike.  The sort
entry points materialise the (time, value) pairs into flat arrays, run the
configured :class:`~repro.core.sorter.Sorter`, and write back — IoTDB sorts
in place over the backing arrays through the same index arithmetic; the
flatten/write-back here costs the same for every algorithm, so relative
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
bookkeeping exists once.

``get_sorted_arrays`` is the *query* path: it never mutates the list (IoTDB
clones the working TVList for queries).  ``sort_in_place`` is the *flush*
path.  Both report sort timing and operation counts.
"""

from __future__ import annotations

from array import array
from typing import ClassVar, Iterator

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
        self._sorted = True

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

    def validate_all(self, values) -> None:
        """Reject the whole batch if any value is of the wrong type."""
        for value in values:
            self._validate_value(value)

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
        if self._sorted:
            # The list stays sorted only if the batch itself strictly
            # increases and starts after everything seen so far.  ``prev``
            # tracks the running max, which *is* the previous element while
            # the scan stays strictly increasing.
            prev = self._max_time_seen
            for t in timestamps:
                if prev is not None and t <= prev:
                    self._sorted = False
                    break
                prev = t
        mn = min(timestamps)
        mx = max(timestamps)
        if self._max_time_seen is None or mx > self._max_time_seen:
            self._max_time_seen = mx
        if self._min_time_seen is None or mn < self._min_time_seen:
            self._min_time_seen = mn

    def _validate_value(self, value) -> None:
        """Subclass hook: reject values of the wrong type."""

    # -- access ------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def is_sorted(self) -> bool:
        """True when timestamps strictly increase in arrival order: no
        append went back in time or repeated a timestamp."""
        return self._sorted

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
        """Flat copy of all timestamps in arrival order."""
        out: list[int] = []
        full, tail = divmod(self._size, self._array_size)
        for arr in self._time_arrays[:full]:
            out.extend(arr)
        if tail:
            out.extend(self._time_arrays[full][:tail])
        return out

    def values(self) -> list:
        """Flat copy of all values in arrival order."""
        out: list = []
        full, tail = divmod(self._size, self._array_size)
        for arr in self._value_arrays[:full]:
            out.extend(arr)
        if tail:
            out.extend(self._value_arrays[full][:tail])
        return out

    def memory_slots(self) -> int:
        """Allocated slots (>= size): the deque trade-off made visible."""
        return len(self._time_arrays) * self._array_size

    # -- sorting -----------------------------------------------------------

    def get_sorted_arrays(
        self, sorter: Sorter, *, obs=None, site: str = "query", series=None
    ) -> tuple[list[int], list, TimedResult]:
        """Query path: sorted copies of (times, values) without mutation.

        The result is strictly increasing.  Already-sorted lists skip the
        sort entirely (IoTDB checks the same flag); the returned
        :class:`TimedResult` then reports zero cost.
        ``obs``/``site``/``series`` flow through to :meth:`Sorter.timed_sort`
        so the sort lands in the span tree and the per-sorter metrics, and a
        block-size-caching sorter can key its cache by series.
        """
        ts = self.timestamps()
        vs = self.values()
        if self._sorted:
            return ts, vs, TimedResult(seconds=0.0, stats=SortStats())
        ts, vs = dedupe_arrival(ts, vs)
        timed = sorter.timed_sort(ts, vs, obs=obs, site=site, series=series)
        return ts, vs, timed

    def sort_in_place(
        self, sorter: Sorter, *, obs=None, site: str = "flush", series=None
    ) -> TimedResult:
        """Flush path: sort the backing arrays, returning timing + counters.

        Duplicate timestamps are collapsed (last arrival wins) *before* the
        sort, physically shrinking the list — see :func:`dedupe_arrival` for
        why this must happen pre-sort.  ``series`` identifies the column for
        sorters that cache state across consecutive sorts of the same series
        (:class:`~repro.core.backward_sort.BackwardSorter`'s block-size
        cache).
        """
        if self._sorted:
            return TimedResult(seconds=0.0, stats=SortStats())
        ts = self.timestamps()
        vs = self.values()
        ts, vs = dedupe_arrival(ts, vs)
        timed = sorter.timed_sort(ts, vs, obs=obs, site=site, series=series)
        self._shrink_to(len(ts))
        self._write_back(ts, vs)
        self._sorted = True
        return timed

    def _shrink_to(self, size: int) -> None:
        if size == self._size:
            return
        self._size = size
        arrays = -(-size // self._array_size)
        del self._time_arrays[arrays:]
        del self._value_arrays[arrays:]

    def _write_back(self, ts: list[int], vs: list) -> None:
        """Copy the flat sorted arrays back over the backing arrays.

        Whole-array slice assignment instead of a per-element ``divmod``
        loop: each backing array receives its span of the flat arrays in
        one bulk copy (a C-speed ``memcpy`` for typed columns).
        """
        tbuf = self._as_time_buffer(ts)
        vbuf = self._as_value_buffer(vs)
        asize = self._array_size
        for index in range(len(self._time_arrays)):
            lo = index * asize
            hi = min(lo + asize, self._size)
            if lo >= hi:
                break
            self._time_arrays[index][0 : hi - lo] = tbuf[lo:hi]
            self._value_arrays[index][0 : hi - lo] = vbuf[lo:hi]


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
