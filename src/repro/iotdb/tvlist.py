"""TVList — IoTDB's in-memory buffer of <T, V> pairs (paper §V-B).

A TVList stores one sensor's points as two parallel growable columns, one
for times and one for values, in arrival order.  IoTDB's TVList is a deque
of fixed-size arrays ("a common compromise ... to allocate contiguous
block memory, similar to the design pattern of Deque"), which lets its
sort work in place through ``i // width`` index arithmetic (§V-C).
CPython never sorts in place — every sort, range cut and flush copies the
affected slice out into lists for the sorter — so here each column is one
flat buffer and the deque survives only in the §V-C ablation
(:mod:`repro.iotdb.tvlist_sort`).

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
than the suffix, the whole list is sorted as one.  The sort copies only the
affected slice out into lists and assigns it back with one slice assignment
per column; the copy costs the same for every algorithm, so relative
comparisons are preserved (DESIGN.md §4).

Column storage is pluggable per subclass: the base class backs both columns
with plain Python lists, while the typed subclasses in
:mod:`repro.iotdb.typed_tvlists` declare :data:`array.array` typecodes
(``'q'`` for int64 times and integer values, ``'d'`` for float values) so a
numeric column is one contiguous typed buffer.  ``put_all`` is the only
ingest routine: :meth:`TVList.put` is ``put_all`` of one point, so the
sorted/min/max bookkeeping exists once.  A sorted list answers a range read
with :meth:`TVList.cut_range`, which bisects the time column and copies
only the in-range slice.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
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

    #: ``array.array`` typecode of the time / value column; ``None`` keeps
    #: the column as a plain Python list (accepts any value).  The typed
    #: subclasses in :mod:`repro.iotdb.typed_tvlists` set these so a numeric
    #: column is one contiguous typed buffer.
    _TIME_TYPECODE: ClassVar[str | None] = None
    _VALUE_TYPECODE: ClassVar[str | None] = None

    def __init__(self) -> None:
        self._times = _column(self._TIME_TYPECODE)
        self._values = _column(self._VALUE_TYPECODE)
        self._max_time_seen: int | None = None
        self._min_time_seen: int | None = None
        #: ``[0, _sorted_upto)`` is strictly increasing.
        self._sorted_upto = 0

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
        ``validated=True`` so no value is checked twice.  Both columns are
        built before either is extended, so a timestamp the time column
        cannot hold also leaves the list untouched, and the
        min/max/sorted bookkeeping — which exists only here — is updated
        once per batch.
        """
        n = len(timestamps)
        if n != len(values):
            raise InvalidParameterError("timestamps and values lengths differ")
        if n == 0:
            return
        if not validated:
            self.validate_all(values)
        was_sorted = self._sorted_upto == len(self._times)
        tbuf = _column(self._TIME_TYPECODE, timestamps)
        vbuf = _column(self._VALUE_TYPECODE, values)
        self._times.extend(tbuf)
        self._values.extend(vbuf)
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
                self._sorted_upto = len(self._times)
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
        return len(self._times)

    @property
    def is_sorted(self) -> bool:
        """True when the timestamps strictly increase in list order."""
        return self._sorted_upto == len(self._times)

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

    def __iter__(self) -> Iterator[tuple[int, object]]:
        return zip(self._times, self._values)

    def timestamps(self) -> list[int]:
        """Flat copy of all timestamps in list order."""
        return list(self._times)

    def values(self) -> list:
        """Flat copy of all values in list order."""
        return list(self._values)

    def cut_range(self, start: int, end: int) -> tuple[list[int], list]:
        """The points with ``start <= t < end`` of a *sorted* list.

        The live memtable's range cut: two bisects over the time column,
        then a copy of the in-range slice alone.
        """
        lo = bisect_left(self._times, start)
        hi = bisect_left(self._times, end, lo)
        return list(self._times[lo:hi]), list(self._values[lo:hi])

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
        ``[w, n)`` is copied out and assigned back.  Otherwise the whole
        list is deduplicated and sorted as one.  Either way duplicate
        timestamps collapse, the last arrival winning, and the list shrinks
        — see :func:`dedupe_arrival` for why that happens before the sort.

        The returned ``seconds`` time the sorter; its ``stats`` also count
        the merge.  ``obs``/``site``/``series`` flow through to
        :meth:`Sorter.timed_sort`, so the sort lands in the span tree and the
        per-sorter metrics, and a sorter that caches state per series
        (:class:`~repro.core.backward_sort.BackwardSorter`'s block-size
        cache) can key it.
        """
        times, values = self._times, self._values
        n = len(times)
        k = self._sorted_upto
        if k == n:
            return TimedResult(seconds=0.0, stats=SortStats())
        if 2 * k < n:
            k = 0
        ts, vs = dedupe_arrival(list(times[k:]), list(values[k:]))
        timed = sorter.timed_sort(ts, vs, obs=obs, site=site, series=series)
        w = bisect_left(times, ts[0], 0, k)
        if w < k:
            ts = list(times[w:k]) + ts
            vs = list(values[w:k]) + vs
            merge_fresh_suffix(ts, vs, k - w, timed.stats)
        # One slice assignment per column: it also drops the slots the
        # dedupe and the merge freed.
        times[w:] = _column(self._TIME_TYPECODE, ts)
        values[w:] = _column(self._VALUE_TYPECODE, vs)
        self._sorted_upto = len(times)
        return timed


def _column(typecode: str | None, items=()):
    """``items`` as one column's storage: a typed array, or a list when
    ``typecode`` is ``None`` (a list passes through uncopied)."""
    if typecode is not None:
        return array(typecode, items)
    return items if isinstance(items, list) else list(items)


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
