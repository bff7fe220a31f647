"""Backward-Sort directly over IoTDB's deque-of-arrays TVList (paper §V-C).

"We abstract the core part of the sorting algorithm as interfaces to reuse
the code ... Thereby, the facilities of TVList can be used directly."  In
IoTDB a TVList is a deque of fixed-size arrays (§V-B), and the sorter reads
and writes its slots through index arithmetic (``array = i // width``,
``offset = i % width``) rather than copying into a flat buffer.  This
module keeps that layout on its own, as :class:`ArrayDeque`, and runs a full
Backward-Sort (block quicksort + insertion cutoff + backward merge with an
overlap buffer) whose every element access goes through it.

The engine's :class:`~repro.iotdb.tvlist.TVList` keeps two flat columns and
sorts a copied-out slice (:meth:`TVList.sort_in_place`), so the trade-off
can be *measured* (``benchmarks/bench_ablation_tvlist.py``): in Java the
direct path avoids a copy; in CPython the div/mod per access costs more
than the flat copy saves — an honest constant-factor inversion worth
documenting, not hiding.
"""

from __future__ import annotations

from repro.core.block_size import DEFAULT_L0, DEFAULT_THETA
from repro.core.instrumentation import SortStats, TimedResult
from repro.errors import InvalidParameterError


class ArrayDeque:
    """IoTDB's TVList layout: parallel deques of ``width``-slot arrays.

    Built from two flat columns (lists or ``array.array``s); each backing
    array is a slice of its column, so a typed column gives typed backing
    arrays.  ``is_sorted`` is IoTDB's flag: strictly increasing timestamps.
    """

    def __init__(self, timestamps, values, width: int = 32) -> None:
        if width < 1:
            raise InvalidParameterError(f"width must be >= 1, got {width}")
        if len(timestamps) != len(values):
            raise InvalidParameterError("timestamps and values lengths differ")
        self.width = width
        self.size = len(timestamps)
        starts = range(0, self.size, width)
        self.time_arrays = [timestamps[i : i + width] for i in starts]
        self.value_arrays = [values[i : i + width] for i in starts]
        self.is_sorted = all(a < b for a, b in zip(timestamps, timestamps[1:]))

    def timestamps(self) -> list[int]:
        """Flat copy of all timestamps in slot order."""
        return [t for arr in self.time_arrays for t in arr]

    def values(self) -> list:
        """Flat copy of all values in slot order."""
        return [v for arr in self.value_arrays for v in arr]

    def time(self, i: int) -> int:
        return self.time_arrays[i // self.width][i % self.width]

    def pair(self, i: int):
        arr, off = divmod(i, self.width)
        return self.time_arrays[arr][off], self.value_arrays[arr][off]

    def set_pair(self, i: int, t: int, v) -> None:
        arr, off = divmod(i, self.width)
        self.time_arrays[arr][off] = t
        self.value_arrays[arr][off] = v

    def swap(self, i: int, j: int) -> None:
        ai, oi = divmod(i, self.width)
        aj, oj = divmod(j, self.width)
        ti, vi = self.time_arrays[ai][oi], self.value_arrays[ai][oi]
        self.time_arrays[ai][oi] = self.time_arrays[aj][oj]
        self.value_arrays[ai][oi] = self.value_arrays[aj][oj]
        self.time_arrays[aj][oj] = ti
        self.value_arrays[aj][oj] = vi


def _insertion(acc: ArrayDeque, lo: int, hi: int, stats: SortStats) -> None:
    comparisons = 0
    moves = 0
    for i in range(lo + 1, hi):
        key_t, key_v = acc.pair(i)
        j = i - 1
        comparisons += 1
        if acc.time(j) <= key_t:
            continue
        while j >= lo:
            tj, vj = acc.pair(j)
            if tj > key_t:
                acc.set_pair(j + 1, tj, vj)
                moves += 1
                j -= 1
                if j >= lo:
                    comparisons += 1
            else:
                break
        acc.set_pair(j + 1, key_t, key_v)
        moves += 1
    stats.comparisons += comparisons
    stats.moves += moves


def _quicksort(acc: ArrayDeque, lo: int, hi: int, stats: SortStats) -> None:
    """Middle-pivot Hoare quicksort on ``[lo, hi)`` with insertion cutoff."""
    comparisons = 0
    moves = 0
    stack = [(lo, hi - 1)]
    while stack:
        left, right = stack.pop()
        while right - left + 1 > 32:
            pivot = acc.time((left + right) >> 1)
            i, j = left - 1, right + 1
            while True:
                i += 1
                comparisons += 1
                while acc.time(i) < pivot:
                    i += 1
                    comparisons += 1
                j -= 1
                comparisons += 1
                while acc.time(j) > pivot:
                    j -= 1
                    comparisons += 1
                if i >= j:
                    break
                acc.swap(i, j)
                moves += 3
            if j - left < right - j - 1:
                stack.append((j + 1, right))
                right = j
            else:
                stack.append((left, j))
                left = j + 1
        if right > left:
            _insertion(acc, left, right + 1, stats)
    stats.comparisons += comparisons
    stats.moves += moves


def _merge_block(acc: ArrayDeque, w_start: int, s: int, stats: SortStats) -> None:
    """Backward-merge block ``[w_start, s)`` into the sorted suffix at ``s``."""
    n = acc.size
    stats.comparisons += 1
    if acc.time(s - 1) <= acc.time(s):
        stats.merges += 1
        return
    block_max = acc.time(s - 1)
    # Overlap length into the suffix (linear probe is fine: Q is small).
    u = 0
    while s + u < n and acc.time(s + u) < block_max:
        u += 1
        stats.comparisons += 1
    buf = [acc.pair(s + k) for k in range(u)]
    stats.moves += u
    stats.note_extra_space(u)
    k = s + u - 1
    i = s - 1
    j = u - 1
    comparisons = 0
    moves = 0
    while j >= 0 and i >= w_start:
        ti, vi = acc.pair(i)
        comparisons += 1
        if buf[j][0] >= ti:
            acc.set_pair(k, *buf[j])
            j -= 1
        else:
            acc.set_pair(k, ti, vi)
            i -= 1
        moves += 1
        k -= 1
    while j >= 0:
        acc.set_pair(k, *buf[j])
        j -= 1
        k -= 1
        moves += 1
    stats.comparisons += comparisons
    stats.moves += moves
    stats.merges += 1
    stats.overlap_total += u


def backward_sort_tvlist_inplace(
    acc: ArrayDeque, theta: float = DEFAULT_THETA, l0: int = DEFAULT_L0
) -> TimedResult:
    """Run Backward-Sort over the deque's slots, never flattening.

    Mirrors Algorithm 1 end-to-end: sample the empirical IIR through the
    index arithmetic to pick ``L``, quicksort each block in place, and
    backward-merge the blocks with an overlap-sized buffer.
    """
    import time as _time

    stats = SortStats()
    start = _time.perf_counter()
    n = acc.size
    if n > 1 and not acc.is_sorted:
        # Set block size via down-sampled boundary probes (Algorithm 1, 1-8).
        size = l0
        loops = 0
        while size <= n:
            pairs = 0
            inverted = 0
            for i in range(0, n - size, size):
                pairs += 1
                if acc.time(i) > acc.time(i + size):
                    inverted += 1
            stats.scanned_points += pairs
            stats.comparisons += pairs
            loops += 1
            if pairs == 0 or inverted / pairs < theta:
                break
            size *= 2
        stats.block_size_loops = loops
        block = min(size, n)
        stats.block_size = block

        if block <= 1:
            _insertion(acc, 0, n, stats)
        elif block >= n:
            _quicksort(acc, 0, n, stats)
        else:
            bounds = [i * block for i in range(max(1, n // block))]
            bounds.append(n)
            stats.block_count = len(bounds) - 1
            for b in range(len(bounds) - 1):
                _quicksort(acc, bounds[b], bounds[b + 1], stats)
            for b in range(len(bounds) - 2, 0, -1):
                _merge_block(acc, bounds[b - 1], bounds[b], stats)
        # ``is_sorted`` promises *strictly* increasing; this sort keeps
        # duplicates, so the deque counts as sorted only when it has none.
        strict = all(acc.time(i) != acc.time(i + 1) for i in range(n - 1))
        acc.is_sorted = strict
    return TimedResult(seconds=_time.perf_counter() - start, stats=stats)
