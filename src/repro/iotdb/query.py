"""Time-range queries over memtables and sealed TsFiles (paper §V-C, §VI-A2).

"For querying, the search needs to be based on an ordered time series" —
the working memtable's TVList must be sorted before it can serve a range
scan, and that sort is on the query's critical path ("The query process in
IoTDB takes the lock and blocks the write process", §VI-D1).  The paper's
query-throughput experiment measures precisely this cost, so
:class:`QueryResult` carries the sort seconds separately.

One read path: the shard hands :meth:`TimeRangeQueryExecutor.execute` a
range's sources as two lists, each stalest first: the sealed files, then
the live memtables (``seq files < unseq files < flushing memtables <
working memtables``, write order within each).  Every source yields one
column cut to the range — a sealed page by
:func:`~repro.iotdb.tsfile.cut_range`, a live TVList by
:meth:`~repro.iotdb.tvlist.TVList.cut_range` — and
:func:`merge_last_write_wins`, shared with compaction, applies IoTDB's
overwrite rule: for duplicate timestamps the *freshest* source wins.

The query sorts each live TVList **in place**, under the shard lock the
shard's ``query``/``aggregate`` hold (as does every flush), through the one
sort entry point :meth:`~repro.iotdb.tvlist.TVList.sort_in_place`.  The
TVList remembers how far it is sorted, so a tail query sorts only the
points that arrived since the previous query and backward-merges them in,
and the flush inherits what the queries sorted.

The source contract, stated once: **every source yields a strictly
increasing column**.  A sealed chunk does by construction
(:meth:`~repro.iotdb.tsfile.TsFileWriter.write_chunk` refuses anything
else); a memtable does because ``TVList.is_sorted`` means strictly
increasing, and the sort collapses duplicates in arrival order.
Duplicates therefore exist only *between* sources, so the merge
concatenates columns whose spans do not overlap and resolves only the
columns that do.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.instrumentation import SortStats
from repro.core.sorter import Sorter
from repro.errors import QueryError
from repro.iotdb.memtable import MemTable
from repro.iotdb.tsfile import TsFileReader
from repro.obs import NOOP, Observability


@dataclass
class QueryStats:
    """Cost breakdown of one time-range query."""

    sort_seconds: float = 0.0
    total_seconds: float = 0.0
    points_scanned: int = 0
    points_returned: int = 0
    sources_visited: int = 0
    #: Sealed files actually opened (consulted) for this query.
    files_opened: int = 0
    #: Sealed files the interval index proved disjoint from the range.
    files_pruned: int = 0
    sort_stats: SortStats = field(default_factory=SortStats)


@dataclass
class QueryResult:
    """Points of ``SELECT * WHERE start <= time < end`` plus cost stats."""

    timestamps: list[int]
    values: list
    stats: QueryStats

    def __len__(self) -> int:
        return len(self.timestamps)


def merge_last_write_wins(columns) -> tuple[list[int], list]:
    """Merge strictly increasing ``(ts, vs)`` columns given stalest first:
    one strictly increasing column in which the freshest write of a
    timestamp wins.

    The one last-write-wins merge — the query executor calls it over a
    range's sources, compaction over a column's selected chunks.  Empty
    columns are dropped and a lone column is returned unchanged.  The rest
    are swept in start order into groups of overlapping spans: a group of
    one is concatenated as it is, without comparing points, and only a
    group of overlapping columns is resolved through a dict in freshness
    order.
    """
    live = [(ts, vs) for ts, vs in columns if ts]
    spans = [(ts[0], ts[-1]) for ts, _ in live]
    groups: list[list[int]] = []
    group_end = 0
    for index in sorted(range(len(live)), key=spans.__getitem__):
        start, stop = spans[index]
        if groups and start <= group_end:
            groups[-1].append(index)
            group_end = max(group_end, stop)
        else:
            groups.append([index])
            group_end = stop
    pieces = []
    for group in groups:
        if len(group) == 1:
            pieces.append(live[group[0]])
            continue
        merged: dict[int, object] = {}
        for index in sorted(group):  # freshness order: later columns win
            merged.update(zip(*live[index]))
        keys = sorted(merged)
        pieces.append((keys, [merged[t] for t in keys]))
    if len(pieces) == 1:
        return pieces[0]
    out_t: list[int] = []
    out_v: list = []
    for ts, vs in pieces:
        out_t.extend(ts)  # repro: allow(stats-accounting): column concat, not a sort
        out_v.extend(vs)
    return out_t, out_v


class TimeRangeQueryExecutor:
    """Executes range scans against an engine's current source set."""

    def __init__(self, sorter: Sorter, obs: Observability = NOOP) -> None:
        self._sorter = sorter
        self._obs = obs

    def execute(
        self,
        device: str,
        sensor: str,
        start: int,
        end: int,
        *,
        files: list[tuple[str | None, TsFileReader]] = (),
        memtables: list[MemTable] = (),
        index=None,
    ) -> QueryResult:
        """Gather each source's sorted in-range column, then merge them.

        ``files`` and ``memtables`` are each stalest first, and every
        memtable is fresher than every file.  Sealed files arrive as
        ``(file_id, reader)`` pairs.  With an
        :class:`~repro.iotdb.interval_index.IntervalIndex` injected via
        ``index``, the executor opens only the files whose
        ``[min_time, max_time]`` intersects ``[start, end)`` — files the
        index proves disjoint are counted in ``stats.files_pruned`` and
        never read.  A file the index does not know (or one passed with
        ``file_id=None``) is always opened (defensive: pruning may skip
        work, never data).  Each memtable's TVList of the column is sorted
        in place, so the caller must hold the lock its writers and flushes
        take.  ``stats.points_scanned`` counts what was decoded, or held by
        a sorted live TVList, to answer; ``points_returned`` what survived
        the range cut and the merge.
        """
        if start >= end:
            raise QueryError(f"empty time range [{start}, {end})")
        obs = self._obs
        stats = QueryStats()
        candidate_ids = index.candidates(start, end) if index is not None else None
        started = obs.clock.now()
        # Freshness order: later columns overwrite earlier ones.
        columns: list[tuple[list[int], list]] = []
        for file_id, reader in files:
            if (
                candidate_ids is not None
                and file_id is not None
                and file_id not in candidate_ids
                and index.covers(file_id)
            ):
                stats.files_pruned += 1
                continue
            stats.files_opened += 1
            decoded_before = reader.points_decoded
            ts, vs = reader.query_range(device, sensor, start, end)
            stats.points_scanned += reader.points_decoded - decoded_before
            if ts:
                stats.sources_visited += 1
                columns.append((ts, vs))

        for memtable in memtables:
            tvlist = memtable.chunk(device, sensor)
            if tvlist is None or len(tvlist) == 0:
                continue
            stats.sources_visited += 1
            timed = tvlist.sort_in_place(
                self._sorter, obs=obs, site="query", series=f"{device}.{sensor}"
            )
            stats.sort_seconds += timed.seconds
            stats.sort_stats.merge(timed.stats)
            stats.points_scanned += len(tvlist)
            columns.append(tvlist.cut_range(start, end))

        out_t, out_v = merge_last_write_wins(columns)
        stats.points_returned = len(out_t)
        stats.total_seconds = obs.clock.now() - started
        return QueryResult(timestamps=out_t, values=out_v, stats=stats)
