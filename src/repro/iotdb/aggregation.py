"""Aggregation queries over time ranges (count / sum / avg / min / max / first / last).

The paper's evaluation uses the plain time-range query because it "is one of
the simplest query and the basis of the aggregation functions" (§VI-A2).
This module builds those aggregation functions as **one fold**: a partial
aggregate comes either from points (:func:`aggregate_from_points`) or from
a sealed page's pre-computed statistics (:func:`aggregate_from_statistics`),
and :func:`combine` merges two partials.  ``combine`` is associative and
does not depend on the order its operands arrive in — each partial carries
the times of its ``first``/``last`` values — so a file's position in a
shard's sealed list can never leak into an answer.

A sealed page *fully covered* by the query range contributes through its
statistics without being decoded (:func:`aggregate_sealed_chunk`); boundary
pages are decoded and cut to the range.  That is only correct when no other
source can rewrite a timestamp of the chunk;
:meth:`repro.iotdb.shard.StorageShard.aggregate` owns that decision and
otherwise folds the merged raw scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.errors import QueryError
from repro.iotdb.query import QueryResult
from repro.iotdb.tsfile import cut_range

#: The supported aggregation function names.
AGGREGATIONS = ("count", "sum", "avg", "min_value", "max_value", "first", "last")


@dataclass
class AggregationResult:
    """All aggregates of one (device, sensor, range) computed in one pass.

    ``None`` value-aggregates mean the range was empty (count == 0) or the
    column is non-numeric (sum/avg/min/max undefined for TEXT/BOOLEAN).
    """

    count: int
    sum: float | None
    avg: float | None
    min_value: object
    max_value: object
    first: object
    last: object
    pages_skipped: int = 0  # pages answered from statistics alone
    pages_decoded: int = 0
    #: Timestamps of ``first`` / ``last`` (``None`` when empty) — what lets
    #: :func:`combine` merge partials without knowing their order.
    first_time: int | None = None
    last_time: int | None = None

    def get(self, name: str):
        if name not in AGGREGATIONS:
            raise QueryError(
                f"unknown aggregation {name!r}; available: {', '.join(AGGREGATIONS)}"
            )
        return getattr(self, name)


def empty_aggregate() -> AggregationResult:
    """The fold's identity: the aggregate of no points."""
    return AggregationResult(
        count=0, sum=None, avg=None, min_value=None, max_value=None,
        first=None, last=None,
    )


def _points_partial(ts: list[int], vs: list) -> AggregationResult:
    if not ts:
        return empty_aggregate()
    numeric = isinstance(vs[0], (int, float)) and not isinstance(vs[0], bool)
    total = float(sum(vs)) if numeric else None
    return AggregationResult(
        count=len(ts),
        sum=total,
        avg=total / len(ts) if numeric else None,
        min_value=min(vs) if numeric else None,
        max_value=max(vs) if numeric else None,
        first=vs[0],
        last=vs[-1],
        first_time=ts[0],
        last_time=ts[-1],
    )


def aggregate_from_points(result: QueryResult) -> AggregationResult:
    """Aggregate a merged raw query result (the always-correct slow path)."""
    return _points_partial(result.timestamps, result.values)


def aggregate_from_statistics(stats) -> AggregationResult:
    """A numeric page's :class:`~repro.iotdb.tsfile.PageStatistics` *are* its
    aggregate: the partial of a page answered without decoding it."""
    return AggregationResult(
        count=stats.count,
        sum=stats.sum_value,
        avg=stats.sum_value / stats.count,
        min_value=stats.min_value,
        max_value=stats.max_value,
        first=stats.first_value,
        last=stats.last_value,
        pages_skipped=1,
        first_time=stats.min_time,
        last_time=stats.max_time,
    )


def combine(a: AggregationResult, b: AggregationResult) -> AggregationResult:
    """Merge the partial aggregates of two disjoint point sets, in any order."""
    if a.count == 0 or b.count == 0:
        keep, drop = (a, b) if b.count == 0 else (b, a)
        if drop.pages_skipped or drop.pages_decoded:  # a page cut to nothing
            return replace(
                keep,
                pages_skipped=a.pages_skipped + b.pages_skipped,
                pages_decoded=a.pages_decoded + b.pages_decoded,
            )
        return keep
    numeric = a.sum is not None and b.sum is not None
    total = a.sum + b.sum if numeric else None
    count = a.count + b.count
    earliest = a if a.first_time <= b.first_time else b
    latest = a if a.last_time >= b.last_time else b
    return AggregationResult(
        count=count,
        sum=total,
        avg=total / count if numeric else None,
        min_value=min(a.min_value, b.min_value) if numeric else None,
        max_value=max(a.max_value, b.max_value) if numeric else None,
        first=earliest.first,
        last=latest.last,
        pages_skipped=a.pages_skipped + b.pages_skipped,
        pages_decoded=a.pages_decoded + b.pages_decoded,
        first_time=earliest.first_time,
        last_time=latest.last_time,
    )


def aggregate_sealed_chunk(reader, chunk, start: int, end: int) -> AggregationResult:
    """Aggregate one sealed chunk over ``[start, end)``: fully covered numeric
    pages through their statistics, boundary pages decoded and cut.

    Only safe when no other source can rewrite a timestamp of this chunk
    inside the range; :meth:`StorageShard.aggregate` checks that
    precondition before calling.
    """
    total = empty_aggregate()
    for page in chunk.pages:
        stats = page.stats
        if stats.max_time < start or stats.min_time >= end:
            continue
        covered = start <= stats.min_time and stats.max_time < end
        if covered and stats.sum_value is not None:
            partial = aggregate_from_statistics(stats)
        else:
            partial = _points_partial(*reader.read_page(chunk, page, start, end))
            partial.pages_decoded = 1
        total = combine(total, partial)
    return total


@dataclass
class WindowAggregate:
    """One ``GROUP BY time`` bucket: ``[start, end)`` plus its aggregates."""

    start: int
    end: int
    result: AggregationResult


def aggregate_windows(
    result: QueryResult, start: int, end: int, window: int
) -> list[WindowAggregate]:
    """Bucket a merged raw query result into fixed time windows.

    This is the paper's §VI-E motivating computation — "the average speed of
    an engine in every minute" — which is only correct over time-ordered
    data: each bucket is one range cut of the merged, sorted result.  Buckets
    with no points report ``count == 0``.
    """
    if window < 1:
        raise QueryError(f"window must be >= 1, got {window}")
    if start >= end:
        raise QueryError(f"empty time range [{start}, {end})")
    ts, vs = result.timestamps, result.values
    buckets: list[WindowAggregate] = []
    for lo in range(start, end, window):
        hi = min(lo + window, end)
        buckets.append(
            WindowAggregate(lo, hi, _points_partial(*cut_range(ts, vs, lo, hi)))
        )
    return buckets


def is_close(a: float | None, b: float | None, rel: float = 1e-9) -> bool:
    """Tolerant float comparison used by the aggregation equivalence tests."""
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)
