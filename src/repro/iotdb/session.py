"""A minimal SQL-ish session over the storage engine.

The paper's system benchmark issues literal statements (§VI-D)::

    SELECT *
    FROM data
    WHERE time > current - window

This module parses and executes exactly that family — plus the aggregation
forms those range scans are "the basis of" — against a
:class:`~repro.iotdb.engine.StorageEngine`:

* ``SELECT * FROM <device>.<sensor> [WHERE <time-predicates>]``
* ``SELECT count(*) | sum(v) | avg(v) | min(v) | max(v) | first(v) | last(v)
  FROM <device>.<sensor> [WHERE ...]``
* trailing ``GROUP BY (<window>)`` for windowed aggregation.

Time predicates: ``time >/>=/</<= <expr>`` joined by ``AND``, where
``<expr>`` is an integer literal or ``current [- <integer>]`` (``current``
resolves to the column's latest timestamp, as in the paper's query).  The
grammar is deliberately tiny — this is the paper's workload language, not a
general SQL engine.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import QueryError
from repro.iotdb.aggregation import aggregate_from_points, aggregate_windows
from repro.iotdb.query import QueryResult

_MAX_TIME = 2**62

_SELECT_RE = re.compile(
    r"^\s*select\s+(?P<projection>.+?)\s+from\s+(?P<path>[\w.\-]+)"
    r"(?:\s+where\s+(?P<where>.+?))?"
    r"(?:\s+group\s+by\s+\(\s*(?P<window>\d+)\s*\))?\s*;?\s*$",
    re.IGNORECASE | re.DOTALL,
)

_AGG_RE = re.compile(r"^(?P<fn>\w+)\s*\(\s*(?:\*|[\w]+)\s*\)$")

_PREDICATE_RE = re.compile(
    r"^time\s*(?P<op>>=|<=|>|<)\s*(?P<expr>current(?:\s*-\s*\d+)?|\d+)$",
    re.IGNORECASE,
)

_VALUE_PREDICATE_RE = re.compile(
    r"^(?:value|v)\s*(?P<op>>=|<=|>|<|=|!=)\s*(?P<literal>-?\d+(?:\.\d+)?)$",
    re.IGNORECASE,
)

_VALUE_OPS = {
    ">": lambda v, x: v > x,
    ">=": lambda v, x: v >= x,
    "<": lambda v, x: v < x,
    "<=": lambda v, x: v <= x,
    "=": lambda v, x: v == x,
    "!=": lambda v, x: v != x,
}

_AGG_NAMES = {
    "count": "count",
    "sum": "sum",
    "avg": "avg",
    "min": "min_value",
    "max": "max_value",
    "first": "first",
    "last": "last",
}


@dataclass
class ParsedQuery:
    """A validated statement ready for execution."""

    device: str
    sensor: str
    aggregation: str | None  # AggregationResult attribute name, or None for *
    start: int | None  # None until `current` is resolved
    end: int | None
    start_is_current_minus: int | None  # offset when start references current
    end_is_current_minus: int | None
    group_window: int | None
    value_predicates: tuple[tuple[str, float], ...] = ()


def parse(statement: str) -> ParsedQuery:
    """Parse one statement; raises :class:`QueryError` on anything else."""
    match = _SELECT_RE.match(statement)
    if not match:
        raise QueryError(f"cannot parse statement: {statement!r}")
    path = match.group("path")
    if "." not in path:
        raise QueryError(f"path must be <device>.<sensor>, got {path!r}")
    device, sensor = path.rsplit(".", 1)

    projection = match.group("projection").strip()
    aggregation: str | None
    if projection == "*":
        aggregation = None
    else:
        agg_match = _AGG_RE.match(projection)
        if not agg_match:
            raise QueryError(f"unsupported projection {projection!r}")
        fn = agg_match.group("fn").lower()
        if fn not in _AGG_NAMES:
            raise QueryError(
                f"unknown aggregation {fn!r}; supported: {', '.join(_AGG_NAMES)}"
            )
        aggregation = _AGG_NAMES[fn]

    start: int | None = 0
    end: int | None = _MAX_TIME
    start_cur: int | None = None
    end_cur: int | None = None
    value_predicates: list[tuple[str, float]] = []
    where = match.group("where")
    if where:
        for raw in re.split(r"\s+and\s+", where, flags=re.IGNORECASE):
            value_predicate = _VALUE_PREDICATE_RE.match(raw.strip())
            if value_predicate:
                value_predicates.append(
                    (value_predicate.group("op"), float(value_predicate.group("literal")))
                )
                continue
            predicate = _PREDICATE_RE.match(raw.strip())
            if not predicate:
                raise QueryError(f"unsupported predicate {raw.strip()!r}")
            op = predicate.group("op")
            expr = predicate.group("expr").lower().replace(" ", "")
            if expr.startswith("current"):
                offset = int(expr[8:]) if len(expr) > 7 else 0
                # Stored as "subtract this from current for the half-open
                # bound": inclusive start = current - start_cur, exclusive
                # end = current - end_cur.  Repeated predicates intersect:
                # the latest start is the smallest offset, the earliest end
                # the largest.
                if op in (">", ">="):
                    bound = offset - 1 if op == ">" else offset
                    start_cur = bound if start_cur is None else min(start_cur, bound)
                else:
                    bound = offset if op == "<" else offset - 1
                    end_cur = bound if end_cur is None else max(end_cur, bound)
            else:
                value = int(expr)
                if op == ">":
                    start = max(start, value + 1)
                elif op == ">=":
                    start = max(start, value)
                elif op == "<":
                    end = min(end, value)
                else:  # <=
                    end = min(end, value + 1)

    window = match.group("window")
    group_window = int(window) if window else None
    if group_window is not None and aggregation is None:
        raise QueryError("GROUP BY requires an aggregation projection")
    return ParsedQuery(
        device=device,
        sensor=sensor,
        aggregation=aggregation,
        start=start,
        end=end,
        start_is_current_minus=start_cur,
        end_is_current_minus=end_cur,
        group_window=group_window,
        value_predicates=tuple(value_predicates),
    )


def _filter_by_value(result, predicates: tuple[tuple[str, float], ...]):
    """Apply conjunctive value predicates to a raw query result."""
    checks = [(_VALUE_OPS[op], literal) for op, literal in predicates]
    ts = []
    vs = []
    for t, v in zip(result.timestamps, result.values):
        if all(check(v, literal) for check, literal in checks):
            ts.append(t)  # repro: allow(stats-accounting): value filter, not a sort
            vs.append(v)
    return QueryResult(timestamps=ts, values=vs, stats=result.stats)


class Session:
    """Statement-level access to one storage engine."""

    def __init__(self, engine) -> None:
        self.engine = engine

    def _resolve_range(self, parsed: ParsedQuery) -> tuple[int, int]:
        """The half-open ``[start, end)`` a statement reads.

        ``current`` resolves to the column's latest timestamp.  A ``GROUP
        BY`` with no upper bound ends at ``current + 1``: one bucket per
        window up to the latest point, not up to the end of time.
        """
        start, end = parsed.start, parsed.end
        unbounded_groups = parsed.group_window is not None and end == _MAX_TIME
        if (
            parsed.start_is_current_minus is not None
            or parsed.end_is_current_minus is not None
            or unbounded_groups
        ):
            current = self.engine.latest_time(parsed.device, parsed.sensor)
            if current is None:
                raise QueryError(
                    f"'current' is undefined: no data for {parsed.device}.{parsed.sensor}"
                )
            if parsed.start_is_current_minus is not None:
                start = max(start, current - parsed.start_is_current_minus)
            if parsed.end_is_current_minus is not None:
                end = min(end, current - parsed.end_is_current_minus)
            if unbounded_groups:
                end = min(end, current + 1)
        if start >= end:
            raise QueryError(f"empty time range [{start}, {end})")
        return start, end

    def execute(self, statement: str):
        """Run one statement.

        Returns:
            * ``SELECT *`` → :class:`~repro.iotdb.query.QueryResult`;
            * aggregation → the scalar value;
            * aggregation with ``GROUP BY (w)`` → list of
              ``(window_start, value)`` tuples.
        """
        parsed = parse(statement)
        start, end = self._resolve_range(parsed)
        if parsed.value_predicates:
            # Value filters force the raw-scan path: page statistics cannot
            # answer "sum where v > x".
            raw = self.engine.query(parsed.device, parsed.sensor, start, end)
            filtered = _filter_by_value(raw, parsed.value_predicates)
            if parsed.aggregation is None:
                return filtered
            if parsed.group_window is not None:
                buckets = aggregate_windows(filtered, start, end, parsed.group_window)
                return [(b.start, b.result.get(parsed.aggregation)) for b in buckets]
            return aggregate_from_points(filtered).get(parsed.aggregation)
        if parsed.aggregation is None:
            return self.engine.query(parsed.device, parsed.sensor, start, end)
        if parsed.group_window is not None:
            buckets = self.engine.aggregate_windows(
                parsed.device, parsed.sensor, start, end, parsed.group_window
            )
            return [(b.start, b.result.get(parsed.aggregation)) for b in buckets]
        result = self.engine.aggregate(parsed.device, parsed.sensor, start, end)
        return result.get(parsed.aggregation)

    def insert(self, device: str, sensor: str, timestamp: int, value) -> None:
        """Insert one point (a single-point batch through the batch path)."""
        self.engine.write_batch(device, sensor, [timestamp], [value])

    def insert_batch(self, device: str, sensor: str, timestamps, values) -> None:
        """Insert a batch of points through the engine's true batch path."""
        self.engine.write_batch(device, sensor, timestamps, values)
