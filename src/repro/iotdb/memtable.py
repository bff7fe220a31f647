"""MemTable: the working / flushing in-memory table (paper §V-A).

"In Apache IoTDB, the memtable is divided into two categories, the active
memtable (working memtable) and immutable memtable (flushing memtable)."
A memtable owns one TVList per (device, sensor) column; when its point
count crosses the flush threshold the engine transitions it from WORKING to
FLUSHING (no further writes accepted) and hands it to the flush pipeline.

The batch is the only unit of work: :meth:`MemTable.write_batch` is the one
write entry point (a single point is a batch of one).  Its timestamp check
is also exposed on its own (:func:`check_timestamps`) and its value check
is the column type's :meth:`TVList.validate_all`, so the shard can reject a
bad batch before anything is logged.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator

from repro.analysis.concurrency import apply_guards, create_lock
from repro.errors import InvalidParameterError, MemTableFlushedError
from repro.iotdb.config import IoTDBConfig, TSDataType
from repro.iotdb.tvlist import TVList
from repro.iotdb.typed_tvlists import tvlist_for
from repro.obs import NOOP, Observability

_TIME_MIN, _TIME_MAX = -(2**63), 2**63 - 1
_INT_ONLY = frozenset({int})


def check_timestamps(timestamps) -> None:
    """Reject the whole batch unless every timestamp is a (non-bool) int
    that fits the int64 time column.

    A batch of plain ints inside the range passes on a few C-level scans;
    anything else is judged timestamp by timestamp.
    """
    if {*map(type, timestamps)} <= _INT_ONLY and (
        not timestamps
        or _TIME_MIN <= min(timestamps) and max(timestamps) <= _TIME_MAX
    ):
        return
    for timestamp in timestamps:
        if not isinstance(timestamp, int) or isinstance(timestamp, bool):
            raise InvalidParameterError(
                f"timestamp must be int, got {type(timestamp).__name__}"
            )
        if not _TIME_MIN <= timestamp <= _TIME_MAX:
            raise InvalidParameterError(f"timestamp {timestamp} out of int64 range")


class MemTableState(Enum):
    WORKING = "working"
    FLUSHING = "flushing"
    FLUSHED = "flushed"


class MemTable:
    """One generation of in-memory data for a storage group.

    Each (device, sensor) column is one typed TVList, and later writes of
    another type are rejected at ingestion (the typed-TVList validation of
    §V-A).  The memtable never decides a column's type: the owning shard
    pins it across memtables (:meth:`StorageShard._column_type`) and
    passes it in as ``write_batch(dtype=...)``.

    Concurrency discipline: ``_lock`` serialises writes and state
    transitions; the lock sits *below* the engine lock in the global order
    (the engine may call in holding its own lock, never the reverse).
    """

    #: Lock discipline for the ``guarded-by`` rule and runtime sanitizer.
    GUARDED_BY = {"_chunks": "_lock", "_total_points": "_lock", "state": "_lock"}

    def __init__(
        self, config: IoTDBConfig | None = None, *, obs: Observability = NOOP
    ) -> None:
        self.config = config if config is not None else IoTDBConfig()
        self.obs = obs
        self._lock = create_lock("MemTable._lock")
        self.state = MemTableState.WORKING
        self._chunks: dict[tuple[str, str], TVList] = {}
        self._total_points = 0
        # Pre-resolved child: the per-point cost of observability is one
        # method call (a no-op when ``obs`` is the shared NOOP).
        self._writes_counter = obs.registry.counter(
            "memtable_writes_total", "points accepted by any memtable"
        )
        apply_guards(self)

    # -- writes ------------------------------------------------------------

    def write_batch(
        self,
        device: str,
        sensor: str,
        timestamps,
        values,
        *,
        dtype: TSDataType,
        validated: bool = False,
    ) -> None:
        """Ingest a whole batch atomically: all points land, or none do.

        The only write entry point — a single point is a batch of one.  One
        lock acquisition, one state check, then apply-all.  The state is
        checked exactly once for the whole batch — the pre-fix per-point
        loop reacquired the lock for every point, so a ``mark_flushing``
        racing in mid-batch would half-apply it (accept a prefix, reject the
        rest) with no way for the caller to tell how far it got.  Validation
        is also all-or-nothing: timestamps are checked up front and
        :meth:`TVList.put_all` validates every value before mutating, so a
        bad record anywhere in the batch leaves the memtable untouched.

        A column new to this memtable gets the TVList of ``dtype``, the
        column's pinned type, so an all-int part of a DOUBLE column is
        still a DOUBLE column here.  ``validated=True`` is the
        caller's promise that :func:`check_timestamps` and the column
        type's :meth:`TVList.validate_all` already passed on exactly these
        arguments, so nothing is validated twice.
        """
        if len(timestamps) != len(values):
            raise InvalidParameterError("timestamps and values lengths differ")
        if not len(timestamps):
            return
        if not validated:
            check_timestamps(timestamps)
        with self._lock:
            if self.state is not MemTableState.WORKING:
                raise MemTableFlushedError(
                    f"memtable is {self.state.value}; writes are rejected"
                )
            key = (device, sensor)
            tvlist = self._chunks.get(key)
            created = tvlist is None
            if created:
                tvlist = tvlist_for(dtype)
            # put_all validates every value before appending any, so a
            # validation failure here leaves both the TVList and (via the
            # deferred registration below) the chunk map unchanged.
            tvlist.put_all(timestamps, values, validated=validated)
            if created:
                self._chunks[key] = tvlist
            self._total_points += len(timestamps)
            self._writes_counter.inc(len(timestamps))

    # -- state -------------------------------------------------------------

    @property
    def total_points(self) -> int:
        with self._lock:
            return self._total_points

    def should_flush(self) -> bool:
        """True once the configured point threshold is reached."""
        with self._lock:
            return self._total_points >= self.config.memtable_flush_threshold

    def mark_flushing(self) -> None:
        """WORKING → FLUSHING: the table becomes immutable."""
        with self._lock:
            if self.state is not MemTableState.WORKING:
                raise MemTableFlushedError(
                    f"cannot mark {self.state.value} memtable flushing"
                )
            self.state = MemTableState.FLUSHING

    def mark_flushed(self) -> None:
        """FLUSHING → FLUSHED: data is durable in a sealed TsFile."""
        with self._lock:
            if self.state is not MemTableState.FLUSHING:
                raise MemTableFlushedError(
                    f"cannot mark {self.state.value} memtable flushed"
                )
            self.state = MemTableState.FLUSHED

    # -- access ------------------------------------------------------------

    def chunk(self, device: str, sensor: str) -> TVList | None:
        with self._lock:
            return self._chunks.get((device, sensor))

    def chunk_dtype(self, device: str, sensor: str) -> TSDataType | None:
        with self._lock:
            tvlist = self._chunks.get((device, sensor))
            return tvlist.dtype if tvlist is not None else None

    def iter_chunks(self) -> Iterator[tuple[str, str, TVList]]:
        """Yield (device, sensor, tvlist) in deterministic order.

        The key set is snapshotted under the lock before yielding, so a
        FLUSHING table can be iterated while a WORKING sibling ingests.
        """
        with self._lock:
            snapshot = [
                (device, sensor, self._chunks[(device, sensor)])
                for (device, sensor) in sorted(self._chunks)
            ]
        yield from snapshot

    def devices(self) -> list[str]:
        with self._lock:
            return sorted({d for d, _ in self._chunks})

    def __len__(self) -> int:
        with self._lock:
            return self._total_points
