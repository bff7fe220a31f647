"""MemTable: the working / flushing in-memory table (paper §V-A).

"In Apache IoTDB, the memtable is divided into two categories, the active
memtable (working memtable) and immutable memtable (flushing memtable)."
A memtable owns one TVList per (device, sensor) column; when its point
count crosses the flush threshold the engine transitions it from WORKING to
FLUSHING (no further writes accepted) and hands it to the flush pipeline.

The batch is the only unit of work: :meth:`MemTable.write_batch` is the one
write entry point (a single point is a batch of one), and the validation it
performs is also exposed on its own (:func:`check_timestamps`,
:meth:`MemTable.check_values`) so the shard can reject a bad batch before
anything is logged.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator

from repro.analysis.concurrency import apply_guards, create_lock
from repro.errors import InvalidParameterError, MemTableFlushedError
from repro.iotdb.config import IoTDBConfig, TSDataType
from repro.iotdb.tvlist import TVList
from repro.iotdb.typed_tvlists import infer_dtype, tvlist_for
from repro.obs import NOOP, Observability


def check_timestamps(timestamps) -> None:
    """Reject the whole batch unless every timestamp is a (non-bool) int."""
    for timestamp in timestamps:
        if not isinstance(timestamp, int) or isinstance(timestamp, bool):
            raise InvalidParameterError(
                f"timestamp must be int, got {type(timestamp).__name__}"
            )


class MemTableState(Enum):
    WORKING = "working"
    FLUSHING = "flushing"
    FLUSHED = "flushed"


class MemTable:
    """One generation of in-memory data for a storage group.

    Schema is per-column and sticky: the first value written to a
    (device, sensor) pins its :class:`TSDataType`; later writes of another
    type are rejected at ingestion (the typed-TVList validation of §V-A).

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

    def check_values(self, device: str, sensor: str, values) -> None:
        """Reject ``values`` unless the column's typed TVList would take
        every one (the column's pinned type, else the type its first value
        would pin).  Mutates nothing: the shard runs this over a whole
        batch *before* logging it, so a rejected write never reaches the
        WAL, then applies with ``write_batch(..., validated=True)``.
        """
        with self._lock:
            tvlist = self._chunks.get((device, sensor))
        if tvlist is None:
            tvlist = tvlist_for(infer_dtype(values[0]))
        tvlist.validate_all(values)

    def write_batch(
        self, device: str, sensor: str, timestamps, values, *, validated: bool = False
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
        ``validated=True`` is the caller's promise that
        :func:`check_timestamps` and :meth:`check_values` already passed on
        exactly these arguments, so nothing is validated twice.
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
                dtype = infer_dtype(values[0])
                tvlist = tvlist_for(dtype, array_size=self.config.array_size)
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

    def memory_slots(self) -> int:
        """Total allocated TVList slots across all chunks."""
        with self._lock:
            return sum(tv.memory_slots() for tv in self._chunks.values())
