"""Configuration for the IoTDB-substrate storage engine.

Defaults mirror the Apache IoTDB behaviour the paper describes:
Backward-Sort as the TVList sorter and a memtable flush threshold around
the "appropriate memory points size" of 100,000 (§VI-A3) — scaled down by
default so unit tests stay fast.  IoTDB's TVList array size (§V-B) has no
knob here: a TVList column is one flat buffer (see
:mod:`repro.iotdb.tvlist`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from repro.errors import InvalidParameterError


class TSDataType(Enum):
    """Column value types, mirroring IoTDB's typed TVList classes (§V-A)."""

    INT32 = "int32"
    INT64 = "int64"
    FLOAT = "float"
    DOUBLE = "double"
    BOOLEAN = "boolean"
    TEXT = "text"


@dataclass
class IoTDBConfig:
    """Tunable knobs of the storage substrate.

    Attributes:
        memtable_flush_threshold: total points across a memtable that
            trigger a flush.
        sorter: registry name of the TVList sorting algorithm — the paper's
            experiments swap this between ``backward``, ``quick``, ``tim``,
            ``patience``, ``ck`` and ``y``.
        sorter_options: constructor kwargs for the sorter (e.g. ``theta``).
        page_size: points per page inside a TsFile chunk.
        time_encoding: encoder for timestamp columns (``ts2diff`` default,
            IoTDB's TS_2DIFF).
        compression: page-payload compression: ``none`` (default) or
            ``zlib`` (IoTDB offers GZIP/SNAPPY at the same layer).
        data_dir: directory the engine persists under; ``None`` keeps
            everything in an engine-owned in-memory store (the
            benchmarking default — isolates sort cost from I/O noise,
            cf. DESIGN.md §4).
        wal_enabled: write records to a write-ahead log before the memtable.
        separation_enabled: route points older than the flush watermark to
            the unsequence memtable (§II: "any timestamp smaller than the
            current flushing time will be ingested into the unsequence
            memtable").
        deferred_flush: when True, a full memtable transitions to FLUSHING
            and writes continue into a fresh working memtable, but the
            sort-encode-write work happens later (at
            :meth:`StorageEngine.drain_flushes`, a query that needs it, or
            close) — IoTDB's asynchronous flush, "it is asynchronously
            awaited" (§VI-D2).  Queries served meanwhile read the flushing
            memtables directly.  When False (default), flushes run inline.
        ttl: time-to-live in timestamp units, relative to each column's
            latest event time (IoTDB's TTL, against event time since the
            substrate has no wall clock).  Expired points are invisible to
            queries/aggregations and dropped when a memtable flushes.
            ``None`` (default) disables expiry.
        shards: number of storage groups inside the engine (IoTDB's storage
            groups).  Each shard owns its own WAL pair, memtable pair,
            separation watermarks, and sealed-file list under its own lock;
            devices are routed by a stable hash of the device id, so a
            series always lands in the same shard across restarts.  On
            disk each shard keeps its files under ``data_dir/shard-NN/``.
        flush_workers: size of the shared flush/compaction thread pool.
            ``0`` (default) keeps every flush inline on the calling thread
            (fully deterministic — the crash harness relies on this);
            ``> 0`` lets ``drain_flushes``/``flush_all``/``compact`` fan
            out across shards concurrently.
        index_enabled: consult the per-shard interval index on the query
            path, opening only sealed files whose ``[min_time, max_time]``
            intersects the query range (see
            :mod:`repro.iotdb.interval_index`).  The index itself is
            always maintained (it also drives the overlap compaction
            scheduler); this knob gates only the query-time pruning, so
            ``False`` reproduces the scan-every-file behaviour bit for
            bit — the differential suite compares the two.
        compaction_policy: which sealed files a compaction pass merges:
            ``"full"`` (default) k-way merges every sealed file into one
            sequence file; ``"overlap"`` merges only unsequence files
            whose time range overlaps at least
            ``compaction_overlap_threshold`` sequence files (plus the
            overlapped sequence files and a write-order safety closure) —
            partial compaction that spends I/O where queries pay for it.
        compaction_overlap_threshold: minimum number of sequence files an
            unsequence file must overlap before the ``"overlap"`` policy
            selects it.
    """

    memtable_flush_threshold: int = 10_000
    sorter: str = "backward"
    sorter_options: dict = field(default_factory=dict)
    page_size: int = 1_024
    time_encoding: str = "ts2diff"
    compression: str = "none"
    data_dir: str | Path | None = None
    wal_enabled: bool = False
    separation_enabled: bool = True
    deferred_flush: bool = False
    ttl: int | None = None
    shards: int = 1
    flush_workers: int = 0
    index_enabled: bool = True
    compaction_policy: str = "full"
    compaction_overlap_threshold: int = 2

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise InvalidParameterError(f"shards must be >= 1, got {self.shards}")
        if self.flush_workers < 0:
            raise InvalidParameterError(
                f"flush_workers must be >= 0, got {self.flush_workers}"
            )
        if self.memtable_flush_threshold < 1:
            raise InvalidParameterError(
                "memtable_flush_threshold must be >= 1, "
                f"got {self.memtable_flush_threshold}"
            )
        if self.page_size < 1:
            raise InvalidParameterError(f"page_size must be >= 1, got {self.page_size}")
        if self.ttl is not None and self.ttl < 1:
            raise InvalidParameterError(f"ttl must be >= 1, got {self.ttl}")
        if self.compaction_policy not in ("full", "overlap"):
            raise InvalidParameterError(
                "compaction_policy must be 'full' or 'overlap', "
                f"got {self.compaction_policy!r}"
            )
        if self.compaction_overlap_threshold < 1:
            raise InvalidParameterError(
                "compaction_overlap_threshold must be >= 1, "
                f"got {self.compaction_overlap_threshold}"
            )
        if self.compression not in ("none", "zlib"):
            raise InvalidParameterError(
                f"compression must be 'none' or 'zlib', got {self.compression!r}"
            )
        if self.data_dir is not None:
            self.data_dir = Path(self.data_dir)
