"""StorageShard: one storage group's complete write/flush/query pipeline.

A shard is what the whole :class:`~repro.iotdb.engine.StorageEngine` used
to be: its own :class:`SegmentedWal` pair, working/flushing memtables,
separation watermarks, and sealed-file list, all serialised by one
re-entrant shard lock.  The engine facade owns a fixed tuple of shards and
routes every series to exactly one of them by a stable hash of the device
id, so shards never share mutable state and writes to different shards
proceed concurrently.

One write path: the batch is the only unit of work, and it crosses the
shard as two columns.  ``write_batch``, point writes
(``StorageEngine.write`` is a batch of one), and WAL replay all run the same
:meth:`StorageShard._ingest` routine — validate everything against the
column's pinned type, split by space with one watermark compare, one WAL
column frame per non-empty space, apply to the memtables, one
``should_flush`` per space — so there is exactly one commit point per unit
of work and a rejected write leaves no durable trace.  A column's type is
pinned per shard, not per memtable (:meth:`StorageShard._column_type`), so
a late write cannot give the unsequence memtable a second type of a column.

One read path: ``query``, ``aggregate`` and ``latest_time`` all start from
:meth:`StorageShard._column_sources` — the only walk over a column's
sources, in freshness order — and ``query``/``aggregate`` share
:meth:`StorageShard._read_sources` (range validation, TTL clamp, dropping
live memtables that cannot intersect the range).  A read then either merges
the sources' range-cut columns (:mod:`repro.iotdb.query`) or, when only
disjoint sealed sequence chunks are in range, folds their page statistics
(:mod:`repro.iotdb.aggregation`); every read is counted and timed once.

A shard keeps everything (TsFiles and WAL segments) under its own
``shard-NN/`` key prefix of the engine's
:class:`~repro.iotdb.backends.BlobStore` — on the local-directory backend
that is literally the ``shard-NN/`` subdirectory of ``data_dir``, byte for
byte — and recovers that prefix independently of its siblings: a crash
that tears one shard's flush leaves the other shards' recovery untouched.
Every persistence call site (sink writes, WAL segments, the interval
index) routes through the store — an in-memory engine is simply one whose
store is a :class:`~repro.iotdb.backends.MemoryStore`.

Crash consistency (exercised by the ``repro.faults`` harness): every
operation that can die mid-way leaves a recoverable disk state.  Sinks are
written under a ``.tsfile.part`` name and renamed into place only after
their bytes are flushed (a torn flush leaves garbage ``open()`` discards,
never a torn TsFile); each retired memtable is covered by its own WAL
segment(s), dropped only once that memtable is sealed (truncating a shared
log lost acknowledged writes); a failed flush keeps its memtable queued
and retryable.  Named fault sites (``wal.write``, ``sink.write``,
``flush.perform``, ``flush.seal``, ``flush.sealed``, ``wal.rotate``,
``wal.drop``, ``compact.swap``, ``compact.unlink``, ``index.write``,
``index.swap``) thread through these
steps via the injected :class:`repro.faults.FaultInjector`; every site
fires with a ``shard`` context key so a fault plan can target one shard's
pipeline specifically.

Interval index: the shard maintains a per-shard
:class:`~repro.iotdb.interval_index.IntervalIndex` over its sealed files —
updated on every seal and compaction swap, persisted next to the TsFiles
(fault sites ``index.write``/``index.swap``), and rebuilt-or-validated
during :meth:`recover`.  With ``config.index_enabled`` the query executor
opens only sealed files whose time range intersects the query range; a
torn or stale index file is rebuilt from the sealed files themselves, so
index damage can cost a rebuild but never a wrong answer.

Lock hierarchy: ``StorageEngine._lock`` → ``StorageShard._lock`` →
{``MemTable._lock``, ``SegmentedWal._lock``, ``FaultInjector._lock``,
``MetricsRegistry._lock``} → ``MemoryStore._lock`` (the in-memory
backend's blob table, under every engine without a ``data_dir``; a leaf —
store methods never call out under it).
A shard never acquires the engine lock or another shard's lock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple

from repro.analysis.concurrency import apply_guards, create_lock, holds
from repro.errors import InvalidParameterError, QueryError, StorageError
from repro.iotdb.aggregation import (
    AggregationResult,
    aggregate_from_points,
    aggregate_sealed_chunk,
    combine,
    empty_aggregate,
)
from repro.iotdb.config import IoTDBConfig, TSDataType
from repro.iotdb.flush import FlushReport, flush_memtable
from repro.iotdb.interval_index import (
    INDEX_FILE_NAME,
    IndexCorruptionError,
    IntervalIndex,
    build_entries,
    entry_for_sealed,
)
from repro.iotdb.memtable import MemTable, check_timestamps
from repro.iotdb.query import QueryResult, QueryStats, TimeRangeQueryExecutor
from repro.iotdb.separation import SeparationPolicy, Space
from repro.iotdb.tsfile import TsFileReader, TsFileWriter
from repro.iotdb.typed_tvlists import infer_dtype, tvlist_class
from repro.iotdb.wal import SegmentedWal


@dataclass
class _SealedFile:
    """One immutable TsFile plus where its bytes live."""

    space: Space
    reader: TsFileReader
    #: Blob-store key of the published file.
    key: str
    #: The store handle the file is written through, then read from.
    buffer: object
    #: Temporary key the sink is written under until sealed.
    part_key: str | None = None
    #: Stable id (``<space>-<counter>``) keying this file in the shard's
    #: interval index; counters are never reused within a shard.
    file_id: str = ""


class _Source(NamedTuple):
    """One place a column's points may live (see ``_column_sources``)."""

    #: A sealed file's space; ``None`` for a live memtable.
    space: Space | None
    holder: _SealedFile | MemTable
    #: The column there — a ``ChunkMetadata`` or a ``TVList``, both with
    #: ``min_time``/``max_time`` — or ``None``: the file has no chunk of it.
    chunk: object

    def intersects(self, start: int, end: int) -> bool:
        """Can the column hold a point with ``start <= t < end`` here?"""
        chunk = self.chunk
        return chunk is not None and chunk.min_time < end and chunk.max_time >= start


@dataclass
class _FlushTask:
    """One FLUSHING memtable queued for the flush pipeline."""

    space: Space
    memtable: MemTable
    #: WAL segment ids covering exactly this memtable's points; dropped
    #: only after the memtable is sealed into a TsFile.
    wal_segments: list[int] = field(default_factory=list)
    #: True when sealing this memtable releases a crash-recovery hold on
    #: the replayed WAL segments (see ``StorageShard.recover``).
    releases_recovery_hold: bool = False


class StorageShard:
    """One storage group: a full write pipeline under one shard lock.

    Concurrency discipline: one coarse re-entrant shard lock serialises
    this shard's write, flush, query, and compaction paths; ``GUARDED_BY``
    declares which attributes it covers (checked statically by the
    ``guarded-by`` rule and, under ``REPRO_CONCURRENCY=1``, at runtime by
    access-checking proxies).  The shard lock sits *below* the engine lock
    and *above* the memtable/WAL/injector/registry locks in the global
    order.
    """

    #: Lock discipline for the ``guarded-by`` rule and the runtime
    #: sanitizer: these attributes may only be touched under ``_lock``.
    GUARDED_BY = {
        "_working": "_lock",
        "_flushing": "_lock",
        "_sealed": "_lock",
        "_flush_reports": "_lock",
        "_recovery_segments": "_lock",
        "_recovery_holds": "_lock",
        "_wals": "_lock",
        "_file_counter": "_lock",
        "_index": "_lock",
        "_column_types": "_lock",
    }

    def __init__(
        self,
        shard_id: int,
        config: IoTDBConfig,
        sorter,
        *,
        obs,
        faults,
        instruments,
        executor: TimeRangeQueryExecutor,
        store,
        fresh: bool = True,
    ) -> None:
        self.shard_id = shard_id
        self.config = config
        self.sorter = sorter
        self.obs = obs
        self.faults = faults
        self.separation = SeparationPolicy(enabled=config.separation_enabled)
        self._instruments = instruments
        self._shard_instruments = instruments.for_shard(shard_id)
        self._executor = executor
        #: Where this shard persists bytes (the engine's BlobStore).
        self.store = store
        #: This shard's key namespace inside the store.
        self.prefix = f"shard-{shard_id:02d}/"
        self._lock = create_lock("StorageShard._lock")
        self._working: dict[Space, MemTable] = {
            Space.SEQUENCE: MemTable(config, obs=obs),
            Space.UNSEQUENCE: MemTable(config, obs=obs),
        }
        self._flushing: list[_FlushTask] = []
        self._sealed: list[_SealedFile] = []
        # The pinned type of every column written so far (see _column_type).
        self._column_types: dict[tuple[str, str], TSDataType] = {}
        self._file_counter = 0
        # Interval index over the sealed files; no lock of its own — every
        # access happens under this shard's lock.
        self._index = IntervalIndex()
        self._flush_reports: list[FlushReport] = []
        # Materialise the shard's namespace eagerly where the backend has
        # real directories — keeps the local tree identical to the
        # historical layout down to empty shard directories.
        self.store.ensure_prefix(self.prefix)
        # WAL segments recovered by recover() that must survive until every
        # memtable holding their replayed points has been sealed.
        self._recovery_segments: dict[Space, list[int]] = {}
        self._recovery_holds: set[Space] = set()
        self._wals: dict[Space, SegmentedWal] | None = None
        if config.wal_enabled and fresh:
            # Fresh-start semantics: any WAL segments left behind are
            # deleted; StorageEngine.open (via recover()) replays them
            # instead.
            self._wals = {
                space: SegmentedWal.on_store(
                    self.store,
                    self.prefix,
                    space.value,
                    fresh=True,
                    wrap=self.faults.wrap_file,
                )
                for space in (Space.SEQUENCE, Space.UNSEQUENCE)
            }
        apply_guards(self)

    # -- write path ----------------------------------------------------------

    @property
    def flush_reports(self) -> list[FlushReport]:
        """Reports of every completed flush, in completion order (a copy)."""
        with self._lock:
            return list(self._flush_reports)

    def write_batch(
        self, device: str, sensor: str, timestamps, values
    ) -> tuple[int, int]:
        """Ingest a whole batch under one shard-lock acquisition.

        The only write entry point (a point write is a batch of one; see
        :meth:`_ingest` for the commit order).  Returns
        ``(points_written, flushes_triggered)`` so the engine's
        ``engine.write_batch`` span can report what actually happened.
        """
        with self._lock:
            flushes_triggered = self._ingest(device, sensor, timestamps, values)
        return len(timestamps), flushes_triggered

    @holds("_lock")
    def _ingest(
        self, device: str, sensor: str, timestamps, values, *, replay: bool = False
    ) -> int:
        """The one ingest routine: validate → log → apply, one batch at a time.

        The batch crosses it as two columns.  *Everything* is validated
        first — timestamps, then every value against the column's pinned
        type (:meth:`_column_type`) — before anything is made durable or
        visible: a rejected batch leaves no WAL frame, no memtable point,
        no type pin and no ``points_written`` count behind, in either space.
        Then the separation policy splits the batch by space with one
        watermark compare (:meth:`SeparationPolicy.split`), each non-empty
        part lands in the WAL as one column frame (a single flush keeps the
        whole part durable on acknowledge) and in its working memtable, and
        ``should_flush`` is checked once per space after the batch — a
        memtable may overshoot its threshold by at most one batch, which is
        the documented batch semantics.

        WAL replay is the same routine with ``replay=True``: the records
        are already in the log, so nothing is logged, and recovery rebuilds
        the working memtables without sealing them, so nothing is flushed.
        Returns the number of flushes triggered.
        """
        if len(timestamps) != len(values):
            raise InvalidParameterError("timestamps and values lengths differ")
        if not len(timestamps):
            return 0
        check_timestamps(timestamps)
        key = (device, sensor)
        dtype = self._column_types.get(key) or self._column_type(device, sensor, values)
        tvlist_class(dtype).validate_all(values)
        parts = self.separation.split(device, timestamps, values)
        if self._wals is not None and not replay:
            for space, ts, vs in parts:
                self._wals[space].append_batch(device, sensor, ts, vs, dtype)
        for space, ts, vs in parts:
            self._working[space].write_batch(
                device, sensor, ts, vs, dtype=dtype, validated=True
            )
            self._instruments.points_written.inc(len(ts))
            self._shard_instruments.points_written.inc(len(ts))
        self._column_types[key] = dtype
        flushes_triggered = 0
        if not replay:
            for space, _ts, _vs in parts:
                if self._working[space].should_flush():
                    self._flush_space(space)
                    flushes_triggered += 1
        return flushes_triggered

    @holds("_lock")
    def _column_type(self, device: str, sensor: str, values) -> TSDataType:
        """The type a column is pinned to, when ``_column_types`` has none yet.

        One type per column for the shard's lifetime, not per memtable: a
        column that already holds points keeps the type of its stalest
        source (a sealed chunk or a live TVList), so a late write can no
        longer open a second type in the unsequence memtable; a new column
        takes the type its first value implies.  :meth:`_ingest` records
        the pin once a batch is accepted, so a rejected batch pins nothing.
        """
        for source in self._column_sources(device, sensor):
            if source.chunk is not None:
                return source.chunk.dtype
        return infer_dtype(values[0])

    # -- flushing --------------------------------------------------------------

    @holds("_lock")
    def _new_sink(self, space: Space) -> tuple[TsFileWriter, _SealedFile]:
        """A fresh sink; it is written under a ``.part`` key until sealed,
        so a crash mid-write can never leave a torn ``.tsfile``."""
        self._file_counter += 1
        file_id = f"{space.value}-{self._file_counter:06d}"
        key = f"{self.prefix}{file_id}.tsfile"
        part_key = key + ".part"
        handle = self.faults.wrap_file(
            self.store.open_write(part_key), site="sink.write"
        )
        return TsFileWriter(handle), _SealedFile(
            space=space, reader=None, key=key, buffer=handle, part_key=part_key,
            file_id=file_id,
        )

    def _seal_sink(self, sealed: _SealedFile) -> None:
        """Flush a closed writer's bytes and atomically publish the file."""
        sealed.buffer.flush()
        self.faults.crash_point(
            "flush.seal", space=sealed.space.value, shard=self.shard_id
        )
        self.store.rename_atomic(sealed.part_key, sealed.key)
        sealed.part_key = None
        self.faults.crash_point(
            "flush.sealed", space=sealed.space.value, shard=self.shard_id
        )
        sealed.reader = TsFileReader(sealed.buffer)

    def _discard_sink(self, sealed: _SealedFile) -> None:
        """Drop a partially written sink after a recoverable failure."""
        try:
            sealed.buffer.close()
        except OSError:
            pass
        if sealed.part_key is not None:
            self.store.delete(sealed.part_key, missing_ok=True)

    @holds("_lock")
    def _retire_working(self, space: Space) -> _FlushTask | None:
        """WORKING → FLUSHING: swap in a fresh memtable, enqueue the old one.

        The separation watermark advances here — once the memtable is
        immutable, "the current flushing time" (§II) is fixed, regardless of
        when the sort-encode-write work actually happens.  The WAL rotates
        in the same step, so the sealed segment covers exactly the retired
        memtable's points.
        """
        memtable = self._working[space]
        if memtable.total_points == 0:
            return None
        memtable.mark_flushing()
        self._working[space] = MemTable(self.config, obs=self.obs)
        segment_ids: list[int] = []
        if self._wals is not None:
            self.faults.crash_point(
                "wal.rotate", space=space.value, shard=self.shard_id
            )
            segment_ids = [self._wals[space].rotate()]
        task = _FlushTask(
            space=space,
            memtable=memtable,
            wal_segments=segment_ids,
            releases_recovery_hold=space in self._recovery_holds,
        )
        self._flushing.append(task)
        if space is Space.SEQUENCE:
            for device, _sensor, tvlist in memtable.iter_chunks():
                if tvlist.max_time is not None:
                    self.separation.update_watermark(device, tvlist.max_time)
        return task

    @holds("_lock")
    def _perform_flush(self, task: _FlushTask) -> FlushReport:
        """Sort, encode, and seal one FLUSHING memtable into a TsFile."""
        space, memtable = task.space, task.memtable
        self.faults.fail_point("flush.perform", space=space.value, shard=self.shard_id)
        with self.obs.span(
            "engine.flush", space=space.value, shard=self.shard_id
        ) as span:
            writer, sealed = self._new_sink(space)
            try:
                report = flush_memtable(
                    memtable, writer, self.sorter, self.config, obs=self.obs
                )
                self._seal_sink(sealed)
            except Exception:
                # A failed flush must leave the shard retryable: the
                # memtable stays queued (still FLUSHING), its WAL segments
                # stay live, and the partial sink is discarded.  A
                # simulated crash (BaseException) skips this cleanup — a
                # dead process cannot tidy up.
                self._discard_sink(sealed)
                raise
            report.shard = self.shard_id
            self._sealed.append(sealed)
            self._register_sealed(sealed)
            self._flushing.remove(task)
            if self._wals is not None:
                for segment_id in task.wal_segments:
                    self.faults.crash_point(
                        "wal.drop",
                        space=space.value,
                        segment=segment_id,
                        shard=self.shard_id,
                    )
                    self._wals[space].drop(segment_id)
            if task.releases_recovery_hold:
                self._recovery_holds.discard(space)
                if not self._recovery_holds:
                    self._drop_recovery_segments()
            span.set(points=report.total_points, file_bytes=report.file_bytes)
        self._flush_reports.append(report)
        report.emit(
            self.obs,
            space=space.value,
            instruments=self._instruments,
            shard=self.shard_id,
        )
        return report

    @holds("_lock")
    def _drop_recovery_segments(self) -> None:
        """Delete replayed WAL segments once their points are all sealed."""
        if self._wals is None:
            return
        for space, segment_ids in self._recovery_segments.items():
            for segment_id in segment_ids:
                self.faults.crash_point(
                    "wal.drop",
                    space=space.value,
                    segment=segment_id,
                    shard=self.shard_id,
                )
                self._wals[space].drop(segment_id)
        # Cleared in place: rebinding would shed the runtime guard proxy.
        self._recovery_segments.clear()

    # -- interval index ------------------------------------------------------

    @holds("_lock")
    def _persist_index(self) -> None:
        """Write the interval index next to the TsFiles (atomic; fault
        sites ``index.write``/``index.swap``)."""
        self._index.save_to(
            self.store, self.prefix + INDEX_FILE_NAME, faults=self.faults
        )

    @holds("_lock")
    def _register_sealed(self, sealed: _SealedFile) -> None:
        """Add one newly sealed file to the interval index and persist.

        A crash between sealing the TsFile and persisting the index leaves
        a stale index file on disk; :meth:`recover` detects the mismatch
        against the sealed files and rebuilds, so staleness is never
        visible to queries.
        """
        entry = entry_for_sealed(sealed)
        if entry is not None:
            self._index.add(entry)
        self._persist_index()

    @holds("_lock")
    def _recover_index(self) -> None:
        """Load the persisted index, or rebuild it from the sealed files.

        Ground truth is always ``build_entries(self._sealed)`` — computed
        from the already-open readers, so validation is free.  A missing,
        corrupt (:class:`IndexCorruptionError`), or stale (any entry
        mismatch — e.g. a crash between sealing a file and persisting the
        index) blob is replaced by a rebuild; the outcome is counted in
        ``engine_index_recoveries_total`` so sweeps can see which path ran.
        Either way the in-memory index ends exactly consistent with the
        recovered sealed set: damage costs a rebuild, never a wrong answer.
        """
        expected = build_entries(self._sealed)
        index_key = self.prefix + INDEX_FILE_NAME
        if not self.store.exists(index_key):
            outcome = "rebuilt-missing"
        else:
            try:
                loaded = IntervalIndex.load_from(self.store, index_key)
            except IndexCorruptionError:
                outcome = "rebuilt-corrupt"
            else:
                matches = sorted(loaded.entries()) == sorted(expected)
                outcome = "validated" if matches else "rebuilt-stale"
        self._index.replace(expected)
        if outcome != "validated":
            self._persist_index()
        self._instruments.index_recoveries.labels(outcome=outcome).inc()

    @holds("_lock")
    def _flush_space(self, space: Space) -> FlushReport | None:
        task = self._retire_working(space)
        if task is None:
            return None
        if self.config.deferred_flush:
            # Asynchronous mode: the memtable waits in the flushing queue;
            # drain_flushes() (or close) pays the cost later.
            return None
        return self._perform_flush(task)

    def drain_flushes(self) -> list[FlushReport]:
        """Flush every queued FLUSHING memtable of this shard."""
        with self._lock:
            reports = []
            for task in list(self._flushing):
                reports.append(self._perform_flush(task))
            return reports

    def pending_flushes(self) -> int:
        """How many memtables are queued in the FLUSHING state."""
        with self._lock:
            return len(self._flushing)

    def flush_all(self) -> list[FlushReport]:
        """Retire and flush both working memtables (shutdown / checkpoint).

        Also drains any deferred FLUSHING memtables, so after this call no
        live memtable of this shard holds data in either mode.
        """
        with self._lock:
            reports: list[FlushReport] = []
            for space in (Space.SEQUENCE, Space.UNSEQUENCE):
                if self.config.deferred_flush:
                    self._retire_working(space)
                else:
                    report = self._flush_space(space)
                    if report is not None:
                        reports.append(report)
            reports.extend(self.drain_flushes())
            return reports

    # -- read path -------------------------------------------------------------

    @holds("_lock")
    def _column_sources(self, device: str, sensor: str) -> list[_Source]:
        """Every place the column's points may live, stalest first.

        The one source enumeration, and the shard's freshness order — the
        overwrite rule of every read: sealed sequence files in write order,
        sealed unsequence files in write order, FLUSHING memtables in
        retirement order, the working unsequence memtable (late rewrites of
        old timestamps), the working sequence memtable.  A sealed file that
        has no chunk of the column is listed with ``chunk=None``; a memtable
        that has no point of it is not listed.
        """
        sources: list[_Source] = []
        unsequence: list[_Source] = []
        for sealed in self._sealed:
            chunk = sealed.reader.chunk_metadata(device, sensor)
            if chunk is not None and not chunk.pages:
                chunk = None  # the format admits a chunk with no page
            group = sources if sealed.space is Space.SEQUENCE else unsequence
            group.append(_Source(sealed.space, sealed, chunk))
        sources += unsequence
        for memtable in (
            *(task.memtable for task in self._flushing),
            self._working[Space.UNSEQUENCE],
            self._working[Space.SEQUENCE],
        ):
            tvlist = memtable.chunk(device, sensor)
            if tvlist is not None and len(tvlist):
                sources.append(_Source(None, memtable, tvlist))
        return sources

    @holds("_lock")
    def _read_sources(
        self, device: str, sensor: str, start: int, end: int
    ) -> tuple[int, list[_Source]]:
        """The one read plan: validate ``[start, end)``, clamp ``start`` to
        the TTL floor (points older than the column's latest event time
        minus the TTL are expired) and keep the sources a read must consult.

        A live memtable whose ``[min_time, max_time]`` misses the range is
        not a source, and a range the TTL leaves nothing of has none.  A
        sealed file always is one — pruning those by time is the interval
        index's job inside the executor, ``index_enabled=False`` being the
        reference path that opens them all; ``intersects`` still tells
        :meth:`aggregate` whether its chunk can hold an in-range point.
        """
        if start >= end:
            raise QueryError(f"empty time range [{start}, {end})")
        sources = self._column_sources(device, sensor)
        latest = _latest_time(sources) if self.config.ttl is not None else None
        if latest is not None:
            start = max(start, latest - self.config.ttl + 1)
            if start >= end:
                return start, []
        return start, [
            s for s in sources if s.space is not None or s.intersects(start, end)
        ]

    def query(self, device: str, sensor: str, start: int, end: int) -> QueryResult:
        """``SELECT * FROM device.sensor WHERE start <= time < end``.

        With a TTL configured, expired points (older than the column's
        latest event time minus the TTL) are excluded.
        """
        with self.obs.span(
            "engine.query", device=device, sensor=sensor, shard=self.shard_id
        ) as span:
            with self._lock:
                started = self.obs.clock.now()
                start, sources = self._read_sources(device, sensor, start, end)
                result = QueryResult(timestamps=[], values=[], stats=QueryStats())
                if sources:
                    # Already in freshness order: the files, then the
                    # memtables, whose TVLists the executor sorts in place
                    # under this lock.
                    result = self._executor.execute(
                        device, sensor, start, end,
                        files=[
                            (s.holder.file_id, s.holder.reader)
                            for s in sources if s.space is not None
                        ],
                        memtables=[s.holder for s in sources if s.space is None],
                        index=self._index if self.config.index_enabled else None,
                    )
                self._record_read(started)
                self._instruments.query_files_opened.inc(result.stats.files_opened)
                self._instruments.index_files_pruned.inc(result.stats.files_pruned)
            span.set(points=len(result))
        return result

    def _record_read(self, started: float) -> None:
        """Count one read and observe the time it took: every ``query`` or
        ``aggregate`` call lands here exactly once — a raw-scan aggregate
        through the ``query`` it delegates to."""
        self._instruments.queries.inc()
        self._instruments.query_seconds.observe(self.obs.clock.now() - started)

    def aggregate(
        self, device: str, sensor: str, start: int, end: int
    ) -> AggregationResult:
        """Aggregations over ``[start, end)``: count/sum/avg/min/max/first/last.

        The statistics-vs-raw-scan rule, stated once: when every source
        that can hold an in-range point is a sealed sequence chunk and
        those chunks' time spans are pairwise disjoint, no timestamp can be
        rewritten or double-counted, so each chunk folds its fully covered
        pages from their statistics without decoding them.  Anything else —
        a live point, unsequence data, or the overlapping sequence files a
        crash or an interrupted compaction can leave — takes the
        always-correct merged raw scan through :meth:`query`.
        """
        with self.obs.span(
            "engine.aggregate", device=device, sensor=sensor, shard=self.shard_id
        ):
            with self._lock:
                started = self.obs.clock.now()
                floor, sources = self._read_sources(device, sensor, start, end)
                chunks = [s for s in sources if s.intersects(floor, end)]
                spans = sorted((s.chunk.min_time, s.chunk.max_time) for s in chunks)
                disjoint = all(a[1] < b[0] for a, b in zip(spans, spans[1:]))
                if disjoint and all(s.space is Space.SEQUENCE for s in chunks):
                    result = empty_aggregate()
                    for s in chunks:
                        reader = s.holder.reader
                        result = combine(
                            result, aggregate_sealed_chunk(reader, s.chunk, floor, end)
                        )
                    self._record_read(started)
                    return result
                return aggregate_from_points(self.query(device, sensor, start, end))

    def latest_time(self, device: str, sensor: str) -> int | None:
        """Largest timestamp ever written for a column (benchmark helper)."""
        with self._lock:
            return _latest_time(self._column_sources(device, sensor))

    # -- compaction ----------------------------------------------------------

    def compact(self, policy=None):
        """One compaction pass over this shard's sealed files (see
        :mod:`repro.iotdb.compaction`); ``policy`` defaults to whatever
        ``config.compaction_policy`` names."""
        from repro.iotdb.compaction import compact

        return compact(self, policy)

    @holds("_lock")
    def _swap_sealed(
        self, to_remove: list[_SealedFile], replacement: _SealedFile | None
    ) -> None:
        """Swap compacted files out of the sealed set, closing old handles.

        Unselected files keep their write order; the merged ``replacement``
        is appended, making it the freshest sequence file (the overlap
        policy's write-order safety closure guarantees appending preserves
        every overwrite outcome).  Crash-safe in any prefix: until an old
        file's unlink happens it remains readable, and the compacted file
        supersedes it under the query merge rule (later sequence files
        win), so dying between unlinks leaves duplicated but never lost
        data.  The interval index is rebuilt over the survivors and
        persisted last — a crash before that leaves a stale index, which
        recovery detects and rebuilds.
        """
        removing = {f.file_id for f in to_remove}
        for old in to_remove:
            old.buffer.close()
            self.faults.crash_point(
                "compact.unlink",
                file=old.key.rsplit("/", 1)[-1],
                shard=self.shard_id,
            )
            self.store.delete(old.key, missing_ok=True)
        survivors = [f for f in self._sealed if f.file_id not in removing]
        if replacement is not None:
            survivors.append(replacement)  # repro: allow(stats-accounting): file set, not a sort
        # Replaced in place: rebinding would shed the runtime guard proxy.
        self._sealed[:] = survivors
        self._index.replace(build_entries(survivors))
        self._persist_index()

    # -- lifecycle ---------------------------------------------------------------

    def sealed_file_count(self) -> dict[Space, int]:
        with self._lock:
            counts = {Space.SEQUENCE: 0, Space.UNSEQUENCE: 0}
            for f in self._sealed:
                counts[f.space] += 1
            return counts

    def snapshot(self) -> dict:
        """Operator-facing snapshot of this shard's state."""
        with self._lock:
            working = {
                space.value: self._working[space].total_points
                for space in (Space.SEQUENCE, Space.UNSEQUENCE)
            }
            sealed = [
                {"space": f.space.value, **f.reader.describe()} for f in self._sealed
            ]
            pending = len(self._flushing)
            index_entries = len(self._index)
        return {
            "shard": self.shard_id,
            "index_entries": index_entries,
            "points_written": int(self._shard_instruments.points_written.value),
            "working_points": working,
            "pending_flushes": pending,
            "sealed_files": len(sealed),
            "sealed": sealed,
            "watermarks": dict(self.separation._watermarks),
        }

    def close(self) -> None:
        """Flush everything and release this shard's store handles."""
        self.flush_all()
        self.release()

    def release(self) -> None:
        """Close this shard's sealed-file handles and WALs without flushing
        (what a refused :meth:`StorageEngine.open` leaves to clean up)."""
        with self._lock:
            for sealed in self._sealed:
                sealed.buffer.close()
            if self._wals is not None:
                for wal in self._wals.values():
                    wal.close()

    def wal_stats(self) -> dict[str, int]:
        """Cumulative WAL append accounting across this shard's spaces.

        ``bytes_appended`` / ``flushes`` sum :meth:`SegmentedWal.stats` over
        the sequence and unsequence logs; zeros when the WAL is disabled.
        Segment drops never decrease these — they feed the ``ingest/path``
        bench cells.
        """
        totals = {"bytes_appended": 0, "flushes": 0}
        with self._lock:
            if self._wals is None:
                return totals
            wals = list(self._wals.values())
        for wal in wals:
            stats = wal.stats()
            totals["bytes_appended"] += stats["bytes_appended"]
            totals["flushes"] += stats["flushes"]
        return totals

    # -- recovery ----------------------------------------------------------------

    def recover(self) -> int:
        """Rebuild this shard from its persisted key prefix (crash recovery).

        Scans the shard's store prefix for sealed TsFiles (space and write
        order come from the ``<space>-<seq>.tsfile`` naming), discards
        ``.part`` sinks a crash left mid-write (their points are still
        covered by the surviving WAL segments), rebuilds the sealed
        readers, replays every persisted WAL segment into fresh working
        memtables (torn tails tolerated), and re-derives the per-device
        separation watermarks from the recovered sequence data so late
        points keep routing correctly.  Replayed segments are kept in the
        store until every memtable holding their points has been sealed —
        only then is it safe to drop them.  Returns the number of WAL
        points replayed.
        """
        # A crash mid-flush or mid-compaction leaves a partially written
        # sink under its .part key: never sealed, never readable, safe to
        # discard.  Same for a torn interval-index .part: the published
        # index (or a rebuild) supersedes it.
        keys = self.store.list(self.prefix)
        for key in keys:
            if key.endswith(".tsfile.part"):
                self.store.delete(key, missing_ok=True)
        self.store.delete(self.prefix + INDEX_FILE_NAME + ".part", missing_ok=True)

        replayed = 0
        with self._lock:
            for key in keys:
                if not key.endswith(".tsfile"):
                    continue
                name = key.rsplit("/", 1)[-1]
                stem = name[: -len(".tsfile")]
                prefix, _, counter = stem.partition("-")
                try:
                    space = Space(prefix)
                    file_number = int(counter)
                except (ValueError, KeyError):
                    raise StorageError(
                        f"unrecognised TsFile name {name!r}"
                    ) from None
                handle = self.store.open_read(key)
                try:
                    reader = TsFileReader(handle)
                except BaseException:
                    handle.close()
                    raise
                sealed = _SealedFile(
                    space=space, reader=reader, key=key,
                    buffer=handle, file_id=stem,
                )
                self._sealed.append(sealed)
                self._file_counter = max(self._file_counter, file_number)

            self._recover_index()
            self._recover_columns()

            # WAL replay: unflushed writes come back into the working
            # memtables.
            if self.config.wal_enabled:
                self._wals = {}
                with self.obs.span(
                    "engine.wal_replay", shard=self.shard_id
                ) as span:
                    for space in (Space.SEQUENCE, Space.UNSEQUENCE):
                        wal = SegmentedWal.on_store(
                            self.store,
                            self.prefix,
                            space.value,
                            fresh=False,
                            wrap=self.faults.wrap_file,
                        )
                        self._wals[space] = wal
                        recovered_ids = wal.sealed_segment_ids()
                        if recovered_ids:
                            self._recovery_segments[space] = recovered_ids
                        # One ingest call per run of consecutive records of
                        # a series, routed through the rebuilt watermarks: a
                        # record whose point is already sealed in sequence
                        # space re-lands in the unsequence memtable, where
                        # the overwrite rule makes the duplicate harmless.
                        for (device, sensor), records in groupby(
                            wal.replay(), key=itemgetter(0, 1)
                        ):
                            records = list(records)
                            self._ingest(
                                device,
                                sensor,
                                [r[2] for r in records],
                                [r[3] for r in records],
                                replay=True,
                            )
                            replayed += len(records)
                    span.set(points=replayed)
                self._recovery_holds = {
                    space
                    for space in (Space.SEQUENCE, Space.UNSEQUENCE)
                    if self._working[space].total_points > 0
                }
                # _wals and _recovery_holds were rebound above, which sheds
                # the runtime guard proxies — re-wrap before the lock drops.
                apply_guards(self)
                if not self._recovery_holds:
                    # Nothing replayed survives only in the WAL; the
                    # recovered segments are already covered by sealed files.
                    self._drop_recovery_segments()
                self._instruments.wal_replayed.inc(replayed)
        return replayed

    @holds("_lock")
    def _recover_columns(self) -> None:
        """One walk over every sealed file's chunks, stalest file first.

        Rebuilds the separation watermarks (the largest sequence-space time
        per device) and pins every sealed column to the type of its stalest
        chunk — the pin :meth:`_column_type` would derive from
        :meth:`_column_sources`, so replay needs no source walk per column.
        A column sealed under two types (a tree written before types were
        pinned per column) is refused: reads would mix the types and every
        compaction would fail to encode the merge.
        """
        pinned_by: dict[tuple[str, str], str] = {}
        stalest_first = sorted(self._sealed, key=lambda f: f.space is not Space.SEQUENCE)
        for sealed in stalest_first:
            for chunk in sealed.reader.chunks():
                if not chunk.pages:
                    continue  # the format admits a chunk with no page
                if sealed.space is Space.SEQUENCE:
                    self.separation.update_watermark(chunk.device, chunk.max_time)
                key = (chunk.device, chunk.sensor)
                dtype = self._column_types.setdefault(key, chunk.dtype)
                if dtype is not chunk.dtype:
                    raise StorageError(
                        f"column {chunk.device}.{chunk.sensor} is sealed as "
                        f"{dtype.value} in {pinned_by[key]} and as "
                        f"{chunk.dtype.value} in {sealed.file_id}"
                    )
                pinned_by.setdefault(key, sealed.file_id)


def _latest_time(sources: list[_Source]) -> int | None:
    times = [s.chunk.max_time for s in sources if s.chunk is not None]
    return max(times, default=None)
