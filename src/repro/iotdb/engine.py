"""StorageEngine: the sharded front door tying the whole write path together.

The engine is a facade over a fixed set of storage groups — *shards*
(:class:`repro.iotdb.shard.StorageShard`).  Each shard owns a complete
write pipeline: its own :class:`SegmentedWal` pair, working/flushing
memtables, separation watermarks, and sealed-file list under its own lock.
A stable hash router (CRC-32 of the device id, modulo ``config.shards``)
dispatches every series to exactly one shard, so writes to different
devices proceed concurrently and a series always lands in the same shard
across restarts.

Write path (§V): the batch is the unit of work (``write`` is
``write_batch`` of one).  The whole batch is validated against its
column's type, split by its shard's separation policy into the part for
the sequence and the part for the unsequence *working* memtable (one
watermark compare per batch), then logged to the WAL as one binary column
frame per part (when enabled), then applied — all or nothing.  When a
memtable crosses the flush threshold it transitions to *flushing*, is
sorted chunk-by-chunk with the configured sorter, encoded, and sealed into
an immutable TsFile under the shard's ``shard-NN/`` key prefix of the
engine's :class:`~repro.iotdb.backends.BlobStore`.

Query path: a time-range query is answered by the single shard that owns
the device (series-hash routing makes the per-shard merge degenerate); the
shard merges its sealed files and live memtables, putting the sorter on
the query's critical path — the effect the paper's system experiments
measure.

Front door: construct engines through the two keyword-only factories —
:meth:`StorageEngine.create` for a fresh start (deletes any leftover WAL
segments) and :meth:`StorageEngine.open` to recover a persisted engine
after a restart or crash (each shard recovers its key prefix
independently).

One persistence path: every engine owns exactly one
:class:`~repro.iotdb.backends.BlobStore` — the ``backend=`` store if one
is passed, else a :class:`~repro.iotdb.backends.LocalDirStore` over
``config.data_dir``, else (``create`` only) an engine-owned
:class:`~repro.iotdb.backends.MemoryStore` — and every byte it persists
goes through it.  Every tree carries a CRC-framed ``meta/engine.json``
stamp (:mod:`repro.iotdb.meta`) naming its layout version, backend kind,
and shard count.  The version is derived from the access path, never
configured: a ``data_dir`` tree is version 1 (the historical local
directory tree), a tree behind an explicit or engine-owned store is
version 2 (the same key schema; on a ``LocalDirStore`` it is
byte-identical to v1).  ``open`` dispatches on the stamp: an unversioned
tree is stamped with the version its access path implies, a torn stamp
is rebuilt the same way, and a future or malformed version is refused
with a precise error (docs/STORAGE.md holds the normative format and
compatibility matrix).

Flush/compaction concurrency: with ``config.flush_workers > 0`` the
engine owns a shared :class:`~concurrent.futures.ThreadPoolExecutor` and
``drain_flushes``/``flush_all``/``compact`` fan out across shards on it,
so flushes of different shards overlap.  With the default ``0`` every
flush stays inline on the calling thread — fully deterministic, which the
``repro.faults`` crash harness relies on.

Lock hierarchy: ``StorageEngine._lock`` → ``StorageShard._lock`` →
{``MemTable._lock``, ``SegmentedWal._lock``, ``FaultInjector._lock``,
``MetricsRegistry._lock``} → ``MemoryStore._lock`` (a leaf, under every
engine without a ``data_dir``).  The engine lock only serialises whole-engine
fan-out operations (flush_all / drain / compact / close / recovery); the
write and query hot paths take only the owning shard's lock.
"""

from __future__ import annotations

import zlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.analysis.concurrency import create_lock
from repro.core.sorter import Sorter
from repro.errors import MetaCorruptionError, StorageError
from repro.faults.injector import NOOP_INJECTOR
from repro.iotdb.aggregation import aggregate_windows
from repro.iotdb.backends import BlobStore, LocalDirStore, MemoryStore
from repro.iotdb.config import IoTDBConfig
from repro.iotdb.engine_metrics import EngineInstruments
from repro.iotdb.meta import (
    ENGINE_META_KEY,
    EngineMeta,
    check_supported_version,
    read_meta,
    write_meta,
)
from repro.iotdb.flush import FlushReport
from repro.iotdb.query import QueryResult, TimeRangeQueryExecutor
from repro.iotdb.separation import Space
from repro.iotdb.shard import StorageShard
from repro.obs import Observability, metrics_only
from repro.sorting.registry import get_sorter

class _SeparationView:
    """Engine-wide view over the per-shard separation policies.

    Each shard routes with its own :class:`SeparationPolicy` (devices
    partition cleanly across shards, so per-shard watermarks are exactly
    the engine-wide watermarks restricted to that shard's devices).  This
    read-only view answers per-device watermark lookups from the owning
    shard's policy and aggregates counters across all shards.
    """

    def __init__(self, engine: "StorageEngine") -> None:
        self._engine = engine

    def watermark(self, device: str) -> int | None:
        return self._engine.shard_for(device).separation.watermark(device)

    def routed_counts(self) -> dict[Space, int]:
        totals = {Space.SEQUENCE: 0, Space.UNSEQUENCE: 0}
        for shard in self._engine.shards:
            for space, count in shard.separation.routed_counts().items():
                totals[space] += count
        return totals

    @property
    def _watermarks(self) -> dict[str, int]:
        merged: dict[str, int] = {}
        for shard in self._engine.shards:
            merged.update(shard.separation._watermarks)
        return merged


class StorageEngine:
    """An in-process, sharded time-series store with a pluggable TVList sorter.

    Concurrency discipline: every series belongs to exactly one shard and
    each shard serialises its own write/flush/query/compaction paths under
    its shard lock; the engine lock above it only serialises whole-engine
    fan-out operations.  See the module docstring for the lock hierarchy.
    """

    def __init__(
        self,
        config: IoTDBConfig,
        sorter: Sorter | None,
        *,
        obs: Observability | None,
        faults,
        store: BlobStore,
        version: int,
        fresh: bool,
    ) -> None:
        """Wire an engine over a resolved ``store``; callers go through
        :meth:`create` / :meth:`open`, which resolve it and the stamp."""
        self.config = config
        # Default: a per-engine metrics-only Observability, so describe()
        # always sits over a live registry.  Inject Observability() for
        # tracing too, or repro.obs.NOOP to disable metrics entirely.
        self.obs = obs if obs is not None else metrics_only()
        # Fault injection seam (repro.faults); the shared no-op costs one
        # method call per site.
        self.faults = faults if faults is not None else NOOP_INJECTOR
        if sorter is not None:
            self.sorter = sorter
        else:
            self.sorter = get_sorter(self.config.sorter, **self.config.sorter_options)
        self._lock = create_lock("StorageEngine._lock")
        self._instruments = EngineInstruments(self.obs.registry)
        self._executor = TimeRangeQueryExecutor(self.sorter, self.obs)
        #: Where the engine persists every byte it writes.
        self.store: BlobStore = store
        #: The layout version recorded in this tree's stamp (read-only).
        self.engine_version: int = version
        self._shards: tuple[StorageShard, ...] = tuple(
            StorageShard(
                shard_id,
                self.config,
                self.sorter,
                obs=self.obs,
                faults=self.faults,
                instruments=self._instruments,
                executor=self._executor,
                fresh=fresh,
                store=store,
            )
            for shard_id in range(self.config.shards)
        )
        self.separation = _SeparationView(self)
        self._flush_pool: ThreadPoolExecutor | None = None
        if self.config.flush_workers > 0:
            self._flush_pool = ThreadPoolExecutor(
                max_workers=self.config.flush_workers,
                thread_name_prefix="repro-flush",
            )

    # -- the front door ------------------------------------------------------

    @classmethod
    def create(
        cls,
        config: IoTDBConfig | None = None,
        *,
        sorter: Sorter | None = None,
        obs: Observability | None = None,
        faults=None,
        backend: BlobStore | None = None,
    ) -> "StorageEngine":
        """A fresh engine (the fresh-start entry of the front door).

        Fresh-start semantics: any WAL segments left behind in the
        engine's store are deleted — use :meth:`open` to recover them
        instead.  All dependencies are keyword-only: ``sorter`` overrides
        the configured sorter instance, ``obs`` injects an
        :class:`~repro.obs.Observability`, ``faults`` a
        :class:`~repro.faults.FaultInjector`.

        The engine persists through exactly one store: ``backend=`` if
        given, else a :class:`~repro.iotdb.backends.LocalDirStore` over
        ``config.data_dir``, else an engine-owned
        :class:`~repro.iotdb.backends.MemoryStore` (reachable as
        ``engine.store``, so even an in-memory engine can be reopened
        with ``open(config, backend=engine.store)``).  The tree is
        stamped with a ``meta/engine.json`` record that :meth:`open`
        later dispatches on; its version follows from the access path
        (``data_dir`` ⇒ 1, a store ⇒ 2).
        """
        config = config if config is not None else IoTDBConfig()
        store, version = cls._resolve_store(config, backend, "create")
        engine = cls(
            config, sorter, obs=obs, faults=faults,
            store=store, version=version, fresh=True,
        )
        write_meta(
            store,
            EngineMeta(version=version, backend=store.kind, shards=config.shards),
            faults=engine.faults,
        )
        return engine

    @classmethod
    def open(
        cls,
        config: IoTDBConfig,
        *,
        sorter: Sorter | None = None,
        obs: Observability | None = None,
        faults=None,
        backend: BlobStore | None = None,
    ) -> "StorageEngine":
        """Reopen a persisted engine after a restart (or crash).

        Dispatches on the tree's ``meta/engine.json`` stamp: a validated
        stamp selects its own layout version; an unversioned tree is
        stamped with the version its access path implies (``data_dir``
        ⇒ 1, explicit backend ⇒ 2 — a crash can land between the shard
        writes of ``create`` and the stamp); a torn or CRC-damaged stamp
        is rebuilt the same way; a well-framed stamp naming a future
        version, a different backend kind, or a different shard count is
        refused with a precise error.  Resolutions are counted on
        ``engine_meta_recoveries_total{outcome}``.

        Each shard then recovers its own ``shard-NN/`` key prefix
        independently (see
        :meth:`repro.iotdb.shard.StorageShard.recover`): sealed TsFiles
        are rebuilt, ``.part`` sinks discarded, WAL segments replayed,
        and separation watermarks re-derived.  The shard count must
        match what the tree was written with — the series router hashes
        over ``config.shards``, so reopening with a different count
        would make recovered series invisible.
        """
        if backend is None and config.data_dir is None:
            raise StorageError(
                "StorageEngine.open requires a data_dir configuration or a "
                "backend= store"
            )
        store, inferred = cls._resolve_store(config, backend, "open")
        version, outcome = cls._resolve_meta(config, store, inferred)
        engine = cls(
            config, sorter, obs=obs, faults=faults,
            store=store, version=version, fresh=False,
        )
        engine._instruments.meta_recoveries.labels(outcome=outcome).inc()
        # A crash during a stamp's publish can leave a torn .part behind;
        # it was never the published stamp, so it is plain garbage.
        store.delete(ENGINE_META_KEY + ".part", missing_ok=True)
        if outcome != "validated":
            write_meta(
                store,
                EngineMeta(version=version, backend=store.kind, shards=config.shards),
                faults=engine.faults,
            )
        try:
            with engine._lock:
                for shard in engine._shards:
                    shard.recover()
        except BaseException:
            # A refused open writes nothing more: release what the shards
            # opened so far, flush nothing.
            for shard in engine._shards:
                shard.release()
            if engine._flush_pool is not None:
                engine._flush_pool.shutdown(wait=True)
            raise
        return engine

    @staticmethod
    def _resolve_store(
        config: IoTDBConfig, backend: BlobStore | None, entry: str
    ) -> tuple[BlobStore, int]:
        """The one store an engine persists through, and the layout
        version that access path implies."""
        if backend is not None:
            if config.data_dir is not None:
                raise StorageError(
                    "pass either config.data_dir or backend= to "
                    f"StorageEngine.{entry}, not both"
                )
            return backend, 2
        if config.data_dir is not None:
            return LocalDirStore(config.data_dir), 1
        return MemoryStore(), 2

    @staticmethod
    def _resolve_meta(
        config: IoTDBConfig, store: BlobStore, inferred: int
    ) -> tuple[int, str]:
        """Resolve a tree's stamp to ``(version, outcome)``.

        ``inferred`` is the version the access path implies; it is what
        an unversioned or torn-stamp tree gets stamped with.  That is
        safe on both paths: a ``data_dir`` tree predating the stamp has
        its shape checked first (shard-directory count, no stray root
        TsFiles), and v1/v2-local trees are byte-identical below
        ``meta/``; an explicit store can only ever have been written as
        version 2.  The shard recovery path proves everything else.
        """
        if inferred == 1:
            data_dir = Path(config.data_dir)
            existing = sorted(p for p in data_dir.glob("shard-*") if p.is_dir())
            if existing and len(existing) != config.shards:
                raise StorageError(
                    f"data_dir holds {len(existing)} shard directories but "
                    f"config.shards={config.shards}; reopen with the shard "
                    "count the directory was written with"
                )
            stray = sorted(data_dir.glob("*.tsfile")) + sorted(
                data_dir.glob("*.tsfile.part")
            )
            if stray:
                raise StorageError(
                    f"unrecognised TsFile name {stray[0].name!r}: TsFiles "
                    "live under per-shard shard-NN/ directories"
                )
        try:
            meta = read_meta(store)
        except MetaCorruptionError:
            # A torn stamp is a crash artifact; rebuild it from what the
            # access path proves.
            return inferred, "rebuilt-corrupt"
        if meta is None:
            # Predates the stamp, or create() crashed between initialising
            # the shards and stamping.
            return inferred, "stamped-unversioned"
        check_supported_version(meta.version)
        if meta.version == 1 and inferred != 1:
            raise StorageError(
                "this tree was written as engine version 1 (the local "
                "directory layout); open it through config.data_dir, not "
                "an explicit backend"
            )
        if meta.backend != store.kind:
            raise StorageError(
                f"engine meta records backend kind {meta.backend!r} but the "
                f"tree is being opened through a {store.kind!r} store; "
                "refusing to mix backends"
            )
        if meta.shards != config.shards:
            raise StorageError(
                f"engine meta records {meta.shards} shards but "
                f"config.shards={config.shards}; reopen with the shard "
                "count the tree was written with"
            )
        return meta.version, "validated"

    # -- sharding ------------------------------------------------------------

    @property
    def shards(self) -> tuple[StorageShard, ...]:
        """The engine's storage groups, indexed by shard id (immutable)."""
        return self._shards

    def shard_for(self, device: str) -> StorageShard:
        """The shard owning ``device`` (stable series-hash routing).

        CRC-32 rather than the builtin ``hash``: the router must assign
        the same shard across processes and restarts, and ``hash(str)`` is
        salted per interpreter.
        """
        if len(self._shards) == 1:
            return self._shards[0]
        return self._shards[zlib.crc32(device.encode("utf-8")) % len(self._shards)]

    def _map_shards(self, fn) -> list:
        """Run ``fn(shard)`` over every shard; on the flush pool if one is
        configured (flushes of different shards overlap), inline otherwise.

        ``Future.result()`` re-raises whatever the worker raised — including
        :class:`~repro.errors.InjectedCrashError` (a ``BaseException``), so
        simulated crashes propagate identically in both modes.
        """
        if self._flush_pool is None or len(self._shards) == 1:
            return [fn(shard) for shard in self._shards]
        futures = [self._flush_pool.submit(fn, shard) for shard in self._shards]
        return [future.result() for future in futures]

    # -- write path ----------------------------------------------------------

    @property
    def flush_reports(self) -> list[FlushReport]:
        """Completed flush reports of every shard (shard-id order; each
        report carries its ``shard`` label)."""
        reports: list[FlushReport] = []
        for shard in self._shards:
            reports.extend(shard.flush_reports)
        return reports

    def write(self, device: str, sensor: str, timestamp: int, value) -> None:
        """Ingest one point: sugar for :meth:`write_batch` of one."""
        self.write_batch(device, sensor, (timestamp,), (value,))

    def write_batch(self, device: str, sensor: str, timestamps, values) -> None:
        """Ingest a batch (the IoTDB-benchmark client's unit of work, and
        the engine's: there is no other write path).

        One shard-lock acquisition; the whole batch is validated, then
        logged (one batched WAL append per space, durable before this
        returns), then applied, with one ``should_flush`` check per space at
        the end.  All-or-nothing: a rejected batch changes nothing, in
        memory or on disk.  The ``engine.write_batch`` span reports the
        shard and the number of flushes the batch actually triggered.
        """
        if len(timestamps) != len(values):
            raise StorageError("timestamps and values lengths differ")
        shard = self.shard_for(device)
        with self.obs.span(
            "engine.write_batch",
            device=device,
            sensor=sensor,
            shard=shard.shard_id,
        ) as span:
            points, flushes = shard.write_batch(device, sensor, timestamps, values)
            span.set(points=points, flushes_triggered=flushes)

    def wal_stats(self) -> dict[str, int]:
        """Cumulative WAL append accounting summed over every shard.

        ``bytes_appended`` / ``flushes`` as in :meth:`StorageShard.wal_stats`;
        zeros when the WAL is disabled.
        """
        totals = {"bytes_appended": 0, "flushes": 0}
        for shard in self._shards:
            stats = shard.wal_stats()
            totals["bytes_appended"] += stats["bytes_appended"]
            totals["flushes"] += stats["flushes"]
        return totals

    # -- flushing --------------------------------------------------------------

    def drain_flushes(self) -> list[FlushReport]:
        """Flush every queued FLUSHING memtable across all shards.

        With ``flush_workers > 0`` the per-shard drains run concurrently on
        the shared pool (the asynchronous flush worker's job).
        """
        with self._lock:
            reports: list[FlushReport] = []
            for shard_reports in self._map_shards(lambda s: s.drain_flushes()):
                reports.extend(shard_reports)
            return reports

    def pending_flushes(self) -> int:
        """How many memtables are queued in the FLUSHING state (all shards)."""
        return sum(shard.pending_flushes() for shard in self._shards)

    def flush_all(self) -> list[FlushReport]:
        """Retire and flush every shard's working memtables (shutdown /
        checkpoint).  After this call no live memtable holds data."""
        with self._lock:
            reports: list[FlushReport] = []
            for shard_reports in self._map_shards(lambda s: s.flush_all()):
                reports.extend(shard_reports)
            return reports

    # -- query path ------------------------------------------------------------

    def query(self, device: str, sensor: str, start: int, end: int) -> QueryResult:
        """``SELECT * FROM device.sensor WHERE start <= time < end``.

        Served by the single shard that owns the device: series-hash
        routing means no other shard can hold points of this column, so
        the per-shard ``QueryResult`` merge is degenerate (one source).
        """
        return self.shard_for(device).query(device, sensor, start, end)

    def aggregate(self, device: str, sensor: str, start: int, end: int):
        """Aggregations over ``[start, end)``: count/sum/avg/min/max/first/last
        (the owning shard picks page statistics or the raw scan; see
        :meth:`StorageShard.aggregate`)."""
        return self.shard_for(device).aggregate(device, sensor, start, end)

    def aggregate_windows(
        self, device: str, sensor: str, start: int, end: int, window: int
    ):
        """``GROUP BY time``: per-window aggregates over ``[start, end)``.

        The §VI-E use case ("the average speed of an engine in every
        minute") — executed over the merged, time-ordered query result, so
        every bucket sees exactly the freshest value per timestamp.
        """
        return aggregate_windows(
            self.query(device, sensor, start, end), start, end, window
        )

    def latest_time(self, device: str, sensor: str) -> int | None:
        """Largest timestamp ever written for a column (benchmark helper)."""
        return self.shard_for(device).latest_time(device, sensor)

    # -- compaction ----------------------------------------------------------

    def compact(self, policy=None):
        """One compaction pass over every shard's sealed files.

        ``policy`` (a :class:`repro.iotdb.compaction.CompactionPolicy`)
        defaults to whatever ``config.compaction_policy`` names.  Each
        shard compacts independently (concurrently, when a flush pool is
        configured); the returned :class:`CompactionReport` aggregates the
        per-shard reports.
        """
        from repro.iotdb.compaction import CompactionReport

        with self.obs.span("engine.compact") as span:
            with self._lock:
                reports = self._map_shards(lambda s: s.compact(policy))
            policies = sorted({r.policy for r in reports})
            combined = CompactionReport(
                files_before=sum(r.files_before for r in reports),
                files_after=sum(r.files_after for r in reports),
                unseq_files_merged=sum(r.unseq_files_merged for r in reports),
                points_written=sum(r.points_written for r in reports),
                seconds=sum(r.seconds for r in reports),
                policy="+".join(policies) if policies else "full",
                files_selected=sum(r.files_selected for r in reports),
                files_skipped=sum(r.files_skipped for r in reports),
            )
            span.set(
                policy=combined.policy,
                files_before=combined.files_before,
                files_after=combined.files_after,
                files_selected=combined.files_selected,
                files_skipped=combined.files_skipped,
                points=combined.points_written,
            )
        return combined

    # -- lifecycle ---------------------------------------------------------------

    def sealed_file_count(self) -> dict[Space, int]:
        counts = {Space.SEQUENCE: 0, Space.UNSEQUENCE: 0}
        for shard in self._shards:
            for space, count in shard.sealed_file_count().items():
                counts[space] += count
        return counts

    def describe(self) -> dict:
        """Operator-facing snapshot of the whole engine's state.

        The engine-wide numeric fields are read straight from the metrics
        registry (the legacy keys are kept stable); per-shard snapshots
        ride along under ``"shards"`` and the full registry snapshot under
        ``"metrics"``.
        """
        shard_snapshots = [shard.snapshot() for shard in self._shards]
        working = {
            space.value: sum(
                snap["working_points"][space.value] for snap in shard_snapshots
            )
            for space in (Space.SEQUENCE, Space.UNSEQUENCE)
        }
        sealed = [entry for snap in shard_snapshots for entry in snap["sealed"]]
        flush_hist = self._instruments.flush_seconds
        flush_count = sum(child.count for _, child in flush_hist.children())
        flush_sum = sum(child.sum for _, child in flush_hist.children())
        return {
            "sorter": self.sorter.name,
            "points_written": int(self._instruments.points_written.value),
            "working_points": working,
            "pending_flushes": sum(
                snap["pending_flushes"] for snap in shard_snapshots
            ),
            "sealed_files": len(sealed),
            "sealed": sealed,
            "watermarks": dict(self.separation._watermarks),
            "shards": shard_snapshots,
            "flushes": {
                "seq": int(self._instruments.flushes_by_space["seq"].value),
                "unseq": int(self._instruments.flushes_by_space["unseq"].value),
                "mean_seconds": flush_sum / flush_count if flush_count else 0.0,
            },
            "metrics": self.obs.registry.as_dict(),
        }

    def close(self) -> None:
        """Flush everything, release file handles, stop the flush pool."""
        with self._lock:
            self._map_shards(lambda s: s.close())
        if self._flush_pool is not None:
            self._flush_pool.shutdown(wait=True)
