"""The flush pipeline: deduplicate → sort → encode → write (paper §V-C).

"For flushing, after the MemTable is full and turning into a flushing
state, the time series needs to be sorted and then written to the disk."
The flush-time metric of §VI-D2 covers exactly this pipeline; this module
measures each stage separately so the benchmarks can report both total
flush time and the sort share the paper plots as stacked bars.

All timing flows through :class:`repro.bench.timing.Timer` over the
injected observability's clock; when tracing is enabled each chunk gets a
``flush.chunk`` span nested under the engine's ``engine.flush`` span, with
the sort itself a ``sort`` span one level deeper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.instrumentation import SortStats
from repro.core.sorter import Sorter
from repro.iotdb.config import IoTDBConfig
from repro.iotdb.memtable import MemTable, MemTableState
from repro.iotdb.tsfile import TsFileWriter
from repro.obs import NOOP, Observability


@dataclass
class ChunkFlushReport:
    """Per-column timings for one flush."""

    device: str
    sensor: str
    points: int
    deduped_points: int
    sort_seconds: float
    encode_write_seconds: float
    sort_stats: SortStats
    expired_points: int = 0


@dataclass
class FlushReport:
    """Aggregate result of flushing one memtable."""

    total_points: int
    sort_seconds: float
    encode_write_seconds: float
    total_seconds: float
    file_bytes: int
    chunks: list[ChunkFlushReport] = field(default_factory=list)
    #: Storage group the flushed memtable belonged to (0 when unsharded).
    shard: int = 0

    @property
    def sort_fraction(self) -> float:
        """Share of flush time spent sorting (the stacked-bar split)."""
        if self.total_seconds <= 0:
            return 0.0
        return self.sort_seconds / self.total_seconds

    def emit(
        self, obs: Observability, *, space: str, instruments=None, shard=None
    ) -> None:
        """Fold this flush into ``obs``'s registry under the ``space`` label.

        ``instruments`` may pass a pre-resolved
        :class:`repro.iotdb.engine_metrics.EngineInstruments` (the engine
        does); otherwise the instruments are looked up idempotently.
        ``shard`` additionally folds the flush into the shard-labelled
        instruments (``engine_shard_flushes_total{shard=...}``), so a
        sharded engine's registry shows where the flush load lands.
        """
        if not obs.metrics_enabled:
            return
        if instruments is None:
            from repro.iotdb.engine_metrics import EngineInstruments

            instruments = EngineInstruments(obs.registry)
        instruments.flushes_by_space[space].inc()
        instruments.flush_seconds_by_space[space].observe(self.total_seconds)
        instruments.flush_sort_seconds_by_space[space].observe(self.sort_seconds)
        if shard is not None:
            shard_instruments = instruments.for_shard(shard)
            shard_instruments.flushes.inc()
            shard_instruments.points_flushed.inc(self.total_points)


def flush_memtable(
    memtable: MemTable,
    writer: TsFileWriter,
    sorter: Sorter,
    config: IoTDBConfig | None = None,
    *,
    obs: Observability = NOOP,
) -> FlushReport:
    """Flush every chunk of a FLUSHING memtable into ``writer``.

    The memtable must already be in the FLUSHING state (the engine's state
    transition is what the flush-time metric clocks from).  The writer is
    closed (footer sealed) before returning.
    """
    from repro.bench.timing import Timer

    if config is None:
        config = memtable.config
    reports: list[ChunkFlushReport] = []
    sort_total = 0.0
    encode_total = 0.0
    with Timer(obs.clock) as total_timer:
        for device, sensor, tvlist in memtable.iter_chunks():
            # Points held before sort_in_place collapses duplicates (a
            # query's in-place sort may already have collapsed some).
            ingested = len(tvlist)
            with obs.span(
                "flush.chunk", device=device, sensor=sensor, points=ingested
            ) as chunk_span:
                timed = tvlist.sort_in_place(
                    sorter, obs=obs, site="flush", series=f"{device}.{sensor}"
                )
                # sort_in_place leaves the list strictly increasing.
                ts = tvlist.timestamps()
                vs = tvlist.values()
                expired = 0
                if config.ttl is not None and ts:
                    # Event-time TTL: points older than this chunk's latest
                    # point minus the TTL are dropped instead of written.
                    from bisect import bisect_left

                    floor = ts[-1] - config.ttl + 1
                    if ts[0] < floor:  # repro: allow(stats-accounting): TTL cutoff test, not a sort
                        cut = bisect_left(ts, floor)
                        expired = cut
                        ts = ts[cut:]
                        vs = vs[cut:]
                with Timer(obs.clock) as encode_timer:
                    if ts:
                        writer.write_chunk(
                            device,
                            sensor,
                            tvlist.dtype,
                            ts,
                            vs,
                            time_encoding=config.time_encoding,
                            value_encoding="plain",
                            page_size=config.page_size,
                            compression=config.compression,
                        )
                chunk_span.set(deduped_points=len(ts), expired_points=expired)
                sort_total += timed.seconds
                encode_total += encode_timer.seconds
                reports.append(
                    ChunkFlushReport(
                        device=device,
                        sensor=sensor,
                        points=ingested,
                        deduped_points=len(ts),
                        sort_seconds=timed.seconds,
                        encode_write_seconds=encode_timer.seconds,
                        sort_stats=timed.stats,
                        expired_points=expired,
                    )
                )
        file_bytes = writer.close()
        # Idempotent on retry: a flush that died after this transition (e.g.
        # the sink's seal failed) is re-run against a FLUSHED memtable.
        if memtable.state is not MemTableState.FLUSHED:
            memtable.mark_flushed()
    return FlushReport(
        total_points=memtable.total_points,
        sort_seconds=sort_total,
        encode_write_seconds=encode_total,
        total_seconds=total_timer.seconds,
        file_bytes=file_bytes,
        chunks=reports,
    )
