"""The four workloads and the one pipeline that runs them.

Every workload goes through the same phases — set-up, timed ingest, kill,
then rounds of reads, aggregates and a restart — so every workload reports
every end-to-end metric.
They differ in the data (delay model, cardinality, batch size, shards) and
in whether reads follow the load or alternate with it, which is what moves
the work from one layer to another; ``WORKLOADS`` records why each exists.

The load generator is one process, one client thread, closed loop: the next
call is issued when the previous one returns, and ``flush_workers=0`` keeps
every flush inline on that thread.  Work is fixed by ``(seed, seconds)``, not
by a deadline: sizes scale linearly with ``--seconds`` from the reference
below, so the byte and point counters repeat exactly and the timed regions
last about ``seconds`` on the reference box.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from math import ceil
from pathlib import Path
from statistics import median
from time import perf_counter

from oracle import Oracle
from repro.iotdb import IoTDBConfig, StorageEngine
from repro.iotdb.separation import Space
from repro.workloads import load_dataset

#: ``--seconds`` at which the sizes below apply unscaled.
REFERENCE_SECONDS = 20
#: Paper-sized memtable (§VI-A3); scaled down with the data below the
#: reference so a short run still flushes as often as a full one.
FLUSH_THRESHOLD = 100_000
SENSOR = "s1"
#: Rounds after the load in a gated run.  Each times a share of the queries,
#: a share of the aggregates and one ``StorageEngine.open`` of a fresh copy
#: of the killed tree, so every read-side metric is sampled at eight places
#: spread over the run rather than in one stretch of two seconds.
ROUNDS = 8
#: The traced run reports shares of its timed time, not gated numbers, so it
#: opens fewer copies (both of its passes do, or ``trace.overhead_ratio``
#: would compare unlike work).
TRACED_ROUNDS = 4
#: Set-ups timed per untraced run; ``setup_s`` is the fastest.
SETUP_REPEATS = 3
#: Every n-th timed query is compared with the oracle (every aggregate is).
CHECK_EVERY = 10


@dataclass(frozen=True)
class Workload:
    """One set of inputs; sizes are per device at ``REFERENCE_SECONDS``."""

    name: str
    why: str
    dataset: str
    devices: int
    points: int
    #: Points written after the last flush, so they live only in the WAL of
    #: the tree the restarts reopen.
    tail: int
    batch: int
    shards: int
    query_width: int
    #: Read sizes, over all rounds, are set per workload so each kind times
    #: about two seconds of calls: sub-millisecond calls need thousands of
    #: them before a few milliseconds of jitter stop being a large share.
    queries: int
    aggregates: int
    params: dict = field(default_factory=dict)
    #: Share of ``points`` loaded during set-up.
    preload: float = 0.0
    #: One tail query after every ``write_batch`` instead of a read phase.
    interleave: bool = False


WORKLOADS = (
    Workload(
        name="ingest-mild",
        why="not-too-distant lognormal(1,1) delays, 8 devices, batch 500: every "
        "write layer does all the work, reads hit disjoint sealed files",
        dataset="lognormal",
        params={"mu": 1.0, "sigma": 1.0},
        devices=8,
        points=264_000,
        tail=12_000,
        batch=500,
        shards=1,
        query_width=4_000,
        queries=1_200,
        aggregates=800,
    ),
    Workload(
        name="late-history",
        why="citibike delays send ~11% of points to unsequence files: sort and "
        "merge dominate flushes, reads merge overlapping seq+unseq files",
        dataset="citibike-201808",
        devices=8,
        points=200_000,
        tail=12_000,
        batch=500,
        shards=1,
        query_width=4_000,
        queries=1_200,
        aggregates=800,
    ),
    Workload(
        name="mixed-tail",
        why="one tail query after every write on a shared shard lock: reads pay "
        "the query-time sort of the live TVList, write percentage 0.5",
        dataset="lognormal",
        params={"mu": 1.0, "sigma": 1.0},
        devices=8,
        points=150_000,
        tail=12_000,
        batch=500,
        shards=1,
        query_width=2_000,
        queries=0,
        aggregates=1_200,
        preload=1 / 3,
        interleave=True,
    ),
    Workload(
        name="highcard-sharded",
        why="2000 devices, batch 50, 4 shards: per-batch and per-series overhead "
        "dominates and sorting is negligible, so big-batch gains do not show",
        dataset="samsung-s10",
        devices=2_000,
        points=1_000,
        tail=50,
        batch=50,
        shards=4,
        query_width=500,
        queries=6_000,
        aggregates=4_000,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def _scaled(reference: int, scale: float, unit: int = 1) -> int:
    """``reference × scale`` as a positive multiple of ``unit``."""
    return max(unit, round(reference * scale / unit) * unit)


def flush_threshold(scale: float) -> int:
    """Points per memtable: paper-sized at or above the reference length."""
    return _scaled(FLUSH_THRESHOLD, min(1.0, scale))


def engine_config(workload: Workload, data_dir, scale: float) -> IoTDBConfig:
    """The persisted, durable-on-ack configuration every run uses."""
    return IoTDBConfig(
        data_dir=data_dir,
        wal_enabled=True,
        memtable_flush_threshold=flush_threshold(scale),
        sorter="backward",
        shards=workload.shards,
        flush_workers=0,
    )


def nearest_rank(samples: list[float], share: float) -> float:
    """The ``share`` percentile by nearest rank (no interpolation)."""
    ordered = sorted(samples)
    return ordered[max(0, ceil(len(ordered) * share) - 1)]


def slices(samples: list, size: int) -> list[list]:
    """``samples`` cut into consecutive runs of ``size``; a remainder shorter
    than half a slice joins the one before it.

    The reference box is a shared VM whose neighbours slow it by up to 70 %
    in bursts of a quarter second to a few seconds (AA.md), and nothing ever
    makes it faster.  So every timing is taken per slice of a phase and the
    quietest slice is reported: a burst has to cover the whole phase to move
    the number, while a change to the code moves every slice alike.
    """
    cut = [samples[at:at + size] for at in range(0, len(samples), size)]
    if len(cut) > 1 and len(cut[-1]) < size / 2:
        remainder = cut.pop()
        cut[-1] += remainder
    return cut


def quietest_median(seconds: list[float], size: int) -> float:
    """The median call of the slice of ``size`` calls whose median is lowest."""
    return min(median(part) for part in slices(seconds, size))


def tree_bytes(root) -> int:
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _dirs, names in os.walk(root)
        for name in names
    )


class Pass:
    """One run of one workload, traced or not; collects raw samples."""

    def __init__(self, workload: Workload, seed: int, seconds: float, data_root,
                 tracer=None, rounds: int = ROUNDS) -> None:
        self.workload = workload
        self.rounds = rounds
        self.seed = seed
        self.scale = seconds / REFERENCE_SECONDS
        self.data_root = Path(data_root)
        self.tracer = tracer
        self.rng = random.Random(seed)
        self.points = _scaled(workload.points, self.scale, workload.batch)
        self.tail = _scaled(workload.tail, min(1.0, self.scale), workload.batch)
        self.preloaded = (
            _scaled(workload.points * workload.preload, self.scale, workload.batch)
            if workload.preload
            else 0
        )
        self.attempted = 0
        self.failed = 0
        self.setup_s: list[float] = []
        self.write_s: list[float] = []
        #: Points of each timed ``write_batch`` call, aligned with ``write_s``.
        self.write_points: list[int] = []
        self.flush_all_s = 0.0
        #: ``write_batch`` calls that flushed inline during the timed load.
        self.stall_calls = 0
        self.query_s: list[float] = []
        #: Points returned by each timed query, aligned with ``query_s``.
        self.query_points: list[int] = []
        self.aggregate_s: list[float] = []
        self.open_s: list[float] = []
        #: Engine counters read at phase boundaries (see ``_counters``).
        self.before_ingest: dict = {}
        self.after_ingest: dict = {}
        self.query_stats = {"files_opened": 0, "files_pruned": 0, "scanned": 0, "returned": 0}
        self.compaction = None
        self.stored_bytes = 0
        #: Copy of the tree as the killed process left it (see ``kill``).
        self.killed: Path | None = None
        self.engine = None
        self.oracle = Oracle()
        self.data: list[tuple[str, list[int], list[float]]] = []
        self._dirs: list[Path] = []

    # -- plumbing ------------------------------------------------------------

    def _phase(self, name: str | None) -> None:
        """Enter a timed phase (``None`` = untimed: tracing paused)."""
        if self.tracer is not None:
            self.tracer.active = name is not None
            self.tracer.phase = name or "untimed"
        if name is not None:
            gc.collect()

    def _call(self, fn, *args):
        """``(seconds, result)`` of one operation; an exception fails it."""
        self.attempted += 1
        start = perf_counter()
        try:
            result = fn(*args)
        except Exception:
            elapsed = perf_counter() - start
            self._fail(traceback.format_exc())
            return elapsed, None
        return perf_counter() - start, result

    def _fail(self, what: str) -> None:
        self.failed += 1
        if self.failed <= 3:
            print(f"FAILED operation in {self.workload.name}: {what}", file=sys.stderr)

    def _expect(self, ok: bool, what: str) -> None:
        if not ok:
            self._fail(what)

    def _expect_read(self, check, reopened, *args, what: str) -> None:
        """An oracle check that reads ``reopened`` itself: a read that raises
        is a failed operation like a wrong one, not the end of the run."""
        try:
            ok = check(reopened, *args)
        except Exception:
            ok = False
            what += "\n" + traceback.format_exc()
        self._expect(ok, what)

    def _new_dir(self) -> Path:
        path = Path(tempfile.mkdtemp(prefix=self.workload.name + "-", dir=self.data_root))
        self._dirs.append(path)
        return path

    def _batches(self, lo: int, hi: int):
        """Round-robin over devices, ``batch`` points of each at a time."""
        batch = self.workload.batch
        for start in range(lo, hi, batch):
            stop = min(start + batch, hi)
            for device, ts, vs in self.data:
                yield device, ts[start:stop], vs[start:stop]

    def _write_untimed(self, lo: int, hi: int) -> None:
        for device, ts, vs in self._batches(lo, hi):
            _seconds, _ = self._call(self.engine.write_batch, device, SENSOR, ts, vs)
            self.oracle.apply(device, ts, vs)

    def _counters(self) -> dict:
        """The counters the engine already keeps, as of now."""
        routed = self.engine.separation.routed_counts()
        reports = self.engine.flush_reports
        return {
            "routed": routed[Space.SEQUENCE] + routed[Space.UNSEQUENCE],
            "unseq": routed[Space.UNSEQUENCE],
            "wal": self.engine.wal_stats(),
            "flushes": len(reports),
            "flush_points": sum(r.total_points for r in reports),
            "file_bytes": sum(r.file_bytes for r in reports),
        }

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None
        gc.unfreeze()
        for path in self._dirs:
            shutil.rmtree(path, ignore_errors=True)

    # -- phases --------------------------------------------------------------

    def setup(self) -> None:
        """Generate the data, create the engine, preload; timed as ``setup_s``."""
        w = self.workload
        start = perf_counter()
        self.data = []
        for i in range(w.devices):
            stream = load_dataset(
                w.dataset, self.points + self.tail, seed=self.seed + i, **w.params
            )
            self.data.append((f"root.perf.d{i:04d}", stream.timestamps, stream.values))
        self.oracle = Oracle()
        self.engine = StorageEngine.create(
            engine_config(w, self._new_dir(), self.scale)
        )
        self._write_untimed(0, self.preloaded)
        self.setup_s.append(perf_counter() - start)

    def discard_setup(self) -> None:
        """Drop a set-up that was only timed (its engine and its tree)."""
        self.engine.close()
        self.engine = None
        shutil.rmtree(self._dirs.pop(), ignore_errors=True)

    def ingest(self) -> None:
        """The timed load, alternating with tail queries when interleaved."""
        w = self.workload
        # The generated data and the oracle are the benchmark's, not the
        # program's: keep the collector from walking them mid-measurement.
        gc.collect()
        gc.freeze()
        engine, oracle = self.engine, self.oracle
        devices = [device for device, _ts, _vs in self.data]
        latest = {
            device: max(ts[: self.preloaded], default=0) for device, ts, _vs in self.data
        }
        self._phase("ingest")
        self.before_ingest = self._counters()
        for n, (device, ts, vs) in enumerate(self._batches(self.preloaded, self.points)):
            seconds, _ = self._call(engine.write_batch, device, SENSOR, ts, vs)
            self.write_s.append(seconds)
            self.write_points.append(len(ts))
            oracle.apply(device, ts, vs)
            if w.interleave:
                latest[device] = max(latest[device], max(ts))
                target = devices[self.rng.randrange(len(devices))]
                end = latest[target] + 1
                self._query(target, end - w.query_width, end, check=n % CHECK_EVERY == 0)
        self.stall_calls = self._counters()["flushes"] - self.before_ingest["flushes"]
        self.flush_all_s, _ = self._call(engine.flush_all)
        self.after_ingest = self._counters()
        self._phase(None)
        self.stored_bytes = tree_bytes(engine.config.data_dir)

    def _query(self, device: str, start: int, end: int, check: bool) -> None:
        seconds, result = self._call(self.engine.query, device, SENSOR, start, end)
        self.query_s.append(seconds)
        self.query_points.append(0 if result is None else len(result))
        if result is None:
            return
        stats = result.stats
        self.query_stats["files_opened"] += stats.files_opened
        self.query_stats["files_pruned"] += stats.files_pruned
        self.query_stats["scanned"] += stats.points_scanned
        self.query_stats["returned"] += stats.points_returned
        if check:
            self._expect(
                self.oracle.check_query(device, start, end, result),
                f"query {device} [{start}, {end}) disagrees with the oracle",
            )

    def _random_range(self) -> tuple[str, int, int]:
        w = self.workload
        device = self.data[self.rng.randrange(w.devices)][0]
        width = min(w.query_width, self.points)
        start = self.rng.randrange(self.points - width + 1)
        return device, start, start + width

    def kill(self) -> None:
        """Write a WAL-only tail and keep what a killed process leaves behind.

        The engine never closes: every acknowledged byte is already in the
        files (the WAL flushes before it acks), so a copy of the tree now is
        the tree a kill would leave.  The engine itself then flushes the tail
        and serves the rounds from sealed files only, as it did before it.
        """
        self._write_untimed(self.points, self.points + self.tail)
        self.killed = self._new_dir() / "tree"
        shutil.copytree(self.engine.config.data_dir, self.killed)
        self._call(self.engine.flush_all)

    def read(self, calls: int) -> None:
        """Range queries at seeded-random places over the sealed files."""
        self._phase("query")
        for _ in range(calls):
            device, start, end = self._random_range()
            self._query(device, start, end, check=len(self.query_s) % CHECK_EVERY == 0)
        self._phase(None)

    def aggregate(self, calls: int) -> None:
        self._phase("aggregate")
        for _ in range(calls):
            device, start, end = self._random_range()
            seconds, result = self._call(self.engine.aggregate, device, SENSOR, start, end)
            self.aggregate_s.append(seconds)
            if result is not None:
                self._expect(
                    self.oracle.check_aggregate(device, start, end, result),
                    f"aggregate {device} [{start}, {end}) disagrees with the oracle",
                )
        self._phase(None)

    def reopen(self) -> None:
        """One timed ``StorageEngine.open`` of a fresh copy of the killed tree."""
        copy = self._new_dir() / "tree"
        shutil.copytree(self.killed, copy)
        self._phase("recover")
        seconds, reopened = self._call(
            StorageEngine.open, engine_config(self.workload, copy, self.scale)
        )
        self._phase(None)
        if reopened is not None:
            # Every copy holds the same bytes, so the restarts share the
            # devices out between them: eight cover an 8-device workload.
            devices = self.oracle.devices()
            device = devices[(self.seed + len(self.open_s)) % len(devices)]
            self._expect_read(
                self.oracle.check_device, reopened, device,
                what=f"acked points of {device} missing after restart",
            )
            if not self.open_s:
                self._expect_read(
                    self.oracle.check_total, reopened,
                    what="point count after restart differs from points acked",
                )
        self.open_s.append(seconds)
        # Dropped like the process it stands for: close() would flush the
        # replayed tail, a second's work nobody measures.
        del reopened
        gc.collect()
        shutil.rmtree(self._dirs.pop(), ignore_errors=True)

    def compact(self) -> None:
        """One compaction pass (traced runs only; single-shot, not gated)."""
        self._phase("compact")
        _seconds, self.compaction = self._call(self.engine.compact)
        self._phase(None)

    # -- results -------------------------------------------------------------

    @property
    def acked_points(self) -> int:
        """Points acknowledged by the end of the timed ingest."""
        return self.points * self.workload.devices

    @property
    def timed_seconds(self) -> float:
        """All timed regions of this pass (set-up and compaction excluded)."""
        return (
            sum(self.write_s) + self.flush_all_s + sum(self.query_s)
            + sum(self.aggregate_s) + sum(self.open_s)
        )

    def end_to_end(self) -> dict[str, tuple[float, str, int]]:
        """``{metric: (value, unit, samples)}`` — the 9 gated numbers."""
        w = self.workload
        # Write calls are sliced per memtable's worth of points, reads per
        # round.  Interleaved tail queries cost more the fuller the live
        # memtable is, so their slices must span that whole sawtooth: one
        # query follows every write, and the write slice does it.
        per_memtable = flush_threshold(self.scale) // w.batch
        per_round = max(1, len(self.aggregate_s) // self.rounds)
        read_slice = (
            per_memtable if w.interleave else max(1, len(self.query_s) // self.rounds)
        )
        stalls = sorted(self.write_s)[-max(1, self.stall_calls):]
        query_rate = max(
            sum(points) / sum(seconds)
            for points, seconds in zip(
                slices(self.query_points, read_slice), slices(self.query_s, read_slice)
            )
        )
        wal_bytes = self.after_ingest["wal"]["bytes_appended"]
        return {
            "setup_s": (min(self.setup_s), "s", len(self.setup_s)),
            "write_batch_p50_ms": (
                quietest_median(self.write_s, per_memtable) * 1e3, "ms", len(self.write_s)
            ),
            "write_stall_ms": (min(stalls) * 1e3, "ms", len(stalls)),
            "query_p50_ms": (
                quietest_median(self.query_s, read_slice) * 1e3, "ms", len(self.query_s)
            ),
            "query_points_per_s": (query_rate, "points/s", len(self.query_s)),
            "aggregate_p50_ms": (
                quietest_median(self.aggregate_s, per_round) * 1e3,
                "ms",
                len(self.aggregate_s),
            ),
            "recovery_s": (min(self.open_s), "s", len(self.open_s)),
            "stored_bytes_per_point": (
                self.stored_bytes / self.acked_points, "bytes", self.acked_points
            ),
            "write_amplification": (
                (wal_bytes + self.after_ingest["file_bytes"]) / (16 * self.acked_points),
                "ratio",
                self.acked_points,
            ),
        }

    def ungated(self) -> dict[str, tuple[float, str, int]]:
        """Two numbers a user sees that no bound can hold on the reference
        box (AA.md); the traced run reports them from its untraced pass.

        ``ingest_points_per_s`` is the plain total, bursts and all: the load
        has no slice that holds a fair share of flushes on every workload.
        ``query_p99_ms`` has a dozen of 1 200 calls beyond it.
        """
        timed_points = (self.points - self.preloaded) * self.workload.devices
        return {
            "ingest_points_per_s": (
                timed_points / (sum(self.write_s) + self.flush_all_s),
                "points/s",
                len(self.write_s),
            ),
            "query_p99_ms": (
                nearest_rank(self.query_s, 0.99) * 1e3, "ms", len(self.query_s)
            ),
        }


def run_pass(workload: Workload, seed: int, seconds: float, data_root, *,
             tracer=None, setup_repeats: int = 1, rounds: int = ROUNDS) -> Pass:
    """Run every phase of ``workload`` once; the caller reads the samples."""
    run = Pass(workload, seed, seconds, data_root, tracer, rounds)
    queries = 0 if workload.interleave else _scaled(workload.queries, run.scale)
    aggregates = _scaled(workload.aggregates, run.scale)
    try:
        for _ in range(setup_repeats - 1):
            run.setup()
            run.discard_setup()
        run.setup()
        run.ingest()
        run.kill()
        for _ in range(rounds):
            run.read(max(1, queries // rounds) if queries else 0)
            run.aggregate(max(1, aggregates // rounds))
            run.reopen()
        if tracer is not None:
            run.compact()
    finally:
        run.close()
    return run


def warm_up(data_root) -> None:
    """One throw-away 20k-point round trip through every phase, so lazy
    imports and first-call costs land before any clock starts."""
    tiny = Workload(
        name="warm-up", why="", dataset="lognormal", devices=4, points=5_000,
        tail=500, batch=500, shards=1, query_width=500, queries=20, aggregates=20,
    )
    run_pass(tiny, 0, REFERENCE_SECONDS, data_root, rounds=2)
