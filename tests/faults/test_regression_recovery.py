"""Pinned regressions: recovery bugs the crash harness exposed in the seed.

Each test encodes a specific pre-existing write-path bug and the behaviour
that fixes it:

1. **WAL buffered acknowledged writes** — ``WriteAheadLog.append`` never
   flushed, so a crash right after an acknowledged write lost it to the
   user-space buffer (pinned in ``test_memtable_wal.py`` at the codec
   level; here end-to-end through the engine).
2. **Shared-WAL truncate lost acked writes** — the flush path truncated
   one shared WAL per space, destroying coverage for every point
   acknowledged after the memtable retired (deferred mode, or simply the
   points routed to the *new* working memtable while flushing).  Fixed by
   per-memtable WAL segments dropped only after their memtable seals.
3. **Torn TsFile broke recovery** — a crash mid-flush left a partial
   ``.tsfile`` that made ``StorageEngine.open`` raise while parsing.
   Fixed by writing sinks under ``.part`` and renaming only after the
   bytes are flushed.
4. **Failed flush wedged the memtable** — an I/O failure during flush had
   no handling: the partial sink stayed registered and the points were
   neither queryable nor retryable.  Fixed: the memtable stays queued,
   the sink is discarded, and a later drain retries cleanly.
5. **Compaction crash between unlinks** — overlapping sequence files
   survive a crash mid-swap; queries must stay exact and the aggregation
   statistics fast path must not double-count them.
6. **Unstable sort lost overwrites** — duplicate timestamps in one
   memtable went through the (unstable) default sorter before dedupe, so
   "keep the last of the tie group" picked an arbitrary arrival; the
   older value could shadow the newer one.  Fixed by collapsing
   duplicates in arrival order *before* the sort (``dedupe_arrival``).
7. **Damaged interval index must rebuild, never mislead** — a torn, stale,
   or missing ``interval-index.json`` (crash at ``index.write`` /
   ``index.swap``, or plain disk damage) must be detected on open and
   rebuilt from the sealed TsFiles; believing it would let queries prune
   files that actually hold in-range points.
8. **A rejected write reached the WAL** — the WAL append ran *before*
   validation, so a write refused with ``InvalidParameterError`` (never
   acknowledged) was durably logged and ``StorageEngine.open`` then died
   replaying it.  Fixed by the one ingest routine's commit order:
   validate → log → apply.
9. **A rejected write still reached the WAL** — values the column's
   validation accepted but its storage could not hold (an ``int`` beyond
   ``±sys.float_info.max`` in a DOUBLE column, a timestamp outside int64)
   were logged, then raised a bare ``OverflowError`` while being applied,
   and ``StorageEngine.open`` died replaying them.  Fixed: validation
   rejects them with ``InvalidParameterError`` before anything is logged.
10. **A column's type was pinned per memtable** — a late write of another
    type landed in the (empty) unsequence memtable as a second type of the
    column: every later ``compact()`` raised ``EncodingError``, and with
    ``deferred_flush`` the replay on ``open`` raised.  Fixed: the shard pins
    one type per column.
11. **A tree holding one column under two types opened** — a tree written
    before types were pinned per column could seal a column as DOUBLE in
    one file and INT64 in another; ``open`` succeeded, queries returned
    mixed-type values and every ``compact()`` raised ``EncodingError``.
    Fixed: recovery compares each sealed column's type across the files
    and refuses the tree with a ``StorageError`` naming both files.
12. **A refused open leaked sealed-file handles** — when a later shard's
    recovery raised, the files every earlier shard had opened stayed open
    (``ResourceWarning: unclosed file`` under ``python -X dev``).  Fixed:
    the refused open releases every shard's handles and WALs, flushing
    nothing.
"""

from __future__ import annotations

import pytest

from repro.iotdb.backends import LocalDirStore

from repro.errors import (
    InjectedCrashError,
    InjectedFaultError,
    InvalidParameterError,
    StorageError,
)
from repro.faults import FaultInjector, FaultPlan, FaultRule
from repro.faults.crash import CrashSimulator
from repro.iotdb import IoTDBConfig, Space, StorageEngine, TSDataType, TsFileWriter


def _config(tmp_path, **kw):
    defaults = dict(
        data_dir=tmp_path / "data",
        wal_enabled=True,
        memtable_flush_threshold=50,
    )
    defaults.update(kw)
    return IoTDBConfig(**defaults)


def _recover(tmp_path, config):
    simulator = CrashSimulator(tmp_path / "data", tmp_path / "snapshot")
    simulator.snapshot()
    return simulator.reopen(config)


class TestAckedWritesSurvive:
    def test_acknowledged_write_survives_immediate_crash(self, tmp_path):
        # Bug 1: no flush-on-append meant this exact scenario lost t=1.
        config = _config(tmp_path)
        engine = StorageEngine.create(config)
        engine.write("d", "s", 1, 1.0)
        # No close, no flush: the process dies *now*.
        recovered = _recover(tmp_path, config)
        result = recovered.query("d", "s", 0, 10)
        assert (result.timestamps, result.values) == ([1], [1.0])
        recovered.close()

    def test_writes_acked_after_retire_survive_a_flush(self, tmp_path):
        # Bug 2: with one shared WAL per space, the truncate after this
        # drain destroyed coverage for the 30 post-retire writes.
        config = _config(tmp_path, deferred_flush=True)
        engine = StorageEngine.create(config)
        for t in range(50):
            engine.write("d", "s", t, float(t))  # retires at the threshold
        for t in range(50, 80):
            engine.write("d", "s", t, float(t))  # acked into the new memtable
        engine.drain_flushes()  # seals the first memtable, drops ITS segment
        shard = engine.shards[0]
        with shard._lock:
            seq_wal = shard._wals[Space.SEQUENCE]
        replayable = list(seq_wal.replay())
        assert [r[2] for r in replayable] == list(range(50, 80)), (
            "WAL no longer covers writes acknowledged after the retire"
        )
        recovered = _recover(tmp_path, config)
        assert recovered.query("d", "s", 0, 80).timestamps == list(range(80))
        recovered.close()

    def test_wal_segment_dropped_only_after_its_memtable_seals(self, tmp_path):
        config = _config(tmp_path, deferred_flush=True)
        engine = StorageEngine.create(config)
        for t in range(50):
            engine.write("d", "s", t, float(t))
        assert engine.pending_flushes() == 1
        # Crash while the flush is queued: the rotated segment must still
        # cover the retired memtable.
        recovered = _recover(tmp_path, config)
        assert recovered.query("d", "s", 0, 50).timestamps == list(range(50))
        recovered.close()


class TestTornSinkRecovery:
    def test_torn_tsfile_part_does_not_break_open(self, tmp_path):
        # Bug 3: the torn sink used to be a torn `.tsfile` that made
        # open() raise while parsing the footer.
        config = _config(tmp_path)
        plan = FaultPlan([FaultRule(site="sink.write", kind="torn", nth=3, arg=0.5)])
        engine = StorageEngine.create(config, faults=FaultInjector(plan))
        with pytest.raises(InjectedCrashError):
            for t in range(60):
                engine.write("d", "s", t, float(t))
        data_dir = tmp_path / "data"
        assert list(data_dir.rglob("*.tsfile.part")), "expected a torn sink"
        assert not list(data_dir.rglob("*.tsfile")), "no sealed file yet"

        recovered = _recover(tmp_path, config)
        assert recovered.query("d", "s", 0, 60).timestamps == list(range(50)), (
            "every acknowledged write must come back from the WAL"
        )
        recovered.close()

    def test_leftover_part_file_is_cleaned_up(self, tmp_path):
        config = _config(tmp_path)
        engine = StorageEngine.create(config)
        for t in range(60):
            engine.write("d", "s", t, float(t))
        engine.close()
        junk = tmp_path / "data" / "shard-00" / "seq-000099.tsfile.part"
        junk.write_bytes(b"partial garbage")
        reopened = StorageEngine.open(config)
        assert not junk.exists()
        assert reopened.query("d", "s", 0, 60).timestamps == list(range(60))
        reopened.close()


class TestFailedFlushRequeues:
    def test_flush_failure_keeps_memtable_queued_and_retryable(self, tmp_path):
        # Bug 4: a failing flush left no retry path and a dangling sink.
        config = _config(tmp_path)
        plan = FaultPlan([FaultRule(site="flush.perform", kind="fail", nth=1)])
        engine = StorageEngine.create(config, faults=FaultInjector(plan))
        with pytest.raises(InjectedFaultError):
            for t in range(60):
                engine.write("d", "s", t, float(t))
        assert engine.pending_flushes() == 1
        assert engine.sealed_file_count()[Space.SEQUENCE] == 0

        reports = engine.drain_flushes()  # the retry succeeds
        assert len(reports) == 1
        assert engine.pending_flushes() == 0
        assert engine.sealed_file_count()[Space.SEQUENCE] == 1
        assert engine.query("d", "s", 0, 60).timestamps == list(range(50))
        engine.close()

    def test_sink_failure_discards_partial_file_and_retries(self, tmp_path):
        config = _config(tmp_path)
        plan = FaultPlan([FaultRule(site="sink.write", kind="fail", nth=2)])
        engine = StorageEngine.create(config, faults=FaultInjector(plan))
        with pytest.raises(InjectedFaultError):
            for t in range(60):
                engine.write("d", "s", t, float(t))
        data_dir = tmp_path / "data"
        assert not list(data_dir.rglob("*.part")), "partial sink must be discarded"
        assert engine.pending_flushes() == 1
        engine.drain_flushes()
        assert engine.query("d", "s", 0, 60).timestamps == list(range(50))
        engine.close()


class TestCompactionCrash:
    def _build(self, tmp_path, faults=None):
        config = _config(tmp_path, memtable_flush_threshold=30)
        engine = StorageEngine.create(config, faults=faults)
        for t in range(90):
            engine.write("d", "s", t, float(t))
        for t in range(0, 30, 3):
            engine.write("d", "s", t, -float(t))  # late overwrites → unseq
        engine.flush_all()
        return config, engine

    def test_crash_before_unlinks_leaves_old_files_readable(self, tmp_path):
        plan = FaultPlan([FaultRule(site="compact.unlink", nth=1)])
        config, engine = self._build(tmp_path, faults=FaultInjector(plan))
        with pytest.raises(InjectedCrashError):
            engine.compact()
        # Bug 5: the compacted file AND the old files coexist on disk now.
        recovered = _recover(tmp_path, config)
        result = recovered.query("d", "s", 0, 90)
        assert result.timestamps == list(range(90))
        expected = {t: (-float(t) if t < 30 and t % 3 == 0 else float(t))
                    for t in range(90)}
        assert result.values == [expected[t] for t in range(90)]
        recovered.close()

    def test_overlapping_seq_files_do_not_double_count_aggregates(self, tmp_path):
        plan = FaultPlan([FaultRule(site="compact.unlink", nth=1)])
        config, engine = self._build(tmp_path, faults=FaultInjector(plan))
        with pytest.raises(InjectedCrashError):
            engine.compact()
        recovered = _recover(tmp_path, config)
        agg = recovered.aggregate("d", "s", 0, 90)
        assert agg.count == 90, "overlapping sequence files were double-counted"
        recovered.close()

    def test_crash_mid_unlinks_still_recovers_exact_data(self, tmp_path):
        plan = FaultPlan([FaultRule(site="compact.unlink", nth=3)])
        config, engine = self._build(tmp_path, faults=FaultInjector(plan))
        with pytest.raises(InjectedCrashError):
            engine.compact()
        recovered = _recover(tmp_path, config)
        result = recovered.query("d", "s", 0, 90)
        assert result.timestamps == list(range(90))
        assert recovered.aggregate("d", "s", 0, 90).count == 90
        recovered.close()


class TestTornIndexRebuilds:
    """Bug 7: any index damage is rebuilt on open — never believed."""

    def _build(self, tmp_path, faults=None, **kw):
        config = _config(tmp_path, memtable_flush_threshold=20, **kw)
        engine = StorageEngine.create(config, faults=faults)
        for t in range(60):
            engine.write("d", "s", t, float(t))
        for t in range(0, 20, 2):
            engine.write("d", "s", t, -float(t))  # late → unseq files
        return config, engine

    def _assert_exact(self, recovered):
        result = recovered.query("d", "s", 0, 60)
        assert result.timestamps == list(range(60))
        expected = {t: (-float(t) if t < 20 and t % 2 == 0 else float(t))
                    for t in range(60)}
        assert result.values == [expected[t] for t in range(60)]

    def _outcomes(self, engine):
        counter = engine._instruments.index_recoveries
        return {
            labels.get("outcome"): child.value
            for labels, child in counter.children()
        }

    def test_torn_index_file_rebuilds_on_open(self, tmp_path):
        config, engine = self._build(tmp_path)
        engine.close()
        index_path = tmp_path / "data" / "shard-00" / "interval-index.json"
        blob = index_path.read_bytes()
        index_path.write_bytes(blob[: len(blob) // 2])  # torn in half
        recovered = StorageEngine.open(config)
        self._assert_exact(recovered)
        assert self._outcomes(recovered).get("rebuilt-corrupt") == 1
        # The rebuild was persisted: the on-disk file parses again.
        from repro.iotdb import IntervalIndex

        reloaded = IntervalIndex.load_from(
            recovered.store, "shard-00/interval-index.json"
        )
        assert len(reloaded) > 0
        recovered.close()

    def test_missing_index_file_rebuilds_on_open(self, tmp_path):
        config, engine = self._build(tmp_path)
        engine.close()
        index_path = tmp_path / "data" / "shard-00" / "interval-index.json"
        index_path.unlink()
        recovered = StorageEngine.open(config)
        self._assert_exact(recovered)
        assert self._outcomes(recovered).get("rebuilt-missing") == 1
        assert index_path.exists(), "rebuild must be persisted"
        recovered.close()

    def _build_unflushed(self, tmp_path, faults):
        # Threshold above the workload: every write is acknowledged and
        # WAL-covered before the crash is provoked via flush_all().
        config = _config(tmp_path, memtable_flush_threshold=500)
        engine = StorageEngine.create(config, faults=faults)
        for t in range(60):
            engine.write("d", "s", t, float(t))
        for t in range(0, 20, 2):
            engine.write("d", "s", t, -float(t))  # late → unseq memtable
        return config, engine

    def test_crash_at_index_swap_recovers_exact(self, tmp_path):
        # The .part is fully written but never renamed: the published
        # index is behind the sealed files (stale) or absent.
        plan = FaultPlan([FaultRule(site="index.swap", nth=1)])
        config, engine = self._build_unflushed(tmp_path, FaultInjector(plan))
        with pytest.raises(InjectedCrashError):
            engine.flush_all()
        recovered = _recover(tmp_path, config)
        self._assert_exact(recovered)
        outcomes = self._outcomes(recovered)
        assert outcomes.get("rebuilt-missing", 0) + outcomes.get(
            "rebuilt-stale", 0
        ) >= 1
        # The crash left an orphaned .part; the recovered engine (running
        # over the snapshot) must have discarded its copy.
        assert (
            tmp_path / "data" / "shard-00" / "interval-index.json.part"
        ).exists(), "expected the crash to leave a .part behind"
        part = tmp_path / "snapshot" / "shard-00" / "interval-index.json.part"
        assert not part.exists(), "recovery must discard the orphaned .part"
        recovered.close()

    def test_torn_index_write_recovers_exact(self, tmp_path):
        # The second persist (the unseq seal) tears mid-write: the .part
        # holds half an index while the published file is one seal behind.
        plan = FaultPlan([FaultRule(site="index.write", kind="torn", nth=2, arg=0.5)])
        config, engine = self._build_unflushed(tmp_path, FaultInjector(plan))
        engine.flush_all()  # persist #1: the sealed sequence file
        for t in range(0, 20, 2):
            engine.write("d", "s", t, -float(t))  # late → unseq memtable
        with pytest.raises(InjectedCrashError):
            engine.flush_all()  # persist #2 (the unseq seal) tears
        recovered = _recover(tmp_path, config)
        self._assert_exact(recovered)
        outcomes = self._outcomes(recovered)
        assert outcomes.get("rebuilt-stale", 0) >= 1
        recovered.close()

    def test_clean_shutdown_validates_without_rebuilding(self, tmp_path):
        config, engine = self._build(tmp_path)
        engine.close()
        recovered = StorageEngine.open(config)
        self._assert_exact(recovered)
        assert self._outcomes(recovered).get("validated") == 1
        recovered.close()


class TestUnstableSortOverwrites:
    """Bug 6: last-write-wins lost to the unstable sorter's tie reordering.

    Found fault-free by the ``--faults`` bench mode: two late writes to the
    same timestamp landed in one memtable, Backward-Sort's block quicksort
    reordered the tie group, and flush-time dedupe kept the *older* value.
    Duplicates are now collapsed in arrival order before the sort
    (``dedupe_arrival``).
    """

    def test_late_overwrite_wins_through_flush(self, tmp_path):
        config = _config(tmp_path, memtable_flush_threshold=200)
        engine = StorageEngine.create(config)
        for t in range(100):
            engine.write("d", "s", t, float(t))
        # Overwrite every timestamp, still inside the same memtable.
        for t in range(100):
            engine.write("d", "s", t, float(t) + 1000.0)
        engine.flush_all()
        result = engine.query("d", "s", 0, 100)
        assert result.timestamps == list(range(100))
        assert result.values == [float(t) + 1000.0 for t in range(100)]
        engine.close()

    def test_late_overwrite_wins_through_crash_recovery(self, tmp_path):
        config = _config(tmp_path, memtable_flush_threshold=500)
        engine = StorageEngine.create(config)
        for t in range(100):
            engine.write("d", "s", t, float(t))
        for t in range(100):
            engine.write("d", "s", t, float(t) + 1000.0)
        # Crash before any flush: recovery replays the WAL in arrival order
        # and the recovered memtable must resolve overwrites the same way.
        recovered = _recover(tmp_path, config)
        recovered.flush_all()
        result = recovered.query("d", "s", 0, 100)
        assert result.values == [float(t) + 1000.0 for t in range(100)]
        recovered.close()


class TestRejectedWritesLeaveNoDurableTrace:
    """Bug 8: validation ran after the WAL append."""

    @pytest.mark.parametrize(
        "rejected",
        [
            lambda engine: engine.write("d", "s", 3, "oops"),
            lambda engine: engine.write_batch("d", "s", [3, 4], [3.0, "oops"]),
            lambda engine: engine.write_batch("d", "s", [3, "four"], [3.0, 4.0]),
            lambda engine: engine.write_batch("d", "s", [3], [2**1100]),
            lambda engine: engine.write_batch("d", "s", [3, 4], [3.0, -(2**1100)]),
            lambda engine: engine.write_batch("d", "s", [3, 2**64], [3.0, 4.0]),
        ],
        ids=[
            "point",
            "batch-value",
            "batch-timestamp",
            "double-overflowing-int",
            "batch-double-overflowing-int",
            "timestamp-beyond-int64",
        ],
    )
    def test_reopen_returns_exactly_the_acknowledged_points(self, tmp_path, rejected):
        config = _config(tmp_path)
        engine = StorageEngine.create(config)
        engine.write_batch("d", "s", [1, 2], [1.0, 2.0])
        logged = engine.wal_stats()
        with pytest.raises(InvalidParameterError):
            rejected(engine)
        assert engine.wal_stats() == logged  # nothing reached the log
        engine.write("d", "s", 5, 5.0)  # the engine keeps accepting writes
        # No close, no flush: the process dies *now*.  Pre-fix, open()
        # raised InvalidParameterError replaying the rejected record.
        recovered = _recover(tmp_path, config)
        result = recovered.query("d", "s", 0, 10)
        assert (result.timestamps, result.values) == ([1, 2, 5], [1.0, 2.0, 5.0])
        recovered.close()


class TestColumnTypeIsPinnedPerColumn:
    """Bug 10: the type pin lived in each memtable, not in the column."""

    @pytest.mark.parametrize("late", ["x", True, 2.5], ids=["text", "bool", "double"])
    def test_late_write_of_another_type_is_rejected(self, tmp_path, late):
        config = _config(tmp_path)
        engine = StorageEngine.create(config)
        engine.write_batch("d", "s", [1, 2, 3, 4], [1, 2, 3, 4])  # INT64
        engine.flush_all()
        logged = engine.wal_stats()
        with pytest.raises(InvalidParameterError):
            engine.write_batch("d", "s", [2], [late])
        assert engine.wal_stats() == logged
        # Pre-fix the late point sat in the unsequence memtable as a second
        # type, and every compaction from then on raised EncodingError.
        engine.write_batch("d", "s", [3], [30])  # a late point of the right type
        engine.flush_all()
        engine.compact()
        result = engine.query("d", "s", 0, 10)
        assert (result.timestamps, result.values) == ([1, 2, 3, 4], [1, 2, 30, 4])
        engine.close()

    def test_rejected_batch_pins_nothing(self, tmp_path):
        engine = StorageEngine.create(_config(tmp_path))
        with pytest.raises(InvalidParameterError):
            engine.write_batch("d", "s", [1, 2], ["x", 5])  # TEXT, then an int
        engine.write_batch("d", "s", [1], [1.5])  # the column is still free
        shard = engine.shard_for("d")
        with shard._lock:
            assert shard._column_types[("d", "s")] is TSDataType.DOUBLE
        engine.close()

    def test_pin_survives_reopen(self, tmp_path):
        config = _config(tmp_path)
        engine = StorageEngine.create(config)
        engine.write_batch("d", "s", [1, 2], [1, 2])
        engine.close()
        reopened = StorageEngine.open(config)
        with pytest.raises(InvalidParameterError):
            reopened.write_batch("d", "s", [1], ["x"])
        reopened.close()

    def test_retired_unsealed_column_keeps_its_type_and_the_tree_opens(self, tmp_path):
        config = _config(tmp_path, deferred_flush=True, memtable_flush_threshold=4)
        engine = StorageEngine.create(config)
        engine.write_batch("d", "s", [1, 2, 3, 4], [1, 2, 3, 4])  # retired, unsealed
        assert engine.pending_flushes() == 1
        with pytest.raises(InvalidParameterError):
            engine.write_batch("d", "s", [2], [2.5])
        # No close, no drain: pre-fix, replay put 2.5 into the INT64 list
        # and open() raised InvalidParameterError.
        recovered = _recover(tmp_path, config)
        result = recovered.query("d", "s", 0, 10)
        assert (result.timestamps, result.values) == ([1, 2, 3, 4], [1, 2, 3, 4])
        recovered.close()

    def test_all_int_late_part_of_a_double_column_stays_double(self, tmp_path):
        config = _config(tmp_path)
        engine = StorageEngine.create(config)
        engine.write_batch("d", "s", [1, 2, 3], [1.5, 2.5, 3.5])
        engine.flush_all()
        engine.write_batch("d", "s", [2, 4], [7, 8])  # unseq 2, seq 4; both ints
        shard = engine.shard_for("d")
        with shard._lock:
            working = [shard._working[space] for space in Space]
        for memtable in working:
            assert memtable.chunk_dtype("d", "s") is TSDataType.DOUBLE
        engine.flush_all()
        engine.compact()
        result = engine.query("d", "s", 0, 10)
        assert result.values == [1.5, 7.0, 3.5, 8.0]
        assert all(type(v) is float for v in result.values)
        engine.close()

    def test_tree_holding_a_column_under_two_types_is_refused(self, tmp_path):
        config = _config(tmp_path)
        engine = StorageEngine.create(config)
        engine.write_batch("d", "s", [1, 2, 3], [1.5, 2.5, 3.5])
        shard_dir = config.data_dir / engine.shard_for("d").prefix
        engine.close()  # seals shard-NN/seq-000001.tsfile
        # What a tree written before the per-column pin can hold: a late
        # unsequence file with the same column as INT64.
        with open(shard_dir / "unseq-000009.tsfile", "wb") as sink:
            writer = TsFileWriter(sink)
            writer.write_chunk("d", "s", TSDataType.INT64, [2], [7])
            writer.close()
        # Pre-fix, open() succeeded, query returned [1.5, 7, 3.5] and every
        # compact() raised EncodingError.
        with pytest.raises(StorageError) as refused:
            StorageEngine.open(config)
        message = str(refused.value)
        for part in ("d.s", "double", "int64", "seq-000001", "unseq-000009"):
            assert part in message

    @pytest.mark.parametrize("poison", ["two-types", "corrupt-file"])
    def test_refused_open_closes_every_handle_it_opened(self, tmp_path, monkeypatch, poison):
        config = _config(tmp_path, shards=4)
        engine = StorageEngine.create(config)
        devices = [f"d{i}" for i in range(12)]
        for device in devices:
            engine.write_batch(device, "s", [1, 2, 3], [1.5, 2.5, 3.5])
        shard_of = {device: engine.shard_for(device).shard_id for device in devices}
        engine.close()
        # Poison the last shard with data, so earlier shards have already
        # opened their sealed files when its recovery refuses the tree.
        last = max(shard_of.values())
        device = next(d for d in devices if shard_of[d] == last)
        assert any(shard_of[d] < last for d in devices)
        shard_dir = config.data_dir / f"shard-{last:02d}"
        with open(shard_dir / "unseq-000009.tsfile", "wb") as sink:
            if poison == "two-types":
                writer = TsFileWriter(sink)
                writer.write_chunk(device, "s", TSDataType.INT64, [2], [7])
                writer.close()
            else:  # disk damage: the reader refuses the file on open
                sink.write(b"not a tsfile")

        def sealed_files():
            return {
                path: path.read_bytes()
                for path in sorted(config.data_dir.rglob("*.tsfile*"))
            }

        before = sealed_files()
        handles = []
        open_read = LocalDirStore.open_read

        def recording_open_read(store, key):
            handle = open_read(store, key)
            handles.append(handle)
            return handle

        monkeypatch.setattr(LocalDirStore, "open_read", recording_open_read)
        with pytest.raises(StorageError):
            StorageEngine.open(config)
        assert len(handles) > 1
        assert all(handle.closed for handle in handles)
        assert sealed_files() == before  # nothing flushed
