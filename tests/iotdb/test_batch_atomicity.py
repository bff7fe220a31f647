"""Batch writes are all-or-nothing: the half-applied-batch regression.

The pre-fix ``MemTable.write_batch`` degenerated to a per-point ``write``
loop that reacquired the lock and re-checked the state for every point, so
a ``mark_flushing`` racing in mid-batch accepted a prefix of the batch and
rejected the rest — a half-applied batch with no way for the caller to
tell how far it got.  The race test here fails on that code: the flusher
thread busy-waits until it can observe any of the batch's points and then
retires the memtable, which on the per-point loop lands mid-batch
essentially every time for a 50k-point batch.

The remaining tests pin the other all-or-nothing edges deterministically:
validation failures anywhere in the batch must leave the memtable (and the
column's TVList) completely untouched.

All-or-nothing holds per ``write_batch``, not merely per memtable: a batch
that straddles sequence and unsequence space and is rejected in one of them
must leave *both* spaces — memtables, WAL, counters — untouched
(``TestEngineBatchAcrossSpaces``; pre-fix the sequence half was applied and
logged before the unsequence half was refused).
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import InvalidParameterError, MemTableFlushedError
from repro.iotdb import StorageEngine
from repro.iotdb.config import IoTDBConfig, TSDataType
from repro.iotdb.memtable import MemTable, MemTableState


def _memtable() -> MemTable:
    # A threshold the tests never reach: flushing is always explicit.
    return MemTable(IoTDBConfig(memtable_flush_threshold=10**9))


class TestRacingMarkFlushing:
    def test_batch_racing_mark_flushing_is_all_or_nothing(self):
        n = 50_000
        mem = _memtable()
        timestamps = list(range(n))
        values = [1] * n

        def flusher() -> None:
            # Busy-wait for the first visible point, then retire the
            # memtable.  Pre-fix, points become visible one at a time as
            # the loop releases the lock between them, so this fires
            # mid-batch; post-fix, the batch publishes its points only
            # after all of them landed under one lock hold.
            while True:
                try:
                    if mem.total_points > 0:
                        mem.mark_flushing()
                        return
                except MemTableFlushedError:
                    return

        thread = threading.Thread(target=flusher)
        thread.start()
        try:
            mem.write_batch("root.race.d0", "s0", timestamps, values, dtype=TSDataType.INT64)
            applied = True
        except MemTableFlushedError:
            applied = False
        thread.join(timeout=30)
        assert not thread.is_alive()

        points = len(mem)
        if applied:
            assert points == n
        else:
            assert points == 0

    def test_rejected_after_flushing_leaves_nothing_behind(self):
        mem = _memtable()
        mem.mark_flushing()
        with pytest.raises(MemTableFlushedError):
            mem.write_batch("root.race.d0", "s0", [1, 2, 3], [1, 2, 3], dtype=TSDataType.INT64)
        assert len(mem) == 0
        assert mem.chunk("root.race.d0", "s0") is None


class TestValidationIsAllOrNothing:
    def test_bad_timestamp_mid_batch_applies_nothing(self):
        mem = _memtable()
        with pytest.raises(InvalidParameterError):
            mem.write_batch("d", "s", [1, 2, "three", 4], [1, 2, 3, 4], dtype=TSDataType.INT64)
        assert len(mem) == 0
        assert mem.chunk("d", "s") is None

    def test_bad_value_mid_batch_applies_nothing(self):
        mem = _memtable()
        with pytest.raises(InvalidParameterError):
            mem.write_batch("d", "s", [1, 2, 3, 4], [1, 2, "three", 4], dtype=TSDataType.INT64)
        assert len(mem) == 0
        assert mem.chunk("d", "s") is None

    def test_bad_value_does_not_disturb_an_existing_chunk(self):
        mem = _memtable()
        mem.write_batch("d", "s", [1, 2, 3], [10, 20, 30], dtype=TSDataType.INT64)
        with pytest.raises(InvalidParameterError):
            mem.write_batch("d", "s", [4, 5, 6], [40, "fifty", 60], dtype=TSDataType.INT64)
        assert len(mem) == 3
        tvlist = mem.chunk("d", "s")
        assert tvlist.timestamps() == [1, 2, 3]
        assert tvlist.values() == [10, 20, 30]

    def test_length_mismatch_applies_nothing(self):
        mem = _memtable()
        with pytest.raises(InvalidParameterError):
            mem.write_batch("d", "s", [1, 2, 3], [1, 2], dtype=TSDataType.INT64)
        assert len(mem) == 0

    def test_empty_batch_is_a_noop(self):
        mem = _memtable()
        mem.write_batch("d", "s", [], [], dtype=TSDataType.INT64)
        assert len(mem) == 0
        assert mem.chunk("d", "s") is None
        assert mem.state is MemTableState.WORKING

    def test_successful_batch_lands_every_point(self):
        mem = _memtable()
        mem.write_batch("d", "s", [3, 1, 2], [30, 10, 20], dtype=TSDataType.INT64)
        assert len(mem) == 3
        tvlist = mem.chunk("d", "s")
        assert sorted(tvlist.timestamps()) == [1, 2, 3]


class TestEngineBatchAcrossSpaces:
    def test_rejected_batch_straddling_spaces_applies_nothing(self):
        engine = StorageEngine.create(
            IoTDBConfig(memtable_flush_threshold=4, wal_enabled=True)
        )
        engine.write_batch("d", "s", [10, 11, 12, 13], [1.0] * 4)  # flushes: watermark 13
        engine.write_batch("d", "s", [4], [0.5])  # pins the unsequence column DOUBLE
        wal_before = engine.wal_stats()
        written_before = engine.describe()["points_written"]
        # 20, 21 route to sequence space, 5 to unsequence — where "oops"
        # is refused.  Pre-fix, 20 and 21 were already logged and applied.
        with pytest.raises(InvalidParameterError):
            engine.write_batch("d", "s", [20, 21, 5], [2.0, 2.0, "oops"])
        assert engine.query("d", "s", 0, 100).timestamps == [4, 10, 11, 12, 13]
        assert engine.wal_stats() == wal_before  # no frame in either space
        assert engine.describe()["points_written"] == written_before
        engine.close()
