"""MemTable lifecycle, separation policy, and write-ahead log."""

from __future__ import annotations

import io

import pytest

from repro.errors import (
    InvalidParameterError,
    MemTableFlushedError,
    StorageError,
    WalCorruptionError,
)
from repro.iotdb import (
    IoTDBConfig,
    LocalDirStore,
    MemoryStore,
    MemTable,
    MemTableState,
    SegmentedWal,
    SeparationPolicy,
    Space,
    TSDataType,
    WriteAheadLog,
)
from repro.iotdb.typed_tvlists import infer_dtype


class TestMemTable:
    def test_write_and_chunk_layout(self):
        mt = MemTable(IoTDBConfig(memtable_flush_threshold=100))
        mt.write_batch("d1", "s1", [10], [1.0], dtype=TSDataType.DOUBLE)
        mt.write_batch("d1", "s2", [10], [5], dtype=TSDataType.INT64)
        mt.write_batch("d2", "s1", [11], [2.0], dtype=TSDataType.DOUBLE)
        assert mt.total_points == 3
        assert mt.devices() == ["d1", "d2"]
        assert [key[:2] for key in [(d, s) for d, s, _ in mt.iter_chunks()]] == [
            ("d1", "s1"),
            ("d1", "s2"),
            ("d2", "s1"),
        ]

    def test_schema_inference_and_stickiness(self):
        mt = MemTable()
        mt.write_batch("d", "s", [1], [1.5], dtype=infer_dtype(1.5))
        assert mt.chunk_dtype("d", "s") is TSDataType.DOUBLE
        with pytest.raises(InvalidParameterError):  # the column is DOUBLE
            mt.write_batch("d", "s", [2], ["text"], dtype=TSDataType.TEXT)

    def test_timestamp_must_be_int(self):
        mt = MemTable()
        with pytest.raises(InvalidParameterError):
            mt.write_batch("d", "s", [1.5], [1.0], dtype=TSDataType.DOUBLE)
        with pytest.raises(InvalidParameterError):
            mt.write_batch("d", "s", [True], [1.0], dtype=TSDataType.DOUBLE)

    def test_should_flush_threshold(self):
        mt = MemTable(IoTDBConfig(memtable_flush_threshold=3))
        for t in range(2):
            mt.write_batch("d", "s", [t], [1.0], dtype=TSDataType.DOUBLE)
        assert not mt.should_flush()
        mt.write_batch("d", "s", [2], [1.0], dtype=TSDataType.DOUBLE)
        assert mt.should_flush()

    def test_state_machine(self):
        mt = MemTable()
        mt.write_batch("d", "s", [1], [1.0], dtype=TSDataType.DOUBLE)
        assert mt.state is MemTableState.WORKING
        mt.mark_flushing()
        assert mt.state is MemTableState.FLUSHING
        with pytest.raises(MemTableFlushedError):
            mt.write_batch("d", "s", [2], [2.0], dtype=TSDataType.DOUBLE)
        with pytest.raises(MemTableFlushedError):
            mt.mark_flushing()
        mt.mark_flushed()
        assert mt.state is MemTableState.FLUSHED
        with pytest.raises(MemTableFlushedError):
            mt.mark_flushed()

    def test_write_batch(self):
        mt = MemTable()
        mt.write_batch("d", "s", [1, 2, 3], [1.0, 2.0, 3.0], dtype=TSDataType.DOUBLE)
        assert mt.total_points == 3
        with pytest.raises(InvalidParameterError):
            mt.write_batch("d", "s", [1], [1.0, 2.0], dtype=TSDataType.DOUBLE)


class TestSeparationPolicy:
    def test_routes_seq_before_any_flush(self):
        policy = SeparationPolicy()
        assert policy.split("d", [100], [1.0]) == [(Space.SEQUENCE, [100], [1.0])]
        assert policy.watermark("d") is None

    def test_routes_unseq_at_or_below_watermark(self):
        policy = SeparationPolicy()
        policy.update_watermark("d", 100)
        assert policy.split("d", [100, 50, 101], ["a", "b", "c"]) == [
            (Space.SEQUENCE, [101], ["c"]),
            (Space.UNSEQUENCE, [100, 50], ["a", "b"]),
        ]

    def test_watermark_monotone(self):
        policy = SeparationPolicy()
        policy.update_watermark("d", 100)
        policy.update_watermark("d", 50)  # must not regress
        assert policy.watermark("d") == 100

    def test_per_device_isolation(self):
        policy = SeparationPolicy()
        policy.update_watermark("d1", 100)
        assert policy.split("d2", [5], [0]) == [(Space.SEQUENCE, [5], [0])]

    def test_disabled_policy_routes_everything_seq(self):
        policy = SeparationPolicy(enabled=False)
        policy.update_watermark("d", 100)
        assert policy.split("d", [1], [0]) == [(Space.SEQUENCE, [1], [0])]

    def test_routed_counts(self):
        policy = SeparationPolicy()
        policy.update_watermark("d", 10)
        policy.split("d", [5, 20], [0, 0])
        counts = policy.routed_counts()
        assert counts[Space.UNSEQUENCE] == 1
        assert counts[Space.SEQUENCE] == 1

    def test_batch_wholly_on_one_side_is_not_copied(self):
        policy = SeparationPolicy()
        policy.update_watermark("d", 10)
        ts, vs = (11, 12), (1.0, 2.0)
        ((space, out_ts, out_vs),) = policy.split("d", ts, vs)
        assert space is Space.SEQUENCE and out_ts is ts and out_vs is vs
        late = [3, 10]
        ((space, out_ts, _),) = policy.split("d", late, [0, 0])
        assert space is Space.UNSEQUENCE and out_ts is late

    def test_empty_batch_has_no_parts(self):
        policy = SeparationPolicy()
        assert policy.split("d", [], []) == []
        assert policy.routed_counts() == {Space.SEQUENCE: 0, Space.UNSEQUENCE: 0}


class TestWriteAheadLog:
    def test_append_replay_roundtrip(self):
        wal = WriteAheadLog()
        records = [("d1", "s1", 5, 1.5), ("d1", "s2", 6, "x"), ("d2", "s1", 7, True)]
        for device, sensor, t, v in records:
            wal.append_batch(device, sensor, [t], [v], infer_dtype(v))
        assert list(wal.replay()) == records

    def test_torn_tail_tolerated(self):
        buf = io.BytesIO()
        wal = WriteAheadLog(buf)
        wal.append_batch("d", "s", [1], [1.0], TSDataType.DOUBLE)
        wal.append_batch("d", "s", [2], [2.0], TSDataType.DOUBLE)
        # Simulate a crash mid-append: chop the last few bytes.
        data = buf.getvalue()[:-3]
        recovered = WriteAheadLog(io.BytesIO(data))
        assert list(recovered.replay()) == [("d", "s", 1, 1.0)]

    def test_corruption_raises_in_strict_mode(self):
        buf = io.BytesIO()
        wal = WriteAheadLog(buf)
        wal.append_batch("d", "s", [1], [1.0], TSDataType.DOUBLE)
        data = bytearray(buf.getvalue())
        data[6] ^= 0xFF  # corrupt the payload
        bad = WriteAheadLog(io.BytesIO(bytes(data)))
        with pytest.raises(WalCorruptionError):
            list(bad.replay(strict=True))
        assert list(bad.replay()) == []  # lenient mode stops silently


class TestWalStrictDiagnostics:
    """S4 regression: strict replay distinguishes torn header / payload /
    crc / checksum, naming the failing record index."""

    @staticmethod
    def _log(*records) -> bytes:
        buf = io.BytesIO()
        wal = WriteAheadLog(buf)
        for device, sensor, t, v in records:
            wal.append_batch(device, sensor, [t], [v], TSDataType.DOUBLE)
        return buf.getvalue()

    def test_torn_header_names_record(self):
        data = self._log(("d", "s", 1, 1.0), ("d", "s", 2, 2.0))
        record_len = len(data) // 2
        torn = WriteAheadLog(io.BytesIO(data[: record_len + 2]))  # 2 header bytes
        with pytest.raises(
            WalCorruptionError, match=r"torn header at record 1: 2 of 4 bytes"
        ):
            list(torn.replay(strict=True))

    def test_torn_payload_names_record(self):
        data = self._log(("d", "s", 1, 1.0))
        torn = WriteAheadLog(io.BytesIO(data[:7]))  # header + 3 payload bytes
        with pytest.raises(WalCorruptionError, match=r"torn payload at record 0"):
            list(torn.replay(strict=True))

    def test_torn_crc_names_record(self):
        data = self._log(("d", "s", 1, 1.0))
        torn = WriteAheadLog(io.BytesIO(data[:-2]))  # half the trailing crc
        with pytest.raises(
            WalCorruptionError, match=r"torn crc at record 0: 2 of 4 bytes"
        ):
            list(torn.replay(strict=True))

    def test_checksum_mismatch_names_record_and_values(self):
        data = bytearray(self._log(("d", "s", 1, 1.0), ("d", "s", 2, 2.0)))
        data[len(data) // 2 + 6] ^= 0xFF  # flip a payload byte of record 1
        bad = WriteAheadLog(io.BytesIO(bytes(data)))
        with pytest.raises(
            WalCorruptionError, match=r"checksum mismatch at record 1: stored 0x"
        ):
            list(bad.replay(strict=True))

    def test_lenient_mode_still_returns_the_clean_prefix(self):
        data = self._log(("d", "s", 1, 1.0), ("d", "s", 2, 2.0))
        torn = WriteAheadLog(io.BytesIO(data[:-2]))
        assert list(torn.replay()) == [("d", "s", 1, 1.0)]

    def test_append_is_durable_without_close(self, tmp_path):
        # Regression: append_batch() must flush; a crash right after an
        # acknowledged write used to lose it to the user-space buffer.
        path = tmp_path / "wal.log"
        handle = open(path, "wb+")
        wal = WriteAheadLog(handle)
        wal.append_batch("d", "s", [1], [1.0], TSDataType.DOUBLE)
        # Read through a second descriptor: only OS-visible bytes count.
        replayed = list(WriteAheadLog(open(path, "rb")).replay())
        assert replayed == [("d", "s", 1, 1.0)]
        handle.close()


class TestSegmentedWal:
    def test_rotate_and_replay_order(self):
        wal = SegmentedWal.on_store(MemoryStore(), "", "seq", fresh=True)
        wal.append_batch("d", "s", [1], [1.0], TSDataType.DOUBLE)
        sealed_id = wal.rotate()
        wal.append_batch("d", "s", [2], [2.0], TSDataType.DOUBLE)
        assert wal.sealed_segment_ids() == [sealed_id]
        assert list(wal.replay()) == [("d", "s", 1, 1.0), ("d", "s", 2, 2.0)]

    def test_drop_removes_only_that_segment(self):
        wal = SegmentedWal.on_store(MemoryStore(), "", "seq", fresh=True)
        wal.append_batch("d", "s", [1], [1.0], TSDataType.DOUBLE)
        first = wal.rotate()
        wal.append_batch("d", "s", [2], [2.0], TSDataType.DOUBLE)
        wal.drop(first)
        assert list(wal.replay()) == [("d", "s", 2, 2.0)]

    def test_cannot_drop_active_or_unknown_segment(self):
        wal = SegmentedWal.on_store(MemoryStore(), "", "seq", fresh=True)
        (active,) = wal.segment_ids()
        with pytest.raises(StorageError):
            wal.drop(active)
        with pytest.raises(StorageError):
            wal.drop(999)

    def test_on_disk_fresh_deletes_recovery_keeps(self, tmp_path):
        wal = SegmentedWal.on_store(LocalDirStore(tmp_path), "", "seq", fresh=True)
        wal.append_batch("d", "s", [1], [1.0], TSDataType.DOUBLE)
        wal.rotate()
        wal.append_batch("d", "s", [2], [2.0], TSDataType.DOUBLE)
        wal.close()

        recovered = SegmentedWal.on_store(LocalDirStore(tmp_path), "", "seq", fresh=False)
        assert list(recovered.replay()) == [("d", "s", 1, 1.0), ("d", "s", 2, 2.0)]
        # Recovered segments are sealed; ids never collide with the new active.
        assert len(recovered.sealed_segment_ids()) == 2
        recovered.close()

        fresh = SegmentedWal.on_store(LocalDirStore(tmp_path), "", "seq", fresh=True)
        assert list(fresh.replay()) == []
        fresh.close()

    def test_spaces_are_isolated_on_disk(self, tmp_path):
        seq = SegmentedWal.on_store(LocalDirStore(tmp_path), "", "seq", fresh=True)
        unseq = SegmentedWal.on_store(LocalDirStore(tmp_path), "", "unseq", fresh=True)
        seq.append_batch("d", "s", [1], [1.0], TSDataType.DOUBLE)
        unseq.append_batch("d", "s", [2], [2.0], TSDataType.DOUBLE)
        assert list(seq.replay()) == [("d", "s", 1, 1.0)]
        assert list(unseq.replay()) == [("d", "s", 2, 2.0)]
        seq.close()
        unseq.close()

    def test_unrecognised_segment_name_rejected(self, tmp_path):
        (tmp_path / "wal-seq-bogus.log").write_bytes(b"junk")
        with pytest.raises(StorageError):
            SegmentedWal.on_store(LocalDirStore(tmp_path), "", "seq", fresh=False)
