"""WAL batch frames: roundtrip, mixed-kind replay, truncation, accounting.

A batch frame is one length-prefixed JSON array of N records with one CRC
and one flush — the only kind the writer emits.  ``replay`` accepts both
frame kinds, so logs of legacy single-record frames (hand-encoded here
from docs/STORAGE.md by :mod:`tests.iotdb.legacy_wal`; no writer produces
them any more) and logs mixing both stay recoverable, through
``WriteAheadLog.replay`` and through ``StorageEngine.open``.  Truncation
anywhere inside a batch frame drops the whole batch — the batch was
acknowledged only after its single flush, so replay still surfaces exactly
the acknowledged prefix.
"""

from __future__ import annotations

import io

import pytest

from repro.errors import WalCorruptionError
from repro.iotdb import IoTDBConfig, StorageEngine
from repro.iotdb.backends import MemoryStore
from repro.iotdb.wal import SegmentedWal, WriteAheadLog
from tests.iotdb.legacy_wal import single_record_frame, single_record_segment

RECORDS = [
    ("root.sg.d0", "s0", 5, 1.5),
    ("root.sg.d0", "s1", 6, True),
    ("root.sg.d1", "s0", 7, "text value"),
    ("root.sg.d1", "s1", -8, 2**60),
]


class _FlushCountingFile(io.BytesIO):
    def __init__(self) -> None:
        super().__init__()
        self.flushes = 0

    def flush(self) -> None:  # noqa: A003 - io API
        self.flushes += 1
        super().flush()


class TestBatchFrameCodec:
    def test_batch_roundtrip(self):
        wal = WriteAheadLog()
        wal.append_batch(RECORDS)
        assert [tuple(r) for r in wal.replay()] == RECORDS

    def test_mixed_single_and_batch_frames_replay_in_order(self):
        buf = io.BytesIO(single_record_frame(*RECORDS[0]))
        WriteAheadLog(buf).append_batch(RECORDS[1:3])
        buf.write(single_record_frame(*RECORDS[3]))
        wal = WriteAheadLog(buf)
        wal.append_batch([RECORDS[0]])
        assert [tuple(r) for r in wal.replay()] == [
            RECORDS[0],
            RECORDS[1],
            RECORDS[2],
            RECORDS[3],
            RECORDS[0],
        ]

    def test_batch_frame_is_smaller_than_single_frames(self):
        single_bytes = len(single_record_segment(RECORDS))
        batch = WriteAheadLog()
        batch_bytes = batch.append_batch(RECORDS)
        assert 0 < batch_bytes < single_bytes
        assert batch.size_bytes() == batch_bytes

    def test_one_record_batch_frame_costs_two_bytes_over_the_legacy_frame(self):
        # A point write is a one-record batch frame: the same JSON record
        # wrapped in one more pair of brackets.
        for record in RECORDS:
            assert WriteAheadLog().append_batch([record]) == (
                len(single_record_frame(*record)) + 2
            )

    def test_one_flush_per_batch(self):
        fileobj = _FlushCountingFile()
        wal = WriteAheadLog(fileobj)
        wal.append_batch(RECORDS)
        assert fileobj.flushes == 1
        wal.append_batch([RECORDS[0]])
        assert fileobj.flushes == 2

    def test_empty_batch_writes_nothing_and_never_flushes(self):
        fileobj = _FlushCountingFile()
        wal = WriteAheadLog(fileobj)
        assert wal.append_batch([]) == 0
        assert fileobj.flushes == 0
        assert wal.size_bytes() == 0
        assert list(wal.replay()) == []

    def test_single_frame_logs_stay_recoverable(self):
        # The pre-batch on-disk format is the single-record frame; a log of
        # only those must replay unchanged.
        wal = WriteAheadLog(io.BytesIO(single_record_segment(RECORDS)))
        assert [tuple(r) for r in wal.replay()] == RECORDS
        assert [tuple(r) for r in wal.replay(strict=True)] == RECORDS


def _encode_mixed() -> tuple[WriteAheadLog, list[tuple[int, int]]]:
    """A log of (legacy) single, batch, (legacy) single frames.

    Returns the WAL plus ``(byte_offset, records_replayable)`` after each
    frame — the clean truncation points.
    """
    buf = io.BytesIO(single_record_frame(*RECORDS[0]))
    boundaries = [(0, 0), (buf.getbuffer().nbytes, 1)]
    WriteAheadLog(buf).append_batch(RECORDS[1:3])
    boundaries.append((buf.getbuffer().nbytes, 3))
    buf.write(single_record_frame(*RECORDS[3]))
    boundaries.append((buf.getbuffer().nbytes, 4))
    return WriteAheadLog(buf), boundaries


class TestBatchFrameTruncation:
    def test_truncation_at_every_byte_yields_the_acked_prefix(self):
        wal, boundaries = _encode_mixed()
        payload = wal._file.getvalue()
        for cut in range(len(payload) + 1):
            replayed = list(WriteAheadLog(io.BytesIO(payload[:cut])).replay())
            expected = max(count for offset, count in boundaries if offset <= cut)
            assert len(replayed) == expected, f"cut at byte {cut}"
            assert [tuple(r) for r in replayed] == RECORDS[:expected]

    def test_strict_raises_exactly_off_frame_boundaries(self):
        wal, boundaries = _encode_mixed()
        payload = wal._file.getvalue()
        clean = {offset for offset, _ in boundaries}
        for cut in range(len(payload) + 1):
            truncated = WriteAheadLog(io.BytesIO(payload[:cut]))
            if cut in clean:
                assert len(list(truncated.replay(strict=True))) == max(
                    count for offset, count in boundaries if offset <= cut
                )
            else:
                with pytest.raises(WalCorruptionError):
                    list(truncated.replay(strict=True))

    def test_corrupt_batch_payload_fails_the_crc(self):
        wal = WriteAheadLog()
        wal.append_batch(RECORDS)
        payload = bytearray(wal._file.getvalue())
        payload[10] ^= 0xFF  # inside the JSON array, not the header
        corrupted = WriteAheadLog(io.BytesIO(bytes(payload)))
        assert list(corrupted.replay()) == []
        with pytest.raises(WalCorruptionError, match="checksum mismatch"):
            list(corrupted.replay(strict=True))


class _PoisonedLock:
    def __enter__(self):
        raise AssertionError("append_batch([]) must not take the lock")

    def __exit__(self, *exc):  # pragma: no cover - never entered
        return False


class TestSegmentedWalBatch:
    def test_batch_append_lands_in_the_active_segment(self):
        wal = SegmentedWal.on_store(MemoryStore(), "", "seq", fresh=True)
        wal.append_batch(RECORDS)
        assert [tuple(r) for r in wal.replay()] == RECORDS

    def test_empty_batch_skips_the_lock_and_the_file(self):
        wal = SegmentedWal.on_store(MemoryStore(), "", "seq", fresh=True)
        wal._lock = _PoisonedLock()
        wal.append_batch([])  # early return: the poisoned lock is untouched
        wal.append_batch(iter(()))

    def test_stats_accumulate_and_survive_segment_drops(self):
        wal = SegmentedWal.on_store(MemoryStore(), "", "seq", fresh=True)
        wal.append_batch([RECORDS[0]])
        wal.append_batch(RECORDS[1:])
        stats = wal.stats()
        assert stats["flushes"] == 2
        assert stats["bytes_appended"] == wal.size_bytes()
        sealed = wal.rotate()
        wal.drop(sealed)
        assert wal.stats() == stats  # cumulative, not current-size
        assert wal.size_bytes() < stats["bytes_appended"]

    def test_empty_batch_leaves_stats_untouched(self):
        wal = SegmentedWal.on_store(MemoryStore(), "", "seq", fresh=True)
        wal.append_batch([])
        assert wal.stats() == {"bytes_appended": 0, "flushes": 0}

    def test_replay_spans_batch_frames_across_segments(self):
        wal = SegmentedWal.on_store(MemoryStore(), "", "seq", fresh=True)
        wal.append_batch(RECORDS[:2])
        wal.rotate()
        wal.append_batch(RECORDS[2:])
        assert [tuple(r) for r in wal.replay()] == RECORDS


SERIES = [("root.sg.d0", "s0", t, float(t)) for t in (3, 1, 4, 1, 5, 9, 2, 6)]


def _plant_segment(tmp_path, blob: bytes) -> IoTDBConfig:
    """A crashed engine's tree whose only WAL content is ``blob``."""
    config = IoTDBConfig(data_dir=tmp_path / "data", wal_enabled=True)
    engine = StorageEngine.create(config)
    del engine  # abrupt: nothing flushed, the stamp and shard dirs remain
    (tmp_path / "data" / "shard-00" / "wal-seq-000001.log").write_bytes(blob)
    return config


def _recovered(config) -> list[tuple[int, float]]:
    engine = StorageEngine.open(config)
    result = engine.query("root.sg.d0", "s0", 0, 100)
    engine.close()
    return list(zip(result.timestamps, result.values))


def _last_write_wins(records) -> list[tuple[int, float]]:
    return sorted({t: v for _d, _s, t, v in records}.items())


class TestLegacyFramesRecoverThroughOpen:
    """Trees written by any earlier engine (single-record frames for point
    writes) still open with every record."""

    def test_single_only_segment_recovers_every_record(self, tmp_path):
        config = _plant_segment(tmp_path, single_record_segment(SERIES))
        assert _recovered(config) == _last_write_wins(SERIES)

    def test_mixed_kind_segment_recovers_every_record(self, tmp_path):
        buf = io.BytesIO(single_record_segment(SERIES[:3]))
        WriteAheadLog(buf).append_batch(SERIES[3:6])
        buf.write(single_record_segment(SERIES[6:]))
        config = _plant_segment(tmp_path, buf.getvalue())
        assert _recovered(config) == _last_write_wins(SERIES)

    def test_truncation_at_every_byte_recovers_the_acked_prefix(self, tmp_path):
        frames = [single_record_frame(*record) for record in SERIES[:4]]
        blob = b"".join(frames)
        ends = [sum(len(f) for f in frames[: i + 1]) for i in range(len(frames))]
        for cut in range(len(blob) + 1):
            config = _plant_segment(tmp_path / str(cut), blob[:cut])
            complete = sum(1 for end in ends if end <= cut)
            assert _recovered(config) == _last_write_wins(SERIES[:complete]), cut
