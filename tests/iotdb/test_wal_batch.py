"""WAL batch frames: roundtrip, mixed-kind replay, truncation, accounting.

The writer emits one frame kind: the binary *column* frame — one series'
batch as a timestamp column and a value column, with one CRC and one
flush.  ``replay`` also accepts both legacy JSON kinds (single-record and
JSON batch frames, hand-encoded here from docs/STORAGE.md by
:mod:`tests.iotdb.legacy_wal`; no writer produces them any more), so logs
of legacy frames and logs mixing all three stay recoverable, through
``WriteAheadLog.replay`` and through ``StorageEngine.open``.  Truncation
anywhere inside a batch frame drops the whole batch — the batch was
acknowledged only after its single flush, so replay still surfaces exactly
the acknowledged prefix.
"""

from __future__ import annotations

import io
import math
import struct
import zlib

import pytest

from repro.errors import WalCorruptionError
from repro.iotdb import IoTDBConfig, StorageEngine, TSDataType
from repro.iotdb.backends import MemoryStore
from repro.iotdb.wal import SegmentedWal, WriteAheadLog
from tests.iotdb.legacy_wal import (
    json_batch_frame,
    single_record_frame,
    single_record_segment,
)

#: Records of four different series, for the legacy JSON frames.
RECORDS = [
    ("root.sg.d0", "s0", 5, 1.5),
    ("root.sg.d0", "s1", 6, True),
    ("root.sg.d1", "s0", 7, "text value"),
    ("root.sg.d1", "s1", -8, 2**60),
]

#: One series' batch: the unit a column frame carries.
COLUMN = ("root.sg.d2", "s0", [3, 1, 4, -1, 5], [0.5, -2.0, 3.25, 1e300, 7.0])


def _records(device, sensor, timestamps, values) -> list[tuple]:
    return [(device, sensor, t, v) for t, v in zip(timestamps, values)]


def _append(wal, device, sensor, timestamps, values, dtype=TSDataType.DOUBLE) -> int:
    return wal.append_batch(device, sensor, timestamps, values, dtype)


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
        _append(wal, *COLUMN)
        assert list(wal.replay()) == _records(*COLUMN)

    def test_mixed_single_and_batch_frames_replay_in_order(self):
        buf = io.BytesIO(single_record_frame(*RECORDS[0]))
        _append(WriteAheadLog(buf), *COLUMN)
        buf.write(json_batch_frame(RECORDS[1:3]))
        buf.write(single_record_frame(*RECORDS[3]))
        wal = WriteAheadLog(buf)
        wal.append_batch("root.sg.d0", "s1", [9], [False], TSDataType.BOOLEAN)
        assert [tuple(r) for r in wal.replay()] == [
            RECORDS[0],
            *_records(*COLUMN),
            RECORDS[1],
            RECORDS[2],
            RECORDS[3],
            ("root.sg.d0", "s1", 9, False),
        ]

    def test_batch_frame_is_smaller_than_single_frames(self):
        records = _records(*COLUMN)
        single_bytes = len(single_record_segment(records))
        batch = WriteAheadLog()
        batch_bytes = _append(batch, *COLUMN)
        assert 0 < batch_bytes < len(json_batch_frame(records)) < single_bytes
        assert batch.size_bytes() == batch_bytes

    def test_column_frame_size_follows_the_spec_layout(self):
        # header + tag + code + two length-prefixed names + count + the
        # length-prefixed DEFLATE of the int64 timestamps + the value
        # column + crc (docs/STORAGE.md §3).
        device, sensor, ts, vs = COLUMN
        fixed = 4 + 1 + 1 + (4 + len(device)) + (4 + len(sensor)) + 4 + 4

        def times(timestamps) -> int:
            raw = struct.pack(f"<{len(timestamps)}q", *timestamps)
            return 4 + len(zlib.compress(raw, 1, -15))

        assert _append(WriteAheadLog(), *COLUMN) == fixed + times(ts) + 8 * len(vs)
        flags = [True, False, True]
        assert WriteAheadLog().append_batch(
            device, sensor, [1, 2, 3], flags, TSDataType.BOOLEAN
        ) == fixed + times([1, 2, 3]) + 3
        texts = ["a", "", "ü"]
        assert WriteAheadLog().append_batch(
            device, sensor, [1, 2, 3], texts, TSDataType.TEXT
        ) == fixed + times([1, 2, 3]) + 4 * 3 + len("aü".encode("utf-8"))

    def test_frame_size_follows_the_timestamps_not_only_their_count(self):
        # Close timestamps share their high bytes, so the deflated column
        # is a fraction of 8 bytes per point, and two batches of one size
        # log different byte counts when their timestamps differ.
        regular = list(range(1_000, 1_500))
        scattered = [t * 7_919_993 % 10**12 for t in regular]
        values = [0.5] * len(regular)
        small = _append(WriteAheadLog(), "d", "s", regular, values)
        large = _append(WriteAheadLog(), "d", "s", scattered, values)
        assert small < 8 * len(values) + 4 * len(regular) < large

    def test_one_flush_per_batch(self):
        fileobj = _FlushCountingFile()
        wal = WriteAheadLog(fileobj)
        _append(wal, *COLUMN)
        assert fileobj.flushes == 1
        _append(wal, "d", "s", [1], [1.0])
        assert fileobj.flushes == 2

    def test_empty_batch_writes_nothing_and_never_flushes(self):
        fileobj = _FlushCountingFile()
        wal = WriteAheadLog(fileobj)
        assert _append(wal, "d", "s", [], []) == 0
        assert fileobj.flushes == 0
        assert wal.size_bytes() == 0
        assert list(wal.replay()) == []

    def test_single_frame_logs_stay_recoverable(self):
        # The pre-batch on-disk format is the single-record frame; a log of
        # only those must replay unchanged.
        wal = WriteAheadLog(io.BytesIO(single_record_segment(RECORDS)))
        assert [tuple(r) for r in wal.replay()] == RECORDS
        assert [tuple(r) for r in wal.replay(strict=True)] == RECORDS

    def test_json_batch_frame_logs_stay_recoverable(self):
        # The pre-column batch format: one JSON array of records, any mix
        # of series in one frame.
        blob = json_batch_frame(RECORDS[:2]) + json_batch_frame(RECORDS[2:])
        wal = WriteAheadLog(io.BytesIO(blob))
        assert [tuple(r) for r in wal.replay(strict=True)] == RECORDS


class TestColumnFrameRoundTrip:
    """Every column type through ``WriteAheadLog.replay``, edge values
    included; names are UTF-8."""

    @staticmethod
    def _roundtrip(values, dtype, device="d", sensor="s"):
        wal = WriteAheadLog()
        wal.append_batch(device, sensor, list(range(len(values))), values, dtype)
        replayed = list(wal.replay(strict=True))
        assert [(d, s, t) for d, s, t, _ in replayed] == [
            (device, sensor, t) for t in range(len(values))
        ]
        return [v for _d, _s, _t, v in replayed]

    @pytest.mark.parametrize("dtype", [TSDataType.INT32, TSDataType.INT64])
    def test_integers_keep_their_extremes(self, dtype):
        bits = 31 if dtype is TSDataType.INT32 else 63
        values = [-(2**bits), -1, 0, 1, 2**bits - 1]
        out = self._roundtrip(values, dtype)
        assert out == values and all(type(v) is int for v in out)

    @pytest.mark.parametrize("dtype", [TSDataType.FLOAT, TSDataType.DOUBLE])
    def test_doubles_keep_nan_infinities_and_signed_zero(self, dtype):
        values = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308]
        out = self._roundtrip(values, dtype)
        assert math.isnan(out[0])
        assert out[1:3] == [math.inf, -math.inf]
        assert math.copysign(1.0, out[3]) == -1.0
        assert math.copysign(1.0, out[4]) == 1.0
        assert out[5:] == values[5:]

    def test_ints_in_a_double_column_come_back_as_doubles(self):
        out = self._roundtrip([2, -3], TSDataType.DOUBLE)
        assert out == [2.0, -3.0] and all(type(v) is float for v in out)

    def test_booleans(self):
        values = [True, False, False, True]
        out = self._roundtrip(values, TSDataType.BOOLEAN)
        assert out == values and all(type(v) is bool for v in out)

    def test_text_empty_and_non_ascii(self):
        values = ["", "plain", "ünïcødé", "日本語", "emoji 🙂", ""]
        assert self._roundtrip(values, TSDataType.TEXT) == values

    def test_non_ascii_device_and_sensor_names(self):
        assert self._roundtrip(
            [1.0], TSDataType.DOUBLE, device="root.größe.设备", sensor="温度"
        ) == [1.0]


def _column_frame_bytes(*column, dtype=TSDataType.DOUBLE) -> bytes:
    wal = WriteAheadLog()
    _append(wal, *column, dtype=dtype)
    return wal._file.getvalue()


def _reframe(payload: bytes) -> bytes:
    """A batch frame around ``payload`` with a valid CRC."""
    return (
        struct.pack("<I", len(payload) | 0x80000000)
        + payload
        + struct.pack("<I", zlib.crc32(payload))
    )


def _four_doubles_with(time_column: bytes) -> bytes:
    """A hand-built DOUBLE column payload of device ``d``, sensor ``s`` and
    four points, around the given timestamp stream."""
    return (
        b"\x01d" + struct.pack("<I", 1) + b"d" + struct.pack("<I", 1) + b"s"
        + struct.pack("<II", 4, len(time_column)) + time_column
        + struct.pack("<4d", 0.0, 1.0, 2.0, 3.0)
    )


class TestColumnFrameDamage:
    def test_truncation_at_every_byte_names_the_damaged_part(self):
        blob = _column_frame_bytes(*COLUMN)
        payload_end = len(blob) - 4
        for cut in range(1, len(blob)):
            torn = WriteAheadLog(io.BytesIO(blob[:cut]))
            assert list(torn.replay()) == [], cut
            part = "header" if cut < 4 else "payload" if cut < payload_end else "crc"
            with pytest.raises(WalCorruptionError, match=f"torn {part} at record 0"):
                list(torn.replay(strict=True))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda p: p[:1] + b"x" + p[2:],  # unknown value code
            lambda p: p + b"\x00",  # trailing byte
            lambda p: p[:-1],  # value column one byte short
        ],
        ids=["unknown-code", "trailing-byte", "short-values"],
    )
    def test_crc_valid_malformed_payload_is_refused(self, mutate):
        payload = _column_frame_bytes(*COLUMN)[4:-4]
        bad = WriteAheadLog(io.BytesIO(_reframe(mutate(payload))))
        for strict in (False, True):
            with pytest.raises(WalCorruptionError, match="malformed column frame"):
                list(bad.replay(strict=strict))

    @pytest.mark.parametrize(
        "time_column",
        [
            zlib.compress(struct.pack("<5q", *range(5)), 1, -15),  # one int64 too many
            zlib.compress(struct.pack("<3q", *range(3)), 1, -15),  # one too few
            zlib.compress(struct.pack("<4q", *range(4)), 1, -15) + b"\x00",  # trailing
            zlib.compress(struct.pack("<4q", *range(4)), 1, -15)[:-1],  # cut short
            b"\xff\xff\xff\xff",  # not DEFLATE at all
        ],
        ids=["too-many", "too-few", "trailing", "cut-short", "not-deflate"],
    )
    def test_timestamp_stream_must_inflate_to_exactly_n_int64s(self, time_column):
        exact = zlib.compress(struct.pack("<4q", *range(4)), 1, -15)
        good = WriteAheadLog(io.BytesIO(_reframe(_four_doubles_with(exact))))
        assert [t for _d, _s, t, _v in good.replay(strict=True)] == [0, 1, 2, 3]
        bad = WriteAheadLog(io.BytesIO(_reframe(_four_doubles_with(time_column))))
        for strict in (False, True):
            with pytest.raises(WalCorruptionError, match="malformed column frame"):
                list(bad.replay(strict=strict))

    def test_boolean_bytes_other_than_zero_or_one_are_refused(self):
        payload = _column_frame_bytes(
            "d", "s", [1, 2], [True, False], dtype=TSDataType.BOOLEAN
        )[4:-4]
        bad = WriteAheadLog(io.BytesIO(_reframe(payload[:-1] + b"\x02")))
        with pytest.raises(WalCorruptionError, match="neither 0 nor 1"):
            list(bad.replay())


def _encode_mixed() -> tuple[WriteAheadLog, list[tuple[int, int]], list[tuple]]:
    """A log of (legacy) single, column, (legacy) JSON batch, (legacy)
    single frames.

    Returns the WAL, ``(byte_offset, records_replayable)`` after each frame
    — the clean truncation points — and every record in replay order.
    """
    expected = [RECORDS[0], *_records(*COLUMN), *RECORDS[1:3], RECORDS[3]]
    buf = io.BytesIO(single_record_frame(*RECORDS[0]))
    boundaries = [(0, 0), (buf.getbuffer().nbytes, 1)]
    _append(WriteAheadLog(buf), *COLUMN)
    boundaries.append((buf.getbuffer().nbytes, 1 + len(COLUMN[2])))
    buf.write(json_batch_frame(RECORDS[1:3]))
    boundaries.append((buf.getbuffer().nbytes, 3 + len(COLUMN[2])))
    buf.write(single_record_frame(*RECORDS[3]))
    boundaries.append((buf.getbuffer().nbytes, len(expected)))
    return WriteAheadLog(buf), boundaries, expected


class TestBatchFrameTruncation:
    def test_truncation_at_every_byte_yields_the_acked_prefix(self):
        wal, boundaries, records = _encode_mixed()
        payload = wal._file.getvalue()
        for cut in range(len(payload) + 1):
            replayed = list(WriteAheadLog(io.BytesIO(payload[:cut])).replay())
            expected = max(count for offset, count in boundaries if offset <= cut)
            assert len(replayed) == expected, f"cut at byte {cut}"
            assert [tuple(r) for r in replayed] == records[:expected]

    def test_strict_raises_exactly_off_frame_boundaries(self):
        wal, boundaries, _records_ = _encode_mixed()
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
        _append(wal, *COLUMN)
        payload = bytearray(wal._file.getvalue())
        payload[10] ^= 0xFF  # inside the payload, not the header
        corrupted = WriteAheadLog(io.BytesIO(bytes(payload)))
        assert list(corrupted.replay()) == []
        with pytest.raises(WalCorruptionError, match="checksum mismatch"):
            list(corrupted.replay(strict=True))


class _PoisonedLock:
    def __enter__(self):
        raise AssertionError("append_batch of an empty batch must not take the lock")

    def __exit__(self, *exc):  # pragma: no cover - never entered
        return False


class TestSegmentedWalBatch:
    def test_batch_append_lands_in_the_active_segment(self):
        wal = SegmentedWal.on_store(MemoryStore(), "", "seq", fresh=True)
        _append(wal, *COLUMN)
        assert list(wal.replay()) == _records(*COLUMN)

    def test_empty_batch_skips_the_lock_and_the_file(self):
        wal = SegmentedWal.on_store(MemoryStore(), "", "seq", fresh=True)
        wal._lock = _PoisonedLock()
        _append(wal, "d", "s", [], [])  # early return: the poisoned lock is untouched
        _append(wal, "d", "s", (), ())

    def test_stats_accumulate_and_survive_segment_drops(self):
        wal = SegmentedWal.on_store(MemoryStore(), "", "seq", fresh=True)
        _append(wal, "d", "s", [1], [1.0])
        _append(wal, *COLUMN)
        stats = wal.stats()
        assert stats["flushes"] == 2
        assert stats["bytes_appended"] == wal.size_bytes()
        sealed = wal.rotate()
        wal.drop(sealed)
        assert wal.stats() == stats  # cumulative, not current-size
        assert wal.size_bytes() < stats["bytes_appended"]

    def test_empty_batch_leaves_stats_untouched(self):
        wal = SegmentedWal.on_store(MemoryStore(), "", "seq", fresh=True)
        _append(wal, "d", "s", [], [])
        assert wal.stats() == {"bytes_appended": 0, "flushes": 0}

    def test_replay_spans_batch_frames_across_segments(self):
        device, sensor, ts, vs = COLUMN
        wal = SegmentedWal.on_store(MemoryStore(), "", "seq", fresh=True)
        _append(wal, device, sensor, ts[:2], vs[:2])
        wal.rotate()
        _append(wal, device, sensor, ts[2:], vs[2:])
        assert list(wal.replay()) == _records(*COLUMN)


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


def _column_of(records) -> bytes:
    buf = io.BytesIO()
    device, sensor = records[0][:2]
    _append(WriteAheadLog(buf), device, sensor, [r[2] for r in records], [r[3] for r in records])
    return buf.getvalue()


class TestLegacyFramesRecoverThroughOpen:
    """Trees written by any earlier engine (single-record frames for point
    writes, JSON batch frames for batches) still open with every record."""

    def test_single_only_segment_recovers_every_record(self, tmp_path):
        config = _plant_segment(tmp_path, single_record_segment(SERIES))
        assert _recovered(config) == _last_write_wins(SERIES)

    def test_mixed_kind_segment_recovers_every_record(self, tmp_path):
        blob = (
            single_record_segment(SERIES[:3])
            + _column_of(SERIES[3:6])
            + single_record_segment(SERIES[6:])
        )
        config = _plant_segment(tmp_path, blob)
        assert _recovered(config) == _last_write_wins(SERIES)

    def test_segment_mixing_all_three_kinds_recovers_every_record(self, tmp_path):
        blob = (
            single_record_frame(*SERIES[0])
            + json_batch_frame(SERIES[1:4])
            + _column_of(SERIES[4:6])
            + json_batch_frame(SERIES[6:7])
            + single_record_frame(*SERIES[7])
        )
        config = _plant_segment(tmp_path, blob)
        assert _recovered(config) == _last_write_wins(SERIES)

    def test_truncation_at_every_byte_recovers_the_acked_prefix(self, tmp_path):
        frames = [single_record_frame(*record) for record in SERIES[:4]]
        blob = b"".join(frames)
        ends = [sum(len(f) for f in frames[: i + 1]) for i in range(len(frames))]
        for cut in range(len(blob) + 1):
            config = _plant_segment(tmp_path / str(cut), blob[:cut])
            complete = sum(1 for end in ends if end <= cut)
            assert _recovered(config) == _last_write_wins(SERIES[:complete]), cut
