"""TsFile format: write/read round-trips, pruning, corruption detection."""

from __future__ import annotations

import io
import json
import struct
import zlib

import pytest

from repro.errors import InvalidParameterError, TsFileCorruptionError
from repro.iotdb import PageStatistics, TSDataType, TsFileReader, TsFileWriter
from repro.iotdb.tsfile import MAGIC


def _write_simple(ts, vs, dtype=TSDataType.DOUBLE, page_size=10, **chunk_kwargs):
    buf = io.BytesIO()
    writer = TsFileWriter(buf)
    writer.write_chunk("root.d1", "s1", dtype, ts, vs, page_size=page_size, **chunk_kwargs)
    writer.close()
    return buf


class TestRoundTrip:
    def test_single_chunk(self):
        ts = list(range(100))
        vs = [float(t) * 0.5 for t in ts]
        reader = TsFileReader(_write_simple(ts, vs))
        out_t, out_v = reader.read_chunk("root.d1", "s1")
        assert out_t == ts
        assert out_v == vs

    def test_multiple_devices_and_sensors(self):
        buf = io.BytesIO()
        writer = TsFileWriter(buf)
        writer.write_chunk("root.d1", "s1", TSDataType.INT64, [1, 2], [10, 20])
        writer.write_chunk("root.d1", "s2", TSDataType.TEXT, [1, 3], ["a", "b"])
        writer.write_chunk("root.d2", "s1", TSDataType.BOOLEAN, [5], [True])
        writer.close()
        reader = TsFileReader(buf)
        assert reader.devices() == ["root.d1", "root.d2"]
        assert reader.sensors("root.d1") == ["s1", "s2"]
        assert reader.read_chunk("root.d1", "s2") == ([1, 3], ["a", "b"])
        assert reader.read_chunk("root.d2", "s1") == ([5], [True])

    def test_missing_chunk_returns_empty(self):
        reader = TsFileReader(_write_simple([1], [1.0]))
        assert reader.read_chunk("root.d9", "s1") == ([], [])
        assert reader.query_range("root.d9", "s1", 0, 10) == ([], [])
        assert reader.chunk_metadata("root.d9", "s1") is None

    def test_gorilla_values(self):
        ts = list(range(50))
        vs = [float(i % 3) for i in ts]
        buf = _write_simple(ts, vs, value_encoding="gorilla")
        reader = TsFileReader(buf)
        assert reader.read_chunk("root.d1", "s1") == (ts, vs)


class TestQueryRange:
    def test_half_open_semantics(self):
        ts = list(range(0, 100, 2))
        vs = [float(t) for t in ts]
        reader = TsFileReader(_write_simple(ts, vs))
        out_t, out_v = reader.query_range("root.d1", "s1", 10, 20)
        assert out_t == [10, 12, 14, 16, 18]
        assert out_v == [10.0, 12.0, 14.0, 16.0, 18.0]

    def test_page_pruning_by_stats(self):
        ts = list(range(1000))
        vs = [float(t) for t in ts]
        reader = TsFileReader(_write_simple(ts, vs, page_size=100))
        meta = reader.chunk_metadata("root.d1", "s1")
        assert len(meta.pages) == 10
        out_t, _ = reader.query_range("root.d1", "s1", 950, 960)
        assert out_t == list(range(950, 960))

    def test_empty_range(self):
        reader = TsFileReader(_write_simple([1, 2, 3], [1.0, 2.0, 3.0]))
        assert reader.query_range("root.d1", "s1", 100, 200) == ([], [])


class TestStatistics:
    def test_page_statistics_numeric(self):
        stats = PageStatistics.from_points([1, 2, 3], [5.0, 1.0, 9.0])
        assert stats.count == 3
        assert stats.min_time == 1 and stats.max_time == 3
        assert stats.first_value == 5.0 and stats.last_value == 9.0
        assert stats.min_value == 1.0 and stats.max_value == 9.0
        assert stats.sum_value == 15.0

    def test_page_statistics_text(self):
        stats = PageStatistics.from_points([1, 2], ["b", "a"])
        assert stats.min_value is None and stats.sum_value is None

    def test_chunk_metadata_aggregates(self):
        ts = list(range(250))
        vs = [float(t) for t in ts]
        reader = TsFileReader(_write_simple(ts, vs, page_size=100))
        meta = reader.chunk_metadata("root.d1", "s1")
        assert meta.count == 250
        assert meta.min_time == 0 and meta.max_time == 249


class TestWriterValidation:
    def test_unsorted_rejected(self):
        with pytest.raises(InvalidParameterError):
            _write_simple([3, 1, 2], [1.0, 2.0, 3.0])

    def test_duplicates_rejected(self):
        with pytest.raises(InvalidParameterError):
            _write_simple([1, 1, 2], [1.0, 2.0, 3.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError):
            _write_simple([1, 2], [1.0])

    def test_overlapping_second_chunk_rejected(self):
        buf = io.BytesIO()
        writer = TsFileWriter(buf)
        writer.write_chunk("d", "s", TSDataType.INT64, [1, 5], [1, 2])
        with pytest.raises(InvalidParameterError):
            writer.write_chunk("d", "s", TSDataType.INT64, [4, 9], [3, 4])

    def test_dtype_change_rejected(self):
        buf = io.BytesIO()
        writer = TsFileWriter(buf)
        writer.write_chunk("d", "s", TSDataType.INT64, [1], [1])
        with pytest.raises(InvalidParameterError):
            writer.write_chunk("d", "s", TSDataType.DOUBLE, [5], [1.0])

    def test_write_after_close_rejected(self):
        buf = io.BytesIO()
        writer = TsFileWriter(buf)
        writer.close()
        with pytest.raises(InvalidParameterError):
            writer.write_chunk("d", "s", TSDataType.INT64, [1], [1])

    def test_second_nonoverlapping_chunk_appends(self):
        buf = io.BytesIO()
        writer = TsFileWriter(buf)
        writer.write_chunk("d", "s", TSDataType.INT64, [1, 2], [1, 2])
        writer.write_chunk("d", "s", TSDataType.INT64, [5, 9], [3, 4])
        writer.close()
        reader = TsFileReader(buf)
        assert reader.read_chunk("d", "s") == ([1, 2, 5, 9], [1, 2, 3, 4])


class TestCorruptionDetection:
    def test_truncated_file(self):
        with pytest.raises(TsFileCorruptionError):
            TsFileReader(io.BytesIO(b"short"))

    def test_bad_leading_magic(self):
        buf = _write_simple([1], [1.0])
        data = bytearray(buf.getvalue())
        data[0] ^= 0xFF
        with pytest.raises(TsFileCorruptionError):
            TsFileReader(io.BytesIO(bytes(data)))

    def test_bad_trailing_magic(self):
        buf = _write_simple([1], [1.0])
        data = bytearray(buf.getvalue())
        data[-1] ^= 0xFF
        with pytest.raises(TsFileCorruptionError):
            TsFileReader(io.BytesIO(bytes(data)))

    def test_footer_corruption(self):
        buf = _write_simple([1], [1.0])
        data = bytearray(buf.getvalue())
        # Flip a byte inside the JSON footer (just before the 17-byte tail).
        data[-20] ^= 0xFF
        with pytest.raises(TsFileCorruptionError):
            TsFileReader(io.BytesIO(bytes(data)))

    def test_footer_listing_a_column_twice(self):
        # A checksum-valid footer that names one column twice: the reader
        # would have to pick one chunk silently.
        data = _write_simple([1], [1.0]).getvalue()
        tail = len(MAGIC) + 8
        (footer_len,) = struct.unpack("<I", data[-tail : -tail + 4])
        footer_start = len(data) - tail - footer_len
        chunks = json.loads(data[footer_start : len(data) - tail])
        footer = json.dumps(chunks * 2).encode("utf-8")
        forged = (
            data[:footer_start]
            + footer
            + struct.pack("<II", len(footer), zlib.crc32(footer))
            + MAGIC
        )
        with pytest.raises(TsFileCorruptionError, match="twice"):
            TsFileReader(io.BytesIO(forged))

    def test_page_corruption_detected_on_read(self):
        ts = list(range(100))
        buf = _write_simple(ts, [float(t) for t in ts], page_size=50)
        data = bytearray(buf.getvalue())
        data[len(b"TsFilePy1") + 5] ^= 0xFF  # inside the first page payload
        reader = TsFileReader(io.BytesIO(bytes(data)))
        with pytest.raises(TsFileCorruptionError):
            reader.read_chunk("root.d1", "s1")


class TestDescribe:
    def test_layout_summary(self):
        buf = io.BytesIO()
        writer = TsFileWriter(buf)
        writer.write_chunk("d1", "s1", TSDataType.DOUBLE, list(range(250)), [0.0] * 250, page_size=100)
        writer.write_chunk("d2", "s1", TSDataType.INT64, [5, 9], [1, 2])
        writer.close()
        info = TsFileReader(buf).describe()
        assert info["chunks"] == 2
        assert info["pages"] == 4  # 3 + 1
        assert info["points"] == 252
        assert info["file_bytes"] > 0
        d1 = next(c for c in info["columns"] if c["device"] == "d1")
        assert d1["min_time"] == 0 and d1["max_time"] == 249
        assert d1["dtype"] == "double"


class TestCompression:
    def test_zlib_roundtrip_and_smaller(self):
        ts = list(range(2_000))
        vs = [float(t % 7) for t in ts]
        plain = io.BytesIO()
        w = TsFileWriter(plain)
        w.write_chunk("d", "s", TSDataType.DOUBLE, ts, vs, page_size=500)
        plain_size = w.close()
        packed = io.BytesIO()
        w = TsFileWriter(packed)
        w.write_chunk(
            "d", "s", TSDataType.DOUBLE, ts, vs, page_size=500, compression="zlib"
        )
        packed_size = w.close()
        assert packed_size < plain_size / 2
        reader = TsFileReader(packed)
        assert reader.read_chunk("d", "s") == (ts, vs)
        assert reader.chunk_metadata("d", "s").compression == "zlib"

    def test_zlib_query_range(self):
        ts = list(range(500))
        vs = [float(t) for t in ts]
        buf = io.BytesIO()
        w = TsFileWriter(buf)
        w.write_chunk("d", "s", TSDataType.DOUBLE, ts, vs, page_size=50, compression="zlib")
        w.close()
        out_t, out_v = TsFileReader(buf).query_range("d", "s", 100, 120)
        assert out_t == list(range(100, 120))

    def test_unknown_compression_rejected(self):
        buf = io.BytesIO()
        w = TsFileWriter(buf)
        with pytest.raises(InvalidParameterError):
            w.write_chunk("d", "s", TSDataType.INT64, [1], [1], compression="snappy")

    def test_config_validates_compression(self):
        from repro.iotdb import IoTDBConfig

        with pytest.raises(InvalidParameterError):
            IoTDBConfig(compression="snappy")
