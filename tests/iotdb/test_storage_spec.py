"""docs/STORAGE.md conformance: parse real engine output at the spec's offsets.

These tests re-implement the byte layouts *as stated in the spec* —
magic strings, offsets, masks, CRC coverage — and run them against blobs
a real engine produced, without importing the codecs under test.  If the
code drifts from the spec (or the spec from the code), these fail.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import pytest

from repro.iotdb import IoTDBConfig, StorageEngine

# Constants copied from docs/STORAGE.md, deliberately NOT imported from
# the implementation: the test checks code and spec agree.
SPEC_WAL_BATCH_FLAG = 0x80000000
SPEC_WAL_LENGTH_MASK = 0x7FFFFFFF
SPEC_WAL_COLUMN_TAG = 0x01
SPEC_META_MAGIC = b"REPROMETA1"
SPEC_INDEX_MAGIC = b"REPROIDX1"
SPEC_TSFILE_MAGIC = b"TsFilePy1"


@pytest.fixture
def data_dir(tmp_path) -> Path:
    """A real persisted tree: points + one batch, enough to seal a file."""
    root = tmp_path / "data"
    engine = StorageEngine.create(
        IoTDBConfig(data_dir=root, wal_enabled=True, memtable_flush_threshold=64)
    )
    for t in range(64):  # one full memtable: seals seq-000001.tsfile
        engine.write("d0", "s0", t, float(t))
    for t in range(64, 80):  # one-record batch frames in the live segment
        engine.write("d0", "s0", t, float(t))
    engine.write_batch("d0", "s0", list(range(80, 90)), [float(t) for t in range(80, 90)])
    del engine  # abrupt: the live WAL segment stays on disk
    return root


def spec_decode_column(payload: bytes) -> list[list]:
    """STORAGE.md §3 column frame payload → ``[[d, s, t, v], …]``.

    ``0x01 | code | u32 len + device | u32 len + sensor | u32 n |
    u32 m | m bytes of raw DEFLATE inflating to n × int64 LE | values``;
    every byte must be consumed.
    """
    assert payload[0] == SPEC_WAL_COLUMN_TAG
    code = payload[1:2]
    pos = 2
    names = []
    for _ in range(2):
        (length,) = struct.unpack_from("<I", payload, pos)
        names.append(payload[pos + 4 : pos + 4 + length].decode("utf-8"))
        pos += 4 + length
    n, m = struct.unpack_from("<II", payload, pos)
    pos += 8
    inflater = zlib.decompressobj(-15)  # raw DEFLATE: no zlib header
    time_bytes = inflater.decompress(payload[pos : pos + m])
    assert inflater.eof and not inflater.unused_data and len(time_bytes) == 8 * n
    timestamps = list(struct.unpack(f"<{n}q", time_bytes))
    pos += m
    if code == b"d":
        values = list(struct.unpack_from(f"<{n}d", payload, pos))
        pos += 8 * n
    elif code == b"q":
        values = list(struct.unpack_from(f"<{n}q", payload, pos))
        pos += 8 * n
    elif code == b"?":
        values = [byte == 1 for byte in payload[pos : pos + n]]
        pos += n
    else:
        assert code == b"s", code
        lengths = struct.unpack_from(f"<{n}I", payload, pos)
        pos += 4 * n
        values = []
        for length in lengths:
            values.append(payload[pos : pos + length].decode("utf-8"))
            pos += length
    assert pos == len(payload), "undocumented trailing bytes in column frame"
    return [[*names, t, v] for t, v in zip(timestamps, values)]


def parse_wal_frames(blob: bytes):
    """Frame walker written to the spec: header | payload | crc, LE."""
    offset = 0
    frames = []
    while offset + 4 <= len(blob):
        (header,) = struct.unpack_from("<I", blob, offset)
        length = header & SPEC_WAL_LENGTH_MASK
        is_batch = bool(header & SPEC_WAL_BATCH_FLAG)
        if offset + 4 + length + 4 > len(blob):
            break  # torn tail: everything before it is durable truth
        payload = blob[offset + 4 : offset + 4 + length]
        (crc,) = struct.unpack_from("<I", blob, offset + 4 + length)
        if crc != zlib.crc32(payload) & 0xFFFFFFFF:
            break
        if is_batch and payload[0] == SPEC_WAL_COLUMN_TAG:
            frames.append(("column", spec_decode_column(payload)))
        else:
            frames.append(("json", json.loads(payload.decode("utf-8"))))
        offset += 4 + length + 4
    return frames, offset


def spec_decode_ts2diff(data: bytes, count: int) -> list[int]:
    """STORAGE.md §4 time column: the first value, then ``count - 1`` deltas,
    each a zigzag LEB128 varint; every byte must be consumed."""
    values, pos = [], 0
    for _ in range(count):
        z = shift = 0
        while True:
            byte = data[pos]
            pos += 1
            z |= (byte & 0x7F) << shift
            shift += 7
            if not byte & 0x80:
                break
        n = z // 2 if z % 2 == 0 else -(z + 1) // 2
        values.append(n if not values else values[-1] + n)
    assert pos == len(data), "undocumented trailing bytes in time column"
    return values


class TestWalSegmentSpec:
    def test_real_segment_parses_at_spec_offsets(self, data_dir):
        segment = data_dir / "shard-00" / "wal-seq-000002.log"
        assert segment.exists(), sorted(p.name for p in (data_dir / "shard-00").iterdir())
        blob = segment.read_bytes()
        frames, consumed = parse_wal_frames(blob)
        assert consumed == len(blob), "undocumented trailing bytes in segment"
        assert frames, "live segment should carry the unflushed tail"
        # The writer emits column frames only: 16 one-point frames (the
        # point writes t=64..79) then one ten-point frame (t=80..89).
        assert all(kind == "column" for kind, _ in frames)
        assert [[record[2] for record in records] for _, records in frames] == [
            [t] for t in range(64, 80)
        ] + [list(range(80, 90))]
        for record in frames[-1][1]:
            assert record[:2] == ["d0", "s0"] and record[3] == float(record[2])

    def test_point_write_payload_is_a_one_record_batch(self, data_dir):
        blob = (data_dir / "shard-00" / "wal-seq-000002.log").read_bytes()
        (header,) = struct.unpack_from("<I", blob, 0)
        assert header & SPEC_WAL_BATCH_FLAG
        payload = blob[4 : 4 + (header & SPEC_WAL_LENGTH_MASK)]
        # tag, value code "d" (a DOUBLE column), "d0", "s0", one point.
        head = (
            b"\x01d"
            + struct.pack("<I", 2) + b"d0"
            + struct.pack("<I", 2) + b"s0"
            + struct.pack("<I", 1)
        )
        assert payload[: len(head)] == head
        (m,) = struct.unpack_from("<I", payload, len(head))
        time_column = payload[len(head) + 4 : len(head) + 4 + m]
        assert zlib.decompress(time_column, -15) == struct.pack("<q", 64)
        assert payload[len(head) + 4 + m :] == struct.pack("<d", 64.0)

    def test_typed_columns_decode_with_the_spec_rule(self, tmp_path):
        root = tmp_path / "typed"
        engine = StorageEngine.create(IoTDBConfig(data_dir=root, wal_enabled=True))
        columns = {
            "i": [-(2**63), 0, 2**63 - 1],
            "b": [True, False, True],
            "t": ["", "ascii", "ünï 日本"],
            "f": [-0.5, 2, 1e300],
        }
        for sensor, values in columns.items():
            engine.write_batch("dev", sensor, [1, 2, 3], values)
        del engine
        frames, consumed = parse_wal_frames(
            (root / "shard-00" / "wal-seq-000001.log").read_bytes()
        )
        assert [kind for kind, _ in frames] == ["column"] * 4
        decoded = {records[0][1]: [r[3] for r in records] for _, records in frames}
        assert decoded == {**columns, "f": [-0.5, 2.0, 1e300]}

    def test_torn_tail_stops_replay_cleanly(self, data_dir):
        blob = (data_dir / "shard-00" / "wal-seq-000002.log").read_bytes()
        whole, _ = parse_wal_frames(blob)
        torn, consumed = parse_wal_frames(blob[:-3])
        assert torn == whole[:-1]
        assert consumed <= len(blob) - 3


class TestMetaFrameSpec:
    def test_engine_json_at_spec_offsets(self, data_dir):
        blob = (data_dir / "meta" / "engine.json").read_bytes()
        # offset 0: 10-byte magic + newline; offset 11: 8 hex chars + newline.
        assert blob[:10] == SPEC_META_MAGIC
        assert blob[10:11] == b"\n"
        crc_field = blob[11:19]
        assert blob[19:20] == b"\n"
        payload = blob[20:-1]
        assert blob[-1:] == b"\n"
        assert int(crc_field, 16) == zlib.crc32(payload) & 0xFFFFFFFF
        obj = json.loads(payload)
        assert obj == {"backend": "local", "shards": 1, "version": 1}
        # Compact, key-sorted encoding is normative.
        assert payload.decode() == json.dumps(obj, sort_keys=True, separators=(",", ":"))


class TestIntervalIndexSpec:
    def test_index_frame_and_entries(self, data_dir):
        blob = (data_dir / "shard-00" / "interval-index.json").read_bytes()
        magic, crc_field, rest = blob.split(b"\n", 2)
        assert magic == SPEC_INDEX_MAGIC
        payload = rest[:-1]
        assert rest[-1:] == b"\n"
        assert int(crc_field, 16) == zlib.crc32(payload) & 0xFFFFFFFF
        entries = json.loads(payload)["entries"]
        assert entries == [
            {"file_id": "seq-000001", "space": "seq", "min_time": 0, "max_time": 63}
        ]


class TestTsFileSpec:
    def test_sealed_file_framing(self, data_dir):
        blob = (data_dir / "shard-00" / "seq-000001.tsfile").read_bytes()
        assert blob[: len(SPEC_TSFILE_MAGIC)] == SPEC_TSFILE_MAGIC
        assert blob[-len(SPEC_TSFILE_MAGIC) :] == SPEC_TSFILE_MAGIC
        footer_len, footer_crc = struct.unpack_from(
            "<II", blob, len(blob) - len(SPEC_TSFILE_MAGIC) - 8
        )
        footer_start = len(blob) - len(SPEC_TSFILE_MAGIC) - 8 - footer_len
        footer = blob[footer_start : footer_start + footer_len]
        assert zlib.crc32(footer) & 0xFFFFFFFF == footer_crc
        index = json.loads(footer)
        assert "d0" in json.dumps(index)  # the chunk index names the device

    def test_time_column_decodes_with_the_spec_rule(self, data_dir):
        blob = (data_dir / "shard-00" / "seq-000001.tsfile").read_bytes()
        footer_len, _ = struct.unpack_from("<II", blob, len(blob) - len(SPEC_TSFILE_MAGIC) - 8)
        footer_start = len(blob) - len(SPEC_TSFILE_MAGIC) - 8 - footer_len
        (chunk,) = json.loads(blob[footer_start : footer_start + footer_len])
        assert (chunk["device"], chunk["sensor"]) == ("d0", "s0")
        assert (chunk["time_encoding"], chunk["compression"]) == ("ts2diff", "none")
        times = []
        for page in chunk["pages"]:
            offset = page["offset"]
            (time_len,) = struct.unpack_from("<I", blob, offset)
            time_bytes = blob[offset + 4 : offset + 4 + time_len]
            (value_len,) = struct.unpack_from("<I", blob, offset + 4 + time_len)
            crc_at = offset + 4 + time_len + 4 + value_len
            (crc,) = struct.unpack_from("<I", blob, crc_at)
            assert crc == zlib.crc32(blob[offset:crc_at]) & 0xFFFFFFFF
            page_times = spec_decode_ts2diff(time_bytes, page["stats"]["count"])
            assert page_times[0] == page["stats"]["min_time"]
            assert page_times[-1] == page["stats"]["max_time"]
            times.extend(page_times)
        assert times == list(range(64))
        # Sorted timestamps one apart: every delta is the single byte zigzag(1).
        assert time_bytes[1:] == b"\x02" * 63

    def test_no_part_keys_survive_clean_run(self, data_dir):
        assert not list(data_dir.rglob("*.part"))
