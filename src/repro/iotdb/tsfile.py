"""A simplified TsFile: IoTDB's immutable columnar file format.

Layout (all integers little-endian)::

    MAGIC "TsFilePy1"
    page*            -- concatenated page payloads, in write order
    footer           -- JSON index: per (device, sensor) chunk metadata with
                        page offsets, counts, time ranges and statistics
    footer_length    -- uint32
    crc32(footer)    -- uint32
    MAGIC "TsFilePy1"

Each page payload is::

    uint32 time_len | time_bytes | uint32 value_len | value_bytes | uint32 crc

Pages within a chunk are time-ordered and non-overlapping (the flush
pipeline writes sorted, deduplicated data — which is the whole point of
sorting before flushing).  Readers use page statistics (min/max time) to
skip pages outside a query range, so query cost reflects how well the data
was organised at flush time.
"""

from __future__ import annotations

import io
import json
import struct
import zlib
from bisect import bisect_left
from collections.abc import ValuesView
from dataclasses import dataclass, field

from repro.errors import InvalidParameterError, TsFileCorruptionError
from repro.iotdb.config import TSDataType
from repro.iotdb.encoding import get_encoder

MAGIC = b"TsFilePy1"


def cut_range(ts: list[int], vs: list, start: int, end: int) -> tuple[list[int], list]:
    """The points of a *sorted* column with ``start <= t < end``.

    The range cut of sealed data: two binary searches on the time column
    instead of a per-point filter, shared by :meth:`TsFileReader.query_range`
    and the boundary pages of the statistics aggregate.  A sorted live
    TVList cuts itself the same way over its time column
    (:meth:`~repro.iotdb.tvlist.TVList.cut_range`).
    """
    lo = bisect_left(ts, start)
    hi = bisect_left(ts, end, lo)
    if lo == 0 and hi == len(ts):
        return ts, vs
    return ts[lo:hi], vs[lo:hi]


@dataclass
class PageStatistics:
    """Per-page summary used for query pruning and aggregations."""

    count: int
    min_time: int
    max_time: int
    first_value: object = None
    last_value: object = None
    min_value: object = None
    max_value: object = None
    sum_value: float | None = None

    @classmethod
    def from_points(cls, ts: list[int], vs: list) -> "PageStatistics":
        numeric = vs and isinstance(vs[0], (int, float)) and not isinstance(vs[0], bool)
        return cls(
            count=len(ts),
            min_time=ts[0],
            max_time=ts[-1],
            first_value=vs[0],
            last_value=vs[-1],
            min_value=min(vs) if numeric else None,
            max_value=max(vs) if numeric else None,
            sum_value=float(sum(vs)) if numeric else None,
        )

    def to_json(self) -> dict:
        return {
            "count": self.count,
            "min_time": self.min_time,
            "max_time": self.max_time,
            "first_value": self.first_value,
            "last_value": self.last_value,
            "min_value": self.min_value,
            "max_value": self.max_value,
            "sum_value": self.sum_value,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PageStatistics":
        return cls(**obj)


@dataclass
class PageMetadata:
    """Location and statistics of one page inside the file."""

    offset: int
    stats: PageStatistics

    def to_json(self) -> dict:
        return {"offset": self.offset, "stats": self.stats.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "PageMetadata":
        return cls(offset=obj["offset"], stats=PageStatistics.from_json(obj["stats"]))


@dataclass
class ChunkMetadata:
    """All pages of one (device, sensor) column in this file."""

    device: str
    sensor: str
    dtype: TSDataType
    time_encoding: str
    value_encoding: str
    compression: str = "none"
    pages: list[PageMetadata] = field(default_factory=list)

    @property
    def count(self) -> int:
        return sum(p.stats.count for p in self.pages)

    @property
    def min_time(self) -> int | None:
        return self.pages[0].stats.min_time if self.pages else None

    @property
    def max_time(self) -> int | None:
        return self.pages[-1].stats.max_time if self.pages else None

    def to_json(self) -> dict:
        return {
            "device": self.device,
            "sensor": self.sensor,
            "dtype": self.dtype.value,
            "time_encoding": self.time_encoding,
            "value_encoding": self.value_encoding,
            "compression": self.compression,
            "pages": [p.to_json() for p in self.pages],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ChunkMetadata":
        return cls(
            device=obj["device"],
            sensor=obj["sensor"],
            dtype=TSDataType(obj["dtype"]),
            time_encoding=obj["time_encoding"],
            value_encoding=obj["value_encoding"],
            compression=obj.get("compression", "none"),
            pages=[PageMetadata.from_json(p) for p in obj["pages"]],
        )


class TsFileWriter:
    """Writes one immutable TsFile to a binary file-like object."""

    def __init__(self, fileobj: io.RawIOBase | io.BufferedIOBase | io.BytesIO) -> None:
        self._file = fileobj
        self._file.write(MAGIC)
        self._chunks: dict[tuple[str, str], ChunkMetadata] = {}
        self._closed = False
        self._bytes_written = len(MAGIC)

    def write_chunk(
        self,
        device: str,
        sensor: str,
        dtype: TSDataType,
        ts: list[int],
        vs: list,
        time_encoding: str = "ts2diff",
        value_encoding: str = "plain",
        page_size: int = 1_024,
        compression: str = "none",
    ) -> ChunkMetadata:
        """Write a sorted, deduplicated column as one chunk of pages.

        Raises:
            InvalidParameterError: unsorted/duplicated timestamps or length
                mismatch — the writer refuses data the sorter did not clean.
        """
        if self._closed:
            raise InvalidParameterError("writer already closed")
        if len(ts) != len(vs):
            raise InvalidParameterError("timestamps and values lengths differ")
        if any(ts[i] >= ts[i + 1] for i in range(len(ts) - 1)):
            # Strictly increasing required: sorted AND deduplicated.
            raise InvalidParameterError(
                f"chunk for {device}.{sensor} must have strictly increasing timestamps"
            )
        key = (device, sensor)
        if key in self._chunks:
            chunk = self._chunks[key]
            if chunk.dtype is not dtype:
                raise InvalidParameterError(
                    f"dtype change for {device}.{sensor}: {chunk.dtype} -> {dtype}"
                )
            if chunk.max_time is not None and ts and ts[0] <= chunk.max_time:  # repro: allow(stats-accounting): overlap guard, not a sort
                raise InvalidParameterError(
                    f"chunk for {device}.{sensor} overlaps previously written pages"
                )
        else:
            if compression not in ("none", "zlib"):
                raise InvalidParameterError(
                    f"compression must be 'none' or 'zlib', got {compression!r}"
                )
            chunk = ChunkMetadata(
                device, sensor, dtype, time_encoding, value_encoding, compression
            )
            self._chunks[key] = chunk

        time_encoder = get_encoder(time_encoding, TSDataType.INT64)
        value_encoder = get_encoder(value_encoding, dtype)
        for lo in range(0, len(ts), page_size):
            page_t = ts[lo : lo + page_size]
            page_v = vs[lo : lo + page_size]
            payload = bytearray()
            tbytes = time_encoder.encode(page_t)
            vbytes = value_encoder.encode(page_v)
            if chunk.compression == "zlib":
                tbytes = zlib.compress(tbytes)
                vbytes = zlib.compress(vbytes)
            payload.extend(struct.pack("<I", len(tbytes)))
            payload.extend(tbytes)
            payload.extend(struct.pack("<I", len(vbytes)))
            payload.extend(vbytes)
            payload.extend(struct.pack("<I", zlib.crc32(payload)))
            offset = self._bytes_written
            self._file.write(payload)
            self._bytes_written += len(payload)
            chunk.pages.append(
                PageMetadata(offset=offset, stats=PageStatistics.from_points(page_t, page_v))
            )
        return chunk

    def close(self) -> int:
        """Write the footer index and trailing magic; returns file size."""
        if self._closed:
            return self._bytes_written
        footer = json.dumps(
            [c.to_json() for c in self._chunks.values()], separators=(",", ":")
        ).encode("utf-8")
        self._file.write(footer)
        self._file.write(struct.pack("<I", len(footer)))
        self._file.write(struct.pack("<I", zlib.crc32(footer)))
        self._file.write(MAGIC)
        self._bytes_written += len(footer) + 8 + len(MAGIC)
        self._closed = True
        return self._bytes_written


class TsFileReader:
    """Reads chunks and time ranges back out of a sealed TsFile."""

    def __init__(self, fileobj) -> None:
        self._file = fileobj
        self._chunks: dict[tuple[str, str], ChunkMetadata] = {}
        #: Points decoded by this reader so far (cumulative): what a read
        #: *scanned*, as opposed to what its range cut returned.
        self.points_decoded = 0
        self._load_index()

    def _load_index(self) -> None:
        self._file.seek(0, io.SEEK_END)
        size = self._file.tell()
        tail = len(MAGIC) + 8
        if size < len(MAGIC) + tail:
            raise TsFileCorruptionError("file too small to be a TsFile")
        self._file.seek(0)
        if self._file.read(len(MAGIC)) != MAGIC:
            raise TsFileCorruptionError("bad leading magic")
        self._file.seek(size - tail)
        footer_len, footer_crc = struct.unpack("<II", self._file.read(8))
        if self._file.read(len(MAGIC)) != MAGIC:
            raise TsFileCorruptionError("bad trailing magic")
        footer_start = size - tail - footer_len
        if footer_start < len(MAGIC):
            raise TsFileCorruptionError("footer length exceeds file size")
        self._file.seek(footer_start)
        footer = self._file.read(footer_len)
        if zlib.crc32(footer) != footer_crc:
            raise TsFileCorruptionError("footer checksum mismatch")
        by_device: dict[str, list[str]] = {}
        lo = hi = None
        for obj in json.loads(footer.decode("utf-8")):
            chunk = ChunkMetadata.from_json(obj)
            key = (chunk.device, chunk.sensor)
            if key in self._chunks:
                raise TsFileCorruptionError(
                    f"footer lists {chunk.device}.{chunk.sensor} twice"
                )
            self._chunks[key] = chunk
            by_device.setdefault(chunk.device, []).append(chunk.sensor)
            if chunk.pages:  # the format admits a chunk with no page
                lo = chunk.min_time if lo is None else min(lo, chunk.min_time)
                hi = chunk.max_time if hi is None else max(hi, chunk.max_time)
        # device -> its sensors, both sorted: devices() and sensors() are
        # lookups, not a scan of every chunk key per device.
        self._sensors = {d: sorted(by_device[d]) for d in sorted(by_device)}
        #: ``(min_time, max_time)`` over every chunk that has a page,
        #: closed; ``None`` when no chunk has one.
        self.time_range: tuple[int, int] | None = (
            None if lo is None else (lo, hi)
        )

    def devices(self) -> list[str]:
        return list(self._sensors)

    def sensors(self, device: str) -> list[str]:
        return list(self._sensors.get(device, ()))

    def chunks(self) -> ValuesView[ChunkMetadata]:
        """Every chunk's metadata, in footer (write) order: a read-only
        view built by the one pass over the footer, so a caller that needs
        every column walks the file's chunks once."""
        return self._chunks.values()

    def chunk_metadata(self, device: str, sensor: str) -> ChunkMetadata | None:
        return self._chunks.get((device, sensor))

    def read_page(
        self, chunk: ChunkMetadata, page: PageMetadata, start: int, end: int
    ) -> tuple[list[int], list]:
        """One page's points with ``start <= t < end``: decode, then cut."""
        self._file.seek(page.offset)
        (tlen,) = struct.unpack("<I", self._file.read(4))
        tbytes = self._file.read(tlen)
        (vlen,) = struct.unpack("<I", self._file.read(4))
        vbytes = self._file.read(vlen)
        (crc,) = struct.unpack("<I", self._file.read(4))
        payload = struct.pack("<I", tlen) + tbytes + struct.pack("<I", vlen) + vbytes
        if zlib.crc32(payload) != crc:
            raise TsFileCorruptionError(
                f"page checksum mismatch at offset {page.offset}"
            )
        if chunk.compression == "zlib":
            tbytes = zlib.decompress(tbytes)
            vbytes = zlib.decompress(vbytes)
        ts = get_encoder(chunk.time_encoding, TSDataType.INT64).decode(
            tbytes, page.stats.count
        )
        vs = get_encoder(chunk.value_encoding, chunk.dtype).decode(
            vbytes, page.stats.count
        )
        self.points_decoded += page.stats.count
        return cut_range(ts, vs, start, end)

    def read_chunk(self, device: str, sensor: str) -> tuple[list[int], list]:
        """All points of one column, in time order."""
        chunk = self._chunks.get((device, sensor))
        if chunk is None or not chunk.pages:
            return [], []
        return self.query_range(device, sensor, chunk.min_time, chunk.max_time + 1)

    def describe(self) -> dict:
        """Layout summary: chunks, pages, points, and per-column time spans.

        The ``tsfile describe`` style tooling operators use to inspect a
        sealed file without decoding any page payloads.
        """
        self._file.seek(0, io.SEEK_END)
        columns = []
        for (device, sensor), chunk in sorted(self._chunks.items()):
            columns.append(
                {
                    "device": device,
                    "sensor": sensor,
                    "dtype": chunk.dtype.value,
                    "time_encoding": chunk.time_encoding,
                    "value_encoding": chunk.value_encoding,
                    "pages": len(chunk.pages),
                    "points": chunk.count,
                    "min_time": chunk.min_time,
                    "max_time": chunk.max_time,
                }
            )
        return {
            "file_bytes": self._file.tell(),
            "chunks": len(self._chunks),
            "pages": sum(len(c.pages) for c in self._chunks.values()),
            "points": sum(c.count for c in self._chunks.values()),
            "columns": columns,
        }

    def query_range(
        self, device: str, sensor: str, start: int, end: int
    ) -> tuple[list[int], list]:
        """Points with ``start <= t < end``, in time order.

        The one page loop: pages whose statistics miss the range are
        skipped, the rest are decoded and cut to the range.
        """
        out_t: list[int] = []
        out_v: list = []
        chunk = self._chunks.get((device, sensor))
        if chunk is None:
            return out_t, out_v
        for page in chunk.pages:
            if page.stats.max_time < start or page.stats.min_time >= end:
                continue
            ts, vs = self.read_page(chunk, page, start, end)
            out_t.extend(ts)  # repro: allow(stats-accounting): page concat, not a sort
            out_v.extend(vs)
        return out_t, out_v
