"""Write-ahead log: crash durability for the memtable write path.

Each frame is::

    uint32 header | payload | uint32 crc32(payload)

The header's low 31 bits are the payload length; the top bit and the
payload's first byte distinguish three frame kinds (docs/STORAGE.md §3):

* a **column** frame (bit set, payload starting with the tag byte
  ``0x01``): one series' batch as two binary columns — the value code of
  the column's type, the device and sensor names once, the point count,
  the int64 timestamps as one raw DEFLATE stream, then the values.  One
  length prefix, one CRC and one flush for the whole batch.  This is the
  only kind the writer emits: the batch is the engine's unit of work, and
  a point write is a batch of one;
* a **JSON batch** frame (bit set, payload starting with ``[``): one JSON
  array of N ``[device, sensor, timestamp, value]`` records — read-only
  legacy;
* a **single record** frame (bit clear), payload one bare JSON array
  ``[device, sensor, timestamp, value]`` — read-only legacy.

Every segment written before column frames existed is made of the two JSON
kinds, so ``replay`` accepts all three forever, alone or mixed in one
segment; nothing writes the JSON kinds any more.

The engine appends a batch only after validating it and before
acknowledging it, and ``append_batch`` flushes the underlying file so an
acknowledged write is durable even if the process dies immediately
afterwards (the ``repro.faults`` crash sweep is what turned the missing
flush into a pinned regression test).  Replay stops cleanly at the first
torn frame (a crash mid-append), surfacing everything durable before it,
and yields one record per point whatever the frame kind.  A torn batch
frame drops the *whole* batch, which is correct: the batch is only
acknowledged after its single flush returns, so a torn frame means nothing
in it was acked.  A frame whose CRC holds but whose column payload does
not parse was never written by a writer of this format; replay refuses it
with :class:`WalCorruptionError` rather than dropping acknowledged points.

Two layers live here:

* :class:`WriteAheadLog` — the record codec over one seekable file: one
  *segment*.
* :class:`SegmentedWal` — an ordered collection of segments.  The engine
  rotates to a fresh segment whenever a working memtable retires, so each
  FLUSHING memtable is covered by its own segment(s); once that memtable
  is sealed into a TsFile, exactly those segments are dropped.  Truncating
  a single shared log instead (the pre-fault-harness design) destroyed
  coverage for every point acknowledged after the retire — a crash then
  lost acknowledged writes.
"""

from __future__ import annotations

import io
import json
import struct
import sys
import zlib
from array import array
from functools import partial
from itertools import accumulate
from typing import Callable, Iterator

from repro.analysis.concurrency import apply_guards, create_lock, holds
from repro.errors import InvalidParameterError, StorageError, WalCorruptionError
from repro.iotdb.config import TSDataType

_HEADER = struct.Struct("<I")
_U32 = _HEADER

#: Top bit of the length header marks a batch frame; the low 31 bits carry
#: the payload length.  Pre-batch segments never set the bit (a single
#: record's JSON payload is nowhere near 2 GiB), so old logs replay as-is.
_BATCH_FLAG = 0x80000000
_LENGTH_MASK = 0x7FFFFFFF

#: First payload byte of a column frame.  A JSON batch payload always
#: starts with ``[``, so this one byte tells the two batch kinds apart.
_COLUMN_TAG = b"\x01"

#: Value code of each column type: the wire form of its value column.
_VALUE_CODES = {
    TSDataType.INT32: b"q",
    TSDataType.INT64: b"q",
    TSDataType.FLOAT: b"d",
    TSDataType.DOUBLE: b"d",
    TSDataType.BOOLEAN: b"?",
    TSDataType.TEXT: b"s",
}

#: The format is little-endian; ``array`` writes native order.
_SWAP = sys.byteorder == "big"


def _fixed_bytes(typecode: str, values) -> bytes:
    """``n`` little-endian 8-byte ints (``q``) or doubles (``d``)."""
    column = array(typecode, values)
    if _SWAP:
        column.byteswap()
    return column.tobytes()


def _text_bytes(values) -> bytes:
    """``n`` uint32 byte lengths, then the UTF-8 strings back to back."""
    encoded = [value.encode("utf-8") for value in values]
    return struct.pack(f"<{len(encoded)}I", *map(len, encoded)) + b"".join(encoded)


def _name_bytes(name: str) -> bytes:
    raw = name.encode("utf-8")
    return _U32.pack(len(raw)) + raw


def _time_bytes(timestamps) -> bytes:
    """The timestamp column: a u32 byte count, then a raw DEFLATE stream
    (RFC 1951, level 1) of the ``n`` little-endian int64s.

    A batch's timestamps are close together, so their high bytes repeat
    and the column shrinks to about a quarter; the values, doubles that
    barely compress, stay as they are.
    """
    packed = zlib.compress(_fixed_bytes("q", timestamps), 1, -15)
    return _U32.pack(len(packed)) + packed


_VALUE_WRITERS = {
    b"q": partial(_fixed_bytes, "q"),
    b"d": partial(_fixed_bytes, "d"),
    b"?": bytes,
    b"s": _text_bytes,
}


def _column_payload(device: str, sensor: str, timestamps, values, dtype) -> bytes:
    """The column frame's payload (docs/STORAGE.md §3)."""
    code = _VALUE_CODES[dtype]
    return b"".join((
        _COLUMN_TAG,
        code,
        _name_bytes(device),
        _name_bytes(sensor),
        _U32.pack(len(timestamps)),
        _time_bytes(timestamps),
        _VALUE_WRITERS[code](values),
    ))


def _take(payload: bytes, pos: int, size: int) -> bytes:
    """``payload[pos:pos + size]``, refusing to run past its end."""
    end = pos + size
    if end > len(payload):
        raise ValueError(f"{size} bytes at offset {pos} run past the payload")
    return payload[pos:end]


def _read_name(payload: bytes, pos: int) -> tuple[str, int]:
    (length,) = _U32.unpack_from(payload, pos)
    pos += _U32.size
    return _take(payload, pos, length).decode("utf-8"), pos + length


def _read_fixed(typecode: str, payload: bytes, pos: int, n: int) -> tuple[list, int]:
    column = array(typecode)
    column.frombytes(_take(payload, pos, n * column.itemsize))
    if _SWAP:
        column.byteswap()
    return column.tolist(), pos + n * column.itemsize


def _read_times(payload: bytes, pos: int, n: int) -> tuple[list, int]:
    (size,) = _U32.unpack_from(payload, pos)
    pos += _U32.size
    inflater = zlib.decompressobj(-15)
    packed = inflater.decompress(_take(payload, pos, size), 8 * n)
    if not inflater.eof or inflater.unused_data:
        raise ValueError(f"the timestamp column does not inflate to {n} int64s")
    timestamps, _ = _read_fixed("q", packed, 0, n)  # refuses fewer than n
    return timestamps, pos + size


def _read_bools(payload: bytes, pos: int, n: int) -> tuple[list, int]:
    data = _take(payload, pos, n)
    if data.translate(None, b"\x00\x01"):
        raise ValueError("a boolean byte is neither 0 nor 1")
    return list(map(bool, data)), pos + n


def _read_texts(payload: bytes, pos: int, n: int) -> tuple[list, int]:
    lengths = struct.unpack(f"<{n}I", _take(payload, pos, 4 * n))
    bounds = list(accumulate(lengths, initial=pos + 4 * n))
    if bounds[-1] > len(payload):
        raise ValueError("text values run past the payload")
    return [
        payload[start:end].decode("utf-8") for start, end in zip(bounds, bounds[1:])
    ], bounds[-1]


_VALUE_READERS = {
    b"q": partial(_read_fixed, "q"),
    b"d": partial(_read_fixed, "d"),
    b"?": _read_bools,
    b"s": _read_texts,
}


def _decode_column(payload: bytes) -> tuple[str, str, list, list]:
    """``(device, sensor, timestamps, values)`` of a column payload.

    Raises ``ValueError``, ``struct.error`` or ``zlib.error`` when the
    payload does not parse exactly: unknown value code, a field running
    past the end, a timestamp stream that does not inflate to ``n`` int64s,
    bad UTF-8, a boolean byte other than 0/1, or trailing bytes.
    """
    reader = _VALUE_READERS.get(payload[1:2])
    if reader is None:
        raise ValueError(f"unknown value code {payload[1:2]!r}")
    device, pos = _read_name(payload, 2)
    sensor, pos = _read_name(payload, pos)
    (n,) = _U32.unpack_from(payload, pos)
    timestamps, pos = _read_times(payload, pos + _U32.size, n)
    values, pos = reader(payload, pos, n)
    if pos != len(payload):
        raise ValueError(f"{len(payload) - pos} trailing bytes")
    return device, sensor, timestamps, values


class WriteAheadLog:
    """Append-only record log over a seekable binary file-like object."""

    def __init__(self, fileobj: io.BytesIO | io.BufferedRandom | None = None) -> None:
        self._file = fileobj if fileobj is not None else io.BytesIO()
        self._file.seek(0, io.SEEK_END)

    def append_batch(
        self, device: str, sensor: str, timestamps, values, dtype: TSDataType
    ) -> int:
        """Durably record one series' batch as one column frame, one flush.

        ``timestamps`` and ``values`` are the batch's two columns and
        ``dtype`` the column's type, which picks the value code (never a
        guess from the values: an int written to a DOUBLE column is logged
        as a double).  The caller has validated the batch against that
        type.  The whole batch becomes a single frame — one length prefix,
        one binary payload, one CRC — and one flush covers it, so both the
        framing overhead and the flush syscall amortise across the batch.
        The batch is acknowledged only after the flush returns, so
        all-or-nothing replay of a torn frame matches what was acked.

        An empty batch is a no-op: no bytes are written and no flush is
        issued.  Returns the number of bytes appended.
        """
        if len(timestamps) != len(values):
            raise InvalidParameterError("timestamps and values lengths differ")
        if not len(timestamps):
            return 0
        payload = _column_payload(device, sensor, timestamps, values, dtype)
        if len(payload) > _LENGTH_MASK:
            raise StorageError(
                f"WAL batch payload of {len(payload)} bytes exceeds the "
                f"{_LENGTH_MASK}-byte frame limit; split the batch"
            )
        self._file.write(_HEADER.pack(len(payload) | _BATCH_FLAG))
        self._file.write(payload)
        self._file.write(_HEADER.pack(zlib.crc32(payload)))
        # Durability on acknowledge: without this flush, records sat in the
        # user-space buffer and a crash lost acknowledged writes.
        self._file.flush()
        return _HEADER.size * 2 + len(payload)

    def replay(self, strict: bool = False) -> Iterator[tuple[str, str, int, object]]:
        """Yield every intact record from the start of the log.

        All three frame kinds are accepted: a single-record frame yields one
        record, a JSON batch or column frame yields each of its points in
        order, as ``(device, sensor, timestamp, value)``.  A torn or
        corrupt batch frame drops the whole batch — the batch was only
        acknowledged after its flush, so replay still surfaces exactly the
        acknowledged prefix.  A column frame whose CRC holds but whose
        payload does not parse raises :class:`WalCorruptionError` in either
        mode: no crash leaves one behind.

        Args:
            strict: raise :class:`WalCorruptionError` on a torn or corrupt
                record instead of treating it as the tail of a crash.  The
                error message names the failing record index and which part
                of the record is damaged (header / payload / crc / checksum).
        """
        self._file.seek(0)
        index = 0
        while True:
            header = self._file.read(_HEADER.size)
            if not header:
                return
            if len(header) < _HEADER.size:
                if strict:
                    raise WalCorruptionError(
                        f"torn header at record {index}: "
                        f"{len(header)} of {_HEADER.size} bytes"
                    )
                return
            (word,) = _HEADER.unpack(header)
            is_batch = bool(word & _BATCH_FLAG)
            length = word & _LENGTH_MASK
            payload = self._file.read(length)
            if len(payload) < length:
                if strict:
                    raise WalCorruptionError(
                        f"torn payload at record {index}: "
                        f"{len(payload)} of {length} bytes"
                    )
                return
            crc_bytes = self._file.read(_HEADER.size)
            if len(crc_bytes) < _HEADER.size:
                if strict:
                    raise WalCorruptionError(
                        f"torn crc at record {index}: "
                        f"{len(crc_bytes)} of {_HEADER.size} bytes"
                    )
                return
            (crc,) = _HEADER.unpack(crc_bytes)
            if zlib.crc32(payload) != crc:
                if strict:
                    raise WalCorruptionError(
                        f"checksum mismatch at record {index}: "
                        f"stored {crc:#010x}, computed {zlib.crc32(payload):#010x}"
                    )
                return
            if not is_batch:
                device, sensor, timestamp, value = json.loads(payload.decode("utf-8"))
                yield device, sensor, timestamp, value
                index += 1
            elif payload[:1] == _COLUMN_TAG:
                try:
                    device, sensor, timestamps, values = _decode_column(payload)
                except (struct.error, ValueError, zlib.error) as exc:
                    raise WalCorruptionError(
                        f"malformed column frame at record {index}: {exc}"
                    ) from None
                for timestamp, value in zip(timestamps, values):
                    yield device, sensor, timestamp, value
                index += len(timestamps)
            else:
                for device, sensor, timestamp, value in json.loads(
                    payload.decode("utf-8")
                ):
                    yield device, sensor, timestamp, value
                    index += 1

    def close(self) -> None:
        """Release the underlying file handle (no-op for BytesIO)."""
        if not isinstance(self._file, io.BytesIO):
            self._file.close()

    def size_bytes(self) -> int:
        pos = self._file.tell()
        self._file.seek(0, io.SEEK_END)
        size = self._file.tell()
        self._file.seek(pos)
        return size


class _Segment:
    """One WAL segment: id, codec, and its blob-store key."""

    __slots__ = ("segment_id", "wal", "key")

    def __init__(self, segment_id: int, wal: WriteAheadLog, key: str) -> None:
        self.segment_id = segment_id
        self.wal = wal
        self.key = key


class SegmentedWal:
    """Ordered WAL segments for one memtable space.

    The *active* segment receives appends; :meth:`rotate` seals it and
    opens a fresh one (the engine rotates when a working memtable retires,
    so the sealed segment covers exactly that memtable's points);
    :meth:`drop` deletes a sealed segment once its memtable is durable in
    a TsFile.  :meth:`replay` iterates every live segment in id order —
    after a crash that is precisely the set of acknowledged-but-unsealed
    points.

    Concurrency discipline: ``_lock`` serialises segment lifecycle and
    appends; it sits below the engine lock in the global order.
    """

    #: Lock discipline for the ``guarded-by`` rule and runtime sanitizer.
    GUARDED_BY = {"_segments": "_lock"}

    def __init__(
        self,
        *,
        store,
        prefix: str = "",
        space: str,
        wrap: Callable | None = None,
    ) -> None:
        # All persistence goes through a BlobStore; ``prefix`` scopes this
        # WAL's keys (e.g. "shard-00/").
        self._store = store
        self._prefix = prefix
        self._space = space
        # ``wrap(fileobj, site=...)`` lets the fault injector interpose on
        # every byte written; identity when fault injection is off.
        self._wrap = wrap if wrap is not None else (lambda fileobj, site: fileobj)
        self._lock = create_lock("SegmentedWal._lock")
        self._segments: list[_Segment] = []
        self._active: _Segment | None = None  # repro: guarded_by(_lock)
        self._next_id = 1  # repro: guarded_by(_lock)
        # Lifetime accounting for the bench cells: ``size_bytes`` shrinks
        # when sealed segments are dropped, so the cumulative appended
        # bytes and flush count are tracked here where they survive drops.
        self._bytes_appended = 0  # repro: guarded_by(_lock)
        self._flush_count = 0  # repro: guarded_by(_lock)
        apply_guards(self)

    # -- constructor ------------------------------------------------------

    @classmethod
    def on_store(
        cls,
        store,
        prefix: str,
        space: str,
        *,
        fresh: bool,
        wrap: Callable | None = None,
    ) -> "SegmentedWal":
        """Open the segment set stored under ``prefix`` in ``store``.

        ``fresh=True`` is the fresh-start semantics of
        ``StorageEngine.create``: any leftover segments are deleted.
        ``fresh=False`` (recovery) keeps
        them as sealed segments so :meth:`replay` surfaces their records;
        the engine drops them once the replayed points are sealed.
        """
        if prefix and not prefix.endswith("/"):
            prefix += "/"
        wal = cls(store=store, prefix=prefix, space=space, wrap=wrap)
        name_prefix = f"{prefix}wal-{space}-"
        with wal._lock:
            for key in store.list(name_prefix):
                if not key.endswith(".log"):
                    continue
                try:
                    segment_id = int(key[len(name_prefix):-len(".log")])
                except ValueError:
                    name = key.rsplit("/", 1)[-1]
                    raise StorageError(
                        f"unrecognised WAL segment name {name!r}"
                    ) from None
                if fresh:
                    store.delete(key)
                    continue
                handle = store.open_read(key)
                wal._segments.append(
                    _Segment(segment_id, WriteAheadLog(handle), key)
                )
                wal._next_id = max(wal._next_id, segment_id + 1)
            wal._segments.sort(key=lambda s: s.segment_id)
            wal._start_active()
        return wal

    # -- segment lifecycle -------------------------------------------------

    @holds("_lock")
    def _start_active(self) -> None:
        segment_id = self._next_id
        self._next_id += 1
        key = f"{self._prefix}wal-{self._space}-{segment_id:06d}.log"
        wrapped = self._wrap(self._store.open_write(key), site="wal.write")
        self._active = _Segment(segment_id, WriteAheadLog(wrapped), key)
        self._segments.append(self._active)

    def rotate(self) -> int:
        """Seal the active segment, start a fresh one; returns the sealed id."""
        with self._lock:
            sealed = self._active
            self._start_active()
            return sealed.segment_id

    def drop(self, segment_id: int) -> None:
        """Delete a sealed segment whose points are durable in a TsFile."""
        with self._lock:
            for segment in self._segments:
                if segment.segment_id == segment_id:
                    if segment is self._active:
                        raise StorageError(
                            f"cannot drop the active WAL segment {segment_id}"
                        )
                    segment.wal.close()
                    self._store.delete(segment.key, missing_ok=True)
                    self._segments.remove(segment)
                    return
            raise StorageError(f"unknown WAL segment {segment_id}")

    # -- record API --------------------------------------------------------

    def append_batch(
        self, device: str, sensor: str, timestamps, values, dtype: TSDataType
    ) -> None:
        """Append one series' batch as one column frame under one lock
        acquisition, one flush (see :meth:`WriteAheadLog.append_batch`).

        An empty batch returns before taking the lock — the threaded ingest
        client routes per-shard slices that are frequently empty, and those
        must not contend on the lock or touch the file.
        """
        if not len(timestamps):
            return
        with self._lock:
            self._bytes_appended += self._active.wal.append_batch(
                device, sensor, timestamps, values, dtype
            )
            self._flush_count += 1

    def replay(self, strict: bool = False) -> Iterator[tuple[str, str, int, object]]:
        """Every intact record across all live segments, in segment order.

        The segment list is snapshotted under the lock; record iteration
        itself runs unlocked (the sealed segments are immutable).
        """
        with self._lock:
            segments = list(self._segments)
        for segment in segments:
            yield from segment.wal.replay(strict=strict)

    # -- introspection -----------------------------------------------------

    def segment_ids(self) -> list[int]:
        """Ids of every live segment, active last."""
        with self._lock:
            return [s.segment_id for s in self._segments]

    def sealed_segment_ids(self) -> list[int]:
        with self._lock:
            return [s.segment_id for s in self._segments if s is not self._active]

    def size_bytes(self) -> int:
        with self._lock:
            return sum(s.wal.size_bytes() for s in self._segments)

    def stats(self) -> dict[str, int]:
        """Cumulative append accounting (unaffected by segment drops).

        ``bytes_appended`` counts every frame byte ever written to this
        space's segments; ``flushes`` counts flush syscalls issued by
        ``append_batch``.  Both feed the ``ingest/path`` bench cells.
        """
        with self._lock:
            return {
                "bytes_appended": self._bytes_appended,
                "flushes": self._flush_count,
            }

    def close(self) -> None:
        with self._lock:
            for segment in self._segments:
                segment.wal.close()
