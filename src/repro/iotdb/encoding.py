"""Column encodings for the TsFile-like storage format.

The flush pipeline the paper measures includes "sorting, encoding, and I/O"
(§VI-D2), so the substrate implements real encoders rather than pickling:

* ``plain``    — type-tagged raw values (varint ints, IEEE-754 doubles,
  bit-packed booleans, length-prefixed UTF-8 text).
* ``ts2diff``  — IoTDB's TS_2DIFF: the first value as a zigzag varint, then
  one zigzag-varint delta per value.  Sorted timestamps become tiny
  positive deltas, which is *why* flushing sorted data is cheap — the
  encoder rewards the sorter.
* ``rle``      — run-length encoding for integers and booleans.
* ``gorilla``  — Facebook Gorilla XOR compression for doubles.

Every encoder round-trips exactly: ``decode(encode(xs), len(xs)) == xs``,
and every decoder raises :class:`~repro.errors.EncodingError` on a payload
too short for ``count`` values.

The reader pays for sorting too: :func:`read_zigzag_column`, the one
zigzag-varint column decoder behind ``plain`` ints and ``ts2diff``, decodes
a column of one-byte varints — every delta of a sorted timestamp page whose
points are less than 64 apart — in one C-speed pass through a byte table,
and ``ts2diff`` prefix-sums the deltas with :func:`itertools.accumulate`.
Any other column takes one inlined loop.
"""

from __future__ import annotations

import struct
from abc import ABC, abstractmethod
from array import array
from itertools import accumulate

from repro.errors import EncodingError
from repro.iotdb.config import TSDataType

# ---------------------------------------------------------------------------
# varint / zigzag primitives
# ---------------------------------------------------------------------------


def zigzag_encode(n: int) -> int:
    """Map signed ints to unsigned: 0,-1,1,-2,... -> 0,1,2,3,..."""
    return (n << 1) ^ (n >> 63) if n >= 0 else ((-n) << 1) - 1


def zigzag_decode(z: int) -> int:
    return (z >> 1) ^ -(z & 1)


def write_uvarint(out: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint."""
    if value < 0:
        raise EncodingError(f"uvarint cannot encode negative value {value}")
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def read_uvarint(data: bytes, pos: int) -> tuple[int, int]:
    """Read an unsigned varint at ``pos``; returns (value, new_pos)."""
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise EncodingError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 70:
            raise EncodingError("varint too long")


# Byte ``b < 0x80`` is a whole varint; this maps it to its zigzag-decoded
# value as a signed byte, so ``array('b', data.translate(table))`` decodes a
# column of one-byte varints without a per-value Python call.
_ZIGZAG_ONE_BYTE = bytes(zigzag_decode(b) & 0xFF if b < 0x80 else 0 for b in range(256))


def read_zigzag_column(data: bytes, count: int, pos: int = 0) -> list[int]:
    """Decode ``count`` zigzag varints starting at ``pos``.

    When the rest of ``data`` is exactly ``count`` bytes, all below 0x80,
    every varint is one byte and the column goes through
    :data:`_ZIGZAG_ONE_BYTE` in one pass.  Anything else — wider varints,
    trailing bytes, a truncated payload — takes the loop, which raises
    :class:`EncodingError` when ``data`` runs out.
    """
    tail = data[pos:]
    if len(tail) == count and tail.isascii():
        return array("b", tail.translate(_ZIGZAG_ONE_BYTE)).tolist()
    out: list[int] = []
    append = out.append
    try:
        for _ in range(count):
            byte = data[pos]
            pos += 1
            if byte < 0x80:
                append((byte >> 1) ^ -(byte & 1))
                continue
            z = byte & 0x7F
            shift = 7
            while True:
                byte = data[pos]
                pos += 1
                z |= (byte & 0x7F) << shift
                if byte < 0x80:
                    break
                shift += 7
                if shift > 70:
                    raise EncodingError("varint too long")
            append((z >> 1) ^ -(z & 1))
    except IndexError:
        raise EncodingError("truncated varint") from None
    return out


# ---------------------------------------------------------------------------
# bit-level I/O (for gorilla and boolean packing)
# ---------------------------------------------------------------------------


class BitWriter:
    """Append-only MSB-first bit buffer."""

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._bit_count = 0

    def write_bit(self, bit: int) -> None:
        if self._bit_count % 8 == 0:
            self._bytes.append(0)
        if bit:
            self._bytes[-1] |= 0x80 >> (self._bit_count % 8)
        self._bit_count += 1

    def write_bits(self, value: int, width: int) -> None:
        for shift in range(width - 1, -1, -1):
            self.write_bit((value >> shift) & 1)

    def getvalue(self) -> bytes:
        return bytes(self._bytes)


class BitReader:
    """MSB-first bit reader over a bytes object."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def read_bit(self) -> int:
        byte_index, bit_index = divmod(self._pos, 8)
        if byte_index >= len(self._data):
            raise EncodingError("bit stream exhausted")
        self._pos += 1
        return (self._data[byte_index] >> (7 - bit_index)) & 1

    def read_bits(self, width: int) -> int:
        value = 0
        for _ in range(width):
            value = (value << 1) | self.read_bit()
        return value


# ---------------------------------------------------------------------------
# encoders
# ---------------------------------------------------------------------------


class Encoder(ABC):
    """Round-tripping column encoder for one data type family."""

    name: str = "abstract"

    @abstractmethod
    def encode(self, values: list) -> bytes:
        """Serialise ``values``; raises EncodingError on unsupported input."""

    @abstractmethod
    def decode(self, data: bytes, count: int) -> list:
        """Recover exactly ``count`` values from ``data``."""


class PlainIntEncoder(Encoder):
    """Zigzag varints, one per value."""

    name = "plain"

    def encode(self, values: list) -> bytes:
        out = bytearray()
        for v in values:
            if not isinstance(v, int) or isinstance(v, bool):
                raise EncodingError(f"plain-int encoder got {type(v).__name__}")
            write_uvarint(out, zigzag_encode(v))
        return bytes(out)

    def decode(self, data: bytes, count: int) -> list:
        return read_zigzag_column(data, count)


class PlainDoubleEncoder(Encoder):
    """IEEE-754 little-endian doubles."""

    name = "plain"

    def encode(self, values: list) -> bytes:
        try:
            return struct.pack(f"<{len(values)}d", *values)
        except struct.error as exc:
            raise EncodingError(f"plain-double encoder: {exc}") from exc

    def decode(self, data: bytes, count: int) -> list:
        if len(data) < 8 * count:
            raise EncodingError(
                f"truncated plain-double column: {len(data)} bytes for {count} values"
            )
        return list(struct.unpack(f"<{count}d", data[: 8 * count]))


class PlainBooleanEncoder(Encoder):
    """Booleans packed eight to a byte."""

    name = "plain"

    def encode(self, values: list) -> bytes:
        writer = BitWriter()
        for v in values:
            if not isinstance(v, bool):
                raise EncodingError(f"plain-bool encoder got {type(v).__name__}")
            writer.write_bit(1 if v else 0)
        return writer.getvalue()

    def decode(self, data: bytes, count: int) -> list:
        reader = BitReader(data)
        return [bool(reader.read_bit()) for _ in range(count)]


class PlainTextEncoder(Encoder):
    """Length-prefixed UTF-8 strings."""

    name = "plain"

    def encode(self, values: list) -> bytes:
        out = bytearray()
        for v in values:
            if not isinstance(v, str):
                raise EncodingError(f"plain-text encoder got {type(v).__name__}")
            raw = v.encode("utf-8")
            write_uvarint(out, len(raw))
            out.extend(raw)
        return bytes(out)

    def decode(self, data: bytes, count: int) -> list:
        out = []
        pos = 0
        for _ in range(count):
            length, pos = read_uvarint(data, pos)
            end = pos + length
            if end > len(data):
                raise EncodingError("truncated plain-text value")
            try:
                out.append(data[pos:end].decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise EncodingError(f"plain-text value is not UTF-8: {exc}") from exc
            pos = end
        return out


class Ts2DiffEncoder(Encoder):
    """Delta encoding with zigzag varints (IoTDB TS_2DIFF).

    The first value is stored raw; each subsequent value stores its delta.
    Sorted timestamp columns produce constant small deltas — near-optimal
    compression, and the concrete payoff of sorting before flushing: deltas
    below 64 are one byte each, which :func:`read_zigzag_column` decodes in
    bulk.
    """

    name = "ts2diff"

    def encode(self, values: list) -> bytes:
        out = bytearray()
        prev = 0
        for i, v in enumerate(values):
            if not isinstance(v, int) or isinstance(v, bool):
                raise EncodingError(f"ts2diff encoder got {type(v).__name__}")
            delta = v if i == 0 else v - prev
            write_uvarint(out, zigzag_encode(delta))
            prev = v
        return bytes(out)

    def decode(self, data: bytes, count: int) -> list:
        if count == 0:
            return []
        z, pos = read_uvarint(data, 0)
        deltas = read_zigzag_column(data, count - 1, pos)
        return list(accumulate(deltas, initial=zigzag_decode(z)))


class RleIntEncoder(Encoder):
    """(run-length, value) pairs with varints; great for slow-moving ints."""

    name = "rle"

    def encode(self, values: list) -> bytes:
        out = bytearray()
        i = 0
        n = len(values)
        while i < n:
            v = values[i]
            if not isinstance(v, int) or isinstance(v, bool):
                raise EncodingError(f"rle encoder got {type(v).__name__}")
            run = 1
            while i + run < n and values[i + run] == v:
                run += 1
            write_uvarint(out, run)
            write_uvarint(out, zigzag_encode(v))
            i += run
        return bytes(out)

    def decode(self, data: bytes, count: int) -> list:
        out: list = []
        pos = 0
        while len(out) < count:
            run, pos = read_uvarint(data, pos)
            z, pos = read_uvarint(data, pos)
            out.extend([zigzag_decode(z)] * run)
        if len(out) != count:
            raise EncodingError("rle run overshoots declared count")
        return out


class RleBooleanEncoder(Encoder):
    """RLE over booleans: (run-length, bit) pairs."""

    name = "rle"

    def encode(self, values: list) -> bytes:
        out = bytearray()
        i = 0
        n = len(values)
        while i < n:
            v = values[i]
            if not isinstance(v, bool):
                raise EncodingError(f"rle-bool encoder got {type(v).__name__}")
            run = 1
            while i + run < n and values[i + run] == v:
                run += 1
            write_uvarint(out, run)
            out.append(1 if v else 0)
            i += run
        return bytes(out)

    def decode(self, data: bytes, count: int) -> list:
        out: list = []
        pos = 0
        while len(out) < count:
            run, pos = read_uvarint(data, pos)
            if pos >= len(data):
                raise EncodingError("truncated rle-bool stream")
            out.extend([bool(data[pos])] * run)
            pos += 1
        if len(out) != count:
            raise EncodingError("rle-bool run overshoots declared count")
        return out


class GorillaDoubleEncoder(Encoder):
    """Facebook Gorilla XOR compression for IEEE-754 doubles.

    First value raw (64 bits); each next value XORs with its predecessor:
    identical → single 0 bit; meaningful bits inside the previous window →
    ``10`` + bits; otherwise ``11`` + 5-bit leading-zero count + 6-bit
    length + bits.
    """

    name = "gorilla"

    def encode(self, values: list) -> bytes:
        writer = BitWriter()
        prev_bits = 0
        prev_leading = 64
        prev_trailing = 0
        for i, v in enumerate(values):
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise EncodingError(f"gorilla encoder got {type(v).__name__}")
            bits = struct.unpack("<Q", struct.pack("<d", float(v)))[0]
            if i == 0:
                writer.write_bits(bits, 64)
                prev_bits = bits
                continue
            xor = bits ^ prev_bits
            if xor == 0:
                writer.write_bit(0)
            else:
                writer.write_bit(1)
                leading = 64 - xor.bit_length()
                trailing = (xor & -xor).bit_length() - 1
                if leading >= prev_leading and trailing >= prev_trailing:
                    writer.write_bit(0)
                    width = 64 - prev_leading - prev_trailing
                    writer.write_bits(xor >> prev_trailing, width)
                else:
                    writer.write_bit(1)
                    leading = min(leading, 31)
                    width = 64 - leading - trailing
                    writer.write_bits(leading, 5)
                    writer.write_bits(width - 1, 6)
                    writer.write_bits(xor >> trailing, width)
                    prev_leading = leading
                    prev_trailing = trailing
            prev_bits = bits
        return writer.getvalue()

    def decode(self, data: bytes, count: int) -> list:
        if count == 0:
            return []
        reader = BitReader(data)
        bits = reader.read_bits(64)
        out = [struct.unpack("<d", struct.pack("<Q", bits))[0]]
        leading = 64
        trailing = 0
        for _ in range(count - 1):
            if reader.read_bit() == 0:
                out.append(out[-1])
                continue
            if reader.read_bit() == 0:
                width = 64 - leading - trailing
                xor = reader.read_bits(width) << trailing
            else:
                leading = reader.read_bits(5)
                width = reader.read_bits(6) + 1
                trailing = 64 - leading - width
                xor = reader.read_bits(width) << trailing
            bits ^= xor
            out.append(struct.unpack("<d", struct.pack("<Q", bits))[0])
        return out


# Populated only by the _register calls below, at import time; read-only
# afterwards, so no lock is needed.  Catalogued in docs/ANALYSIS.md.
_ENCODERS: dict[tuple[str, TSDataType], type[Encoder]] = {}  # repro: allow(shared-state-escape)


def _register(name: str, dtypes: tuple[TSDataType, ...], cls: type[Encoder]) -> None:
    for dtype in dtypes:
        _ENCODERS[(name, dtype)] = cls


_INTS = (TSDataType.INT32, TSDataType.INT64)
_FLOATS = (TSDataType.FLOAT, TSDataType.DOUBLE)

_register("plain", _INTS, PlainIntEncoder)
_register("plain", _FLOATS, PlainDoubleEncoder)
_register("plain", (TSDataType.BOOLEAN,), PlainBooleanEncoder)
_register("plain", (TSDataType.TEXT,), PlainTextEncoder)
_register("ts2diff", _INTS, Ts2DiffEncoder)
_register("rle", _INTS, RleIntEncoder)
_register("rle", (TSDataType.BOOLEAN,), RleBooleanEncoder)
_register("gorilla", _FLOATS, GorillaDoubleEncoder)


def get_encoder(name: str, dtype: TSDataType) -> Encoder:
    """Resolve an encoder by (name, column type); falls back to ``plain``.

    The fallback mirrors IoTDB, where requesting e.g. GORILLA on TEXT
    silently degrades to PLAIN rather than failing the flush.
    """
    cls = _ENCODERS.get((name, dtype))
    if cls is None:
        cls = _ENCODERS.get(("plain", dtype))
    if cls is None:
        raise EncodingError(f"no encoder for dtype {dtype!r}")
    return cls()
