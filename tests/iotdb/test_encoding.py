"""Column encoders: round-trips, compression behaviour, error handling."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import EncodingError
from repro.iotdb import TSDataType, get_encoder
from repro.iotdb.encoding import (
    BitReader,
    BitWriter,
    read_uvarint,
    read_zigzag_column,
    write_uvarint,
    zigzag_decode,
    zigzag_encode,
)

ENCODING_NAMES = ("plain", "ts2diff", "rle", "gorilla")

#: Every (encoding, dtype) pair with its own encoder: ``get_encoder`` falls
#: back to ``plain`` for the rest.
REGISTERED = [
    (name, dtype)
    for name in ENCODING_NAMES
    for dtype in TSDataType
    if get_encoder(name, dtype).name == name
]

_VALUES = {
    TSDataType.INT32: st.integers(-(2**31), 2**31 - 1),
    # Deltas of TS_2DIFF must stay within int64, so values span half of it.
    TSDataType.INT64: st.integers(-(2**62), 2**62 - 1),
    TSDataType.FLOAT: st.floats(allow_nan=False),
    TSDataType.DOUBLE: st.floats(allow_nan=False),
    TSDataType.BOOLEAN: st.booleans(),
    TSDataType.TEXT: st.text(max_size=8),
}


class TestPrimitives:
    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(min_value=-(2**62), max_value=2**62))
    def test_zigzag_roundtrip(self, n):
        assert zigzag_decode(zigzag_encode(n)) == n
        assert zigzag_encode(n) >= 0

    def test_zigzag_order(self):
        assert [zigzag_encode(x) for x in (0, -1, 1, -2, 2)] == [0, 1, 2, 3, 4]

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(min_value=0, max_value=2**63))
    def test_uvarint_roundtrip(self, n):
        buf = bytearray()
        write_uvarint(buf, n)
        value, pos = read_uvarint(bytes(buf), 0)
        assert value == n
        assert pos == len(buf)

    def test_uvarint_rejects_negative(self):
        with pytest.raises(EncodingError):
            write_uvarint(bytearray(), -1)

    def test_uvarint_truncated(self):
        with pytest.raises(EncodingError):
            read_uvarint(b"\x80", 0)

    @settings(max_examples=30, deadline=None)
    @given(bits=st.lists(st.integers(0, 1), max_size=100))
    def test_bit_io_roundtrip(self, bits):
        writer = BitWriter()
        for b in bits:
            writer.write_bit(b)
        reader = BitReader(writer.getvalue())
        assert [reader.read_bit() for _ in bits] == bits

    def test_bit_io_multibit(self):
        writer = BitWriter()
        writer.write_bits(0b1011, 4)
        writer.write_bits(0xFF, 8)
        reader = BitReader(writer.getvalue())
        assert reader.read_bits(4) == 0b1011
        assert reader.read_bits(8) == 0xFF

    def test_bit_reader_exhaustion(self):
        with pytest.raises(EncodingError):
            BitReader(b"").read_bit()


def _roundtrip(name, dtype, values):
    blob = get_encoder(name, dtype).encode(values)
    return get_encoder(name, dtype).decode(blob, len(values)), blob


class TestRoundTrips:
    @settings(max_examples=30, deadline=None)
    @given(vals=st.lists(st.integers(-(2**60), 2**60), max_size=100))
    def test_int_encoders(self, vals):
        for name in ("plain", "ts2diff", "rle"):
            back, _ = _roundtrip(name, TSDataType.INT64, vals)
            assert back == vals

    @settings(max_examples=30, deadline=None)
    @given(vals=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=100))
    def test_double_encoders(self, vals):
        for name in ("plain", "gorilla"):
            back, _ = _roundtrip(name, TSDataType.DOUBLE, vals)
            assert back == vals

    def test_gorilla_special_values(self):
        vals = [0.0, -0.0, math.pi, 1e308, 5.5, 5.5, -1e-300, float("inf")]
        back, _ = _roundtrip("gorilla", TSDataType.DOUBLE, vals)
        assert back == vals

    def test_gorilla_nan_roundtrip(self):
        back, _ = _roundtrip("gorilla", TSDataType.DOUBLE, [1.0, float("nan"), 2.0])
        assert back[0] == 1.0 and math.isnan(back[1]) and back[2] == 2.0

    @settings(max_examples=30, deadline=None)
    @given(vals=st.lists(st.booleans(), max_size=200))
    def test_boolean_encoders(self, vals):
        for name in ("plain", "rle"):
            back, _ = _roundtrip(name, TSDataType.BOOLEAN, vals)
            assert back == vals

    @settings(max_examples=30, deadline=None)
    @given(vals=st.lists(st.text(max_size=50), max_size=50))
    def test_text_encoder(self, vals):
        back, _ = _roundtrip("plain", TSDataType.TEXT, vals)
        assert back == vals

    def test_empty_inputs(self):
        for name, dtype in (
            ("plain", TSDataType.INT64),
            ("ts2diff", TSDataType.INT64),
            ("rle", TSDataType.INT64),
            ("plain", TSDataType.DOUBLE),
            ("gorilla", TSDataType.DOUBLE),
            ("plain", TSDataType.TEXT),
        ):
            back, blob = _roundtrip(name, dtype, [])
            assert back == []


class TestCompressionBehaviour:
    def test_ts2diff_rewards_sorted_timestamps(self):
        sorted_ts = list(range(0, 50_000, 5))
        rng = random.Random(1)
        shuffled = list(sorted_ts)
        rng.shuffle(shuffled)
        enc = get_encoder("ts2diff", TSDataType.INT64)
        assert len(enc.encode(sorted_ts)) < len(enc.encode(shuffled)) / 2

    def test_rle_crushes_constant_runs(self):
        vals = [7] * 10_000
        assert len(get_encoder("rle", TSDataType.INT64).encode(vals)) < 16

    def test_gorilla_crushes_repeated_values(self):
        vals = [3.14] * 1_000
        blob = get_encoder("gorilla", TSDataType.DOUBLE).encode(vals)
        # 64 bits + ~1 bit per repeat.
        assert len(blob) < 200


def _spec_zigzag_varint(n: int) -> bytes:
    """One zigzag LEB128 varint, written from the rule, not the codec."""
    z = 2 * n if n >= 0 else -2 * n - 1
    out = bytearray()
    while True:
        if z < 0x80:
            out.append(z)
            return bytes(out)
        out.append(z & 0x7F | 0x80)
        z >>= 7


# A delta on either side of the one-byte boundary: zigzag(63) = 126 and
# zigzag(-64) = 127 are one byte; zigzag(64) = 128 and zigzag(-65) = 129 are two.
_DELTAS = st.one_of(
    st.sampled_from((1, 63, -63, -64, 64, -65, 0, -1)),
    st.integers(-64, 63),
    st.integers(-(2**20), 2**20),
)
_FIRST = st.one_of(
    st.integers(0, 2**20),
    st.integers(2**62, 2**62 + 2**40),
    st.integers(-(2**62), -1),
)


@st.composite
def _int_columns(draw):
    """First value then prefix-summed deltas: one-byte, two-byte or mixed."""
    first = draw(_FIRST)
    deltas = draw(
        st.one_of(
            st.lists(st.integers(1, 63), max_size=40),  # a sorted one-byte page
            st.lists(_DELTAS, max_size=40),
        )
    )
    out = [first] if draw(st.booleans()) or deltas else []
    for d in deltas:
        out.append(out[-1] + d)
    return out


class TestZigzagColumn:
    """The one-byte bulk path and the varint loop decode the same column."""

    @settings(max_examples=150, deadline=None)
    @given(xs=_int_columns())
    @example(xs=[])
    @example(xs=[-(2**62)])
    def test_ts2diff_and_plain_round_trip_through_both_paths(self, xs):
        for name in ("ts2diff", "plain"):
            enc = get_encoder(name, TSDataType.INT64)
            blob = enc.encode(xs)
            assert enc.decode(blob, len(xs)) == xs
            # A trailing byte disqualifies the bulk path: same column via the loop.
            assert enc.decode(blob + b"\x00", len(xs)) == xs

    @settings(max_examples=100, deadline=None)
    @given(xs=st.lists(st.integers(-(2**40), 2**40), max_size=40))
    def test_column_matches_per_value_reads(self, xs):
        blob = b"".join(_spec_zigzag_varint(x) for x in xs)
        expected, pos = [], 0
        for _ in xs:
            z, pos = read_uvarint(blob, pos)
            expected.append(zigzag_decode(z))
        assert read_zigzag_column(blob, len(xs)) == expected == xs

    def test_ts2diff_bytes_follow_the_spec(self):
        # First value raw, then one zigzag LEB128 delta per value.
        xs = [2**62, 2**62 + 1, 2**62 + 64, 2**62 + 128, 2**62 + 65, -5]
        spec = _spec_zigzag_varint(xs[0]) + b"".join(
            _spec_zigzag_varint(b - a) for a, b in zip(xs, xs[1:])
        )
        assert get_encoder("ts2diff", TSDataType.INT64).encode(xs) == spec
        first = len(_spec_zigzag_varint(xs[0]))
        assert first == 10  # zigzag(2**62) = 2**63: ten 7-bit groups
        # Deltas 1, 63, 64, -63: zigzag 2, 126, 128 (two bytes), 125.
        assert spec[first : first + 5] == b"\x02\x7e\x80\x01\x7d"


class TestErrorHandling:
    @pytest.mark.parametrize(
        "name,dtype", REGISTERED, ids=[f"{n}-{d.value}" for n, d in REGISTERED]
    )
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_every_truncated_payload_raises(self, name, dtype, data):
        xs = data.draw(st.lists(_VALUES[dtype], min_size=1, max_size=12))
        blob = get_encoder(name, dtype).encode(xs)
        for k in range(len(blob)):
            with pytest.raises(EncodingError):
                get_encoder(name, dtype).decode(blob[:k], len(xs))

    def test_type_mismatches_rejected(self):
        with pytest.raises(EncodingError):
            get_encoder("plain", TSDataType.INT64).encode([1.5])
        with pytest.raises(EncodingError):
            get_encoder("ts2diff", TSDataType.INT64).encode(["x"])
        with pytest.raises(EncodingError):
            get_encoder("plain", TSDataType.BOOLEAN).encode([1])
        with pytest.raises(EncodingError):
            get_encoder("plain", TSDataType.TEXT).encode([7])
        with pytest.raises(EncodingError):
            get_encoder("gorilla", TSDataType.DOUBLE).encode([True])

    def test_unsupported_combination_falls_back_to_plain(self):
        enc = get_encoder("gorilla", TSDataType.TEXT)
        assert enc.name == "plain"
        enc = get_encoder("ts2diff", TSDataType.DOUBLE)
        assert enc.name == "plain"
