"""Hypothesis round-trips of the TsFile format over arbitrary typed columns."""

from __future__ import annotations

import io

from hypothesis import given, settings, strategies as st

from repro.iotdb import TSDataType, TsFileReader, TsFileWriter

_ENCODINGS_BY_TYPE = {
    TSDataType.INT64: ("plain", "ts2diff", "rle"),
    TSDataType.DOUBLE: ("plain", "gorilla"),
    TSDataType.BOOLEAN: ("plain", "rle"),
    TSDataType.TEXT: ("plain",),
}

_VALUES_BY_TYPE = {
    TSDataType.INT64: st.integers(-(2**50), 2**50),
    TSDataType.DOUBLE: st.floats(allow_nan=False, allow_infinity=False),
    TSDataType.BOOLEAN: st.booleans(),
    TSDataType.TEXT: st.text(max_size=20),
}


@st.composite
def _typed_column(draw):
    dtype = draw(st.sampled_from(list(_VALUES_BY_TYPE)))
    n = draw(st.integers(1, 80))
    # Strictly increasing timestamps, as the writer requires.
    deltas = draw(st.lists(st.integers(1, 50), min_size=n, max_size=n))
    ts = []
    acc = draw(st.integers(0, 1000))
    for d in deltas:
        acc += d
        ts.append(acc)
    vs = draw(st.lists(_VALUES_BY_TYPE[dtype], min_size=n, max_size=n))
    encoding = draw(st.sampled_from(_ENCODINGS_BY_TYPE[dtype]))
    page_size = draw(st.sampled_from([3, 16, 1024]))
    return dtype, ts, vs, encoding, page_size


@settings(max_examples=60, deadline=None)
@given(column=_typed_column())
def test_roundtrip_any_typed_column(column):
    dtype, ts, vs, encoding, page_size = column
    buf = io.BytesIO()
    writer = TsFileWriter(buf)
    writer.write_chunk(
        "dev", "sen", dtype, ts, vs, value_encoding=encoding, page_size=page_size
    )
    writer.close()
    reader = TsFileReader(buf)
    out_t, out_v = reader.read_chunk("dev", "sen")
    assert out_t == ts
    assert out_v == vs


@settings(max_examples=40, deadline=None)
@given(column=_typed_column(), lo=st.integers(0, 3000), width=st.integers(1, 3000))
def test_query_range_matches_filter(column, lo, width):
    dtype, ts, vs, encoding, page_size = column
    buf = io.BytesIO()
    writer = TsFileWriter(buf)
    writer.write_chunk(
        "dev", "sen", dtype, ts, vs, value_encoding=encoding, page_size=page_size
    )
    writer.close()
    reader = TsFileReader(buf)
    hi = lo + width
    out_t, out_v = reader.query_range("dev", "sen", lo, hi)
    expected = [(t, v) for t, v in zip(ts, vs) if lo <= t < hi]
    assert list(zip(out_t, out_v)) == expected


@st.composite
def _footer(draw):
    """Columns for one file: a few devices sharing sensor names, some
    columns empty (a chunk with no page), possibly no column at all."""
    keys = draw(
        st.lists(
            st.tuples(st.sampled_from("abcd"), st.sampled_from(["s1", "s2", "s3"])),
            unique=True,
            max_size=8,
        )
    )
    columns = []
    for device, sensor in keys:
        start = draw(st.integers(-50, 500))
        n = draw(st.integers(0, 12))
        ts = [start + 3 * i for i in range(n)]
        columns.append((f"root.{device}", sensor, ts))
    return columns


@settings(max_examples=60, deadline=None)
@given(columns=_footer(), page_size=st.sampled_from([2, 5, 1024]))
def test_metadata_views_match_brute_force(columns, page_size):
    buf = io.BytesIO()
    writer = TsFileWriter(buf)
    for device, sensor, ts in columns:
        writer.write_chunk(
            device, sensor, TSDataType.INT64, ts, list(ts), page_size=page_size
        )
    writer.close()
    reader = TsFileReader(buf)

    written = [(device, sensor) for device, sensor, _ts in columns]
    metas = [reader.chunk_metadata(*key) for key in written]
    assert all(meta is not None for meta in metas)
    assert reader.devices() == sorted({device for device, _ in written})
    for device in reader.devices() + ["root.absent"]:
        assert reader.sensors(device) == sorted(s for d, s in written if d == device)
    assert list(reader.chunks()) == metas  # footer (write) order
    spans = [(m.min_time, m.max_time) for m in metas if m.pages]
    expected = (min(lo for lo, _ in spans), max(hi for _, hi in spans)) if spans else None
    assert reader.time_range == expected
    # The lists handed out are the caller's own.
    reader.devices().clear()
    for device in reader.devices():
        reader.sensors(device).clear()
        assert reader.sensors(device) == sorted(s for d, s in written if d == device)
    assert reader.devices() == sorted({device for device, _ in written})
