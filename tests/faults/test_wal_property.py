"""S1: property tests — the WAL round-trips and tolerates any truncation.

Two properties the crash harness leans on:

* **Round-trip**: any sequence of records (all supported value types)
  replays exactly as written.
* **Prefix under truncation**: chopping the encoded log at *every* byte
  offset yields a clean prefix of the written records — non-strict replay
  never raises, and ``strict=True`` raises exactly when the tail is torn
  (i.e. the cut is not on a record boundary).
"""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WalCorruptionError
from repro.iotdb import WriteAheadLog
from repro.iotdb.typed_tvlists import infer_dtype

_names = st.text(alphabet="abcdef_.0123456789", min_size=1, max_size=8)
_values = st.one_of(
    st.booleans(),
    st.integers(min_value=-(2**60), max_value=2**60),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
)
_records = st.lists(
    st.tuples(
        _names, _names, st.integers(min_value=-(2**60), max_value=2**60), _values
    ),
    min_size=0,
    max_size=5,
)


def _encode(records) -> tuple[bytes, list[int]]:
    """Encode records; returns the log bytes and each record's end offset."""
    buf = io.BytesIO()
    wal = WriteAheadLog(buf)
    boundaries = [0]
    for device, sensor, t, v in records:
        # one frame per record, logged under the type its value implies
        wal.append_batch(device, sensor, [t], [v], infer_dtype(v))
        boundaries.append(buf.tell())
    return buf.getvalue(), boundaries


@settings(max_examples=80)
@given(records=_records)
def test_roundtrip(records):
    data, _ = _encode(records)
    wal = WriteAheadLog(io.BytesIO(data))
    assert list(wal.replay()) == records
    assert list(wal.replay(strict=True)) == records


@settings(max_examples=25)
@given(records=_records.filter(bool))
def test_truncation_at_every_byte_offset_replays_a_clean_prefix(records):
    data, boundaries = _encode(records)
    for offset in range(len(data) + 1):
        truncated = WriteAheadLog(io.BytesIO(data[:offset]))
        replayed = list(truncated.replay())  # non-strict: must never raise
        # Exactly the records whose bytes fully fit before the cut.
        complete = max(i for i, end in enumerate(boundaries) if end <= offset)
        assert replayed == records[:complete]

        strict = WriteAheadLog(io.BytesIO(data[:offset]))
        if offset in boundaries:
            # Cut on a record boundary: a clean (shorter) log, not a torn one.
            assert list(strict.replay(strict=True)) == records[:complete]
        else:
            with pytest.raises(WalCorruptionError):
                list(strict.replay(strict=True))


@settings(max_examples=40)
@given(records=_records.filter(bool), data=st.data())
def test_strict_errors_name_the_failing_record(records, data):
    encoded, boundaries = _encode(records)
    offset = data.draw(
        st.integers(min_value=1, max_value=len(encoded) - 1).filter(
            lambda o: o not in boundaries
        ),
        label="cut offset",
    )
    torn = WriteAheadLog(io.BytesIO(encoded[:offset]))
    failing = max(i for i, end in enumerate(boundaries) if end <= offset)
    with pytest.raises(WalCorruptionError, match=f"at record {failing}"):
        list(torn.replay(strict=True))
