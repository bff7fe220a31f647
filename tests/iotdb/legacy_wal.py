"""The legacy JSON WAL frames, encoded from docs/STORAGE.md §3.

No writer in ``src/`` emits either JSON frame kind any more (every batch,
a point write included, is a binary *column* frame), but ``replay`` must
accept both forever: every segment written before column frames existed
is made of them — single-record frames from the builds before batch
framing, JSON batch frames from the builds after it.  The tests that pin
that read compatibility build their fixtures here — from ``struct``,
``json`` and ``crc32`` as the spec states them, importing nothing from the
codec under test (the ``test_storage_spec.py`` discipline).
"""

from __future__ import annotations

import json
import struct
import zlib

# Copied from docs/STORAGE.md, deliberately NOT imported from repro.iotdb.wal.
SPEC_WAL_BATCH_FLAG = 0x80000000


def _frame(payload: bytes, flag: int) -> bytes:
    """``uint32 LE len | flag | payload | uint32 LE crc32(payload)``."""
    assert not len(payload) & SPEC_WAL_BATCH_FLAG
    return (
        struct.pack("<I", len(payload) | flag)
        + payload
        + struct.pack("<I", zlib.crc32(payload))
    )


def single_record_frame(device: str, sensor: str, timestamp: int, value) -> bytes:
    """``uint32 LE len (top bit clear) | JSON [d, s, t, v] | uint32 LE crc32``."""
    payload = json.dumps([device, sensor, timestamp, value]).encode("utf-8")
    return _frame(payload, 0)


def single_record_segment(records) -> bytes:
    """A whole segment of single-record frames: frames, nothing else."""
    return b"".join(single_record_frame(*record) for record in records)


def json_batch_frame(records) -> bytes:
    """``uint32 LE len | 0x80000000 | JSON [[d, s, t, v], …] | uint32 LE crc32``.

    The records may belong to any mix of series.
    """
    payload = json.dumps([list(record) for record in records]).encode("utf-8")
    assert payload[:1] == b"["
    return _frame(payload, SPEC_WAL_BATCH_FLAG)
