"""The legacy single-record WAL frame, encoded from docs/STORAGE.md §3.

No writer in ``src/`` emits this frame kind any more (a point write is a
one-record *batch* frame), but ``replay`` must accept it forever: every
segment written before batch framing, and every point write of the engines
before the write path became batch-only, is made of these.  The tests that
pin that read compatibility build their fixtures here — from ``struct``,
``json`` and ``crc32`` as the spec states them, importing nothing from the
codec under test (the ``test_storage_spec.py`` discipline).
"""

from __future__ import annotations

import json
import struct
import zlib

# Copied from docs/STORAGE.md, deliberately NOT imported from repro.iotdb.wal.
SPEC_WAL_BATCH_FLAG = 0x80000000


def single_record_frame(device: str, sensor: str, timestamp: int, value) -> bytes:
    """``uint32 LE len (top bit clear) | JSON [d, s, t, v] | uint32 LE crc32``."""
    payload = json.dumps([device, sensor, timestamp, value]).encode("utf-8")
    assert not len(payload) & SPEC_WAL_BATCH_FLAG
    return (
        struct.pack("<I", len(payload))
        + payload
        + struct.pack("<I", zlib.crc32(payload))
    )


def single_record_segment(records) -> bytes:
    """A whole segment of single-record frames: frames, nothing else."""
    return b"".join(single_record_frame(*record) for record in records)
