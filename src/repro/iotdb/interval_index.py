"""Per-shard interval index over sealed TsFiles (unsequence-space pruning).

The separation policy (paper §II) routes very late points into unsequence
files whose time ranges overlap, so a time-range query otherwise pays to
open and merge *every* unseq file.  This module implements the structure
"Disk-Based Interval Indexes Under the Increasing Ending Time Assumption"
(PAPERS.md) suggests for exactly this shape of data: sealed files are
immutable and, per shard, are sealed with (weakly) increasing ending
times, so a table sorted by ending time answers stabbing/overlap queries
with one binary search plus a short suffix scan.

Structure
---------
:class:`IntervalIndex` keeps one entry per sealed file — ``(file_id,
space, min_time, max_time)`` — sorted by ``max_time``.  A query range
``[start, end)`` intersects a file iff ``max_time >= start`` and
``min_time < end``; files with ``max_time >= start`` form a *suffix* of
the sorted table (the increasing-ending-time property), found by binary
search.  The suffix scan early-terminates through ``_suffix_min_start``
(the smallest ``min_time`` at or after each position): once every
remaining file starts at or beyond ``end``, nothing further can overlap.

Persistence
-----------
``save_to`` writes the table as a small checksummed text blob next to the
shard's TsFiles — through whatever
:class:`~repro.iotdb.backends.BlobStore` the shard persists to —
atomically (``.part`` + rename) and through the shard's
:class:`~repro.faults.FaultInjector` — fault sites ``index.write`` (every
byte written, torn-write capable) and ``index.swap`` (the rename).
``load_from`` raises :class:`~repro.errors.IndexCorruptionError` on any torn,
truncated, or bit-flipped file; recovery treats that — or any mismatch
with the sealed files actually on disk — as "rebuild from the TsFiles",
so a damaged index can cost a rebuild but never a wrong answer.
"""

from __future__ import annotations

import json
import zlib
from bisect import bisect_left
from dataclasses import dataclass

from repro.errors import IndexCorruptionError

#: First line of a persisted index file.
MAGIC = "REPROIDX1"

#: Name of the index file inside a shard directory.
INDEX_FILE_NAME = "interval-index.json"


@dataclass(frozen=True, order=True)
class IndexEntry:
    """One sealed file's closed time range ``[min_time, max_time]``."""

    file_id: str
    space: str
    min_time: int
    max_time: int

    def intersects(self, start: int, end: int) -> bool:
        """Does this file's range intersect the query range ``[start, end)``?"""
        return self.max_time >= start and self.min_time < end

    def overlaps_entry(self, other: "IndexEntry") -> bool:
        """Closed-interval overlap between two files' ranges."""
        return self.min_time <= other.max_time and other.min_time <= self.max_time

    def to_json(self) -> dict:
        return {
            "file_id": self.file_id,
            "space": self.space,
            "min_time": self.min_time,
            "max_time": self.max_time,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "IndexEntry":
        return cls(
            file_id=str(obj["file_id"]),
            space=str(obj["space"]),
            min_time=int(obj["min_time"]),
            max_time=int(obj["max_time"]),
        )


class IntervalIndex:
    """Sorted-by-ending-time file table with an overlap stab structure.

    Not internally locked: an index belongs to exactly one
    :class:`~repro.iotdb.shard.StorageShard` and every access happens
    under that shard's lock (declared via the shard's ``GUARDED_BY``).
    """

    def __init__(self, entries=()) -> None:
        self._entries: list[IndexEntry] = []
        #: ``max_time`` per entry, parallel to ``_entries`` (bisect key).
        self._ends: list[int] = []
        #: ``min(min_time of entries[i:])`` — the suffix-scan early stop.
        self._suffix_min_start: list[int] = []
        #: Known file ids (O(1) ``covers`` checks on the query path).
        self._ids: set[str] = set()
        if entries:
            self.replace(entries)

    # -- mutation ----------------------------------------------------------

    def _rebuild(self) -> None:
        self._entries.sort(key=lambda e: (e.max_time, e.min_time, e.file_id))
        self._ends[:] = [e.max_time for e in self._entries]
        suffix: list[int] = [0] * len(self._entries)
        running: int | None = None
        for i in range(len(self._entries) - 1, -1, -1):
            start = self._entries[i].min_time
            running = start if running is None else min(running, start)
            suffix[i] = running
        self._suffix_min_start[:] = suffix
        self._ids.clear()
        self._ids.update(e.file_id for e in self._entries)

    def add(self, entry: IndexEntry) -> None:
        """Register one newly sealed file."""
        self._entries.append(entry)  # repro: allow(stats-accounting): index table, not a sort
        self._rebuild()

    def remove(self, file_ids) -> None:
        """Drop entries for files removed by compaction."""
        gone = set(file_ids)
        self._entries[:] = [e for e in self._entries if e.file_id not in gone]
        self._rebuild()

    def replace(self, entries) -> None:
        """Swap in a whole new table (recovery rebuild, full compaction)."""
        self._entries[:] = list(entries)
        self._rebuild()

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> tuple[IndexEntry, ...]:
        return tuple(self._entries)

    def covers(self, file_id: str) -> bool:
        """Is ``file_id`` known to the index?  (A file the index does not
        know must never be pruned — the executor opens it defensively.)"""
        return file_id in self._ids

    def candidates(self, start: int, end: int) -> set[str]:
        """File ids whose range intersects the query range ``[start, end)``.

        Binary search to the first entry with ``max_time >= start`` (the
        increasing-ending-time suffix), then scan it, stopping as soon as
        ``_suffix_min_start`` proves no remaining file begins before
        ``end``.  Exact: equals the brute-force overlap scan (the property
        suite pins this against randomized file sets).
        """
        if end <= start:
            return set()
        out: set[str] = set()
        i = bisect_left(self._ends, start)
        while i < len(self._entries):
            if self._suffix_min_start[i] >= end:
                break
            entry = self._entries[i]
            if entry.min_time < end:
                out.add(entry.file_id)
            i += 1
        return out

    def overlapping(self, min_time: int, max_time: int) -> list[IndexEntry]:
        """Entries whose closed range intersects ``[min_time, max_time]``
        (the compaction scheduler's overlap measure)."""
        if max_time < min_time:
            return []
        return [
            self._entries[i]
            for i in range(bisect_left(self._ends, min_time), len(self._entries))
            if self._entries[i].min_time <= max_time
        ]

    # -- persistence -------------------------------------------------------

    def _payload(self) -> str:
        return json.dumps(
            {"entries": [e.to_json() for e in self._entries]},
            sort_keys=True,
            separators=(",", ":"),
        )

    def save_to(self, store, key: str, *, faults=None) -> None:
        """Atomically persist the table into a blob store.

        Bytes stream to ``<key>.part`` first (through the injector's
        ``index.write`` site, so torn writes are simulatable), then the
        ``index.swap`` crash point fires and one ``rename_atomic``
        publishes the key.  A crash anywhere leaves either the old index
        or a torn ``.part`` — both of which recovery discards and
        rebuilds.
        """
        from repro.faults.injector import NOOP_INJECTOR

        injector = faults if faults is not None else NOOP_INJECTOR
        payload = self._payload()
        crc = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
        blob = f"{MAGIC}\n{crc:08x}\n{payload}\n".encode("utf-8")
        part_key = key + ".part"
        handle = injector.wrap_file(store.open_write(part_key), site="index.write")
        try:
            handle.write(blob)
            handle.flush()
        finally:
            try:
                handle.close()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
        injector.crash_point("index.swap", file=key.rsplit("/", 1)[-1])
        store.rename_atomic(part_key, key)

    @classmethod
    def _parse(cls, text: str, source) -> "IntervalIndex":
        parts = text.split("\n", 2)
        if len(parts) != 3 or parts[0] != MAGIC:
            raise IndexCorruptionError(f"bad index magic in {source}")
        crc_line, payload = parts[1], parts[2]
        if not payload.endswith("\n"):
            raise IndexCorruptionError(f"truncated index payload in {source}")
        payload = payload[:-1]
        try:
            expected = int(crc_line, 16)
        except ValueError as exc:
            raise IndexCorruptionError(
                f"bad index checksum line in {source}"
            ) from exc
        actual = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
        if actual != expected:
            raise IndexCorruptionError(
                f"index checksum mismatch in {source}: "
                f"stored {expected:08x}, computed {actual:08x}"
            )
        try:
            obj = json.loads(payload)
            entries = [IndexEntry.from_json(e) for e in obj["entries"]]
        except (ValueError, KeyError, TypeError) as exc:
            raise IndexCorruptionError(
                f"bad index payload in {source}: {exc}"
            ) from exc
        return cls(entries)

    @classmethod
    def load_from(cls, store, key: str) -> "IntervalIndex":
        """Parse a persisted index from a blob store; any damage raises
        :class:`IndexCorruptionError` (the caller rebuilds instead)."""
        from repro.errors import BlobNotFoundError

        try:
            blob = store.get(key)
        except BlobNotFoundError as exc:
            raise IndexCorruptionError(f"unreadable index blob {key}: {exc}") from exc
        try:
            text = blob.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise IndexCorruptionError(f"unreadable index blob {key}: {exc}") from exc
        return cls._parse(text, key)


def entry_for_sealed(sealed) -> IndexEntry | None:
    """The index entry for one shard ``_SealedFile`` (None when empty)."""
    time_range = sealed.reader.time_range
    if time_range is None:
        return None
    return IndexEntry(
        file_id=sealed.file_id,
        space=sealed.space.value,
        min_time=time_range[0],
        max_time=time_range[1],
    )


def build_entries(sealed_files) -> list[IndexEntry]:
    """Index entries for a shard's sealed-file list, in write order —
    the ground truth every load/validate path is checked against."""
    entries: list[IndexEntry] = []
    for sealed in sealed_files:
        entry = entry_for_sealed(sealed)
        if entry is not None:
            entries.append(entry)  # repro: allow(stats-accounting): index table, not a sort
    return entries
