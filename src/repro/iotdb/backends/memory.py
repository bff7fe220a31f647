"""MemoryStore: an S3-like in-memory key-value BlobStore.

The second backend the v2 layout runs on: one ``dict`` of key →
``bytearray`` behind its own lock, with the same key namespace and the
same atomicity contract as :class:`~repro.iotdb.backends.local.LocalDirStore`
(``rename_atomic`` moves the value object between keys in one locked
step).  Every engine without a ``data_dir`` owns one; it also serves what
a real object store would be used for minus the network: backend-parity
suites (same workload → identical bytes and query results as the local
tree) and the crash harness's ``--backend memory`` sweep, where
:meth:`snapshot` plays the role the
:class:`~repro.faults.crash.CrashSimulator` directory copy plays on disk.

Durability model under fault injection: a write handle appends straight
into the stored ``bytearray`` — those bytes are "on disk".  The engine
always wraps handles in :class:`~repro.faults.files.FaultyFile`, whose
pending buffer holds unflushed bytes *outside* the store, so a simulated
crash abandons them exactly as it does for a real file; a
:meth:`snapshot` taken at the crash point therefore sees only flushed
bytes, on both backends, with the same code.

Concurrency: ``_lock`` guards the blob table and sits at the bottom of
the engine's lock hierarchy (below shard and WAL locks, which call into
the store while held; it never calls out while holding its own lock).
Handles deliberately bypass the lock: a blob is written by exactly one
owner at a time under that owner's shard/WAL lock, matching how file
descriptors bypass the directory on a real filesystem.
"""

from __future__ import annotations

import io

from repro.analysis.concurrency import apply_guards, create_lock
from repro.errors import BlobNotFoundError, StorageError
from repro.iotdb.backends.base import BlobStore, validate_key


class _MemoryBlobHandle:
    """A seekable binary file over one stored ``bytearray``.

    Write handles mutate the array in place (never rebinding it), so the
    store's table — and any concurrently taken :meth:`MemoryStore.snapshot`
    — always sees exactly the bytes written so far, like a file on disk.
    """

    def __init__(self, buffer: bytearray, *, writable: bool, name: str) -> None:
        self._buffer = buffer
        self._writable = writable
        self._name = name
        self._pos = 0
        self._closed = False

    def _check_open(self) -> None:
        if self._closed:
            raise ValueError(f"I/O operation on closed blob handle {self._name!r}")

    # -- file protocol -----------------------------------------------------

    def write(self, data) -> int:
        self._check_open()
        if not self._writable:
            raise io.UnsupportedOperation(f"blob handle {self._name!r} is read-only")
        data = bytes(data)
        end = self._pos + len(data)
        if self._pos > len(self._buffer):
            # Sparse write beyond the end zero-fills, like a POSIX file.
            self._buffer.extend(b"\x00" * (self._pos - len(self._buffer)))
        self._buffer[self._pos:end] = data
        self._pos = end
        return len(data)

    def read(self, size: int = -1) -> bytes:
        self._check_open()
        if size is None or size < 0:
            end = len(self._buffer)
        else:
            end = min(self._pos + size, len(self._buffer))
        data = bytes(self._buffer[self._pos:end])
        self._pos = end
        return data

    def seek(self, offset: int, whence: int = io.SEEK_SET) -> int:
        self._check_open()
        if whence == io.SEEK_SET:
            pos = offset
        elif whence == io.SEEK_CUR:
            pos = self._pos + offset
        elif whence == io.SEEK_END:
            pos = len(self._buffer) + offset
        else:  # pragma: no cover - defensive
            raise ValueError(f"invalid whence {whence}")
        if pos < 0:
            raise OSError(22, "negative seek position")
        self._pos = pos
        return pos

    def tell(self) -> int:
        self._check_open()
        return self._pos

    def truncate(self, size: int | None = None) -> int:
        self._check_open()
        if not self._writable:
            raise io.UnsupportedOperation(f"blob handle {self._name!r} is read-only")
        size = self._pos if size is None else size
        if size < 0:
            raise OSError(22, "negative truncate size")
        if size < len(self._buffer):
            del self._buffer[size:]
        else:
            self._buffer.extend(b"\x00" * (size - len(self._buffer)))
        return size

    def flush(self) -> None:
        # Writes land in the store immediately; nothing is buffered here.
        self._check_open()

    def close(self) -> None:
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def readable(self) -> bool:
        return True

    def writable(self) -> bool:
        return self._writable

    def seekable(self) -> bool:
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "wb+" if self._writable else "rb"
        return f"<_MemoryBlobHandle {self._name!r} mode={mode}>"


class MemoryStore(BlobStore):
    """In-memory key → bytes store with snapshot support for crash tests."""

    kind = "memory"

    #: Lock discipline for the ``guarded-by`` rule and runtime sanitizer.
    GUARDED_BY = {"_blobs": "_lock"}

    def __init__(self) -> None:
        self._lock = create_lock("MemoryStore._lock")
        self._blobs: dict[str, bytearray] = {}
        apply_guards(self)

    # -- whole-blob operations --------------------------------------------

    def put(self, key: str, data: bytes) -> None:
        validate_key(key)
        with self._lock:
            # One dict assignment under the lock: readers see the old
            # value or the whole new one, never a torn blob.
            self._blobs[key] = bytearray(data)

    def get(self, key: str) -> bytes:
        validate_key(key)
        with self._lock:
            buffer = self._blobs.get(key)
            if buffer is None:
                raise BlobNotFoundError(f"no blob {key!r} in MemoryStore")
            return bytes(buffer)

    def delete(self, key: str, *, missing_ok: bool = False) -> None:
        validate_key(key)
        with self._lock:
            if self._blobs.pop(key, None) is None and not missing_ok:
                raise BlobNotFoundError(f"no blob {key!r} in MemoryStore")

    def exists(self, key: str) -> bool:
        validate_key(key)
        with self._lock:
            return key in self._blobs

    def list(self, prefix: str = "") -> list[str]:
        with self._lock:
            return sorted(key for key in self._blobs if key.startswith(prefix))

    def rename_atomic(self, src: str, dst: str) -> None:
        validate_key(src)
        validate_key(dst)
        with self._lock:
            buffer = self._blobs.pop(src, None)
            if buffer is None:
                raise BlobNotFoundError(f"no blob {src!r} in MemoryStore")
            # The value object moves, so a handle still open on it keeps
            # reading the published bytes — like an fd across os.replace.
            self._blobs[dst] = buffer

    # -- streaming handles -------------------------------------------------

    def open_write(self, key: str) -> _MemoryBlobHandle:
        validate_key(key)
        with self._lock:
            buffer = bytearray()
            self._blobs[key] = buffer
        return _MemoryBlobHandle(buffer, writable=True, name=key)

    def open_read(self, key: str) -> _MemoryBlobHandle:
        validate_key(key)
        with self._lock:
            buffer = self._blobs.get(key)
            if buffer is None:
                raise BlobNotFoundError(f"no blob {key!r} in MemoryStore")
        return _MemoryBlobHandle(buffer, writable=False, name=key)

    # -- crash-harness support ---------------------------------------------

    def snapshot(self) -> dict[str, bytes]:
        """An immutable copy of every blob's current bytes — the in-memory
        analogue of the :class:`~repro.faults.crash.CrashSimulator`
        directory copy (bytes pending in a ``FaultyFile`` are naturally
        absent: they never reached the store)."""
        with self._lock:
            return {key: bytes(buffer) for key, buffer in self._blobs.items()}

    @classmethod
    def from_snapshot(cls, snapshot: dict[str, bytes]) -> "MemoryStore":
        """A fresh store holding exactly a snapshot's blobs (recovery)."""
        store = cls()
        for key, data in snapshot.items():
            if not isinstance(data, (bytes, bytearray)):
                raise StorageError(
                    f"snapshot value for {key!r} must be bytes, got "
                    f"{type(data).__name__}"
                )
            store.put(key, bytes(data))
        return store
