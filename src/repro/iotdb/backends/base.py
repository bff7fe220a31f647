"""BlobStore: the storage interface every persistence call site routes through.

A *blob store* is a flat key → bytes mapping with S3-like semantics: keys
are ``/``-separated relative paths (``shard-00/seq-000001.tsfile``,
``meta/engine.json``), values are immutable once published, and the only
structural operation is a prefix listing.  The engine's v1 on-disk layout
is exactly one such mapping over a local directory
(:class:`~repro.iotdb.backends.local.LocalDirStore`, key ↔ relative path,
byte for byte), which is what lets every sealed TsFile, WAL segment,
interval index, and engine-meta write go through this interface without
changing a single byte of the v1 tree.  A second implementation
(:class:`~repro.iotdb.backends.memory.MemoryStore`) keeps the same mapping
in process memory — the shape of an object-store backend; it is what an
engine without a ``data_dir`` persists to, and what the parity suites
and the crash harness's ``--backend memory`` sweep run over.

Atomicity contract (normative; docs/STORAGE.md §"BlobStore contract"):

``put``
    publishes the whole value or nothing — a reader (or a crash snapshot)
    never observes a torn blob under ``key``.  Streaming writers that
    need crash-visible partial state use ``open_write`` on a ``.part``
    key instead and publish with ``rename_atomic``.
``rename_atomic``
    atomically moves ``src`` over ``dst`` (replacing it); afterwards
    ``src`` is gone.  This is the engine's publish primitive — TsFile
    seal, index swap, and meta swap all end in one.
``delete``
    removes a key; with ``missing_ok`` a missing key is a no-op (crash
    recovery deletes leftovers it may or may not find).
``open_write``
    a seekable binary handle whose bytes become durable as they are
    flushed (like ``open(path, "wb+")``); it truncates any existing
    value.  Partially flushed bytes *are* observable under the key — the
    engine only ever streams to ``.part`` keys for exactly that reason.
``open_read`` / ``get`` / ``list`` / ``exists``
    plain reads; ``list(prefix)`` returns every key with that string
    prefix, sorted, and is the recovery scan primitive.
``ensure_prefix``
    materialises a directory-like prefix where the backend has real
    directories (``LocalDirStore``), a no-op elsewhere — it exists so the
    v2-local tree stays byte-identical to v1 including *empty* shard
    directories.
"""

from __future__ import annotations

from repro.errors import BlobNotFoundError, StorageError

__all__ = ["BlobNotFoundError", "BlobStore", "validate_key"]


def validate_key(key: str) -> str:
    """Reject keys that could escape or alias the store's namespace.

    Keys are relative ``/``-separated paths: no empty segments, no
    leading ``/``, no ``.``/``..`` traversal, no backslashes (one key
    must name one blob on every backend, including the local filesystem).
    """
    if not isinstance(key, str) or not key:
        raise StorageError(f"blob key must be a non-empty string, got {key!r}")
    if "\\" in key:
        raise StorageError(f"blob key {key!r} must use '/' separators")
    if key.startswith("/") or key.endswith("/"):
        raise StorageError(f"blob key {key!r} must be a relative path")
    for segment in key.split("/"):
        if segment in ("", ".", ".."):
            raise StorageError(f"blob key {key!r} contains an invalid segment")
    return key


class BlobStore:
    """Abstract flat key → bytes store (see the module docstring for the
    per-method atomicity contract every implementation must honour)."""

    #: Backend name recorded in ``meta/engine.json`` (``"local"`` /
    #: ``"memory"``); doubles as the bench cell label.
    kind: str = "abstract"

    # -- whole-blob operations --------------------------------------------

    def put(self, key: str, data: bytes) -> None:
        """Atomically publish ``data`` under ``key`` (all or nothing)."""
        raise NotImplementedError

    def get(self, key: str) -> bytes:
        """The value under ``key``; :class:`BlobNotFoundError` if absent."""
        raise NotImplementedError

    def delete(self, key: str, *, missing_ok: bool = False) -> None:
        """Remove ``key``; missing keys raise unless ``missing_ok``."""
        raise NotImplementedError

    def exists(self, key: str) -> bool:
        raise NotImplementedError

    def list(self, prefix: str = "") -> list[str]:
        """Every key starting with ``prefix``, sorted."""
        raise NotImplementedError

    def rename_atomic(self, src: str, dst: str) -> None:
        """Atomically move ``src`` over ``dst`` (the publish primitive)."""
        raise NotImplementedError

    # -- streaming handles -------------------------------------------------

    def open_write(self, key: str):
        """A fresh seekable binary write handle for ``key`` (truncates)."""
        raise NotImplementedError

    def open_read(self, key: str):
        """A seekable binary read handle; :class:`BlobNotFoundError` if
        absent."""
        raise NotImplementedError

    # -- namespace hints ---------------------------------------------------

    def ensure_prefix(self, prefix: str) -> None:
        """Materialise a directory-like ``prefix`` where the backend has
        real directories; a no-op on flat key-value backends."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} kind={self.kind!r}>"
