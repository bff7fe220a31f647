"""Blob-store backends: the only way the storage engine touches bytes.

Every persistence call site in the engine — sealed TsFiles, WAL segments,
interval indexes, ``meta/engine.json`` — addresses bytes through the
:class:`BlobStore` interface, and every engine owns exactly one store.
:class:`LocalDirStore` maps keys 1:1 onto a local directory (what a
``data_dir`` engine runs on; byte-identical to the historical v1 tree);
:class:`MemoryStore` is an S3-like in-memory table (what an engine
without a ``data_dir`` runs on, and the ``--backend memory`` crash
sweep).  See docs/STORAGE.md for the
normative on-disk format and the per-method atomicity contract.
"""

from repro.iotdb.backends.base import BlobNotFoundError, BlobStore, validate_key
from repro.iotdb.backends.local import LocalDirStore
from repro.iotdb.backends.memory import MemoryStore

__all__ = [
    "BlobNotFoundError",
    "BlobStore",
    "LocalDirStore",
    "MemoryStore",
    "validate_key",
]
