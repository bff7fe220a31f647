"""LocalDirStore: the BlobStore over a local directory (the v1 layout).

Keys map 1:1 to paths relative to ``root`` — ``shard-00/seq-000001.tsfile``
is literally ``root/shard-00/seq-000001.tsfile`` — so an engine whose
persistence goes through this store writes the *same bytes to the same
paths* as the pre-backend code did.  That identity is what makes the v1
tree byte-for-byte stable under the backend refactor (pinned by the parity
suite) and what lets ``StorageEngine.open`` serve a v2-local tree and a v1
tree with the same code.

Atomicity: ``put`` stages to ``<key>.part`` and publishes with
``os.replace``; ``rename_atomic`` *is* ``os.replace``.  Both therefore
carry the POSIX same-filesystem rename guarantee the engine's seal/swap
protocols are built on (docs/STORAGE.md).
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.errors import BlobNotFoundError, StorageError
from repro.iotdb.backends.base import BlobStore, validate_key


class LocalDirStore(BlobStore):
    """Key → bytes over ``root``, key ↔ relative path, byte-identical v1."""

    kind = "local"

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / validate_key(key)

    # -- whole-blob operations --------------------------------------------

    def put(self, key: str, data: bytes) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Stage-then-rename: a crash mid-put leaves a stray .part the
        # engine's recovery scan discards, never a torn published blob.
        part = path.with_name(path.name + ".part")
        part.write_bytes(data)
        os.replace(part, path)

    def get(self, key: str) -> bytes:
        try:
            return self._path(key).read_bytes()
        except FileNotFoundError:
            raise BlobNotFoundError(f"no blob {key!r} under {self.root}") from None

    def delete(self, key: str, *, missing_ok: bool = False) -> None:
        try:
            self._path(key).unlink()
        except FileNotFoundError:
            if not missing_ok:
                raise BlobNotFoundError(
                    f"no blob {key!r} under {self.root}"
                ) from None

    def exists(self, key: str) -> bool:
        return self._path(key).is_file()

    def list(self, prefix: str = "") -> list[str]:
        # Only the directory up to the prefix's last "/" can hold a match,
        # so only it is walked; the string filter stays, because a prefix
        # such as "shard-0" must still match "shard-00/...".
        head = prefix[: prefix.rfind("/") + 1]
        if head:
            try:
                validate_key(head[:-1])
            except StorageError:
                return []  # no valid key starts with a malformed directory
        base = self.root / head
        if not base.is_dir():
            return []
        keys = [
            path.relative_to(self.root).as_posix()
            for path in base.rglob("*")
            if path.is_file()
        ]
        return sorted(key for key in keys if key.startswith(prefix))

    def rename_atomic(self, src: str, dst: str) -> None:
        src_path, dst_path = self._path(src), self._path(dst)
        dst_path.parent.mkdir(parents=True, exist_ok=True)
        try:
            os.replace(src_path, dst_path)
        except FileNotFoundError:
            raise BlobNotFoundError(f"no blob {src!r} under {self.root}") from None

    # -- streaming handles -------------------------------------------------

    def open_write(self, key: str):
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        return open(path, "wb+")

    def open_read(self, key: str):
        try:
            return open(self._path(key), "rb")
        except FileNotFoundError:
            raise BlobNotFoundError(f"no blob {key!r} under {self.root}") from None

    # -- namespace hints ---------------------------------------------------

    def ensure_prefix(self, prefix: str) -> None:
        """Create the directory a ``/``-terminated prefix names (keeps the
        v2-local tree identical to v1 down to empty shard directories)."""
        (self.root / prefix.rstrip("/")).mkdir(parents=True, exist_ok=True)
