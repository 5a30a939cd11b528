"""Crash-safe content-addressed disk layer for the durable store.

Layout under the store root::

    schema          the layout version (one integer line)
    objects/        <sha256-hex>.json -- one checksummed payload each
    index.log       append-only JSON lines {"k": lookup, "o": object}
    lock            advisory write lock (fcntl.flock, where available)

Invariants:

* **Objects are immutable and self-checking.**  A file's name is the
  SHA-256 of its contents, so the digest doubles as the per-entry
  checksum; any read whose bytes do not hash to the file name raises
  :class:`StoreCorrupt` and quarantines the object (best-effort
  unlink + local index drop) so a later record can heal it.
* **Writes are atomic.**  Every object is written to a same-directory
  temp file, flushed, fsynced, then ``os.replace``d into place; the
  directory is fsynced after the rename where the platform allows.
  A crash leaves either no object or a complete one -- never a file
  that exists under its final name with partial contents (a torn temp
  file that does get renamed is caught by the checksum).  Temp files
  carry their writer's pid; ``open`` sweeps only those of dead
  writers, since a live one may be mid-write.
* **The index tolerates torn tails.**  Readers parse complete JSON
  lines and skip anything malformed (counted in ``torn_lines``);
  writers terminate an unterminated tail with a newline before
  appending, so one torn record never corrupts its successors.
* **Readers are lock-free.**  They track their byte offset and
  incrementally parse new appends; a shrunken or replaced file
  (compaction) triggers a full reload.  Only writers take the
  advisory lock, so a shared store never blocks analysis reads.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

try:  # pragma: no cover - absent on some platforms
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None

__all__ = ["DiskStore", "StoreCorrupt"]

#: Compact once the log holds this many dead lines beyond the live set.
_COMPACT_SLACK = 64


class StoreCorrupt(Exception):
    """A checksummed read failed validation (torn or flipped bytes)."""


class DiskStore:
    """One store directory; see the module docstring for invariants."""

    def __init__(self, root, chaos=None):
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.index_path = self.root / "index.log"
        self.lock_path = self.root / "lock"
        self.schema_path = self.root / "schema"
        self.chaos = chaos
        self._index: dict[str, str] = {}
        self._offset = 0
        self._ino: int | None = None
        self._lines = 0
        self._tmp_counter = 0
        self.torn_lines = 0
        self.compactions = 0

    def open(self, schema: int) -> None:
        """Create the layout (idempotent), verify the schema marker,
        sweep orphaned temp files, and load the index.  A temp file is
        an orphan only when the process named in it has died: another
        process opening the same store may be mid-write."""
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        if self.schema_path.exists():
            text = self.schema_path.read_text().strip()
            if text != str(schema):
                raise StoreCorrupt(
                    f"store layout version {text!r} != expected {schema}"
                )
        else:
            self._write_file(self.schema_path, f"{schema}\n".encode())
        for directory in (self.objects_dir, self.root):
            for orphan in directory.glob("tmp-*"):
                if _writer_alive(orphan.name):
                    continue
                try:
                    orphan.unlink()
                except OSError:
                    pass
        self.refresh()

    # ------------------------------------------------------------------
    # Index
    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Fold any new index appends into the in-memory map."""
        try:
            stat = os.stat(self.index_path)
        except FileNotFoundError:
            self._index.clear()
            self._offset = 0
            self._ino = None
            self._lines = 0
            return
        if stat.st_ino != self._ino or stat.st_size < self._offset:
            # Compacted or replaced underneath us: full reload.
            self._index.clear()
            self._offset = 0
            self._ino = stat.st_ino
            self._lines = 0
        if stat.st_size == self._offset:
            return
        with open(self.index_path, "rb") as handle:
            handle.seek(self._offset)
            chunk = handle.read()
        self._offset += len(chunk)
        for line in chunk.split(b"\n"):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
                lookup, digest = entry["k"], entry["o"]
                if not (isinstance(lookup, str) and isinstance(digest, str)):
                    raise ValueError("non-string index entry")
            except (ValueError, KeyError, TypeError):
                self.torn_lines += 1
                continue
            self._index[lookup] = digest
            self._lines += 1

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, lookup: str) -> bool:
        return lookup in self._index

    # ------------------------------------------------------------------
    # Reads (lock-free)
    # ------------------------------------------------------------------
    def get(self, lookup: str) -> "bytes | None":
        """The checksum-verified payload the index maps *lookup* to, or
        None on a miss.  Raises :class:`StoreCorrupt` on a bad object."""
        self.refresh()
        digest = self._index.get(lookup)
        if digest is None:
            return None
        return self.get_object(digest)

    def get_object(self, digest: str) -> bytes:
        """Read + verify one content-addressed object."""
        path = self.objects_dir / f"{digest}.json"
        try:
            data = path.read_bytes()
        except FileNotFoundError as exc:
            raise StoreCorrupt(f"object {digest[:12]} missing") from exc
        from repro.store.codec import payload_digest

        if payload_digest(data) != digest:
            self._quarantine(digest, path)
            raise StoreCorrupt(f"object {digest[:12]} fails its checksum")
        return data

    def _quarantine(self, digest: str, path: Path) -> None:
        """Drop a corrupt object so a later record can rewrite it.  The
        on-disk index may still reference it; ``put`` re-appends after a
        local drop, which also repairs other processes' views."""
        try:
            path.unlink()
        except OSError:
            pass
        for lookup, mapped in list(self._index.items()):
            if mapped == digest:
                del self._index[lookup]

    # ------------------------------------------------------------------
    # Writes (advisory-locked)
    # ------------------------------------------------------------------
    def put(self, lookup: str, payload: bytes) -> bool:
        """Persist *payload* and map *lookup* to it.  Returns False when
        the identical mapping is already durable (warm re-records are
        free)."""
        from repro.store.codec import payload_digest

        digest = payload_digest(payload)
        object_path = self.objects_dir / f"{digest}.json"
        if self._index.get(lookup) == digest and object_path.exists():
            return False
        self.put_object(payload, digest)
        with self._writer_lock():
            self.refresh()
            if self._index.get(lookup) != digest or not object_path.exists():
                if self.chaos is not None:
                    self.chaos("pre-index", self.index_path)
                self._append_index_line(lookup, digest)
                self._index[lookup] = digest
            if self._lines > 2 * len(self._index) + _COMPACT_SLACK:
                self._compact()
        return True

    def put_object(self, payload: bytes, digest: "str | None" = None) -> str:
        """Write one content-addressed object (atomic, idempotent)."""
        from repro.store.codec import payload_digest

        if digest is None:
            digest = payload_digest(payload)
        path = self.objects_dir / f"{digest}.json"
        if path.exists():
            return digest
        self._tmp_counter += 1
        tmp = self.objects_dir / f"tmp-{os.getpid()}-{self._tmp_counter}"
        with open(tmp, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        if self.chaos is not None:
            self.chaos("pre-rename", tmp)
        os.replace(tmp, path)
        self._fsync_dir(self.objects_dir)
        if self.chaos is not None:
            self.chaos("post-object", path)
        return digest

    def _append_index_line(self, lookup: str, digest: str) -> None:
        line = json.dumps({"k": lookup, "o": digest}).encode() + b"\n"
        with open(self.index_path, "ab") as handle:
            # Terminate a torn tail left by a crashed writer so the
            # junk bytes become one skippable line, not a prefix of
            # ours.
            handle.seek(0, os.SEEK_END)
            if handle.tell() > 0:
                with open(self.index_path, "rb") as reader:
                    reader.seek(-1, os.SEEK_END)
                    if reader.read(1) != b"\n":
                        handle.write(b"\n")
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())
            self._offset = handle.tell()
        stat = os.stat(self.index_path)
        self._ino = stat.st_ino
        self._lines += 1

    def _compact(self) -> None:
        """Rewrite the log to the live set (caller holds the lock)."""
        lines = b"".join(
            json.dumps({"k": k, "o": o}).encode() + b"\n"
            for k, o in sorted(self._index.items())
        )
        self._write_file(self.index_path, lines)
        stat = os.stat(self.index_path)
        self._offset = stat.st_size
        self._ino = stat.st_ino
        self._lines = len(self._index)
        self.compactions += 1

    def _write_file(self, path: Path, data: bytes) -> None:
        tmp = path.with_name(f"tmp-{os.getpid()}-{path.name}")
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        self._fsync_dir(path.parent)

    @staticmethod
    def _fsync_dir(path: Path) -> None:
        try:  # pragma: no cover - platform-dependent
            fd = os.open(path, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    def _writer_lock(self):
        return _FlockGuard(self.lock_path)


def _writer_alive(tmp_name: str) -> bool:
    """Whether another live process wrote the temp file *tmp_name*
    (``tmp-<pid>-...``).  This process has no write in flight while it
    opens the store, so its own leftovers count as orphans."""
    try:
        pid = int(tmp_name.split("-")[1])
    except (IndexError, ValueError):
        return False
    if pid == os.getpid():
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


class _FlockGuard:
    """Advisory exclusive lock; a no-op where flock is unavailable."""

    def __init__(self, path: Path):
        self.path = path
        self.fd: int | None = None

    def __enter__(self):
        if fcntl is not None:
            self.fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
            fcntl.flock(self.fd, fcntl.LOCK_EX)
        return self

    def __exit__(self, *exc_info):
        if self.fd is not None:
            try:
                fcntl.flock(self.fd, fcntl.LOCK_UN)
            finally:
                os.close(self.fd)
                self.fd = None
        return False
