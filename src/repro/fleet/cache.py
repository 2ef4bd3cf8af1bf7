"""Content-addressed artifact stores: the pluggable backend protocol and
the local on-disk backend.

:class:`ArtifactStore` is the protocol every backend implements --
``get`` / ``put`` / ``has`` / ``stats`` -- so the scheduler, the sweep
driver, and the bench bodies are indifferent to *where* artifacts live:

* :class:`ResultCache` -- the local directory backend (layout below);
* :class:`~repro.fleet.remote.store.HTTPStore` -- the same four verbs
  over HTTP against a shared store server (``repro fleet store``), with
  digest verification on fetch and quarantine on corruption.

Local layout (under ``.repro-cache/`` by default, ``REPRO_CACHE_DIR``
overrides -- a ``http(s)://`` value selects the HTTP backend instead)::

    <root>/objects/<digest[:2]>/<digest>.json   one canonical-JSON artifact
    <root>/quarantine/<digest>.json             objects that failed verification
    <root>/events.jsonl                         fleet lifecycle log (appended)

Artifacts are keyed by :attr:`RunSpec.digest`, which is salted with the
source-tree hash, so a stale cache can never serve results from old code --
edits simply orphan the old objects (``gc`` collects them).  Writes are
atomic (temp file + ``os.replace`` in the same directory), so a crashed or
killed worker can never leave a half-written artifact behind, and two
workers racing on the same digest both land a complete, identical object.
A worker killed *between* creating its temp file and the rename does
strand the temp file; ``clean``/``gc`` sweep those (see
:meth:`ResultCache.sweep_tmp`).
"""

from __future__ import annotations

import abc
import hashlib
import os
import shutil
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

__all__ = [
    "ArtifactStore",
    "StoreIntegrityError",
    "ResultCache",
    "CacheStats",
    "default_cache_root",
    "content_sha256",
]

#: ``gc`` sweeps only temp files older than this many seconds, so it never
#: removes a concurrent put's in-flight file
GC_TMP_MAX_AGE = 3600.0


def default_cache_root() -> Union[Path, str]:
    """The configured store location: a local path, or an ``http(s)://``
    URL naming a remote artifact-store server."""
    configured = os.environ.get("REPRO_CACHE_DIR", ".repro-cache")
    if configured.startswith(("http://", "https://")):
        return configured
    return Path(configured)


def content_sha256(data: bytes) -> str:
    """The integrity checksum sent/verified on every HTTP store transfer."""
    return hashlib.sha256(data).hexdigest()


class StoreIntegrityError(RuntimeError):
    """An artifact fetched from a store failed verification (checksum or
    embedded-digest mismatch).  Callers treat the digest as a miss after
    the corrupt object has been quarantined."""

    def __init__(self, digest: str, detail: str) -> None:
        super().__init__(f"artifact {digest[:12]} failed verification: {detail}")
        self.digest = digest
        self.detail = detail


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    puts: int = 0
    evicted: int = 0

    @property
    def hit_rate(self) -> float:
        looked = self.hits + self.misses
        return self.hits / looked if looked else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evicted": self.evicted,
            "hit_rate": round(self.hit_rate, 4),
        }


class ArtifactStore(abc.ABC):
    """Content-addressed artifact storage: the four verbs every backend
    speaks, plus per-session hit/miss accounting in ``stats``.

    Backends must make ``put`` atomic and idempotent -- two writers racing
    on the same digest both land one complete object -- and ``get`` must
    return the exact bytes stored (HTTP backends verify a checksum and
    raise :class:`StoreIntegrityError` on corruption).
    """

    stats: CacheStats

    @abc.abstractmethod
    def get(self, digest: str) -> Optional[bytes]:
        """The stored bytes for ``digest``, or ``None`` on a miss."""

    @abc.abstractmethod
    def put(self, digest: str, data: bytes):
        """Store ``data`` under ``digest`` (atomic, idempotent)."""

    @abc.abstractmethod
    def has(self, digest: str) -> bool:
        """Existence probe that does not count toward hit/miss stats."""

    @abc.abstractmethod
    def describe(self) -> dict:
        """Store location, object count/size, and session stats."""


class ResultCache(ArtifactStore):
    """The local-directory backend: digest-addressed files with atomic
    writes, hit/miss stats, and clean/gc maintenance."""

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        if root is None:
            root = default_cache_root()
            if not isinstance(root, Path):
                raise ValueError(
                    f"REPRO_CACHE_DIR names a remote store ({root!r}); "
                    "construct it via repro.fleet.execute.default_cache()"
                )
        self.root = Path(root)
        self.stats = CacheStats()

    @property
    def objects_dir(self) -> Path:
        return self.root / "objects"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    @property
    def events_path(self) -> Path:
        return self.root / "events.jsonl"

    def _object_path(self, digest: str) -> Path:
        if len(digest) < 3 or any(c in digest for c in "/\\."):
            raise ValueError(f"malformed digest {digest!r}")
        return self.objects_dir / digest[:2] / f"{digest}.json"

    # -- read ----------------------------------------------------------------

    def get(self, digest: str) -> Optional[bytes]:
        try:
            data = self._object_path(digest).read_bytes()
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return data

    def has(self, digest: str) -> bool:
        return self._object_path(digest).exists()

    def digests(self) -> Iterator[str]:
        if not self.objects_dir.is_dir():
            return
        # is_file() guards against stray directories named *.json -- a
        # partially initialized or hand-mangled cache must degrade, not crash
        for path in sorted(self.objects_dir.glob("*/*.json")):
            if path.is_file():
                yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.digests())

    def size_bytes(self) -> int:
        if not self.objects_dir.is_dir():
            return 0
        total = 0
        for path in self.objects_dir.glob("*/*.json"):
            try:
                if path.is_file():
                    total += path.stat().st_size
            except OSError:  # racing clean/gc
                continue
        return total

    # -- write ---------------------------------------------------------------

    def put(self, digest: str, data: bytes) -> Path:
        """Atomically store ``data`` under ``digest``; returns the object path."""
        path = self._object_path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        # pid alone is not unique enough: the HTTP store serves concurrent
        # PUTs from threads of one process, which must not share a tmp name
        tmp = path.parent / (
            f".{path.name}.tmp.{os.getpid()}.{threading.get_ident()}"
        )
        tmp.write_bytes(data)
        os.replace(tmp, path)
        self.stats.puts += 1
        return path

    def quarantine(self, digest: str) -> bool:
        """Move a corrupt object out of ``objects/`` so subsequent gets miss
        (and the job re-executes); the evidence is kept under
        ``quarantine/`` for forensics.  Returns whether an object moved."""
        try:
            path = self._object_path(digest)
        except ValueError:
            return False
        if not path.is_file():
            return False
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        os.replace(path, self.quarantine_dir / path.name)
        self.stats.evicted += 1
        return True

    # -- maintenance ---------------------------------------------------------

    def tmp_files(self) -> Iterator[Path]:
        """Stranded atomic-write temp files (a worker killed between
        creating its temp file and the rename leaves one behind)."""
        if not self.objects_dir.is_dir():
            return
        for path in sorted(self.objects_dir.glob("*/.*.tmp.*")):
            if path.is_file():
                yield path

    def sweep_tmp(self, max_age: float = 0.0) -> int:
        """Remove stranded ``*.tmp.*`` files older than ``max_age`` seconds;
        returns the count removed.  ``gc`` uses an age threshold so a
        concurrent put's in-flight temp file is never swept from under it;
        ``clean`` removes everything regardless."""
        removed = 0
        cutoff = time.time() - max_age
        for path in list(self.tmp_files()):
            try:
                if max_age > 0 and path.stat().st_mtime > cutoff:
                    continue
                path.unlink()
                removed += 1
            except OSError:  # racing writer finished its rename
                continue
        return removed

    def clean(self) -> int:
        """Drop every cached artifact (and the events log); returns count
        removed (stranded temp files included).  Tolerant of a missing or
        partially initialized cache -- including an events path that is
        (wrongly) a directory."""
        removed = len(self) + sum(1 for _ in self.tmp_files())
        shutil.rmtree(self.objects_dir, ignore_errors=True)
        shutil.rmtree(self.quarantine_dir, ignore_errors=True)
        try:
            self.events_path.unlink()
        except FileNotFoundError:
            pass
        except (IsADirectoryError, PermissionError):
            # something non-file squatting on events.jsonl (seen after
            # interrupted setups); clean means clean
            shutil.rmtree(self.events_path, ignore_errors=True)
        return removed

    def gc(self, live: Iterable[str]) -> int:
        """Remove objects whose digest is not in ``live`` (code edits orphan
        old artifacts; this reclaims them) plus stranded temp files older
        than :data:`GC_TMP_MAX_AGE`.  Returns count removed."""
        keep = set(live)
        removed = 0
        for path in list(self.objects_dir.glob("*/*.json")) if self.objects_dir.is_dir() else []:
            if path.stem in keep:
                continue
            try:
                path.unlink(missing_ok=True)
            except (IsADirectoryError, PermissionError):
                # a directory masquerading as an object; reclaim it too
                shutil.rmtree(path, ignore_errors=True)
            removed += 1
        removed += self.sweep_tmp(max_age=GC_TMP_MAX_AGE)
        self.stats.evicted += removed
        return removed

    def describe(self) -> dict:
        return {
            "root": str(self.root),
            "objects": len(self),
            "size_bytes": self.size_bytes(),
            **self.stats.as_dict(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ResultCache {self.root} ({len(self)} objects)>"
