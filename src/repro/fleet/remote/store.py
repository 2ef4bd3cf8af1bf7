"""The artifact-store client: content-addressed get/put over HTTP.

The coordinator (``repro fleet serve --cache DIR``) serves its
:class:`~repro.fleet.cache.ResultCache` under ``/artifacts/<digest>``
(see :mod:`.coordinator`).  :class:`HTTPStore` is the
:class:`ArtifactStore` protocol over those endpoints, so
``FleetScheduler``, ``run_cached`` and the bench bodies use a
coordinator's store exactly as they use the local directory
(``REPRO_CACHE_DIR=http://host:port`` switches the default; workers set it
for every job they fork).  Every fetch is verified twice: the body
checksum against the transfer header, and :func:`verify_artifact` on the
body.  A mismatch quarantines the object server-side (so the next get
misses and the job simply re-executes) and raises
:class:`StoreIntegrityError`.
"""

from __future__ import annotations

from typing import Optional

from ..cache import (
    ArtifactStore,
    CacheStats,
    StoreIntegrityError,
    content_sha256,
    verify_artifact,
)
from .wire import WireError, request, request_json

__all__ = ["HTTPStore", "CHECKSUM_HEADER"]

CHECKSUM_HEADER = "X-Repro-SHA256"


class HTTPStore(ArtifactStore):
    """:class:`ArtifactStore` against a coordinator's store.

    ``root`` mirrors :attr:`ResultCache.root` as the store's printable
    location (the URL), so code that propagates ``REPRO_CACHE_DIR`` via
    ``str(cache.root)`` is backend-indifferent.  ``stats`` count this
    client's session; the server's cumulative view is ``describe()``.
    """

    def __init__(self, url: str, *, timeout: float = 30.0, retries: int = 2) -> None:
        url = url.rstrip("/")
        if not url.startswith(("http://", "https://")):
            url = f"http://{url}"
        self.url = url
        self.timeout = timeout
        self.retries = retries
        self.stats = CacheStats()

    @property
    def root(self) -> str:
        return self.url

    def _request(self, method: str, path: str, body: Optional[bytes] = None,
                 headers: Optional[dict] = None) -> tuple[int, dict, bytes]:
        return request(
            self.url, method, path, body, headers,
            timeout=self.timeout, retries=self.retries,
        )

    # -- the store protocol --------------------------------------------------

    def get(self, digest: str) -> Optional[bytes]:
        status, headers, data = self._request("GET", f"/artifacts/{digest}")
        if status == 404:
            self.stats.misses += 1
            return None
        if status != 200:
            raise WireError(f"store GET {digest[:12]} -> HTTP {status}")
        claimed = headers.get(CHECKSUM_HEADER)
        try:
            if claimed and claimed != content_sha256(data):
                raise StoreIntegrityError(digest, "transfer checksum mismatch")
            verify_artifact(digest, data)
        except StoreIntegrityError:
            self.quarantine(digest)
            self.stats.misses += 1
            raise
        self.stats.hits += 1
        return data

    def put(self, digest: str, data: bytes) -> None:
        status, _, body = self._request(
            "PUT", f"/artifacts/{digest}", data,
            {CHECKSUM_HEADER: content_sha256(data)},
        )
        if status not in (200, 201):
            raise WireError(
                f"store PUT {digest[:12]} -> HTTP {status}: {body[:200]!r}"
            )
        self.stats.puts += 1

    def has(self, digest: str) -> bool:
        status, _, _ = self._request("HEAD", f"/artifacts/{digest}")
        return status == 200

    def quarantine(self, digest: str) -> bool:
        try:
            status, payload = request_json(
                self.url, "POST", f"/quarantine/{digest}",
                timeout=self.timeout, retries=self.retries,
            )
        except WireError:  # pragma: no cover - server vanished mid-fetch
            return False
        return status == 200 and bool(payload.get("quarantined"))

    def describe(self) -> dict:
        status, payload = request_json(
            self.url, "GET", "/stats", timeout=self.timeout, retries=self.retries
        )
        info = payload if status == 200 else {}
        return {
            "root": self.url,
            "objects": info.get("objects", 0),
            "size_bytes": info.get("size_bytes", 0),
            "server": info,
            **self.stats.as_dict(),
        }

    def health(self) -> dict:
        status, payload = request_json(
            self.url, "GET", "/health", timeout=self.timeout, retries=self.retries
        )
        if status != 200:
            raise WireError(f"store health -> HTTP {status}")
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<HTTPStore {self.url}>"
