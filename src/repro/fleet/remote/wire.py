"""JSON-over-HTTP plumbing shared by the store, coordinator, and clients.

Everything is stdlib (``http.server`` / ``http.client``): the protocol is
a handful of small JSON request/response bodies plus raw artifact bytes
with an ``X-Repro-SHA256`` integrity header, so no dependency is worth
its weight.  Servers are :class:`ThreadingHTTPServer` subclasses -- one
OS thread per in-flight request over a lock-guarded state object -- which
is plenty for a coordinator whose requests are millisecond bookkeeping
ops, and for a store whose requests are single-file reads/writes.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from http.client import HTTPConnection, HTTPResponse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional, Union
from urllib.parse import urlparse

__all__ = [
    "WireError",
    "Endpoint",
    "parse_endpoint",
    "request",
    "request_json",
    "JsonRequestHandler",
    "BackgroundServer",
    "TOKEN_HEADER",
    "TOKEN_ENV",
    "default_token",
]

#: response body limit: artifacts are condensed-JSON run results (KBs);
#: anything larger is a malfunction, not a payload
MAX_BODY = 256 * 1024 * 1024

#: base of the linear delay between connection retries, in seconds
RETRY_DELAY = 0.2

#: shared-secret auth: every fleet service checks this header when started
#: with a token; every client attaches it (``--token`` flag or environment)
TOKEN_HEADER = "X-Repro-Token"
TOKEN_ENV = "REPRO_FLEET_TOKEN"


def default_token() -> Optional[str]:
    """The ambient shared secret (``REPRO_FLEET_TOKEN``), if any."""
    return os.environ.get(TOKEN_ENV) or None


class WireError(ConnectionError):
    """A request that could not complete (refused, reset, timed out)."""


class Endpoint:
    """A ``host:port`` pair, parsed once, printable back."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = int(port)

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Endpoint {self.address}>"


def parse_endpoint(value: Union[str, Endpoint]) -> Endpoint:
    """Parse one ``host:port``, ``:port`` (localhost), or an ``http://``
    URL; a comma-separated list is rejected."""
    if isinstance(value, Endpoint):
        return value
    text = value.strip()
    if text.startswith(("http://", "https://")):
        parsed = urlparse(text)
        if parsed.port is None:
            raise ValueError(f"endpoint URL needs an explicit port: {value!r}")
        return Endpoint(parsed.hostname or "127.0.0.1", parsed.port)
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit() or "," in host:
        raise ValueError(f"malformed endpoint {value!r}; want one host:port")
    return Endpoint(host or "127.0.0.1", int(port))


def request(
    endpoint: Union[str, Endpoint],
    method: str,
    path: str,
    body: Optional[bytes] = None,
    headers: Optional[dict] = None,
    *,
    timeout: float = 30.0,
    retries: int = 0,
) -> tuple[int, dict, bytes]:
    """One HTTP round trip; returns ``(status, headers, body)``.

    ``retries`` re-attempts connection-level failures (a worker racing a
    coordinator that has not bound its socket yet) with a linear delay;
    HTTP-level errors (4xx/5xx) are returned, not raised -- routing on
    status codes is the caller's job.

    The ambient shared secret (``REPRO_FLEET_TOKEN``) is attached as the
    :data:`TOKEN_HEADER` automatically unless the caller set one, so every
    fleet client -- pool, worker, store client, watch -- authenticates
    without threading a token argument through each call site.
    """
    endpoint = parse_endpoint(endpoint)
    headers = dict(headers or {})
    if TOKEN_HEADER not in headers:
        token = default_token()
        if token:
            headers[TOKEN_HEADER] = token
    last: Optional[Exception] = None
    for attempt in range(retries + 1):
        conn = HTTPConnection(endpoint.host, endpoint.port, timeout=timeout)
        try:
            conn.request(method, path, body=body, headers=headers)
            response: HTTPResponse = conn.getresponse()
            data = response.read(MAX_BODY)
            return response.status, dict(response.headers), data
        except (ConnectionError, socket.timeout, OSError) as exc:
            last = exc
            if attempt < retries:
                time.sleep(RETRY_DELAY * (attempt + 1))
        finally:
            conn.close()
    raise WireError(
        f"{method} http://{endpoint.address}{path} failed after "
        f"{retries + 1} attempt(s): {type(last).__name__}: {last}"
    )


def request_json(
    endpoint: Union[str, Endpoint],
    method: str,
    path: str,
    payload: Any = None,
    *,
    timeout: float = 30.0,
    retries: int = 0,
) -> tuple[int, dict]:
    """JSON request/response round trip; returns ``(status, parsed_body)``.
    Non-JSON bodies come back as ``{"raw": <text>}`` so callers always get
    a dict to route on."""
    body = None
    headers = {}
    if payload is not None:
        body = json.dumps(payload).encode()
        headers["Content-Type"] = "application/json"
    status, _, data = request(
        endpoint, method, path, body, headers, timeout=timeout, retries=retries
    )
    if not data:
        return status, {}
    try:
        return status, json.loads(data.decode())
    except (ValueError, UnicodeDecodeError):
        return status, {"raw": data.decode(errors="replace")}


class JsonRequestHandler(BaseHTTPRequestHandler):
    """Request-handler base: silent logs, JSON helpers, body reader.

    Subclasses override ``do_GET`` / ``do_POST`` (and ``do_HEAD`` /
    ``do_PUT`` for raw-bytes endpoints), route on ``self.path`` and answer
    through :meth:`send_json` or :meth:`send_bytes`.
    """

    protocol_version = "HTTP/1.1"
    server_version = "repro-fleet"

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # request logging goes through the owning service, not stderr

    def _authorized(self) -> bool:
        """Shared-secret gate: services started with a ``token`` 401 any
        request missing the matching :data:`TOKEN_HEADER`.  ``/health``
        handlers skip this (liveness probes stay credential-free)."""
        service = getattr(self.server, "service", None)
        token = getattr(service, "token", None)
        if not token or self.headers.get(TOKEN_HEADER) == token:
            return True
        self.send_json(401, {
            "error": "unauthorized",
            "hint": f"pass --token / set {TOKEN_ENV}",
        })
        return False

    def read_body(self) -> bytes:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0 or length > MAX_BODY:
            return b""
        return self.rfile.read(length)

    def read_json(self) -> dict:
        data = self.read_body()
        if not data:
            return {}
        try:
            parsed = json.loads(data.decode())
        except (ValueError, UnicodeDecodeError):
            return {}
        return parsed if isinstance(parsed, dict) else {}

    def send_json(self, status: int, payload: Any) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def send_bytes(self, status: int, data: bytes, headers: Optional[dict] = None,
                   *, head_only: bool = False) -> None:
        self.send_response(status)
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        if not head_only:
            self.wfile.write(data)


class _FleetHTTPServer(ThreadingHTTPServer):
    # the socketserver default backlog (5) drops connections when a whole
    # worker pool leases or uploads at once; queue them instead
    request_queue_size = 128


class BackgroundServer:
    """A ThreadingHTTPServer plus the daemon thread driving it.

    ``start()`` binds (port 0 picks a free port -- tests and single-host
    topologies), ``shutdown()`` unwinds; ``with`` does both.  Subclass
    services hold their state object and hand the handler class a back
    reference via the server instance.  A non-empty ``token`` makes every
    handler that calls :meth:`JsonRequestHandler._authorized` reject
    unauthenticated requests with 401.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 *, token: Optional[str] = None) -> None:
        self._requested = (host, port)
        self.token = token or None
        self.httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    def _handler_class(self):  # pragma: no cover - subclasses override
        raise NotImplementedError

    def start(self) -> "BackgroundServer":
        if self.httpd is not None:
            return self
        self.httpd = _FleetHTTPServer(self._requested, self._handler_class())
        self.httpd.daemon_threads = True
        self.httpd.service = self  # type: ignore[attr-defined] - handler back ref
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
            name=f"{type(self).__name__}:{self.port}",
        )
        self._thread.start()
        return self

    @property
    def port(self) -> int:
        return self.httpd.server_address[1] if self.httpd else self._requested[1]

    @property
    def host(self) -> str:
        return self._requested[0]

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def url(self) -> str:
        return f"http://{self.address}"

    def serve_forever(self) -> None:
        """Foreground mode (the CLI entry points): start and block."""
        self.start()
        try:
            self._thread.join()
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            self.shutdown()

    def shutdown(self) -> None:
        if self.httpd is not None:
            self.httpd.shutdown()
            self.httpd.server_close()
            self.httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()
