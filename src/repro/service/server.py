"""Stdlib HTTP front for the certification service.

One thread per connection (``ThreadingHTTPServer``), which is exactly
right here: concurrency is bounded by the service's admission control,
not by the socket layer, and the handler does nothing but translate
documents.  Routes:

``POST /v1/verify``
    Body: a JSON request document (see ``docs/service.md``).  The
    response document comes straight from
    :meth:`~repro.service.core.CertificationService.submit`; the HTTP
    status is derived from it — 200 for ``ok``/``unknown``, 429 for
    ``shed`` (with a ``Retry-After`` header), and the
    :data:`~repro.service.protocol.ERROR_CODES` mapping for errors
    (503 quarantined carries ``Retry-After`` too).

``GET /v1/health``
    200 with the service's telemetry snapshot (counters, pool and
    breaker state, cache statistics).

``python -m repro serve`` builds a service from CLI flags and runs
:func:`serve`; tests use :func:`start_server` for an ephemeral-port
instance on a daemon thread.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.service.core import CertificationService, ServiceConfig
from repro.service.protocol import ERROR_CODES

__all__ = ["http_status_of", "make_server", "start_server", "serve"]

_MAX_BODY = 16 * 1024 * 1024


def http_status_of(response: dict) -> int:
    """The HTTP status a service response document maps to."""
    status = response.get("status")
    if status in ("ok", "unknown"):
        return 200
    if status == "shed":
        return 429
    code = (response.get("error") or {}).get("code", "internal")
    return ERROR_CODES.get(code, 500)


class _Handler(BaseHTTPRequestHandler):
    # Set by make_server on the handler subclass.
    service: CertificationService

    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # the service keeps counters; per-request stderr spam helps nobody

    def _send_json(self, status: int, doc: dict) -> None:
        body = json.dumps(doc).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        retry_after = doc.get("retry_after")
        if retry_after is not None and status in (429, 503):
            self.send_header("Retry-After", str(max(1, round(retry_after))))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802
        if self.path != "/v1/health":
            self._send_json(404, _err("bad-request", f"no route {self.path}"))
            return
        self._send_json(200, self.service.health())

    def do_POST(self) -> None:  # noqa: N802
        if self.path != "/v1/verify":
            self._send_json(404, _err("bad-request", f"no route {self.path}"))
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if not 0 < length <= _MAX_BODY:
            self._send_json(
                400, _err("bad-request", "missing or oversized body")
            )
            return
        raw = self.rfile.read(length)
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send_json(400, _err("bad-request", f"body is not JSON: {exc}"))
            return
        except RecursionError:
            self._send_json(400, _err("bad-request", "body is nested too deeply"))
            return
        response = self.service.submit(doc)
        self._send_json(http_status_of(response), response)


def _err(code: str, message: str) -> dict:
    return {"status": "error", "error": {"code": code, "message": message}}


def make_server(
    service: CertificationService, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """An HTTP server bound to ``host:port`` (0 = ephemeral) serving
    ``service``; caller owns both lifetimes."""
    handler = type("Handler", (_Handler,), {"service": service})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server


def start_server(
    service: CertificationService, host: str = "127.0.0.1", port: int = 0
) -> tuple[ThreadingHTTPServer, str]:
    """Serve on a daemon thread; returns ``(server, base_url)``.

    Tests and benchmarks call this, hit the URL, then
    ``server.shutdown()`` and ``service.close()``.
    """
    server = make_server(service, host, port)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    bound_host, bound_port = server.server_address[:2]
    return server, f"http://{bound_host}:{bound_port}"


def serve(
    config: ServiceConfig, host: str = "127.0.0.1", port: int = 8421
) -> None:
    """Run the service until interrupted (the CLI entry point)."""
    with CertificationService(config) as service:
        server = make_server(service, host, port)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.shutdown()
            server.server_close()
