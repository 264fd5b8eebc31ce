"""Minimal HTTP health/metrics endpoint for the serving daemon.

Three read-only paths, served straight from the process:

* ``/healthz``     — JSON liveness document (state, queue depth, cursor);
* ``/metrics``     — the observability registry as Prometheus text;
* ``/stats.json``  — the same registry as the JSON snapshot format
  (re-renderable offline with ``infilter stats``).

This is deliberately not a web framework: one ``asyncio.start_server``
handler parses the request line, discards headers, answers, and closes.
It exists so a scrape target and a load-balancer health check cost the
deployment nothing beyond the stdlib.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Optional, Tuple

import asyncio

from repro.obs import (
    MetricsRegistry,
    get_logger,
    get_registry,
    render_json,
    render_prometheus,
)
from repro.util.errors import ServeError

__all__ = ["ObservabilityEndpoint"]

log = get_logger(__name__)

#: Paths the request counter is labelled with; anything else is "other".
_KNOWN_PATHS = ("/healthz", "/metrics", "/stats.json")

HealthProvider = Callable[[], Dict[str, object]]


class ObservabilityEndpoint:
    """The daemon's HTTP side-channel (health, metrics, stats)."""

    def __init__(
        self,
        *,
        health: HealthProvider,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self._health = health
        self._registry = registry if registry is not None else get_registry()
        self._server: Optional[asyncio.AbstractServer] = None
        self.address: Optional[Tuple[str, int]] = None
        self._m_requests = self._registry.counter(
            "infilter_serve_http_requests_total",
            "HTTP requests answered by the serve observability endpoint.",
            ("path",),
        )

    async def start(self, host: str, port: int) -> Tuple[str, int]:
        """Bind and serve; returns the bound ``(host, port)``."""
        if self._server is not None:
            raise ServeError("observability endpoint already started")
        self._server = await asyncio.start_server(self._handle, host, port)
        sockets = self._server.sockets
        if not sockets:  # pragma: no cover - start_server always binds one
            raise ServeError("observability endpoint bound no sockets")
        bound = sockets[0].getsockname()
        self.address = (str(bound[0]), int(bound[1]))
        log.info(
            "observability endpoint listening",
            extra={"host": self.address[0], "port": self.address[1]},
        )
        return self.address

    async def stop(self) -> None:
        """Stop accepting and close the listening socket."""
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None

    # -- request handling ----------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await self._read_request(reader)
            status, content_type, body = self._respond(request_line)
            head = (
                f"HTTP/1.1 {status}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n"
                "\r\n"
            )
            if request_line.startswith(b"HEAD "):
                # RFC 9110 9.3.2: the GET's status and headers, no content.
                body = b""
            writer.write(head.encode("ascii") + body)
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # the scraper went away; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - peer reset on close
                pass

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader) -> bytes:
        """The request line, once the whole request has been read.

        The response depends only on the path, but closing with input
        unread would reset the connection under the answer, so headers
        are drained to the blank line.  A line over the reader's limit
        makes the request malformed (``b""``); it is read to its end all
        the same.
        """
        request_line: Optional[bytes] = None
        while True:
            try:
                line = await reader.readline()
            except ValueError:
                request_line = b""
                continue
            if request_line is None:
                request_line = line
            if line in (b"\r\n", b"\n", b""):
                return request_line

    def _respond(self, request_line: bytes) -> Tuple[str, str, bytes]:
        parts = request_line.decode("latin-1", "replace").split()
        if len(parts) < 2:
            return "400 Bad Request", "text/plain", b"bad request\n"
        method, path = parts[0], parts[1]
        label = path if path in _KNOWN_PATHS else "other"
        self._m_requests.labels(path=label).inc()
        if method not in ("GET", "HEAD"):
            return "405 Method Not Allowed", "text/plain", b"GET only\n"
        if path == "/healthz":
            document = self._health()
            body = (json.dumps(document, sort_keys=True) + "\n").encode("utf-8")
            return "200 OK", "application/json", body
        if path == "/metrics":
            text = render_prometheus(self._registry)
            return "200 OK", "text/plain; version=0.0.4", text.encode("utf-8")
        if path == "/stats.json":
            text = render_json(self._registry) + "\n"
            return "200 OK", "application/json", text.encode("utf-8")
        return "404 Not Found", "text/plain", b"unknown path\n"
