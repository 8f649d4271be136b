"""Minimal HTTP/1.1 over asyncio streams (stdlib-only).

Just enough protocol for the benchmark service and its load generator:
request-line + headers + ``Content-Length`` bodies, keep-alive by default,
bounded header/body sizes surfacing as :class:`ProtocolError` with the
right status code.  Chunked transfer encoding is deliberately not
supported — every client of this service sends small JSON bodies.

The server side is :func:`read_request` / :meth:`Response.render`; the
client side (:func:`request`, :class:`ClientConnection`) is shared by the
closed-loop load generator (``benchmarks/bench_serve.py``), the CI smoke
drill and the test suite.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field

MAX_HEADER_BYTES = 32 * 1024
MAX_BODY_BYTES = 8 * 1024 * 1024
MAX_REQUEST_LINE = 8 * 1024

STATUS_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class ProtocolError(Exception):
    """A malformed or over-limit HTTP request.

    Attributes:
        status: The HTTP status the server should answer with.
    """

    def __init__(self, status: int, reason: str) -> None:
        super().__init__(reason)
        self.status = status
        self.reason = reason


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    headers: dict[str, str]
    body: bytes = b""
    query: dict[str, str] = field(default_factory=dict)

    @property
    def keep_alive(self) -> bool:
        """HTTP/1.1 keep-alive semantics (``Connection: close`` opts out)."""
        return self.headers.get("connection", "").lower() != "close"

    def json(self) -> dict:
        """Decode the body as a JSON object (400 on anything else)."""
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(400, f"body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ProtocolError(400, "body must be a JSON object")
        return payload


@dataclass
class Response:
    """One HTTP response ready to render."""

    status: int
    body: bytes = b""
    content_type: str = "application/json"
    headers: dict[str, str] = field(default_factory=dict)

    def render(self, keep_alive: bool = True) -> bytes:
        reason = STATUS_REASONS.get(self.status, "Unknown")
        lines = [
            f"HTTP/1.1 {self.status} {reason}",
            f"Content-Type: {self.content_type}",
            f"Content-Length: {len(self.body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        lines.extend(f"{key}: {value}" for key, value in self.headers.items())
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        return head + self.body


def json_response(
    status: int, payload: dict, headers: dict[str, str] | None = None
) -> Response:
    """A JSON response with deterministic bytes (sorted keys, no spaces)."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    return Response(status=status, body=body, headers=dict(headers or {}))


async def read_request(
    reader: asyncio.StreamReader,
    max_header_bytes: int = MAX_HEADER_BYTES,
    max_body_bytes: int = MAX_BODY_BYTES,
) -> Request | None:
    """Read one request; ``None`` on a clean EOF before any bytes.

    Raises:
        ProtocolError: Malformed request line/headers (400), unsupported
            transfer encoding (501), or over-limit headers (431) / body
            (413).
    """
    # readline raises ValueError on a line longer than the stream's buffer
    # limit (64 KiB by default): an over-long line, answered with 431.
    try:
        line = await reader.readline()
    except (ConnectionResetError, asyncio.IncompleteReadError):
        return None
    except ValueError as exc:
        raise ProtocolError(431, "request line too long") from exc
    if not line:
        return None
    if len(line) > MAX_REQUEST_LINE:
        raise ProtocolError(431, "request line too long")
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(400, f"malformed request line: {line[:80]!r}")
    method, target = parts[0].upper(), parts[1]

    headers: dict[str, str] = {}
    total = 0
    while True:
        try:
            raw = await reader.readline()
        except ValueError as exc:
            raise ProtocolError(431, "headers exceed the configured limit") from exc
        if not raw:
            raise ProtocolError(400, "connection closed inside headers")
        total += len(raw)
        if total > max_header_bytes:
            raise ProtocolError(431, "headers exceed the configured limit")
        text = raw.decode("latin-1").rstrip("\r\n")
        if not text:
            break
        name, sep, value = text.partition(":")
        if not sep:
            raise ProtocolError(400, f"malformed header line: {text[:80]!r}")
        headers[name.strip().lower()] = value.strip()

    if "transfer-encoding" in headers:
        raise ProtocolError(501, "chunked transfer encoding not supported")
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError as exc:
            raise ProtocolError(400, "invalid Content-Length") from exc
        if length < 0:
            raise ProtocolError(400, "invalid Content-Length")
        if length > max_body_bytes:
            raise ProtocolError(413, "body exceeds the configured limit")
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError as exc:
                raise ProtocolError(400, "connection closed inside body") from exc

    # Routing uses the bare path; the query string is parsed into a dict
    # (last value wins) for parameterised endpoints like /debug/profile.
    path, _, query_string = target.partition("?")
    query: dict[str, str] = {}
    if query_string:
        from urllib.parse import parse_qsl

        query = dict(parse_qsl(query_string, keep_blank_values=True))
    return Request(
        method=method, path=path, headers=headers, body=body, query=query
    )


# ---------------------------------------------------------------------------
# Client side (load generator, smoke drills, tests)
# ---------------------------------------------------------------------------


def _render_request(
    method: str,
    path: str,
    body: bytes,
    keep_alive: bool,
    headers: dict[str, str] | None = None,
) -> bytes:
    lines = [
        f"{method} {path} HTTP/1.1",
        "Host: localhost",
        f"Content-Length: {len(body)}",
        "Content-Type: application/json",
    ]
    lines.extend(f"{key}: {value}" for key, value in (headers or {}).items())
    if not keep_alive:
        lines.append("Connection: close")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


async def _read_response(
    reader: asyncio.StreamReader,
) -> tuple[int, dict[str, str], bytes]:
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionResetError("server closed the connection")
    parts = status_line.decode("latin-1").split(None, 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise ValueError(f"malformed status line: {status_line!r}")
    status = int(parts[1])
    headers: dict[str, str] = {}
    while True:
        raw = await reader.readline()
        text = raw.decode("latin-1").rstrip("\r\n")
        if not text:
            break
        name, _, value = text.partition(":")
        headers[name.strip().lower()] = value.strip()
    body = b""
    if "content-length" in headers:
        body = await reader.readexactly(int(headers["content-length"]))
    return status, headers, body


class ClientConnection:
    """A keep-alive client connection (one closed-loop load-gen worker)."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def _ensure_open(self) -> None:
        if self._writer is None or self._writer.is_closing():
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )

    async def request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, dict[str, str], dict]:
        """Send one request; returns (status, headers, decoded JSON body)."""
        await self._ensure_open()
        body = (
            json.dumps(payload, sort_keys=True).encode("utf-8")
            if payload is not None
            else b""
        )
        self._writer.write(
            _render_request(method, path, body, keep_alive=True, headers=headers)
        )
        await self._writer.drain()
        status, headers, raw = await _read_response(self._reader)
        data = json.loads(raw) if raw else {}
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return status, headers, data

    async def abort(self) -> None:
        """Tear the connection down abruptly (client-disconnect drills)."""
        if self._writer is not None:
            self._writer.transport.abort()
            self._writer = None
            self._reader = None

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                self._writer = None  # already gone: nothing left to close
            self._writer = None
            self._reader = None

    async def __aenter__(self) -> "ClientConnection":
        await self._ensure_open()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()


async def request(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: dict | None = None,
) -> tuple[int, dict[str, str], dict]:
    """One-shot request on a fresh connection (convenience for drills)."""
    async with ClientConnection(host, port) as conn:
        return await conn.request(method, path, payload)
