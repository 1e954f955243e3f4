"""The HTTP layer of the audit service.

A minimal HTTP/1.1 request reader and response writer over asyncio
streams, stdlib-only.  The protocol subset is deliberately tiny (no
keep-alive pipelining guarantees beyond one request per connection;
chunked transfer encoding on *responses* only, for the NDJSON row
stream) but speaks well enough HTTP that ``curl`` works against the
server.
The JSON *payload* layer — the canonical rendering of witness reports
the CLI prints and the server serves, byte for byte — lives in
:mod:`repro.api.result`.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

__all__ = [
    "HttpError",
    "Request",
    "http_chunk",
    "http_last_chunk",
    "http_response",
    "http_stream_head",
    "read_request",
]

#: Hard limits against hostile or broken peers.
MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 256 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
}


# --------------------------------------------------------------------------
# Minimal HTTP/1.1 over asyncio streams
# --------------------------------------------------------------------------


class HttpError(Exception):
    """A malformed or oversized request, mapped to a 4xx response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> Any:
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}")


async def read_request(
    reader: asyncio.StreamReader,
    writer: Optional[asyncio.StreamWriter] = None,
) -> Optional[Request]:
    """Parse one request from the stream (``None`` on a clean EOF).

    With ``writer`` given, an ``Expect: 100-continue`` header gets the
    interim ``100 Continue`` response before the body is read —
    otherwise curl (which sends the header for bodies over 1 KiB, i.e.
    any realistic batch audit) stalls ~1 s per request waiting for it.
    """
    try:
        header_blob = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # connection closed between requests
        raise HttpError(400, "truncated request head")
    except asyncio.LimitOverrunError:
        raise HttpError(413, "request head too large")
    if len(header_blob) > MAX_HEADER_BYTES:
        raise HttpError(413, "request head too large")
    lines = header_blob.decode("latin-1").split("\r\n")
    request_parts = lines[0].split(" ")
    if len(request_parts) != 3 or not request_parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line: {lines[0]!r}")
    method, path, _version = request_parts
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise HttpError(400, f"bad Content-Length: {length_text!r}")
    if length < 0 or length > MAX_BODY_BYTES:
        raise HttpError(413, "request body too large")
    if (
        writer is not None
        and "100-continue" in headers.get("expect", "").lower()
    ):
        writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        await writer.drain()
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HttpError(400, "truncated request body")
    return Request(method=method.upper(), path=path, headers=headers, body=body)


def http_response(
    status: int,
    body: bytes,
    *,
    content_type: str = "application/json",
) -> bytes:
    """Serialize one HTTP/1.1 response (connection: close)."""
    reason = _REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


def http_stream_head(
    status: int = 200,
    *,
    content_type: str = "application/x-ndjson",
) -> bytes:
    """The head of a chunked streaming response.

    No ``Content-Length`` — the body length is unknown when the head
    goes out; chunked transfer encoding is what lets the client tell a
    complete stream (terminal chunk seen) from a dropped connection.
    """
    reason = _REASONS.get(status, "Unknown")
    return (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        "Transfer-Encoding: chunked\r\n"
        "Connection: close\r\n"
        "\r\n"
    ).encode("latin-1")


def http_chunk(data: bytes) -> bytes:
    """One chunked-transfer frame (empty input frames nothing — a
    zero-length chunk would terminate the stream)."""
    if not data:
        return b""
    return f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n"


def http_last_chunk() -> bytes:
    """The terminal chunk: the client's proof the stream completed."""
    return b"0\r\n\r\n"
