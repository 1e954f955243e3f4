"""``repro client`` — a blocking HTTP client for the audit service.

Stdlib-socket only (the server side is asyncio; the client has no
reason to be).  One request per connection, mirroring the server's
``Connection: close`` discipline.  The high-level helpers return the
response body *exactly* as received, because the body of a successful
audit is the same byte string ``repro witness --json`` prints — callers
(the CLI, the differential harness, the soak driver, the fleet
dispatcher) compare it verbatim.

Failure taxonomy
----------------

The fleet dispatcher (:mod:`repro.service.fleet`) retries and ejects
nodes based on *which way* a request failed, so the client distinguishes
three subclasses of :class:`ClientError`:

* :class:`ClientConnectionError` — the connection could not be
  established, or died mid-exchange (refused, reset, broken pipe after
  a partial ``send``).  The node itself is suspect: retry elsewhere,
  eject on repetition.
* :class:`ClientTruncationError` — the node answered, but the body is
  provably incomplete (shorter than ``Content-Length``, or a 2xx with
  no ``Content-Length`` at all — our server always sends one, so its
  absence means the connection dropped mid-body and EOF is
  indistinguishable from completion).  The response is garbage but the
  node may be fine: retry the same node.
* :class:`ClientDeadlineError` — the **wall-clock** deadline fired.
  ``timeout`` bounds the whole exchange, not each socket operation: a
  server dripping one byte per ``timeout - ε`` seconds cannot keep the
  client alive indefinitely, because the per-operation socket timeout
  shrinks to the time remaining before every ``send``/``recv``.
"""

from __future__ import annotations

import json
import socket
import time
from typing import Any, Dict, Iterator, Optional, Tuple

__all__ = [
    "ClientConnectionError",
    "ClientDeadlineError",
    "ClientError",
    "ClientStatusError",
    "ClientTruncationError",
    "audit",
    "audit_stream",
    "healthz",
    "request",
    "stats",
]

_MAX_RESPONSE_BYTES = 1024 * 1024 * 1024
_RECV_CHUNK = 65536


class ClientError(Exception):
    """Connection-level or protocol-level failure talking to the server."""


class ClientConnectionError(ClientError):
    """Could not reach the server, or the connection died mid-exchange.

    The node is suspect (dead process, partitioned host): the fleet
    dispatcher counts these toward permanent ejection.
    """


class ClientTruncationError(ClientError):
    """The response body is provably incomplete.

    Either shorter than its ``Content-Length``, or a 2xx response with
    no ``Content-Length`` header — which our server never emits, so the
    body may have been cut anywhere.  Retryable against the same node.
    """


class ClientDeadlineError(ClientError):
    """The wall-clock deadline for the whole exchange fired."""


class ClientStatusError(ClientError):
    """The server refused the audit with an error status.

    A refused stream (validation failure, unknown engine, Bean-level
    error) arrives as an ordinary ``Content-Length`` body instead of a
    chunked NDJSON stream; the fleet raises the same for a buffered
    non-200 answer.  The status and body ride on the exception so
    callers keep one failure taxonomy: 4xx is deterministic (same
    request fails everywhere), 5xx is worth a retry.
    """

    def __init__(self, status: int, body: str) -> None:
        super().__init__(f"HTTP {status}: {body.strip()}")
        self.status = status
        self.body = body


class _Deadline:
    """Wall-clock budget shared by every socket operation of one request."""

    __slots__ = ("timeout", "_expires", "_host", "_port")

    def __init__(self, timeout: float, host: str, port: int) -> None:
        self.timeout = timeout
        self._expires = time.monotonic() + timeout
        self._host = host
        self._port = port

    def remaining(self, op: str) -> float:
        left = self._expires - time.monotonic()
        if left <= 0:
            raise self.expired(op)
        return left

    def expired(self, op: str) -> ClientDeadlineError:
        return ClientDeadlineError(
            f"deadline of {self.timeout:g}s exceeded while {op} "
            f"({self._host}:{self._port})"
        )


def request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: Optional[bytes] = None,
    *,
    timeout: float = 300.0,
) -> Tuple[int, bytes]:
    """One HTTP exchange; returns ``(status, response_body)``.

    ``timeout`` is a **wall-clock deadline** for the whole exchange
    (connect + send + receive), not a per-socket-operation timeout:
    before every operation the socket timeout shrinks to the time left,
    so slow-dripping peers hit :class:`ClientDeadlineError` at
    ``timeout`` seconds regardless of how often single bytes arrive.
    """
    payload = body or b""
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host}:{port}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    deadline = _Deadline(timeout, host, port)
    try:
        sock = socket.create_connection(
            (host, port), timeout=deadline.remaining("connecting")
        )
    except (TimeoutError, socket.timeout) as exc:
        raise deadline.expired("connecting") from exc
    except OSError as exc:
        raise ClientConnectionError(f"cannot reach {host}:{port}: {exc}") from exc
    with sock:
        _send_all(sock, head.encode("latin-1") + payload, deadline)
        raw = _recv_all(sock, deadline)
    return _parse_response(raw)


def _send_all(sock: socket.socket, data: bytes, deadline: _Deadline) -> None:
    """``sendall`` under the wall-clock deadline, with failure taxonomy.

    A ``BrokenPipeError``/``ConnectionResetError`` after a *partial*
    send (server killed mid-request) must surface as the retryable
    :class:`ClientConnectionError`, never as a generic ``OSError``
    message — the dispatcher's eject-vs-retry decision depends on it.
    """
    view = memoryview(data)
    while view:
        sock.settimeout(deadline.remaining("sending the request"))
        try:
            sent = sock.send(view)
        except (TimeoutError, socket.timeout) as exc:
            raise deadline.expired("sending the request") from exc
        except OSError as exc:
            # Covers BrokenPipeError / ConnectionResetError and any
            # other transport-level death mid-send.
            raise ClientConnectionError(
                f"connection died mid-request after "
                f"{len(data) - len(view)} of {len(data)} bytes: {exc}"
            ) from exc
        view = view[sent:]


def _recv_all(sock: socket.socket, deadline: _Deadline) -> bytes:
    chunks = []
    total = 0
    while True:
        sock.settimeout(deadline.remaining("reading the response"))
        try:
            chunk = sock.recv(_RECV_CHUNK)
        except (TimeoutError, socket.timeout) as exc:
            raise deadline.expired("reading the response") from exc
        except OSError as exc:
            raise ClientConnectionError(
                f"connection died mid-response: {exc}"
            ) from exc
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)
        total += len(chunk)
        if total > _MAX_RESPONSE_BYTES:
            raise ClientError("response too large")


def _parse_response(raw: bytes) -> Tuple[int, bytes]:
    head_blob, sep, rest = raw.partition(b"\r\n\r\n")
    if not sep:
        # The connection closed before the headers completed: the node
        # answered something, but not a whole response — retryable like
        # any other truncation.
        raise ClientTruncationError(
            "truncated response: connection closed before the header "
            "terminator"
        )
    head_lines = head_blob.decode("latin-1").split("\r\n")
    status_parts = head_lines[0].split(" ", 2)
    if len(status_parts) < 2 or not status_parts[1].isdigit():
        raise ClientError(f"malformed status line: {head_lines[0]!r}")
    status = int(status_parts[1])
    length: Optional[int] = None
    for line in head_lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            try:
                length = int(value.strip())
            except ValueError:
                raise ClientError(f"bad Content-Length: {value!r}")
    if length is None:
        if 200 <= status < 300:
            # Our server always sends Content-Length; its absence on a
            # success means the header block (and so possibly the body)
            # was cut — EOF cannot certify completeness, so reading to
            # EOF and accepting the bytes would silently truncate.
            raise ClientTruncationError(
                "2xx response without Content-Length: cannot distinguish "
                "a complete body from a dropped connection"
            )
        return status, rest
    if len(rest) < length:
        raise ClientTruncationError(
            f"truncated response body: got {len(rest)} of {length} bytes"
        )
    return status, rest[:length]


class _StreamReader:
    """Incremental socket reader under the shared wall-clock deadline.

    The buffered helpers above read whole responses; a streamed audit
    has to hand lines upward *while the connection is open*, so this
    reader exposes exactly the two primitives chunked transfer decoding
    needs.  EOF mid-read raises :class:`ClientTruncationError` — before
    the terminal chunk, a closed connection proves the stream is
    incomplete.
    """

    __slots__ = ("_sock", "_deadline", "_buffer", "_eof", "_total")

    def __init__(self, sock: socket.socket, deadline: _Deadline) -> None:
        self._sock = sock
        self._deadline = deadline
        self._buffer = b""
        self._eof = False
        self._total = 0

    def _fill(self) -> bool:
        if self._eof:
            return False
        self._sock.settimeout(self._deadline.remaining("reading the stream"))
        try:
            chunk = self._sock.recv(_RECV_CHUNK)
        except (TimeoutError, socket.timeout) as exc:
            raise self._deadline.expired("reading the stream") from exc
        except OSError as exc:
            raise ClientConnectionError(
                f"connection died mid-stream: {exc}"
            ) from exc
        if not chunk:
            self._eof = True
            return False
        self._buffer += chunk
        self._total += len(chunk)
        if self._total > _MAX_RESPONSE_BYTES:
            raise ClientError("response too large")
        return True

    def read_until(self, sep: bytes, what: str) -> bytes:
        while sep not in self._buffer:
            if not self._fill():
                raise ClientTruncationError(
                    f"truncated stream: connection closed while reading {what}"
                )
        data, _, self._buffer = self._buffer.partition(sep)
        return data

    def read_exactly(self, n: int, what: str) -> bytes:
        while len(self._buffer) < n:
            if not self._fill():
                raise ClientTruncationError(
                    f"truncated stream: connection closed while reading {what}"
                )
        data, self._buffer = self._buffer[:n], self._buffer[n:]
        return data

    def read_to_eof(self) -> bytes:
        while self._fill():
            pass
        data, self._buffer = self._buffer, b""
        return data


def audit_stream(
    host: str,
    port: int,
    spec: Dict[str, Any],
    *,
    timeout: float = 300.0,
) -> Iterator[Dict[str, Any]]:
    """POST one streaming audit; yield parsed NDJSON lines as they land.

    The generator connects lazily on first iteration, decodes the
    chunked transfer encoding incrementally (an NDJSON line may span
    chunk frames), and yields each line as a parsed object — header,
    rows, trailer, in wire order.  Completion is proven by the terminal
    chunk: EOF before it raises :class:`ClientTruncationError`
    (retryable against the same node).  A buffered response in place of
    a stream — the server refusing the request — raises
    :class:`ClientStatusError` carrying the status and body.
    """
    payload = json.dumps(spec).encode("utf-8")
    head = (
        f"POST /audit HTTP/1.1\r\n"
        f"Host: {host}:{port}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    deadline = _Deadline(timeout, host, port)
    try:
        sock = socket.create_connection(
            (host, port), timeout=deadline.remaining("connecting")
        )
    except (TimeoutError, socket.timeout) as exc:
        raise deadline.expired("connecting") from exc
    except OSError as exc:
        raise ClientConnectionError(f"cannot reach {host}:{port}: {exc}") from exc
    with sock:
        _send_all(sock, head.encode("latin-1") + payload, deadline)
        reader = _StreamReader(sock, deadline)
        head_blob = reader.read_until(b"\r\n\r\n", "the response head")
        head_lines = head_blob.decode("latin-1").split("\r\n")
        status_parts = head_lines[0].split(" ", 2)
        if len(status_parts) < 2 or not status_parts[1].isdigit():
            raise ClientError(f"malformed status line: {head_lines[0]!r}")
        status = int(status_parts[1])
        headers: Dict[str, str] = {}
        for line in head_lines[1:]:
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        if headers.get("transfer-encoding", "").lower() != "chunked":
            # A buffered answer where a stream was asked for: the
            # server rejected the request before the first chunk.
            length_text = headers.get("content-length")
            if length_text is None:
                if 200 <= status < 300:
                    raise ClientTruncationError(
                        "2xx response without Content-Length: cannot "
                        "distinguish a complete body from a dropped "
                        "connection"
                    )
                body = reader.read_to_eof()
            else:
                try:
                    length = int(length_text)
                except ValueError:
                    raise ClientError(f"bad Content-Length: {length_text!r}")
                body = reader.read_exactly(length, "the error body")
            raise ClientStatusError(status, body.decode("utf-8", "replace"))
        pending = b""
        while True:
            size_line = reader.read_until(b"\r\n", "a chunk size")
            try:
                size = int(size_line.split(b";", 1)[0], 16)
            except ValueError:
                raise ClientError(f"bad chunk size line: {size_line!r}")
            if size == 0:
                break  # terminal chunk: the stream is complete
            pending += reader.read_exactly(size, "a chunk body")
            reader.read_exactly(2, "a chunk terminator")
            # One split per chunk: a chunk carries thousands of lines,
            # and peeling them off one partition at a time would copy
            # the rest of the chunk per line.
            *lines, pending = pending.split(b"\n")
            for line in lines:
                if line.strip():
                    yield json.loads(line.decode("utf-8"))
        if pending.strip():
            yield json.loads(pending.decode("utf-8"))


def audit(
    host: str,
    port: int,
    spec: Dict[str, Any],
    *,
    timeout: float = 300.0,
) -> Tuple[int, str]:
    """POST one audit request; returns ``(status, body_text)``."""
    body = json.dumps(spec).encode("utf-8")
    status, raw = request(
        host, port, "POST", "/audit", body, timeout=timeout
    )
    return status, raw.decode("utf-8")


def healthz(host: str, port: int, *, timeout: float = 30.0) -> Dict[str, Any]:
    """GET /healthz, parsed."""
    return _get_json(host, port, "/healthz", "health check", timeout)


def stats(host: str, port: int, *, timeout: float = 30.0) -> Dict[str, Any]:
    """GET /stats, parsed (queue depths, cache and audit counters)."""
    return _get_json(host, port, "/stats", "stats probe", timeout)


def _get_json(
    host: str, port: int, path: str, what: str, timeout: float
) -> Dict[str, Any]:
    status, raw = request(host, port, "GET", path, timeout=timeout)
    if status != 200:
        raise ClientError(f"{what} failed with HTTP {status}")
    result = json.loads(raw.decode("utf-8"))
    if not isinstance(result, dict):
        raise ClientError(f"{what} returned a non-object")
    return result
