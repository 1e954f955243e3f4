"""``repro serve`` — the concurrent audit server.

One long-lived process amortizes every per-program cost the CLI pays on
each invocation: interpreter and NumPy startup, parsing, typechecking,
IR lowering and inlining, grade inference.  The server keeps prepared
programs in memory (coalescing concurrent preparations of the same
program hash into a single task) and dispatches audits through the
exact CLI code path (one :class:`repro.api.Session` resolving engines
from the shared registry), so every response body is bitwise identical
to the one-shot ``repro witness --json`` output.

Protocol (HTTP/1.1, JSON bodies)::

    POST /audit    {"source": "...bean text...", "inputs": {...},
                    "name": null, "engine": "batch", "workers": 2,
                    "precision_bits": 53, "u": "2^-53"}
                   (every option of repro.api.options.OPTIONS)
    GET  /healthz  liveness + uptime counters
    GET  /stats    request/coalescing/pool statistics

Audit responses carry 200 (all rows sound), 200 with ``"sound": false``
bodies still being valid audits; 400 for malformed requests, 422 for
Bean-level errors (parse/type/input), 404/405 elsewhere.  CPU-bound
audit work runs on thread pools, keeping the event loop free to accept
and coalesce further requests — and the pools are **engine-aware**:
audits whose engine has the ``batched`` or ``multiprocess`` capability
(long vectorized runs, shard fan-outs) dispatch to a separately bounded
"heavy" pool (``--heavy-threads``), so cheap scalar and static audits
never queue behind them.  ``GET /stats`` exposes both queue depths.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import os
import threading
from typing import Any, Dict, List, Optional, Tuple, Union

from ..api import Session, UnknownEngineError, options
from ..api.result import (
    render_payload,
    render_stream_line,
    stream_header_of_payload,
    stream_trailer_of_payload,
)
from ..api.stream import (
    DEFAULT_CHUNK_ROWS,
    batch_row_count,
    merge_stream_trailers,
    ramp_chunk_bounds,
)
from ..core import BeanError, ast_nodes as A, check_program, parse_program
from ..lam_s.eval import EvalError
from ..semantics.lens import LensDomainError
from .fingerprint import fingerprint_source
from .protocol import (
    HttpError,
    Request,
    http_chunk,
    http_last_chunk,
    http_response,
    http_stream_head,
    read_request,
)

__all__ = ["AuditServer", "ServerHandle", "serve"]

#: Prepared programs kept in memory (each entry is one parsed+checked
#: program; eviction costs a re-parse and re-check on re-entry).
MAX_PREPARED_PROGRAMS = 128


class _Prepared:
    """A parsed and checked program, ready to audit."""

    __slots__ = ("program", "key")

    def __init__(self, program: A.Program, key: str) -> None:
        self.program = program
        self.key = key


class _StreamPlan:
    """A validated streaming audit, ready to chunk onto the wire.

    ``_handle_audit`` returns one of these instead of a ``(status,
    body)`` pair when the spec set ``stream``; the connection handler
    turns it into a chunked NDJSON response, auditing one row-slice at
    a time so the held state is one chunk's payload plus the running
    trailer aggregates — never the full row set.
    """

    __slots__ = (
        "session", "program", "name", "kwargs", "n_rows", "pool",
        "pool_counter",
    )

    def __init__(
        self,
        session: Session,
        program: A.Program,
        name: Optional[str],
        kwargs: Dict[str, Any],
        n_rows: int,
        pool: concurrent.futures.ThreadPoolExecutor,
        pool_counter: str,
    ) -> None:
        self.session = session
        self.program = program
        self.name = name
        self.kwargs = kwargs
        self.n_rows = n_rows
        self.pool = pool
        self.pool_counter = pool_counter

    def chunk_auditor(self, lo: int, hi: int):
        """A thread-pool body auditing rows ``[lo, hi)`` with rows on."""

        def run() -> Dict[str, Any]:
            kwargs = dict(self.kwargs)
            kwargs["inputs"] = {
                name: rows[lo:hi] for name, rows in self.kwargs["inputs"].items()
            }
            kwargs["rows"] = True
            result = self.session.audit(self.program, self.name, **kwargs)
            payload = result.payload
            if payload.get("rows") is None:
                raise ValueError(
                    f"engine {kwargs['engine']!r} produced no rows section "
                    "to stream"
                )
            return payload

        return run


class AuditServer:
    """The asyncio audit server.  See the module docstring for protocol."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        threads: Optional[int] = None,
        heavy_threads: Optional[int] = None,
        default_workers: int = 2,
        max_request_workers: Optional[int] = None,
        max_prepared: Optional[int] = None,
        stream_chunk_rows: Optional[int] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.default_workers = default_workers
        if max_prepared is None:
            max_prepared = MAX_PREPARED_PROGRAMS
        if max_prepared < 1:
            raise ValueError("max_prepared must be a positive integer")
        self.max_prepared = max_prepared
        if stream_chunk_rows is None:
            stream_chunk_rows = DEFAULT_CHUNK_ROWS
        if stream_chunk_rows < 1:
            raise ValueError("stream_chunk_rows must be a positive integer")
        self.stream_chunk_rows = stream_chunk_rows
        # A client chooses its shard width, but not without bound: each
        # spawned worker is a fresh interpreter + NumPy import, so an
        # unbounded 'workers' field would let one request exhaust the
        # host.  Over-cap requests are rejected, never clamped.
        if max_request_workers is None:
            max_request_workers = max(os.cpu_count() or 1, 8)
        self.max_request_workers = max_request_workers
        # One Session owns the audit-side cross-cutting state,
        # including the shard workers every sharded request leases —
        # the warm-worker analogue of the prepared-program table.  At
        # most ``heavy_threads`` sharded audits run at once, each on at
        # most ``max_request_workers`` workers, which bounds the pool.
        # Never fork a multi-threaded server: a forked shard worker can
        # inherit a lock some other thread holds.
        self.session = Session(workers=default_workers, mp_context="spawn")
        self.stats: Dict[str, int] = {
            "requests": 0,
            "audits": 0,
            "audits_light": 0,
            "audits_heavy": 0,
            "audits_streamed": 0,
            "audits_composed": 0,
            "inline_fallback_sites": 0,
            "audit_failures": 0,
            "prep_hits": 0,
            "prep_misses": 0,
            "http_errors": 0,
        }
        self._prep_tasks: "Dict[str, asyncio.Task[_Prepared]]" = {}
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=threads, thread_name_prefix="repro-audit"
        )
        # Engine-aware scheduling: audits whose engine is batched or
        # multiprocess (long vectorized runs, shard fan-outs) go to a
        # separately *bounded* pool, so cheap scalar and static audits
        # never queue behind them.  Two heavy audits at a time is the
        # default — each sharded one already fans out processes.
        if heavy_threads is None:
            heavy_threads = 2
        if heavy_threads < 1:
            raise ValueError("heavy_threads must be a positive integer")
        self.heavy_threads = heavy_threads
        self._heavy_pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=heavy_threads, thread_name_prefix="repro-audit-heavy"
        )
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind and start serving (resolves ``port`` when it was 0)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._heavy_pool.shutdown(wait=False, cancel_futures=True)
        # Stop the shard workers.
        self.session.close()

    # -- connection handling ----------------------------------------------

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            try:
                request = await read_request(reader, writer)
            except HttpError as exc:
                self.stats["http_errors"] += 1
                writer.write(
                    http_response(
                        exc.status, _error_body(exc.message)
                    )
                )
                await writer.drain()
                return
            if request is None:
                return
            self.stats["requests"] += 1
            try:
                response = await self._route(request)
            except Exception as exc:  # noqa: BLE001 - see _handle_audit
                self.stats["http_errors"] += 1
                response = 500, _error_body(
                    f"internal error: {type(exc).__name__}: {exc}"
                )
            if isinstance(response, _StreamPlan):
                await self._write_stream(writer, response)
            else:
                status, body = response
                writer.write(http_response(status, body))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _route(
        self, request: Request
    ) -> "Union[Tuple[int, bytes], _StreamPlan]":
        if request.path == "/audit":
            if request.method != "POST":
                return 405, _error_body("POST /audit")
            return await self._handle_audit(request)
        if request.path == "/healthz":
            if request.method != "GET":
                return 405, _error_body("GET /healthz")
            return 200, self._render(self._health_payload())
        if request.path == "/stats":
            if request.method != "GET":
                return 405, _error_body("GET /stats")
            # pool_stats takes the pool lock, which is held while a
            # worker spawns; keep that wait off the event loop so
            # /stats polls never stall audits.
            loop = asyncio.get_running_loop()
            payload = await loop.run_in_executor(
                self._pool, self._stats_payload
            )
            return 200, self._render(payload)
        return 404, _error_body(f"no such endpoint: {request.path}")

    # -- endpoints ---------------------------------------------------------

    def _health_payload(self) -> Dict[str, Any]:
        return {
            "status": "ok",
            "prepared_programs": len(self._prep_tasks),
            "requests": self.stats["requests"],
            "audits": self.stats["audits"],
        }

    @staticmethod
    def _queue_stats(
        pool: concurrent.futures.ThreadPoolExecutor,
    ) -> Dict[str, Any]:
        # _work_queue/_max_workers are private but stable across every
        # supported CPython (getattr keeps typeshed out of it); depth
        # is what operators watch for backlog.
        work_queue = getattr(pool, "_work_queue", None)
        return {
            "workers": int(getattr(pool, "_max_workers", 0)),
            "depth": int(work_queue.qsize()) if work_queue is not None else 0,
        }

    def _stats_payload(self) -> Dict[str, Any]:
        from ..compose import default_store

        payload: Dict[str, Any] = {"server": dict(self.stats)}
        payload["prepared_programs"] = len(self._prep_tasks)
        # Composed audits go through the process-wide summary store, so
        # its hit/miss counters are this server's summary reuse.
        payload["summaries"] = dict(default_store().stats)
        payload["queues"] = {
            "light": self._queue_stats(self._pool),
            "heavy": self._queue_stats(self._heavy_pool),
        }
        # Shard workers: prepared-table traffic, crash restarts, and
        # shared-memory bytes in flight (empty before the first
        # sharded audit).
        payload["pool"] = self.session.pool_stats() or {}
        return payload

    async def _handle_audit(
        self, request: Request
    ) -> Union[Tuple[int, bytes], _StreamPlan]:
        try:
            spec = request.json()
        except HttpError as exc:
            self.stats["http_errors"] += 1
            return exc.status, _error_body(exc.message)
        try:
            source, name, kwargs, stream = _validate_audit_spec(
                spec,
                default_workers=self.default_workers,
                max_workers=self.max_request_workers,
            )
        except HttpError as exc:
            # A 422 is an option the engine cannot honor: an audit
            # failure, like the Bean-level 422s.
            failure = "audit_failures" if exc.status == 422 else "http_errors"
            self.stats[failure] += 1
            return exc.status, _error_body(exc.message)
        if stream:
            try:
                n_rows = batch_row_count(kwargs["inputs"])
            except ValueError as exc:
                self.stats["http_errors"] += 1
                return 400, _error_body(str(exc))
            try:
                prepared = await self._prepare(source)
            except Exception as exc:  # noqa: BLE001 - mapped below
                status, message = self._audit_failure(exc)
                return status, _error_body(message)
            pool, pool_counter = self._pool_for_engine(kwargs["engine"])
            return _StreamPlan(
                self.session, prepared.program, name, kwargs,
                n_rows, pool, pool_counter,
            )
        try:
            prepared = await self._prepare(source)
            loop = asyncio.get_running_loop()
            pool, pool_counter = self._pool_for_engine(kwargs["engine"])
            result = await loop.run_in_executor(
                pool,
                lambda: self.session.audit(prepared.program, name, **kwargs),
            )
        except Exception as exc:  # noqa: BLE001 - a crashed audit must
            # still answer the request: 4xx/500, never a dropped
            # connection.
            status, message = self._audit_failure(exc)
            return status, _error_body(message)
        self.stats["audits"] += 1
        self.stats[pool_counter] += 1
        if kwargs.get("compose"):
            self.stats["audits_composed"] += 1
        self.stats["inline_fallback_sites"] += sum(
            entry["sites"]
            for entry in result.payload.get("inline_fallbacks", ())
        )
        body = (render_payload(result.payload) + "\n").encode("utf-8")
        return 200, body

    def _audit_failure(self, exc: BaseException) -> Tuple[int, str]:
        """Map one audit-path exception to ``(status, message)``.

        The taxonomy is shared by the buffered and streaming paths:
        unknown engines stay client-side 400s listing the registered
        names (an engine can vanish between validation and dispatch
        when a plugin unregisters); Bean-level and ill-shaped-input
        errors are 422 (the CLI renders the same exceptions as
        ``error:`` lines); anything else is the 500 of last resort.
        """
        if isinstance(exc, UnknownEngineError):
            self.stats["http_errors"] += 1
            return 400, str(exc)
        if isinstance(exc, (BeanError, EvalError, LensDomainError)):
            self.stats["audit_failures"] += 1
            return 422, str(exc)
        if isinstance(exc, (ValueError, KeyError, OverflowError)):
            self.stats["audit_failures"] += 1
            message = exc.args[0] if exc.args else exc
            return 422, str(message)
        self.stats["audit_failures"] += 1
        return 500, f"internal error: {type(exc).__name__}: {exc}"

    async def _write_stream(
        self, writer: asyncio.StreamWriter, plan: _StreamPlan
    ) -> None:
        """Serve one audit as chunked NDJSON.

        The first chunk is audited **before** any bytes go out, so
        validation and evaluation errors still produce a well-formed
        4xx/500 response.  After the head is on the wire each further
        chunk is written and drained as it finishes (drain is the
        backpressure bound), and a mid-stream failure emits one
        ``{"stream_error": ...}`` line and closes **without** the
        terminal chunk — the client provably sees an incomplete body
        instead of mistaking the abort for a short batch.
        """
        loop = asyncio.get_running_loop()
        bounds = ramp_chunk_bounds(plan.n_rows, self.stream_chunk_rows)
        aggregate: Dict[str, Any] = {}
        head_sent = False
        for lo, hi in zip(bounds, bounds[1:]):
            try:
                payload = await loop.run_in_executor(
                    plan.pool, plan.chunk_auditor(lo, hi)
                )
                lines: List[str] = []
                if not head_sent:
                    header = dict(stream_header_of_payload(payload))
                    header["n_rows"] = plan.n_rows
                    lines.append(render_stream_line(header))
                    aggregate = stream_trailer_of_payload(payload)
                else:
                    aggregate = merge_stream_trailers(
                        aggregate, stream_trailer_of_payload(payload)
                    )
                lines.extend(
                    render_stream_line({**row, "row": row["row"] + lo})
                    for row in payload["rows"]
                )
            except Exception as exc:  # noqa: BLE001 - mapped below
                status, message = self._audit_failure(exc)
                if not head_sent:
                    writer.write(http_response(status, _error_body(message)))
                else:
                    writer.write(
                        http_chunk(
                            render_stream_line(
                                {"stream_error": message}
                            ).encode("utf-8")
                        )
                    )
                await writer.drain()
                return
            if not head_sent:
                writer.write(http_stream_head())
                head_sent = True
            writer.write(http_chunk("".join(lines).encode("utf-8")))
            await writer.drain()
        writer.write(http_chunk(render_stream_line(aggregate).encode("utf-8")))
        writer.write(http_last_chunk())
        await writer.drain()
        self.stats["audits"] += 1
        self.stats["audits_streamed"] += 1
        self.stats[plan.pool_counter] += 1
        if plan.kwargs.get("compose"):
            self.stats["audits_composed"] += 1

    def _pool_for_engine(
        self, engine: str
    ) -> Tuple[concurrent.futures.ThreadPoolExecutor, str]:
        """Route heavy (batched/multiprocess) engines to the bounded pool.

        An engine that vanished between validation and dispatch falls
        through to the light pool; the Session raises the uniform
        :class:`UnknownEngineError` there and the handler maps it to 400.
        """
        from ..api import engines

        resolved = engines().get(engine)
        if resolved is not None and (
            resolved.caps.batched or resolved.caps.multiprocess
        ):
            return self._heavy_pool, "audits_heavy"
        return self._pool, "audits_light"

    # -- program preparation (coalesced) ----------------------------------

    async def _prepare(self, source: str) -> _Prepared:
        """Parse + check ``source`` once per program hash.

        Concurrent requests for the same hash await one shared task;
        later requests hit the completed task's result directly.
        """
        key = fingerprint_source(source, kind="program")
        task = self._prep_tasks.get(key)
        if task is not None and not (task.done() and task.exception()):
            self.stats["prep_hits"] += 1
            return await task
        self.stats["prep_misses"] += 1
        loop = asyncio.get_running_loop()
        task = loop.create_task(self._prepare_uncoalesced(source, key))
        self._prep_tasks[key] = task
        if len(self._prep_tasks) > self.max_prepared:
            self._evict_prepared()
        try:
            return await task
        except BaseException:
            # A failed preparation must not poison the hash for retries.
            self._prep_tasks.pop(key, None)
            raise

    async def _prepare_uncoalesced(self, source: str, key: str) -> _Prepared:
        loop = asyncio.get_running_loop()

        def build() -> _Prepared:
            program = parse_program(source)
            check_program(program)  # typecheck + infer grades once
            return _Prepared(program, key)

        return await loop.run_in_executor(self._pool, build)

    def _evict_prepared(self) -> None:
        """Drop oldest finished programs over the cap (insertion order).

        In-flight preparations are never dropped; re-entry costs one
        re-parse and re-check.
        """
        excess = len(self._prep_tasks) - self.max_prepared
        if excess <= 0:
            return
        for key in list(self._prep_tasks):
            if excess <= 0:
                break
            if self._prep_tasks[key].done():
                del self._prep_tasks[key]
                excess -= 1

    @staticmethod
    def _render(payload: Dict[str, Any]) -> bytes:
        return (render_payload(payload) + "\n").encode("utf-8")


def _error_body(message: str) -> bytes:
    return (render_payload({"error": message}) + "\n").encode("utf-8")


def _validate_audit_spec(
    spec: Any, *, default_workers: int, max_workers: int
) -> Tuple[str, Optional[str], Dict[str, Any], bool]:
    """Turn an /audit request body into Session.audit kwargs.

    The fields of the program itself are checked here; every audit
    option goes through the one option table
    (:func:`repro.api.options.resolve`), whose rejections carry their
    own status (400 malformed, 422 conflicting).
    """
    if not isinstance(spec, dict):
        raise HttpError(400, "audit request must be a JSON object")
    source = spec.get("source")
    if not isinstance(source, str) or not source.strip():
        raise HttpError(400, "audit request needs a non-empty 'source'")
    inputs = spec.get("inputs")
    if not isinstance(inputs, dict):
        raise HttpError(400, "audit request needs an 'inputs' object")
    name = spec.get("name")
    if name is not None and not isinstance(name, str):
        raise HttpError(400, "'name' must be a string or null")
    try:
        kwargs = options.resolve(spec)
    except options.OptionError as exc:
        raise HttpError(exc.status, str(exc)) from None
    except UnknownEngineError as exc:
        # The one unknown-engine failure, uniform across surfaces: the
        # registry's error text becomes the HTTP 400 body.
        raise HttpError(400, str(exc)) from None
    unknown = set(spec) - {"source", "inputs", "name"} - set(options.OPTION)
    if unknown:
        raise HttpError(400, f"unknown request field(s): {sorted(unknown)}")
    workers = kwargs["workers"] or default_workers
    if workers > max_workers:
        # Rejecting (not clamping) preserves the byte-parity contract:
        # a served response always matches the CLI run it claims.
        raise HttpError(
            400,
            f"'workers' capped at {max_workers} on this server "
            "(--max-request-workers)",
        )
    stream = kwargs.pop("stream")
    kwargs["inputs"] = inputs
    return source, name, kwargs, stream


# --------------------------------------------------------------------------
# Embedding helpers (tests, benchmarks, the soak driver)
# --------------------------------------------------------------------------


class ServerHandle:
    """A server running on a background thread with its own event loop."""

    def __init__(self, server: AuditServer, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread) -> None:
        self.server = server
        self.loop = loop
        self.thread = thread
        self._stopped = False
        self._stop_lock = threading.Lock()

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def host(self) -> str:
        return self.server.host

    def stop(self, timeout: float = 10.0) -> None:
        """Shut the server down and end its loop thread.

        Idempotent: a repeated call returns at once.  After the loop has
        stopped, the shutdown runs on it from the calling thread instead
        of being scheduled on a loop that would never run (nor await)
        it.  The loop is closed once its thread has ended, so no
        unclosed-loop ``ResourceWarning`` fires when it is collected.
        """
        with self._stop_lock:
            if self._stopped:
                return
            self._stopped = True
        shutdown = self.server.stop()
        if not self.loop.is_running():
            self.thread.join(timeout=timeout)
            if self.thread.is_alive() or self.loop.is_closed():
                shutdown.close()  # no loop left to run it on
                return
            self.loop.run_until_complete(shutdown)
            self.loop.close()
            return
        future = asyncio.run_coroutine_threadsafe(shutdown, self.loop)
        try:
            future.result(timeout=timeout)
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(timeout=timeout)
            if not self.thread.is_alive():
                self.loop.close()


def serve(server: AuditServer, *, timeout: float = 30.0) -> ServerHandle:
    """Start ``server`` on a daemon thread; returns once it is bound."""
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def run() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        # Signal from inside the running loop, so a returned handle's
        # loop.is_running() is true until it is stopped.
        loop.call_soon(started.set)
        loop.run_forever()

    thread = threading.Thread(target=run, name="repro-serve", daemon=True)
    thread.start()
    if not started.wait(timeout):
        raise RuntimeError("audit server failed to start in time")
    return ServerHandle(server, loop, thread)
