"""The Session: one front door to the Bean toolchain.

A :class:`Session` owns the cross-cutting audit state that used to
travel as loose kwargs through four divergent entry points — simulated
precision / unit roundoff, the shard worker count and multiprocessing
start method — and exposes the pipeline as three methods::

    >>> from repro.api import Session
    >>> session = Session(precision_bits=53)
    >>> prog = session.parse("Scale (x : num) (y : num) : num := mul x y")
    >>> str(session.check(prog)["Scale"].grade_of("x"))
    'ε/2'
    >>> result = session.audit(prog, inputs={"x": 1.5, "y": 3.1})
    >>> result.sound, result.engine
    (True, 'ir')

``audit`` resolves its engine through the
:mod:`~repro.api.registry` — so every registered engine (built-in or
plugin) is reachable with the same call — and returns the versioned
:class:`~repro.api.result.AuditResult` whose JSON rendering is what the
CLI prints and the audit server serves, byte for byte.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Mapping,
    Optional,
    Sequence,
    Union,
)

from ..core import ast_nodes as A

if TYPE_CHECKING:
    from ..semantics.pool import ShardWorkerPool
from ..core.checker import Judgment, check_program
from ..core.parser import parse_program
from . import options
from .registry import AuditRequest, Engine, engines, get_engine
from .result import AuditResult
from .stream import RowStream, batch_row_count

__all__ = ["Session"]


class Session:
    """Shared audit configuration plus the parse/check/audit pipeline.

    Parameters mirror the CLI flags they replace: ``precision_bits``
    (simulated significand width; 53 = binary64), ``u`` (unit-roundoff
    override, accepting the CLI spellings ``"2^-24"`` / ``"2**-24"`` /
    a float; default ``2**-precision_bits``), ``workers`` (default
    shard width for multiprocess engines) and ``mp_context``
    (multiprocessing start method; the audit server passes ``"spawn"``
    because forking a multi-threaded process can deadlock the child).

    A Session is cheap to construct and safe to reuse: reusing one
    across audits of the same parsed program keeps every identity-keyed
    IR cache warm (see ``benchmarks/bench_api.py`` for the measured
    win).  Per-call keyword overrides on :meth:`audit` never mutate the
    session.

    Every session owns one
    :class:`~repro.semantics.pool.ShardWorkerPool` for its multiprocess
    engines.  It is created on the first sharded audit (with the
    session's ``mp_context``), keeps its workers warm across audits —
    a repeat fingerprint skips pickling and re-lowering — and lets
    concurrent audits from several threads run side by side.  Call
    :meth:`close` (or use the session as a context manager) to stop the
    workers.
    """

    def __init__(
        self,
        *,
        precision_bits: int = 53,
        u: Optional[Union[str, float]] = None,
        workers: int = 2,
        mp_context: Optional[str] = None,
    ) -> None:
        self.workers = options.OPTION["workers"].normalize(workers)
        self.precision_bits = options.check_precision_bits(precision_bits)
        options.OPTION["u"].normalize(u)
        self.u = u
        self.mp_context = mp_context
        self._pool: Optional["ShardWorkerPool"] = None
        self._pool_lock = threading.Lock()

    # -- configuration -----------------------------------------------------

    @property
    def roundoff(self) -> float:
        """The session's unit roundoff as a float."""
        if self.u is not None:
            return options.parse_roundoff(self.u)
        return 2.0**-self.precision_bits

    def engines(self) -> Dict[str, Engine]:
        """The engine registry snapshot (see :func:`repro.api.engines`)."""
        return engines()

    # -- the worker pool ---------------------------------------------------

    def _shard_pool(self) -> "ShardWorkerPool":
        """The session's pool, created on first use."""
        with self._pool_lock:
            if self._pool is None:
                from ..semantics.pool import ShardWorkerPool

                self._pool = ShardWorkerPool(mp_context=self.mp_context)
            return self._pool

    def pool_stats(self) -> Optional[Dict[str, int]]:
        """Counters of the session's pool; ``None`` before one exists."""
        pool = self._pool
        return None if pool is None else pool.stats()

    def close(self) -> None:
        """Stop the session's shard workers (idempotent).

        A later multiprocess audit starts a fresh pool.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- the pipeline ------------------------------------------------------

    def parse(self, source: str) -> A.Program:
        """Parse Bean source text into a program."""
        return parse_program(source)

    def check(self, program: Union[str, A.Program]) -> Dict[str, Judgment]:
        """Typecheck + infer backward error grades for every definition."""
        if isinstance(program, str):
            program = self.parse(program)
        return check_program(program)

    def audit(
        self,
        program: Union[str, A.Program],
        name: Optional[str] = None,
        *,
        inputs: Mapping[str, Any],
        engine: str = "ir",
        workers: Optional[int] = None,
        precision_bits: Optional[int] = None,
        u: Optional[Union[str, float]] = None,
        rows: bool = False,
        stream: bool = False,
        sweep_bits: Optional[Sequence[int]] = None,
        stream_chunk_rows: Optional[int] = None,
    ) -> Union[AuditResult, RowStream]:
        """Audit ``name`` (default: the last definition) on ``inputs``.

        ``engine`` names any registered engine
        (:exc:`~repro.api.errors.UnknownEngineError` lists the choices
        otherwise).  For ``caps.batched`` engines each input is a batch
        of environment rows; otherwise it is one environment.  The
        keyword overrides apply to this call only.

        ``rows=True`` materializes the schema-v5 per-row witness
        section (engines with ``caps.rows`` only).  ``stream=True``
        returns a :class:`~repro.api.stream.RowStream` instead of a
        buffered result: iterate it for per-row witnesses as chunks of
        ``stream_chunk_rows`` environments finish (the ``remote``
        engine streams over the wire instead), then ``result()`` /
        ``text`` reassemble the exact buffered payload.  ``sweep_bits``
        overrides the ``sweep`` engine's significand-width list
        (strictly increasing widths in [1, 53]); like ``workers``, it
        rides on every request and engines that don't sweep ignore it.

        Every keyword but ``inputs`` and ``stream_chunk_rows`` is an
        audit option of :data:`repro.api.options.OPTIONS`, validated
        there: a value no run can honor raises
        :class:`~repro.api.options.OptionError` (a ``ValueError``) with
        the message the CLI and the audit server give for it too.
        """
        # Every option, per-call or session default, faces the one
        # option table: reject at the API boundary, not deep in an
        # engine.
        opts = options.resolve(
            dict(engine=engine, workers=workers, precision_bits=precision_bits,
                 u=u, rows=rows, stream=stream,
                 sweep_bits=sweep_bits),
            dict(workers=self.workers, precision_bits=self.precision_bits,
                 u=self.u),
        )
        resolved = get_engine(opts["engine"])
        if isinstance(program, str):
            program = self.parse(program)
        definition = program[name] if name else program.main
        bits = opts["precision_bits"]
        request = AuditRequest(
            program=program,
            definition=definition,
            inputs=inputs,
            u=2.0**-bits if opts["u"] is None else opts["u"],
            precision_bits=bits,
            workers=opts["workers"],
            mp_context=self.mp_context,
            collect_rows=opts["rows"],
            sweep_bits=opts["sweep_bits"],
            pool=(
                self._shard_pool() if resolved.caps.multiprocess else None
            ),
        )
        if not opts["stream"]:
            return resolved.audit(request)
        return self._stream(resolved, request, stream_chunk_rows)

    def _stream(
        self,
        engine: Engine,
        request: AuditRequest,
        chunk_rows: Optional[int],
    ) -> RowStream:
        """Run one audit as a row stream.

        The ``remote`` engine streams NDJSON over the wire (the
        dispatcher interleaves split sub-streams in row order); local
        ``caps.rows`` engines audit row-contiguous input chunks and
        emit each chunk's witnesses as it finishes — first verdicts
        arrive after one chunk, not after the whole batch.
        """
        from .stream import (
            DEFAULT_CHUNK_ROWS,
            chunk_bounds,
            stream_audit_events,
        )

        if chunk_rows is None:
            chunk_rows = DEFAULT_CHUNK_ROWS
        if chunk_rows < 1:
            raise ValueError("stream_chunk_rows must be >= 1")
        if engine.caps.remote:
            return RowStream(engine.audit_stream(request))  # type: ignore[attr-defined]
        n_rows = batch_row_count(request.inputs)
        inputs = request.inputs

        def audit_chunk(lo: int, hi: int) -> Dict[str, Any]:
            sliced = {name: value[lo:hi] for name, value in inputs.items()}
            sub = dataclasses.replace(request, inputs=sliced)
            return engine.audit(sub).payload

        chunks = stream_audit_events(
            audit_chunk, chunk_bounds(n_rows, chunk_rows)
        )
        return RowStream(event for events in chunks for event in events)
