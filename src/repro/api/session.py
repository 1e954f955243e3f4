"""The Session: one front door to the Bean toolchain.

A :class:`Session` owns the cross-cutting audit state that used to
travel as loose kwargs through four divergent entry points — simulated
precision / unit roundoff, the on-disk artifact cache directory, the
shard worker count and multiprocessing start method — and exposes the
pipeline as three methods::

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
import numbers
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core import ast_nodes as A

if TYPE_CHECKING:
    from ..semantics.pool import ShardWorkerPool
from ..core.checker import Judgment, check_program
from ..core.parser import parse_program
from .registry import AuditRequest, Engine, engines, get_engine
from .result import AuditResult
from .stream import RowStream

__all__ = [
    "MAX_PRECISION_BITS",
    "PRECISION_BITS_ERROR",
    "Session",
    "check_precision_bits",
    "parse_roundoff",
]


#: The widest significand a run can simulate.  Approximate arithmetic
#: runs in binary64; a wider format would be judged against a bound
#: that binary64's own rounding already exceeds — a bogus verdict.
MAX_PRECISION_BITS = 53

#: The one message every surface (Session, sweep widths, CLI, server)
#: rejects an unusable significand width with.
PRECISION_BITS_ERROR = (
    f"precision_bits must be an integer in [1, {MAX_PRECISION_BITS}]: "
    "binary64 arithmetic cannot simulate a wider significand"
)


def check_precision_bits(bits: object) -> int:
    """``bits`` as an int if a run can honor that width, else ValueError."""
    if isinstance(bits, bool) or not isinstance(bits, numbers.Integral):
        raise ValueError(PRECISION_BITS_ERROR)
    width = int(bits)
    if not 1 <= width <= MAX_PRECISION_BITS:
        raise ValueError(PRECISION_BITS_ERROR)
    return width


def _validate_limits(
    precision_bits: Optional[int], workers: Optional[int]
) -> None:
    if precision_bits is not None:
        check_precision_bits(precision_bits)
    if workers is not None and workers < 1:
        raise ValueError("workers must be a positive integer")


def _validate_sweep_bits(
    sweep_bits: Optional[Sequence[int]],
) -> Optional[Tuple[int, ...]]:
    """Normalize a sweep precision list: widths in [1, 53], strictly
    increasing (narrowest first, the order the sweep payload reports)."""
    if sweep_bits is None:
        return None
    widths = list(sweep_bits)
    if not widths:
        raise ValueError(
            "sweep precision list must name at least one significand width"
        )
    widths = [check_precision_bits(bits) for bits in widths]
    if any(a >= b for a, b in zip(widths, widths[1:])):
        raise ValueError(
            "sweep precision widths must be strictly increasing "
            f"(got {widths})"
        )
    return tuple(widths)


def _batch_row_count(inputs: Mapping[str, Any]) -> int:
    """The common row count of batch-shaped inputs; loud on mismatch."""
    n_rows: Optional[int] = None
    for name, value in inputs.items():
        try:
            length = len(value)
        except TypeError:
            raise ValueError(
                "streaming needs batch-shaped inputs (one row list per "
                f"parameter); {name!r} has no row count"
            ) from None
        if n_rows is None:
            n_rows = length
        elif length != n_rows:
            raise ValueError(
                f"input rows disagree: {name!r} has {length} row(s), "
                f"other inputs have {n_rows}"
            )
    if n_rows is None:
        raise ValueError("streaming needs at least one input column")
    return n_rows


def _validate_exact_backend(exact_backend: Optional[str]) -> None:
    if exact_backend is not None and exact_backend not in ("eft", "decimal"):
        raise ValueError(
            f"exact_backend must be 'eft' or 'decimal', got {exact_backend!r}"
        )


def parse_roundoff(text: Union[str, float, int]) -> float:
    """Accept '2^-53', '2**-53', or a literal float."""
    if isinstance(text, (int, float)):
        return float(text)
    text = text.strip()
    for marker in ("^", "**"):
        if marker in text:
            base, _, exponent = text.partition(marker)
            return float(base) ** float(exponent)
    return float(text)


class Session:
    """Shared audit configuration plus the parse/check/audit pipeline.

    Parameters mirror the CLI flags they replace: ``precision_bits``
    (simulated significand width; 53 = binary64), ``u`` (unit-roundoff
    override, accepting the CLI spellings ``"2^-24"`` / ``"2**-24"`` /
    a float; default ``2**-precision_bits``), ``cache_dir`` (on-disk
    artifact cache, activated lazily on first check/audit), ``workers``
    (default shard width for multiprocess engines) and ``mp_context``
    (multiprocessing start method; the audit server passes ``"spawn"``
    because forking a multi-threaded process can deadlock the child).

    A Session is cheap to construct and safe to reuse: reusing one
    across audits of the same parsed program keeps every identity-keyed
    IR cache warm (see ``benchmarks/bench_api.py`` for the measured
    win).  Per-call keyword overrides on :meth:`audit` never mutate the
    session.

    ``pool=True`` gives multiprocess engines a persistent
    :class:`~repro.semantics.pool.ShardWorkerPool` (created lazily on
    the first sharded audit, sized by ``pool_workers``): repeat audits
    reuse warm workers whose prepared-program tables skip pickling and
    re-lowering.  A ready-made pool instance can be passed instead to
    share one pool across sessions.  A session that created a pool owns
    it — call :meth:`close` (or use the session as a context manager)
    to shut the workers down.
    """

    def __init__(
        self,
        *,
        precision_bits: int = 53,
        u: Optional[Union[str, float]] = None,
        cache_dir: Optional[str] = None,
        workers: int = 2,
        mp_context: Optional[str] = None,
        compose: bool = False,
        pool: Union[bool, "ShardWorkerPool"] = False,
        pool_workers: Optional[int] = None,
    ) -> None:
        _validate_limits(precision_bits, workers)
        _validate_limits(None, pool_workers)
        self.precision_bits = precision_bits
        self.u = u
        self.cache_dir = cache_dir
        self.workers = workers
        self.mp_context = mp_context
        #: default for :meth:`audit`'s ``compose`` keyword — derive
        #: grades from cached per-definition summaries
        #: (:mod:`repro.compose`) instead of re-checking the program.
        self.compose = compose
        self.pool_workers = pool_workers
        self._pool: Optional["ShardWorkerPool"] = None
        self._owns_pool = False
        if pool is True:
            self._pool_enabled = True
        elif pool is False:
            self._pool_enabled = False
        else:
            self._pool_enabled = True
            self._pool = pool

    # -- configuration -----------------------------------------------------

    @property
    def roundoff(self) -> float:
        """The session's unit roundoff as a float."""
        if self.u is not None:
            return parse_roundoff(self.u)
        return 2.0**-self.precision_bits

    def engines(self) -> Dict[str, Engine]:
        """The engine registry snapshot (see :func:`repro.api.engines`)."""
        return engines()

    def _activate_cache(self) -> None:
        if self.cache_dir:
            from ..service.cache import activate

            activate(self.cache_dir)

    # -- the worker pool ---------------------------------------------------

    def _maybe_pool(self) -> Optional["ShardWorkerPool"]:
        """The session's pool, created lazily when pooling is enabled."""
        if not self._pool_enabled:
            return None
        if self._pool is None:
            from ..semantics.pool import ShardWorkerPool

            self._pool = ShardWorkerPool(
                self.pool_workers or self.workers,
                mp_context=self.mp_context or "spawn",
            )
            self._owns_pool = True
        return self._pool

    def pool_stats(self) -> Optional[Dict[str, int]]:
        """Counters of the session's pool; ``None`` before one exists."""
        if self._pool is None:
            return None
        return self._pool.stats()

    def close(self) -> None:
        """Shut down session-owned resources (the worker pool).

        Idempotent; a pool that was passed in ready-made is left
        running for its other users.
        """
        if self._pool is not None and self._owns_pool:
            self._pool.close()
        self._pool = None
        self._owns_pool = False

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
        self._activate_cache()
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
        exact_backend: Optional[str] = None,
        rows: bool = False,
        sweep_bits: Optional[Sequence[int]] = None,
        stream: bool = False,
        stream_chunk_rows: Optional[int] = None,
        compose: Optional[bool] = None,
    ) -> Union[AuditResult, RowStream]:
        """Audit ``name`` (default: the last definition) on ``inputs``.

        ``engine`` names any registered engine
        (:exc:`~repro.api.errors.UnknownEngineError` lists the choices
        otherwise).  For ``caps.batched`` engines each input is a batch
        of environment rows; otherwise it is one environment.  The
        keyword overrides apply to this call only.  ``exact_backend``
        (``"eft"`` / ``"decimal"``) picks the exact-arithmetic backend
        of the batched engines' backward/ideal sweeps; ``None`` defers
        to ``REPRO_EXACT_BACKEND`` and then the EFT default.  Results
        are bit-identical either way — the choice is about speed (and
        keeping the Decimal reference exercised).

        ``rows=True`` materializes the schema-v4 per-row witness
        section (engines with ``caps.rows`` only).  ``stream=True``
        returns a :class:`~repro.api.stream.RowStream` instead of a
        buffered result: iterate it for per-row witnesses as chunks of
        ``stream_chunk_rows`` environments finish (the ``remote``
        engine streams over the wire instead), then ``result()`` /
        ``text`` reassemble the exact buffered payload.  ``sweep_bits``
        overrides the ``sweep`` engine's significand-width list
        (strictly increasing widths in [1, 53]); like ``workers``, it
        rides on every request and engines that don't sweep ignore it.

        ``compose=True`` (default: the session's ``compose`` flag)
        derives the audited definition's grades by composing cached
        per-definition summaries at call sites (:mod:`repro.compose`)
        instead of re-checking the whole program — engines with
        ``caps.compose`` only.  The payload is byte-identical to the
        non-composed audit; the result's ``provenance`` records what
        composition reused, built, and how execution was planned.
        """
        resolved = get_engine(engine)
        # Per-call overrides face the same bounds as the constructor:
        # reject at the API boundary, not deep in an engine.
        _validate_limits(precision_bits, workers)
        _validate_exact_backend(exact_backend)
        swept = _validate_sweep_bits(sweep_bits)
        if stream:
            rows = True
        if rows and not resolved.caps.rows:
            capable = [
                n for n, e in engines().items() if e.caps.rows
            ]
            raise ValueError(
                f"engine {engine!r} cannot materialize per-row witnesses; "
                f"rows/stream need one of: {', '.join(capable)}"
            )
        composed = self.compose if compose is None else compose
        if composed and not resolved.caps.compose:
            capable = [n for n, e in engines().items() if e.caps.compose]
            raise ValueError(
                f"engine {engine!r} cannot compose summaries; "
                f"compose needs one of: {', '.join(capable)}"
            )
        if isinstance(program, str):
            program = self.parse(program)
        self._activate_cache()
        definition = program[name] if name else program.main
        bits = self.precision_bits if precision_bits is None else precision_bits
        spelled = self.u if u is None else u
        roundoff = (
            parse_roundoff(spelled) if spelled is not None else 2.0**-bits
        )
        request = AuditRequest(
            program=program,
            definition=definition,
            inputs=inputs,
            u=roundoff,
            precision_bits=bits,
            workers=self.workers if workers is None else workers,
            mp_context=self.mp_context,
            cache_dir=self.cache_dir,
            exact_backend=exact_backend,
            collect_rows=rows,
            sweep_bits=swept,
            compose=composed,
            pool=(
                self._maybe_pool() if resolved.caps.multiprocess else None
            ),
        )
        if not stream:
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
        from .stream import DEFAULT_CHUNK_ROWS, stream_audit_events

        if chunk_rows is None:
            chunk_rows = DEFAULT_CHUNK_ROWS
        if chunk_rows < 1:
            raise ValueError("stream_chunk_rows must be >= 1")
        if engine.caps.remote:
            return RowStream(engine.audit_stream(request))  # type: ignore[attr-defined]
        n_rows = _batch_row_count(request.inputs)
        inputs = request.inputs

        def audit_chunk(lo: int, hi: int) -> Dict[str, Any]:
            sliced = {name: value[lo:hi] for name, value in inputs.items()}
            sub = dataclasses.replace(request, inputs=sliced)
            return engine.audit(sub).payload

        return RowStream(
            stream_audit_events(audit_chunk, n_rows, chunk_rows=chunk_rows)
        )
