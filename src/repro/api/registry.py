"""The engine registry: one pluggable catalogue of audit engines.

Before this module existed the four witness entry points were wired to
three hand-maintained copies of the same string list — the service's
``ENGINES`` tuple, the CLI ``--engine`` choices, and the cross-engine
parity harness.  Now there is exactly one source of truth: engines are
:func:`register_engine`-ed here (the built-ins in
:mod:`repro.api.builtin`, further ones by plugins or tests), every
consumer derives its engine set from :func:`engines` /
:func:`engine_names`, and resolving an unregistered name raises the
uniform :class:`~repro.api.errors.UnknownEngineError` on every surface
(Python API, CLI, HTTP 400).

An engine is any object satisfying the :class:`Engine` protocol: a
``name``, an :class:`EngineCaps` capability record, and an
``audit(request)`` method mapping one :class:`AuditRequest` to an
:class:`~repro.api.result.AuditResult`.  Capability flags are what
consumers branch on instead of name lists — the CLI decides whether to
send batch rows from ``caps.batched``, the parity harness keeps slow
multiprocess engines out of its hypothesis inner loop via
``caps.multiprocess``, and the README's engine table is generated by
:func:`format_engine_table`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Mapping,
    Optional,
    Protocol,
    Tuple,
    Type,
    TypeVar,
    Union,
    runtime_checkable,
)

from ..core import ast_nodes as A
from .errors import UnknownEngineError

if TYPE_CHECKING:
    from .result import AuditResult

__all__ = [
    "AuditRequest",
    "Engine",
    "EngineCaps",
    "engine_names",
    "engines",
    "format_engine_table",
    "get_engine",
    "register_engine",
    "unregister_engine",
]


@dataclass(frozen=True)
class EngineCaps:
    """Capability flags of one registered engine.

    ``batched`` — consumes environment *rows* (one environment per row)
    rather than a single environment; ``multiprocess`` — fans work out
    to worker processes (honours ``workers`` / ``mp_context``);
    ``needs_numpy`` — requires NumPy at audit time; ``static`` — a static
    analyzer: never executes the program, produces no per-row witness,
    returns sound bounds instead (its ``inputs`` are hypotheses such as
    interval ranges, not environments); ``remote`` — a dispatcher that
    forwards audits to external ``repro serve`` nodes rather than
    executing locally (consumers that fan over the registry — the
    parity harness, the soak driver, every-engine tests — skip it
    unless a node pool is wired up); ``rows`` — can materialize the
    schema-v5 per-row witness section (``collect_rows`` requests and
    the streaming serving path are valid only for these engines).
    """

    batched: bool = False
    multiprocess: bool = False
    needs_numpy: bool = False
    static: bool = False
    remote: bool = False
    rows: bool = False
    description: str = ""


@dataclass(frozen=True)
class AuditRequest:
    """One fully-resolved audit, as handed to an engine adapter.

    The :class:`~repro.api.session.Session` resolves everything
    user-facing (roundoff spellings, default workers, the definition
    name) before an engine sees the request; adapters consume concrete
    values only.  ``u`` is the unit roundoff as a float; ``inputs`` is
    one environment for scalar engines and per-parameter row batches
    for ``caps.batched`` engines.
    """

    program: A.Program
    definition: A.Definition
    inputs: Mapping[str, Any]
    u: float
    precision_bits: int = 53
    workers: int = 2
    mp_context: Optional[str] = None
    #: materialize the schema-v5 per-row witness section (engines with
    #: ``caps.rows`` only).
    collect_rows: bool = False
    #: significand widths the sweep engine audits, strictly increasing;
    #: ``None`` means the engine's default list.
    sweep_bits: Optional[Tuple[int, ...]] = None
    #: the session's :class:`~repro.semantics.pool.ShardWorkerPool` for
    #: multiprocess engines; ``None`` runs the shards on a transient
    #: pool.  Results are byte-identical either way.
    pool: Optional[Any] = None


@runtime_checkable
class Engine(Protocol):
    """What the registry stores: a named, capability-flagged auditor."""

    name: str
    caps: EngineCaps

    def audit(self, request: AuditRequest) -> "AuditResult": ...


#: The one catalogue (insertion-ordered: registration order is the
#: canonical display/choice order everywhere).
_REGISTRY: Dict[str, Engine] = {}

_E = TypeVar("_E", bound=Union[Engine, Type[Engine]])


def _ensure_builtin() -> None:
    """Idempotently register the built-in engines.

    Importing :mod:`repro.api` does this eagerly; the guard covers
    callers that import :mod:`repro.api.registry` directly.
    """
    from . import builtin  # noqa: F401  (import side effect registers)


def register_engine(
    name: str,
    *,
    batched: bool = False,
    multiprocess: bool = False,
    needs_numpy: bool = False,
    static: bool = False,
    remote: bool = False,
    rows: bool = False,
    description: str = "",
    replace: bool = False,
) -> Callable[[_E], _E]:
    """Class/instance decorator adding an engine to the registry.

    A decorated class is instantiated once (no-arg constructor); a
    decorated instance is stored as-is.  ``name`` and the capability
    record are stamped onto the stored engine.  Registering a taken
    name raises ``ValueError`` unless ``replace=True``.
    """
    caps = EngineCaps(
        batched=batched,
        multiprocess=multiprocess,
        needs_numpy=needs_numpy,
        static=static,
        remote=remote,
        rows=rows,
        description=description,
    )

    def decorate(obj: _E) -> _E:
        # Runtime duck-typing on purpose: obj may be a class (to
        # instantiate) or a ready-made instance; the protocol's name
        # and caps are stamped on either way.
        engine: Any = obj() if isinstance(obj, type) else obj
        engine.name = name
        engine.caps = caps
        if name in _REGISTRY and not replace:
            raise ValueError(
                f"engine {name!r} is already registered "
                "(pass replace=True to override)"
            )
        _REGISTRY[name] = engine
        return obj

    return decorate


def unregister_engine(name: str) -> Engine:
    """Remove and return a registered engine (tests, plugin teardown)."""
    _ensure_builtin()
    try:
        return _REGISTRY.pop(name)
    except KeyError:
        raise UnknownEngineError(name, _REGISTRY) from None


def engines() -> Dict[str, Engine]:
    """A name → engine snapshot of the registry, in registration order."""
    _ensure_builtin()
    return dict(_REGISTRY)


def engine_names() -> Tuple[str, ...]:
    """The registered engine names, in registration order."""
    _ensure_builtin()
    return tuple(_REGISTRY)


def get_engine(name: str) -> Engine:
    """Resolve one engine; raises :class:`UnknownEngineError` otherwise."""
    _ensure_builtin()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownEngineError(name, _REGISTRY) from None


def format_engine_table() -> str:
    """The engine registry as a Markdown table, straight from the flags.

    The README embeds this output verbatim (a test keeps the two in
    sync), so registering an engine is all it takes to document it.
    """
    header = (
        "| engine | batched rows | multi-process | needs numpy | static "
        "| per-row witnesses | role |",
        "|--------|--------------|---------------|-------------|--------"
        "|-------------------|------|",
    )
    yn = {True: "yes", False: "no"}
    rows = []
    for name, engine in engines().items():
        caps = engine.caps
        role = caps.description or "-"
        rows.append(
            f"| `{name}` | {yn[caps.batched]} | {yn[caps.multiprocess]} "
            f"| {yn[caps.needs_numpy]} | {yn[caps.static]} | {yn[caps.rows]} "
            f"| {role} |"
        )
    return "\n".join(header + tuple(rows))
