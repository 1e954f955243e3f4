"""``repro.api`` — the public, versioned audit API.

One front door for everything the toolchain does, over the witness
runners (``run_witness``, ``run_witness_batch``,
``run_witness_sharded``) that would otherwise each re-map the same
options by hand::

    from repro.api import Session

    session = Session(precision_bits=53)
    program = session.parse(open("prog.bean").read())
    result = session.audit(program, inputs={"x": [1.5, 2.25]},
                           engine="ir")
    result.sound            # the soundness-theorem verdict
    result.to_json()        # == `repro witness --json` stdout,
                            # == the `repro serve` response body

The pieces:

* :class:`Session` (:mod:`repro.api.session`) — owns the cross-cutting
  state (precision, roundoff, shard workers, mp-context) and the
  ``parse`` → ``check`` → ``audit`` pipeline;
* the engine registry (:mod:`repro.api.registry`) — ``@register_engine``
  adapters with capability flags, :func:`engines` discovery, and the
  uniform :class:`UnknownEngineError`; the CLI ``--engine`` choices,
  the server's accepted engine set, and the parity harness all derive
  from it;
* :class:`AuditResult` (:mod:`repro.api.result`) — the structured,
  ``schema_version``-stamped result owning the canonical JSON payload
  every surface emits byte-identically.

The four built-in engines register on import
(:mod:`repro.api.builtin`); anything else can register its own without
touching the CLI, server, client, or harness.
"""

from __future__ import annotations

from .errors import UnknownEngineError
from .registry import (
    AuditRequest,
    Engine,
    EngineCaps,
    engine_names,
    engines,
    format_engine_table,
    get_engine,
    register_engine,
    unregister_engine,
)
from .result import (
    BASE_SCHEMA_VERSION,
    SCHEMA_VERSION,
    STATIC_SCHEMA_VERSION,
    AuditResult,
    assemble_stream_payload,
    batch_report_payload,
    render_payload,
    render_stream_line,
    scalar_report_payload,
    static_report_payload,
    stream_header_of_payload,
    stream_trailer_of_payload,
    sweep_report_payload,
    witness_row,
)
from .session import (
    MAX_PRECISION_BITS,
    PRECISION_BITS_ERROR,
    Session,
    check_precision_bits,
    parse_roundoff,
)
from .stream import RowStream
from .builtin import SWEEP_PRECISIONS, RemoteEngine, ScalarLensEngine

__all__ = [
    "BASE_SCHEMA_VERSION",
    "MAX_PRECISION_BITS",
    "PRECISION_BITS_ERROR",
    "SCHEMA_VERSION",
    "STATIC_SCHEMA_VERSION",
    "SWEEP_PRECISIONS",
    "AuditRequest",
    "AuditResult",
    "Engine",
    "EngineCaps",
    "RemoteEngine",
    "RowStream",
    "ScalarLensEngine",
    "Session",
    "UnknownEngineError",
    "assemble_stream_payload",
    "batch_report_payload",
    "check_precision_bits",
    "engine_names",
    "engines",
    "format_engine_table",
    "get_engine",
    "parse_roundoff",
    "register_engine",
    "render_payload",
    "render_stream_line",
    "scalar_report_payload",
    "static_report_payload",
    "stream_header_of_payload",
    "stream_trailer_of_payload",
    "sweep_report_payload",
    "unregister_engine",
    "witness_row",
]
