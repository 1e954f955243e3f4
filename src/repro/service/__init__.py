"""The serving layer: program fingerprints and the concurrent audit service.

Every other package in this repository does *per-program* work — parse,
typecheck, lower to the flat IR, inline calls, infer grades — once per
parsed program.  This package amortizes that work across requests:

* :mod:`repro.service.fingerprint` — a canonical, alpha-invariant
  content hash for Bean programs, stable across parses and processes
  (the parser's fresh-name counter makes raw AST hashing unstable);
* :mod:`repro.service.protocol` — a minimal HTTP/1.1 reader/writer
  over asyncio streams (stdlib only); the JSON payload schema lives in
  :mod:`repro.api.result`;
* :mod:`repro.service.server` — ``repro serve``: an asyncio audit
  server that coalesces concurrent requests for the same program hash
  and dispatches batches through the batch/sharded witness engines;
* :mod:`repro.service.client` — ``repro client``: a blocking HTTP
  client for the audit protocol.
"""

from typing import TYPE_CHECKING, Any

from .fingerprint import fingerprint_definition, fingerprint_program

if TYPE_CHECKING:
    from .server import AuditServer


def __getattr__(name: str) -> Any:
    # The server (asyncio, sockets) loads lazily (PEP 562): shard
    # workers and the pool fingerprint programs through this package
    # and must not pay for the server's imports.
    if name == "AuditServer":
        from .server import AuditServer

        return AuditServer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AuditServer",
    "fingerprint_definition",
    "fingerprint_program",
]
