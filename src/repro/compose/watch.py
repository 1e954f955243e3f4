"""``repro watch``: re-audit a Bean source file on every save.

A thin mtime-poll loop over :class:`~repro.compose.incremental.IncrementalAuditor`:
the first pass checks and audits every definition; each save after
that re-derives only the edited definitions and their dependents (deep
fingerprints do the invalidation), so the steady-state latency per save
is milliseconds.  ``once=True`` runs a single pass and returns — the
mode the CLI's ``--once`` flag and the tests use.
"""

from __future__ import annotations

import os
import time
from typing import IO, Optional

from ..core.errors import BeanError
from ..lam_s.eval import EvalError
from ..semantics.lens import LensDomainError
from .incremental import IncrementalAuditor, IncrementalRun

__all__ = ["watch_file"]


def _render(path: str, run: IncrementalRun) -> str:
    verdict = "sound" if run.all_sound else "UNSOUND"
    parts = [
        f"{len(run.audits)} definition(s)",
        f"{len(run.audited)} audited",
        f"{len(run.reused)} reused",
    ]
    if run.skipped:
        parts.append(f"{len(run.skipped)} skipped")
    return (
        f"{os.path.basename(path)}: "
        + ", ".join(parts)
        + f" — {verdict} [{run.elapsed_s * 1000.0:.1f} ms]"
    )


def watch_file(
    path: str,
    *,
    precision_bits: int = 53,
    u: Optional[float] = None,
    interval: float = 0.5,
    once: bool = False,
    max_audits: Optional[int] = None,
    out: Optional[IO[str]] = None,
) -> int:
    """Audit ``path`` now and after every modification.

    Returns the exit code of the *last* audit pass (the CLI's
    convention: 0 sound, 2 unsound, 1 source/evaluation error), looping
    until interrupted — or after one pass with ``once=True``, or after
    ``max_audits`` passes.
    """
    auditor = IncrementalAuditor(precision_bits=precision_bits, u=u)

    def emit(line: str) -> None:
        if out is not None:
            out.write(line + "\n")
            out.flush()
        else:
            print(line, flush=True)

    exit_code = 1
    audits = 0
    last_mtime: Optional[float] = None
    while True:
        try:
            mtime = os.stat(path).st_mtime
        except OSError:
            emit(f"error: cannot stat {path}")
            return 1
        if last_mtime is None or mtime != last_mtime:
            last_mtime = mtime
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    source = handle.read()
                run = auditor.audit_program(source)
            except (BeanError, EvalError, LensDomainError) as exc:
                emit(f"error: {exc}")
                exit_code = 1
            else:
                emit(_render(path, run))
                exit_code = 0 if run.all_sound else 2
            audits += 1
            if once or (max_audits is not None and audits >= max_audits):
                return exit_code
        time.sleep(interval)
