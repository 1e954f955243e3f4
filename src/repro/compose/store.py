"""The judgment cache: checked judgments keyed by deep fingerprint.

Grade derivation is compositional by construction — the IR sweep's
``call`` rule charges ``out + callee grade`` per argument from the
callee's judgment alone — so a definition's judgment depends only on
its own body and its callees' judgments.  A deep fingerprint
(:func:`repro.compose.graph.deep_fingerprints`) pins exactly that, so
content-addressing *is* the invalidation protocol: after an edit,
:func:`composed_judgments` re-checks only the edited definitions and
their transitive callers and serves every other judgment from the
store.  ``repro watch`` and ``repro report`` re-audit across edits
through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core import ast_nodes as A
from ..core.checker import Judgment, check_definition
from .graph import deep_fingerprints

__all__ = [
    "ComposedProgram",
    "SummaryStore",
    "composed_judgments",
    "default_store",
    "reset_default_store",
]


class SummaryStore:
    """In-memory judgment storage for the life of a process."""

    def __init__(self) -> None:
        self._memory: Dict[str, Judgment] = {}

    def __len__(self) -> int:
        return len(self._memory)

    def get(self, fingerprint: str) -> Optional[Judgment]:
        """The judgment keyed by ``fingerprint``, or ``None`` on miss."""
        return self._memory.get(fingerprint)

    def put(self, fingerprint: str, judgment: Judgment) -> None:
        """Record ``judgment`` under ``fingerprint``."""
        self._memory[fingerprint] = judgment


_DEFAULT: SummaryStore = SummaryStore()


def default_store() -> SummaryStore:
    """The process-global store ``repro report`` analyses share."""
    return _DEFAULT


def reset_default_store() -> SummaryStore:
    """Replace the process-global store with a fresh one (tests)."""
    global _DEFAULT
    _DEFAULT = SummaryStore()
    return _DEFAULT


@dataclass(frozen=True)
class ComposedProgram:
    """Every definition's judgment, and which ones the store served."""

    judgments: Dict[str, Judgment]
    fingerprints: Dict[str, str]
    reused: Tuple[str, ...]
    built: Tuple[str, ...]


def composed_judgments(
    program: A.Program,
    store: Optional[SummaryStore] = None,
) -> ComposedProgram:
    """Every definition's judgment, in program order.

    Equal to :func:`repro.core.checker.check_program`'s: a miss runs
    ``check_definition`` against the judgments of the definitions before
    it, and a hit was derived from an identical definition with
    identical callees (its deep fingerprint pins them).
    """
    if store is None:
        store = default_store()
    fingerprints = deep_fingerprints(program)
    judgments: Dict[str, Judgment] = {}
    reused: List[str] = []
    built: List[str] = []
    for definition in program:
        fingerprint = fingerprints[definition.name]
        judgment = store.get(fingerprint)
        if judgment is None:
            judgment = check_definition(definition, judgments)
            store.put(fingerprint, judgment)
            built.append(definition.name)
        else:
            reused.append(definition.name)
        judgments[definition.name] = judgment
    return ComposedProgram(
        judgments=judgments,
        fingerprints=fingerprints,
        reused=tuple(reused),
        built=tuple(built),
    )
