"""The summary cache: an in-memory store keyed by deep fingerprint.

A :class:`SummaryStore` keeps summaries warm for the life of a process
(the audit server's prepared table, a watch loop, a reused
:class:`~repro.api.Session`).  Keys are deep fingerprints
(:func:`repro.compose.graph.deep_fingerprints`): content-addressing
*is* the invalidation protocol.
"""

from __future__ import annotations

from typing import Dict, Optional

from .summary import DefinitionSummary

__all__ = ["SummaryStore", "default_store", "reset_default_store"]


class SummaryStore:
    """In-memory summary storage for the life of a process."""

    def __init__(self) -> None:
        self._memory: Dict[str, DefinitionSummary] = {}
        #: Observability counters (the server's ``/stats`` reports them).
        self.stats: Dict[str, int] = {
            "memory_hits": 0,
            "misses": 0,
            "stores": 0,
        }

    def __len__(self) -> int:
        return len(self._memory)

    def get(self, fingerprint: str) -> Optional[DefinitionSummary]:
        """The summary keyed by ``fingerprint``, or ``None`` on miss."""
        summary = self._memory.get(fingerprint)
        if summary is not None:
            self.stats["memory_hits"] += 1
            return summary
        self.stats["misses"] += 1
        return None

    def put(self, fingerprint: str, summary: DefinitionSummary) -> None:
        """Record ``summary`` under ``fingerprint``."""
        self._memory[fingerprint] = summary
        self.stats["stores"] += 1


_DEFAULT: SummaryStore = SummaryStore()


def default_store() -> SummaryStore:
    """The process-global store engines share (prepared-table reuse)."""
    return _DEFAULT


def reset_default_store() -> SummaryStore:
    """Replace the process-global store with a fresh one (tests)."""
    global _DEFAULT
    _DEFAULT = SummaryStore()
    return _DEFAULT
