"""Re-auditing across edits: a judgment cache keyed by deep fingerprint.

The paper's backward-error grades are *compositional*: a definition's
grade is derived once from its own body, and Figure 7's call rule
charges ``out + grade`` at every call site from the callee's judgment
alone.  Every audit already derives grades that way (the IR sweep's
``call`` rule).  This package keeps those per-definition judgments —
the *summaries* — across runs, so that ``repro watch`` and ``repro
report`` re-derive only what an edit changed:

* :mod:`~repro.compose.graph` — *deep* alpha-invariant fingerprints (a
  definition's own encoding folded with its transitive callees') and
  the dependency graph that invalidates exactly the judgments
  downstream of an edit;
* :mod:`~repro.compose.store` — the judgment cache keyed by deep
  fingerprint, and :func:`~repro.compose.store.composed_judgments`,
  which checks only the definitions it misses;
* :mod:`~repro.compose.parsing` — per-definition-block parse reuse, so
  an edit re-lexes one definition, not the file, and unchanged
  definitions keep their object identity (and with it every
  identity-keyed cache downstream);
* :mod:`~repro.compose.incremental` / :mod:`~repro.compose.watch` —
  the O(diff) driver behind the ``repro watch`` CLI loop.
"""

from __future__ import annotations

from .graph import DependencyGraph, deep_fingerprints, direct_callees
from .incremental import DefinitionAudit, IncrementalAuditor, IncrementalRun
from .parsing import ParseCache, split_definition_blocks
from .store import (
    ComposedProgram,
    SummaryStore,
    composed_judgments,
    default_store,
    reset_default_store,
)
from .watch import watch_file

__all__ = [
    "ComposedProgram",
    "DefinitionAudit",
    "DependencyGraph",
    "IncrementalAuditor",
    "IncrementalRun",
    "ParseCache",
    "SummaryStore",
    "split_definition_blocks",
    "composed_judgments",
    "deep_fingerprints",
    "default_store",
    "direct_callees",
    "reset_default_store",
    "watch_file",
]
