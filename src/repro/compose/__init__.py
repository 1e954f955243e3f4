"""Compositional audits: per-definition grade summaries composed at call sites.

The paper's central design point is that backward-error grades are
*compositional*: a definition's grade is derived once from its own body
(Figure 7's call rule then charges ``out + grade`` at every call site)
— yet the execution pipeline audits by splicing callee IR into callers
(:mod:`repro.ir.inline`, hard-capped at 200k ops), so every audit costs
O(whole program) and editing one helper re-audits everything.

This package is the summary layer that closes the gap:

* :mod:`~repro.compose.summary` — a serializable
  :class:`~repro.compose.summary.DefinitionSummary` per definition
  (per-parameter backward grade as an exact fraction of ε plus its
  integer half-ε encoding, result structure, sensitivity metadata),
  produced by the existing reverse-sweep grade inference and
  round-trippable to the exact :class:`~repro.core.checker.Judgment`
  the checker would infer;
* :mod:`~repro.compose.graph` — *deep* alpha-invariant fingerprints (a
  definition's own encoding folded with its transitive callees') and
  the dependency graph that invalidates exactly the summaries
  downstream of an edit;
* :mod:`~repro.compose.store` — the summary cache: an in-memory store
  keyed by deep fingerprint;
* :mod:`~repro.compose.engine` — call-site composition: audit a caller
  from callee summaries instead of re-deriving the whole program, with
  a per-site precision check and an execution plan that lifts the
  inline size cap when the predicted expansion is known safe;
* :mod:`~repro.compose.parsing` — per-definition-block parse reuse, so
  an edit re-lexes one definition, not the file, and unchanged
  definitions keep their object identity (and with it every
  identity-keyed cache downstream);
* :mod:`~repro.compose.incremental` / :mod:`~repro.compose.watch` —
  the O(diff) driver behind ``Session.audit(compose=...)`` and the
  ``repro watch`` CLI loop.
"""

from __future__ import annotations

from .engine import (
    COMPOSE_MAX_INLINE_OPS,
    CallSite,
    ComposedProgram,
    ComposeProvenance,
    compose_execution_ir,
    composed_judgments,
    composition_plan,
)
from .graph import DependencyGraph, deep_fingerprints, direct_callees
from .incremental import DefinitionAudit, IncrementalAuditor, IncrementalRun
from .parsing import ParseCache, split_definition_blocks
from .store import SummaryStore, default_store, reset_default_store
from .summary import (
    SUMMARY_VERSION,
    DefinitionSummary,
    ParamSummary,
    summarize_definition,
    summary_to_judgment,
)
from .watch import watch_file

__all__ = [
    "COMPOSE_MAX_INLINE_OPS",
    "CallSite",
    "ComposeProvenance",
    "ComposedProgram",
    "DefinitionAudit",
    "DefinitionSummary",
    "DependencyGraph",
    "IncrementalAuditor",
    "IncrementalRun",
    "ParamSummary",
    "ParseCache",
    "SUMMARY_VERSION",
    "SummaryStore",
    "split_definition_blocks",
    "compose_execution_ir",
    "composed_judgments",
    "composition_plan",
    "deep_fingerprints",
    "default_store",
    "direct_callees",
    "reset_default_store",
    "summarize_definition",
    "summary_to_judgment",
    "watch_file",
]
