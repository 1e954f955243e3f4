"""Reference checker: Figure 7's inference rules over the AST.

``repro.core.checker.check_definition`` compiles a body to the flat IR
and infers grades in one reverse sweep.  :func:`check_definition_ref`
runs :class:`~repro.core.checker.InferenceEngine`, the rule-by-rule
transcription of Figure 7, on a deep auxiliary stack instead; the
parameter contexts and the declared-type and stability-contract checks
are the product's own, so the two differ only in how they infer.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.core import ast_nodes as A
from repro.core import checker
from repro.core.deepstack import call_with_deep_stack

__all__ = ["check_definition_ref"]


def check_definition_ref(
    definition: A.Definition,
    judgments: Optional[Mapping[str, checker.Judgment]] = None,
) -> checker.Judgment:
    """Check one definition with the structural inference engine."""
    phi, skel = checker._parameter_contexts(definition)
    engine = checker.InferenceEngine(judgments)
    ctx, ty = call_with_deep_stack(engine.infer, definition.body, phi, skel)
    return checker._judgment(definition, phi, ctx, ty)
