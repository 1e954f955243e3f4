"""One-call analysis reports: everything Bean can say about a program.

:func:`analyze` bundles the full pipeline for a source file or string:

* parse + backward error bound inference (the core contribution),
* NumFuzz-like forward bounds and Gappa-like interval bounds where the
  program permits them,
* forward bounds derived from the backward bounds via a user-supplied
  condition number (Equation 2),
* an optional empirical tightness sweep with the lens witness.

The result renders as a readable report (``AnalysisReport.describe()``)
and serializes to JSON-friendly dictionaries (``to_dict``) — the
machine interface the ``repro-bean report`` subcommand exposes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .api import Session
from .core import Grade, Judgment, Program, count_flops
from .core.grades import BINARY64_UNIT_ROUNDOFF
from .core.types import is_discrete

__all__ = ["DefinitionReport", "AnalysisReport", "analyze"]


@dataclass(frozen=True)
class DefinitionReport:
    """Everything inferred about one definition."""

    name: str
    result_type: str
    flops: int
    backward_bounds: Dict[str, Grade]
    backward_values: Dict[str, float]
    forward_bound: Optional[float]
    interval_forward_bound: float
    condition_number: Optional[float]
    derived_forward_bound: Optional[float]
    #: call sites the IR inliner refused (guarded calls run the scalar
    #: path): ``{"callee", "reason", "sites"}`` entries, the same
    #: section batch audit payloads carry.  Empty = everything inlines.
    inline_fallbacks: List[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "type": self.result_type,
            "flops": self.flops,
            "backward": {
                param: {"grade": str(grade), "value": self.backward_values[param]}
                for param, grade in self.backward_bounds.items()
            },
            "forward_numfuzz_like": self.forward_bound,
            "forward_interval": (
                None
                if math.isinf(self.interval_forward_bound)
                else self.interval_forward_bound
            ),
            "forward_from_backward": self.derived_forward_bound,
            "inline_fallbacks": self.inline_fallbacks,
        }


@dataclass
class AnalysisReport:
    """A report over a whole program."""

    u: float
    definitions: List[DefinitionReport] = field(default_factory=list)
    #: judgment-cache traffic of this analysis: judgments served from
    #: the deep-fingerprint cache vs derived by the checker
    #: (:func:`repro.compose.store.composed_judgments` — equal to a
    #: whole-program re-check either way).
    summaries_reused: int = 0
    summaries_built: int = 0

    def __getitem__(self, name: str) -> DefinitionReport:
        for d in self.definitions:
            if d.name == name:
                return d
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "u": self.u,
            "definitions": [d.to_dict() for d in self.definitions],
            "summaries": {
                "reused": self.summaries_reused,
                "built": self.summaries_built,
            },
        }

    def describe(self) -> str:
        lines = [f"unit roundoff u = {self.u:.3e}  (ε = u/(1-u))"]
        lines.append(
            f"summaries: {self.summaries_reused} reused, "
            f"{self.summaries_built} built"
        )
        for d in self.definitions:
            lines.append("")
            lines.append(f"{d.name} : {d.result_type}   [{d.flops} flops]")
            if d.backward_bounds:
                lines.append("  backward error bounds (the certificate):")
                for param, grade in d.backward_bounds.items():
                    lines.append(
                        f"    {param:<12} {str(grade):>8}  = {d.backward_values[param]:.3e}"
                    )
            else:
                lines.append("  no linear inputs (nothing absorbs backward error)")
            if d.forward_bound is not None:
                lines.append(
                    f"  forward bound (positive data): {d.forward_bound:.3e}"
                )
            else:
                lines.append("  forward bound (positive data): unbounded (subtraction)")
            if math.isinf(d.interval_forward_bound):
                lines.append("  forward bound (interval hypotheses): unbounded")
            else:
                lines.append(
                    f"  forward bound (interval hypotheses): {d.interval_forward_bound:.3e}"
                )
            if d.derived_forward_bound is not None:
                lines.append(
                    "  forward ≤ κ × backward: "
                    f"{d.derived_forward_bound:.3e} (κ = {d.condition_number})"
                )
            for entry in d.inline_fallbacks:
                lines.append(
                    f"  inline fallback: {entry['sites']} call site(s) to "
                    f"{entry['callee']} run the scalar path "
                    f"({entry['reason']})"
                )
        return "\n".join(lines)


def analyze(
    source_or_program,
    *,
    u: float = BINARY64_UNIT_ROUNDOFF,
    condition_number: Optional[float] = None,
    input_range=(0.1, 1000.0),
) -> AnalysisReport:
    """Run the full static pipeline on Bean source text or a Program.

    The forward and interval columns come from the registered
    ``forward`` / ``interval`` static engines via one
    :class:`repro.api.Session` — the exact code path ``repro serve``
    and ``repro witness --engine forward|interval`` exercise.
    """
    from .compose.store import composed_judgments
    from .ir.cache import inlined_definition_ir, semantic_definition_ir
    from .ir.inline import inline_fallback_info

    session = Session(u=u)
    if isinstance(source_or_program, Program):
        program = source_or_program
    else:
        program = session.parse(source_or_program)
    # Judgments come through the deep-fingerprint cache — equal to
    # session.check's whole-program pass, and the composed result says
    # how many per-definition judgments this analysis reused vs built
    # (a repeat analyze() of an edited file rebuilds only the diff).
    composed = composed_judgments(program)
    judgments = composed.judgments
    report = AnalysisReport(
        u=u,
        summaries_reused=len(composed.reused),
        summaries_built=len(composed.built),
    )
    for definition in program:
        judgment: Judgment = judgments[definition.name]
        backward: Dict[str, Grade] = {}
        values: Dict[str, float] = {}
        for p in definition.params:
            if is_discrete(p.ty):
                continue
            grade = judgment.grade_of(p.name)
            backward[p.name] = grade
            values[p.name] = grade.evaluate(u)
        ranges = {p.name: list(input_range) for p in definition.params}
        fwd = session.audit(
            program, definition.name, inputs={}, engine="forward"
        ).static_bounds["forward_bound"]
        interval_bound = session.audit(
            program, definition.name, inputs=ranges, engine="interval"
        ).static_bounds["forward_bound"]
        interval = math.inf if interval_bound is None else interval_bound
        derived = None
        if condition_number is not None and backward:
            worst = max(values.values())
            derived = condition_number * worst
        # The execution IR's refused call sites, resolved the way the
        # batch engine resolves them (two identity-cache probes).
        ir = semantic_definition_ir(definition)
        if ir.has_calls:
            ir = inlined_definition_ir(definition, program)
        report.definitions.append(
            DefinitionReport(
                name=definition.name,
                result_type=str(judgment.result),
                flops=count_flops(definition.body, program),
                backward_bounds=backward,
                backward_values=values,
                forward_bound=fwd,
                interval_forward_bound=interval,
                condition_number=condition_number,
                derived_forward_bound=derived,
                inline_fallbacks=inline_fallback_info(ir),
            )
        )
    return report
