"""The O(diff) incremental audit driver.

An :class:`IncrementalAuditor` audits *every* definition of a program —
judgments come from the deep-fingerprint cache, which checks only what
it misses, then each definition gets a scalar witness run on
synthesized default inputs — and memoizes each definition's
outcome under its deep fingerprint.  Re-auditing after an edit then
re-derives exactly the edited definition and its transitive dependents
(their deep fingerprints changed); everything else is a dictionary hit.
``repro watch`` (:mod:`repro.compose.watch`) wraps this in a file loop,
and ``benchmarks/bench_compose.py`` gates the resulting re-audit
speedup against the committed baseline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..core import ast_nodes as A
from ..core.errors import BeanError
from ..core.types import Discrete, Num, Tensor, Type, Unit
from ..lam_s.eval import EvalError
from ..semantics.lens import LensDomainError
from .parsing import ParseCache
from .store import ComposedProgram, SummaryStore, composed_judgments

__all__ = ["DefinitionAudit", "IncrementalAuditor", "IncrementalRun"]

#: A definition audit outcome: audited fresh, reused from a previous
#: run (deep fingerprint unchanged), or skipped (no synthesizable
#: inputs / the lens left its domain).
AUDITED = "audited"
REUSED = "reused"
SKIPPED = "skipped"


@dataclass(frozen=True)
class DefinitionAudit:
    """One definition's outcome in an incremental run."""

    name: str
    status: str
    sound: Optional[bool]
    detail: str = ""


@dataclass(frozen=True)
class IncrementalRun:
    """The outcome of one :meth:`IncrementalAuditor.audit_program` call."""

    audits: Tuple[DefinitionAudit, ...]
    summaries_built: int
    summaries_reused: int
    elapsed_s: float

    @property
    def all_sound(self) -> bool:
        """Every audited/reused definition satisfied the theorem."""
        return all(a.sound is not False for a in self.audits)

    @property
    def audited(self) -> Tuple[str, ...]:
        return tuple(a.name for a in self.audits if a.status == AUDITED)

    @property
    def reused(self) -> Tuple[str, ...]:
        return tuple(a.name for a in self.audits if a.status == REUSED)

    @property
    def skipped(self) -> Tuple[str, ...]:
        return tuple(a.name for a in self.audits if a.status == SKIPPED)


def _default_value(ty: Type, counter: List[int]) -> Optional[object]:
    """A deterministic default input for ``ty``, or ``None`` if the type
    has no synthesizable canonical inhabitant (sums, unit).

    Tensor values flatten to the leaf list
    :func:`repro.semantics.witness.env_from_pythons` expects."""
    if isinstance(ty, Num):
        counter[0] += 1
        # Exactly representable, nonzero, distinct per leaf.
        return 1.5 + 0.25 * counter[0]
    if isinstance(ty, Discrete):
        return _default_value(ty.inner, counter)
    if isinstance(ty, Tensor):
        left = _default_value(ty.left, counter)
        right = _default_value(ty.right, counter)
        if left is None or right is None:
            return None
        flat: List[object] = []
        for side in (left, right):
            flat.extend(side if isinstance(side, list) else [side])
        return flat
    return None


def default_inputs(
    definition: A.Definition,
) -> Optional[Dict[str, object]]:
    """Deterministic inputs covering every parameter, or ``None`` when
    some parameter type (unit, sum) has no canonical default."""
    counter = [0]
    inputs: Dict[str, object] = {}
    for param in definition.params:
        if isinstance(param.ty, Unit):
            return None
        value = _default_value(param.ty, counter)
        if value is None:
            return None
        inputs[param.name] = value
    return inputs


class IncrementalAuditor:
    """Re-audits a program in time proportional to what changed."""

    def __init__(
        self,
        *,
        precision_bits: int = 53,
        u: Optional[float] = None,
        store: Optional[SummaryStore] = None,
    ) -> None:
        self.precision_bits = precision_bits
        self.u = u if u is not None else 2.0**-precision_bits
        self.store = store if store is not None else SummaryStore()
        self._results: Dict[str, DefinitionAudit] = {}
        # Re-parsing is the other O(program) cost an edit must not pay:
        # unchanged definition blocks reuse their parsed objects, which
        # keeps every identity-keyed cache downstream warm too.
        self._parser = ParseCache()

    def _key(self, fingerprint: str) -> str:
        return f"{self.precision_bits}/{self.u!r}/{fingerprint}"

    def audit_program(
        self, program: Union[str, A.Program]
    ) -> IncrementalRun:
        """Summarize + audit every definition, reusing unchanged work."""
        start = time.perf_counter()
        if isinstance(program, str):
            program = self._parser.parse(program)
        composed: ComposedProgram = composed_judgments(program, self.store)
        audits: List[DefinitionAudit] = []
        for definition in program:
            key = self._key(composed.fingerprints[definition.name])
            cached = self._results.get(key)
            if cached is not None:
                audits.append(
                    DefinitionAudit(
                        definition.name, REUSED, cached.sound, cached.detail
                    )
                )
                continue
            audit = self._audit_one(definition, program, composed)
            self._results[key] = audit
            audits.append(audit)
        return IncrementalRun(
            audits=tuple(audits),
            summaries_built=len(composed.built),
            summaries_reused=len(composed.reused),
            elapsed_s=time.perf_counter() - start,
        )

    def _audit_one(
        self,
        definition: A.Definition,
        program: A.Program,
        composed: ComposedProgram,
    ) -> DefinitionAudit:
        from ..semantics.interp import lens_of_definition
        from ..semantics.witness import run_witness

        inputs = default_inputs(definition)
        if inputs is None:
            return DefinitionAudit(
                definition.name, SKIPPED, None, "no default inputs"
            )
        try:
            lens = lens_of_definition(
                definition,
                composed.judgments[definition.name],
                program,
                precision_bits=self.precision_bits,
            )
            report = run_witness(
                definition,
                inputs,
                program=program,
                lens=lens,
                u=self.u,
            )
        except BeanError as exc:
            return DefinitionAudit(definition.name, SKIPPED, None, str(exc))
        except (EvalError, LensDomainError, ArithmeticError, ValueError) as exc:
            # e.g. a lens domain error on the synthesized inputs: the
            # definition still checked; record why it has no verdict.
            return DefinitionAudit(definition.name, SKIPPED, None, str(exc))
        return DefinitionAudit(
            definition.name, AUDITED, bool(report.sound), ""
        )
