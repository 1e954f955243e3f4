"""Bean: a language for backward error analysis — Python reproduction.

A from-scratch implementation of the system described in

    Ariel E. Kellison, Laura Zielinski, David Bindel, Justin Hsu.
    "Bean: A Language for Backward Error Analysis." PLDI 2025.

Quick tour (the Session API is the one front door; everything the CLI
and the audit server do goes through it)::

    >>> from repro.api import Session
    >>> session = Session()
    >>> prog = session.parse('''
    ... DotProd2 (x : vec(2)) (y : vec(2)) : num :=
    ...   let (x0, x1) = x in
    ...   let (y0, y1) = y in
    ...   let v = mul x0 y0 in
    ...   let w = mul x1 y1 in
    ...   add v w
    ... ''')
    >>> str(session.check(prog)["DotProd2"].grade_of("x"))
    '3ε/2'
    >>> result = session.audit(prog,
    ...                        inputs={"x": [1.5, 2.25], "y": [3.1, -0.7]})
    >>> result.sound
    True
    >>> "batch" in session.engines()  # engine discovery, registry-backed
    True

``result.to_json()`` renders the versioned audit payload — the exact
bytes ``repro witness --json`` prints and ``repro serve`` answers.

Subpackages:

* :mod:`repro.api` — the public audit API: :class:`~repro.api.Session`,
  the pluggable engine registry, and the versioned
  :class:`~repro.api.AuditResult` schema.
* :mod:`repro.core` — the Bean language: syntax, linear/graded type
  system, and the backward error bound inference algorithm.
* :mod:`repro.ir` — the flat compiled representation every analysis and
  evaluation hot path runs on: an iterative lowering pass, reverse-sweep
  grade inference, and identity-keyed program caches.
* :mod:`repro.lam_s` — the erasure target Λ_S with ideal and approximate
  operational semantics.
* :mod:`repro.semantics` — backward error lenses; the category Bel; the
  interpreter that turns typed programs into executable (f, f̃, b)
  triples; the soundness-theorem witness runner.
* :mod:`repro.analysis` — metrics, worst-case literature bounds,
  condition numbers, and the baseline analyzers Tables 1–3 compare
  against.
* :mod:`repro.programs` — the paper's example programs and scalable
  benchmark generators.
* :mod:`repro.bench` — drivers that regenerate Tables 1, 2 and 3.
* :mod:`repro.service` — program fingerprints and the ``repro serve``
  audit server.
"""

from typing import TYPE_CHECKING, Any, List

from .core import (
    EPS,
    HALF_EPS,
    ZERO,
    BeanError,
    BeanSyntaxError,
    BeanTypeError,
    Definition,
    Grade,
    Judgment,
    LinearityError,
    Program,
    UnboundVariableError,
    check_definition,
    check_program,
    count_flops,
    eps_from_roundoff,
    infer,
    parse_expression,
    parse_program,
    parse_type,
    pretty_program,
    unit_roundoff,
)
from .report import AnalysisReport, analyze
from .semantics import (
    BeanLens,
    WitnessReport,
    lens_of_definition,
    lens_of_program,
)

if TYPE_CHECKING:
    # Lazy (PEP 562) names, spelled out so mypy/IDEs resolve them.
    from .api import AuditResult, Session
    from .semantics.batch import BatchWitnessEngine, BatchWitnessReport

#: Batch-witness API is loaded lazily (PEP 562): it is the only part of
#: the package that needs numpy, and eager loading would tax every CLI
#: start-up with the numpy import.
_LAZY_BATCH = ("BatchWitnessEngine", "BatchWitnessReport")
#: The public-API façade is lazy too, keeping `import repro` minimal.
_LAZY_API = ("AuditResult", "Session")


def __getattr__(name: str) -> Any:
    if name in _LAZY_BATCH:
        from .semantics import batch

        return getattr(batch, name)
    if name in _LAZY_API:
        from . import api

        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> List[str]:
    # Lazy names are invisible to the default dir(); advertise the full
    # public surface (globals for submodules/private helpers included,
    # as regular modules do).
    return sorted(set(globals()) | set(__all__))


__version__ = "1.2.0"

__all__ = [
    "AnalysisReport",
    "analyze",
    "AuditResult",
    "EPS",
    "HALF_EPS",
    "ZERO",
    "BatchWitnessEngine",
    "BatchWitnessReport",
    "BeanError",
    "BeanSyntaxError",
    "BeanTypeError",
    "BeanLens",
    "Definition",
    "Grade",
    "Judgment",
    "LinearityError",
    "Program",
    "Session",
    "UnboundVariableError",
    "WitnessReport",
    "check_definition",
    "check_program",
    "count_flops",
    "eps_from_roundoff",
    "infer",
    "lens_of_definition",
    "lens_of_program",
    "parse_expression",
    "parse_program",
    "parse_type",
    "pretty_program",
    "unit_roundoff",
    "__version__",
]
