"""A flat, topologically ordered intermediate representation for Bean.

Every layer of the reproduction used to analyze and execute programs by
structural recursion over the AST; the Table 1 benchmarks (Sum 1000,
PolyVal 100) only survived via the 512 MiB ``deepstack`` worker thread.
This package compiles a definition **once** into a flat instruction
sequence — let-normalized SSA-style ops with explicit operand slots,
discrete/linear flags, and per-op grade contributions — that every
consumer walks with plain Python loops:

* :mod:`repro.ir.lower` — the lowering pass.  In *checked* mode it is an
  iterative re-implementation of the Figure 7 inference algorithm's
  well-formedness side (types, strict linearity, freshness); in
  *semantic* mode it lowers any runnable (even ill-typed) term for the
  evaluators, mirroring the permissiveness of the Λ_S big-step semantics.
* :mod:`repro.ir.infer` — backward error grade inference as a single
  reverse sweep over the op list (the algorithmic content of Figure 7).
* :mod:`repro.ir.cache` — identity-keyed program caches so repeated
  checks/evaluations of the same definition lower only once, with an
  optional persistent content-addressed outer layer
  (:func:`set_persistent_cache`, served by
  :class:`repro.service.cache.ArtifactCache`) so lowered/inlined IR and
  inferred judgments survive process restarts.

Consumers: :mod:`repro.core.checker` (grade inference),
:mod:`repro.semantics.interp` (the unboxed slot executor: ideal and
approximate forward sweeps and the backward lens pass as a reverse
sweep), :mod:`repro.semantics.batch` (the vectorized witness engine) and
:mod:`repro.analysis` (interval/forward abstract sweeps).
"""

from .lower import (
    ADD,
    BANG,
    CALL,
    CASE,
    CONST,
    DIV,
    DMUL,
    DVAR,
    FST,
    INL,
    INR,
    IROp,
    IRProgram,
    MUL,
    OP_NAMES,
    PAIR,
    RND,
    Region,
    SND,
    SUB,
    UNIT,
    lower_definition,
    lower_expr,
)
from .cache import (
    clear_caches,
    inlined_definition_ir,
    persistent_cache,
    semantic_definition_ir,
    semantic_expr_ir,
    set_persistent_cache,
)
from .infer import infer_definition_ir, sweep_grades
from .inline import inline_calls

__all__ = [
    "IROp",
    "IRProgram",
    "Region",
    "OP_NAMES",
    "DVAR",
    "CONST",
    "UNIT",
    "PAIR",
    "FST",
    "SND",
    "INL",
    "INR",
    "BANG",
    "RND",
    "ADD",
    "SUB",
    "MUL",
    "DIV",
    "DMUL",
    "CALL",
    "CASE",
    "lower_definition",
    "lower_expr",
    "semantic_definition_ir",
    "semantic_expr_ir",
    "inlined_definition_ir",
    "inline_calls",
    "clear_caches",
    "persistent_cache",
    "set_persistent_cache",
    "infer_definition_ir",
    "sweep_grades",
]
