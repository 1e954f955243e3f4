"""Inlining defined-function calls into a caller's flat IR.

The batch witness engine evaluates whole batches with one array
operation per IR instruction, which requires a *flat* view of the
program: a ``call`` op forces row-by-row scalar interpretation of the
entire batch.  This pass splices the (semantic-mode) IR of each callee
into the caller — parameter slots alias the argument slots, internal
callee slots are renumbered into the caller's slot space, and the
call's destination becomes an identity (``bang``) read of the callee's
result slot — so programs built from helper definitions vectorize
exactly like hand-flattened code.

Guards keep the pass total and semantics-preserving.  A call that
cannot be inlined is left in place verbatim (the engine then runs the
scalar path, which interprets ``call`` ops directly):

* **unknown callee / arity mismatch** — the scalar engines raise
  ``EvalError`` when such a call *executes*; inlining would change when
  (or whether) that error surfaces;
* **implicit parameters** — a semantic-mode callee with free variables
  reads them from its (empty) call frame and must keep failing at use
  time;
* **cycles** — a (mutually) recursive call chain would never flatten;
* **size** — the flattened program is capped at ``max_ops``
  instructions, so pathological call pyramids cannot blow up memory.

Why the identity ``bang`` at the join: it preserves the caller's slot
numbering (params, result, and every already-emitted operand reference
stay valid), and it is the identity in all three lens sweeps — the
forward sweeps alias the value, the backward sweep forwards the target
unchanged — so the inlined program is *value-identical*, op for op, to
interpreting the call through a frame.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from ..core import ast_nodes as A
from .lower import _VECTORIZABLE, CALL, CASE, BANG, IROp, IRProgram, Region

__all__ = [
    "inline_calls",
    "inline_fallback_info",
    "MAX_INLINE_OPS",
    "count_ops",
    "walk_ops",
]

#: Ceiling on the total instruction count of an inlined program.  A call
#: whose splice would pass it stays a call: its rows run the scalar path
#: and the payload's ``inline_fallbacks`` section reports ``size-cap``.
MAX_INLINE_OPS = 200_000

#: The reasons the inliner may leave a ``call`` op in place (the audit
#: payload's ``inline_fallbacks`` section and the server's ``/stats``
#: counter both use these strings verbatim).
FALLBACK_CYCLE = "cycle"
FALLBACK_UNKNOWN = "unknown-callee"
FALLBACK_ARITY = "arity-mismatch"
FALLBACK_FREE_VARS = "free-variables"
FALLBACK_SIZE_CAP = "size-cap"


def walk_ops(ops) -> Iterator[IROp]:
    """Yield every op preorder, descending into ``case`` regions.

    Iterative (explicit stack of op-list iterators), so arbitrarily deep
    ``case`` nesting cannot hit the interpreter recursion limit — the
    same discipline the lowerer and the sweeps follow.
    """
    stack = [iter(ops)]
    while stack:
        op = next(stack[-1], None)
        if op is None:
            stack.pop()
            continue
        yield op
        if op.code == CASE:
            left, right = op.aux
            # Preorder: descend into the left region first, then the
            # right — push right first so left is consumed on top.
            stack.append(iter(right.ops))
            stack.append(iter(left.ops))


def count_ops(ops) -> int:
    """Total instruction count, including nested ``case`` regions."""
    return sum(1 for _ in walk_ops(ops))


class _Inliner:
    def __init__(self, program: A.Program, max_ops: int, n_slots: int, budget: int):
        self.program = program
        self.max_ops = max_ops
        self.n_slots = n_slots
        self.budget = budget
        self.changed = False
        #: ``(callee, reason)`` per call site left un-inlined, in the
        #: order the sites were visited.
        self.fallbacks: List[Tuple[str, str]] = []

    def fresh(self) -> int:
        slot = self.n_slots
        self.n_slots += 1
        return slot

    def transform(self, ops: List[IROp], stack: frozenset) -> List[IROp]:
        out: List[IROp] = []
        for op in ops:
            if op.code == CALL:
                inlined, reason = self._try_inline(op, stack)
                if inlined is None:
                    self.fallbacks.append((op.aux[0], reason or FALLBACK_UNKNOWN))
                    out.append(op)
                else:
                    out.extend(inlined)
                    self.changed = True
            elif op.code == CASE:
                left, right = op.aux
                out.append(
                    IROp(
                        CASE,
                        op.dest,
                        op.a,
                        aux=(
                            Region(self.transform(left.ops, stack), left.payload, left.result),
                            Region(self.transform(right.ops, stack), right.payload, right.result),
                        ),
                    )
                )
            else:
                out.append(op)
        return out

    def _try_inline(
        self, op: IROp, stack: frozenset
    ) -> Tuple[Optional[List[IROp]], Optional[str]]:
        from .cache import semantic_definition_ir

        name, arg_slots = op.aux
        if name in stack:
            return None, FALLBACK_CYCLE
        if self.program is None or name not in self.program:
            return None, FALLBACK_UNKNOWN
        callee = self.program[name]
        if len(callee.params) != len(arg_slots):
            return None, FALLBACK_ARITY  # arity error must surface at run time
        callee_ir = semantic_definition_ir(callee)
        if len(callee_ir.params) != len(callee.params):
            # free variables must keep failing at use time
            return None, FALLBACK_FREE_VARS
        # The splice replaces the call op by the callee's ops and one
        # ``bang``: the program grows by the callee's op count.
        cost = count_ops(callee_ir.ops)
        if self.budget + cost > self.max_ops:
            return None, FALLBACK_SIZE_CAP
        self.budget += cost

        # Remap callee slots into the caller's slot space: parameter
        # slots alias the argument slots; everything else gets a fresh
        # caller slot on first sight (ops are copied in program order,
        # so the numbering is deterministic).
        mapping = {
            p.slot: arg for p, arg in zip(callee_ir.params, arg_slots)
        }

        def remap(slot: int) -> int:
            if slot < 0:
                return slot
            got = mapping.get(slot)
            if got is None:
                got = self.fresh()
                mapping[slot] = got
            return got

        def copy_ops(ops) -> List[IROp]:
            copied: List[IROp] = []
            for inner in ops:
                code = inner.code
                if code == CASE:
                    left, right = inner.aux
                    a = remap(inner.a)
                    lp, lo, lr = remap(left.payload), copy_ops(left.ops), remap(left.result)
                    rp, ro, rr = remap(right.payload), copy_ops(right.ops), remap(right.result)
                    copied.append(
                        IROp(CASE, remap(inner.dest), a,
                             aux=(Region(lo, lp, lr), Region(ro, rp, rr)))
                    )
                elif code == CALL:
                    cname, cargs = inner.aux
                    copied.append(
                        IROp(CALL, remap(inner.dest),
                             aux=(cname, tuple(remap(s) for s in cargs)))
                    )
                else:
                    copied.append(
                        IROp(code, remap(inner.dest), remap(inner.a), remap(inner.b), inner.aux)
                    )
            return copied

        body = copy_ops(callee_ir.ops)
        # Inline the callee's own calls with this callee on the stack.
        body = self.transform(body, stack | {name})
        body.append(IROp(BANG, op.dest, remap(callee_ir.result)))
        return body, None


def inline_calls(
    ir: IRProgram,
    program: Optional[A.Program],
    *,
    max_ops: int = MAX_INLINE_OPS,
) -> IRProgram:
    """Flatten the ``call`` ops of a semantic-mode IR program.

    Returns ``ir`` unchanged when there is nothing to do (no calls, no
    program to resolve them against, or every call hit a guard).  The
    result's ``vectorizable`` flag is recomputed from the flattened op
    list alone; callers batching over parameters must still check that
    ``ir.params`` carries no implicit (free-variable) parameters.
    """
    if not ir.has_calls or program is None:
        return ir
    inliner = _Inliner(program, max_ops, ir.n_slots, count_ops(ir.ops))
    ops = inliner.transform(ir.ops, frozenset())
    fallbacks = tuple(inliner.fallbacks)
    if not inliner.changed:
        if not fallbacks:
            return ir
        # Nothing was spliced, but guards fired: return a shallow copy
        # carrying the recorded reasons (the shared semantic-mode IR
        # must stay pristine — it is identity-cached program-wide).
        return IRProgram(
            ir.name,
            ir.params,
            ir.ops,
            ir.result,
            ir.n_slots,
            types=ir.types,
            used_params=ir.used_params,
            has_calls=ir.has_calls,
            has_cases=ir.has_cases,
            vectorizable=ir.vectorizable,
            inline_fallbacks=fallbacks,
        )
    has_calls = False
    has_cases = False
    vectorizable = True
    for op in walk_ops(ops):
        if op.code == CALL:
            has_calls = True
        elif op.code == CASE:
            has_cases = True
        if op.code not in _VECTORIZABLE:
            vectorizable = False
    return IRProgram(
        ir.name,
        ir.params,
        ops,
        ir.result,
        inliner.n_slots,
        types=None,
        used_params=ir.used_params,
        has_calls=has_calls,
        has_cases=has_cases,
        vectorizable=vectorizable,
        inline_fallbacks=fallbacks,
    )


def inline_fallback_info(ir: IRProgram) -> List[dict]:
    """The audit payload's ``inline_fallbacks`` section for ``ir``.

    One entry per (callee, reason) pair with the number of call sites
    it covers, sorted for deterministic payload bytes.  Empty (so the
    section is omitted and pre-existing payload bytes are preserved)
    whenever every call inlined cleanly — in practice a guard can only
    fire on pathological programs, e.g. an inlined size beyond the
    ``max_ops`` cap.
    """
    fallbacks = getattr(ir, "inline_fallbacks", ())
    if not fallbacks:
        return []
    counts: dict = {}
    for callee, reason in fallbacks:
        counts[(callee, reason)] = counts.get((callee, reason), 0) + 1
    return [
        {"callee": callee, "reason": reason, "sites": sites}
        for (callee, reason), sites in sorted(counts.items())
    ]
