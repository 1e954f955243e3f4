"""Blame traces: *where* a variable's backward error bound comes from.

Inference says DotProd's vector absorbs ``n·ε``; this module says *why*,
by walking the variable's (unique, by linearity) dataflow path to the
program result and recording every charge along it — the same traversal
as :mod:`repro.core.pathcost`, instrumented:

    >>> from repro.core import check_definition, parse_program
    >>> d = parse_program(
    ...     "F (a0 : num) (y1 : num) (y2 : num) := "
    ...     "let x = add a0 y1 in add x y2"
    ... ).main
    >>> trace = explain_variable(check_definition(d), d, "a0")
    >>> print(format_trace(trace))
    a0 : 2ε
          ε  add a0 y1                                  (operand of add)
          ε  add x y2                                   (operand of add, via x)

Charges through ``let`` indirection are attributed to the operation
that consumed the bound variable, with a "via" note.  The CLI surface
is ``repro-bean explain FILE --var NAME``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from . import ast_nodes as A
from .checker import Judgment
from .deepstack import call_with_deep_stack
from .errors import BeanTypeError
from .grades import EPS, HALF_EPS, ZERO, Grade
from .pretty import pretty_expr

__all__ = ["Charge", "BlameTrace", "explain_variable", "format_trace"]


@dataclass(frozen=True)
class Charge:
    """One contribution to a variable's bound."""

    grade: Grade
    site: str  # rendered source of the charging construct
    reason: str  # e.g. "operand of add", "max over pair components"
    via: Optional[str] = None  # intermediate variable carrying the flow


@dataclass(frozen=True)
class BlameTrace:
    """The full accounting for one variable."""

    variable: str
    total: Grade
    charges: List[Charge]

    def check(self) -> bool:
        """The charges must sum to the total (up to max-joins, which are
        recorded as single charges)."""
        acc = ZERO
        for c in self.charges:
            acc = acc + c.grade
        return acc.coeff == self.total.coeff


def _clip(expr: A.Expr, limit: int = 40) -> str:
    text = pretty_expr(expr).replace("\n", " ")
    return text if len(text) <= limit else text[: limit - 3] + "..."


class _Explainer:
    """pathcost's traversal, instrumented to record charges."""

    def __init__(self) -> None:
        self._fv: Dict[int, frozenset] = {}

    def fv(self, expr: A.Expr) -> frozenset:
        key = id(expr)
        if key not in self._fv:
            self._fv[key] = frozenset(A.free_variables(expr))
        return self._fv[key]

    def demand(
        self, expr: A.Expr, var: str, via: Optional[str], out: List[Charge]
    ) -> Grade:
        if isinstance(expr, A.Var):
            return ZERO
        if isinstance(expr, (A.Bang, A.Inl, A.Inr)):
            return self.demand(expr.body, var, via, out)
        if isinstance(expr, A.Rnd):
            out.append(Charge(EPS, _clip(expr), "explicit rounding", via))
            return self.demand(expr.body, var, via, out) + EPS
        if isinstance(expr, A.Pair):
            side = expr.left if var in self.fv(expr.left) else expr.right
            return self.demand(side, var, via, out)
        if isinstance(expr, A.PrimOp):
            in_left = var in self.fv(expr.left)
            if expr.op is A.Op.DMUL:
                charge = ZERO if in_left else EPS
            elif expr.op in (A.Op.ADD, A.Op.SUB):
                charge = EPS
            else:
                charge = HALF_EPS
            if not charge.is_zero:
                out.append(
                    Charge(charge, _clip(expr), f"operand of {expr.op}", via)
                )
            side = expr.left if in_left else expr.right
            return self.demand(side, var, via, out) + charge
        if isinstance(expr, A.Let):
            if var in self.fv(expr.bound):
                inner = self.demand(expr.bound, var, via, out)
                if expr.name in self.fv(expr.body):
                    carried = self.demand(
                        expr.body, expr.name, via or expr.name, out
                    )
                    return inner + carried
                return inner
            return self.demand(expr.body, var, via, out)
        if isinstance(expr, A.DLet):
            if var in self.fv(expr.bound):
                return self.demand(expr.bound, var, via, out)
            return self.demand(expr.body, var, via, out)
        if isinstance(expr, (A.LetPair, A.DLetPair)):
            return self._explain_letpair(expr, var, via, out)
        if isinstance(expr, A.Case):
            return self._explain_case(expr, var, via, out)
        if isinstance(expr, A.Call):
            raise BeanTypeError(
                "explain requires a call-free body (inline calls first)"
            )
        raise BeanTypeError(f"{var!r} does not occur in {expr!r}")

    def _explain_letpair(self, expr, var, via, out) -> Grade:
        discrete = isinstance(expr, A.DLetPair)
        if var in self.fv(expr.bound):
            inner = self.demand(expr.bound, var, via, out)
            if discrete:
                return inner
            body_fv = self.fv(expr.body)
            best = ZERO
            best_charges: List[Charge] = []
            for component in (expr.left, expr.right):
                if component not in body_fv:
                    continue
                candidate: List[Charge] = []
                grade = self.demand(
                    expr.body, component, via or component, candidate
                )
                if grade.coeff > best.coeff or not best_charges:
                    best, best_charges = grade, candidate
            out.extend(best_charges)
            return inner + best
        return self.demand(expr.body, var, via, out)

    def _explain_case(self, expr: A.Case, var, via, out) -> Grade:
        if var in self.fv(expr.scrutinee):
            inner = self.demand(expr.scrutinee, var, via, out)
            best = ZERO
            best_charges: List[Charge] = []
            for name, branch in (
                (expr.left_name, expr.left),
                (expr.right_name, expr.right),
            ):
                if name not in self.fv(branch):
                    continue
                candidate: List[Charge] = []
                grade = self.demand(branch, name, via or name, candidate)
                if grade.coeff > best.coeff or not best_charges:
                    best, best_charges = grade, candidate
            out.extend(best_charges)
            return inner + best
        # Worst branch containing the variable.
        best = None
        best_charges: List[Charge] = []
        for branch in (expr.left, expr.right):
            if var not in self.fv(branch):
                continue
            candidate: List[Charge] = []
            grade = self.demand(branch, var, via, candidate)
            if best is None or grade.coeff > best.coeff:
                best, best_charges = grade, candidate
        if best is None:
            raise BeanTypeError(f"{var!r} does not occur in {expr!r}")
        out.extend(best_charges)
        return best


def explain_variable(
    judgment: Judgment,
    definition: A.Definition,
    variable: str,
    *,
    program: Optional[A.Program] = None,
) -> BlameTrace:
    """Trace the charges making up ``variable``'s inferred bound.

    Bodies containing calls are inlined first (hygienically), so the
    trace shows the actual operations.
    """
    body = definition.body
    if any(isinstance(e, A.Call) for e in A.subexpressions(body)):
        from ..lam_s.syntax import inline_calls

        body = inline_calls(body, program)
    explainer = _Explainer()
    charges: List[Charge] = []
    if variable in explainer.fv(body):
        total = call_with_deep_stack(
            explainer.demand, body, variable, None, charges
        )
    else:
        total = ZERO
    expected = judgment.grade_of(variable)
    if total.coeff != expected.coeff:
        raise AssertionError(
            f"blame trace for {variable!r} sums to {total}, but inference "
            f"says {expected} — explainer bug"
        )
    return BlameTrace(variable, total, charges)


def format_trace(trace: BlameTrace) -> str:
    """Render a trace like the module docstring's example."""
    lines = [f"{trace.variable} : {trace.total}"]
    if not trace.charges:
        lines.append("  (no backward error assigned)")
    for c in trace.charges:
        via = f", via {c.via}" if c.via else ""
        lines.append(f"  {str(c.grade):>5}  {c.site:<42} ({c.reason}{via})")
    return "\n".join(lines)
