"""Reference interval analyzer: the structural AST walker.

``repro.analysis.intervals.interval_forward_bound`` runs the interval
domain as one iterative sweep over the flat IR.  The walker here applies
the same :class:`~repro.analysis.intervals.IntervalDomain` rules by
recursion on the syntax, as the analyzer did before the IR existed; it
is the oracle the sweep is compared with bit for bit.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.analysis.intervals import DEFAULT_RANGE, IntervalDomain, _input_env
from repro.analysis.transfer import (
    ANum,
    APair,
    ASum,
    AUnit,
    AbstractValue,
    join_values,
    worst_measure,
)
from repro.core import ast_nodes as A
from repro.core.errors import BeanTypeError
from repro.core.grades import eps_from_roundoff

__all__ = ["interval_forward_bound_ref"]


def interval_forward_bound_ref(
    definition: A.Definition,
    program: Optional[A.Program] = None,
    *,
    input_range: Tuple[float, float] = DEFAULT_RANGE,
    ranges: Optional[Mapping[str, Tuple[float, float]]] = None,
    leaf_ranges: Optional[Mapping[str, Sequence[Tuple[float, float]]]] = None,
    u: float = 2.0**-53,
) -> float:
    """:func:`~repro.analysis.intervals.interval_forward_bound`, computed
    by the structural walker."""
    domain = IntervalDomain(eps_from_roundoff(u))
    env = _input_env(definition, input_range, ranges, leaf_ranges)
    result = _RecursiveIntervalAnalyzer(program, domain).analyze(definition.body, env)
    return float(worst_measure(result, domain))


class _RecursiveIntervalAnalyzer:
    """The pre-IR structural walker.

    Recurses on AST shape (and copies the environment per binder, so it
    goes quadratic on binder chains); it is limited to programs whose
    nesting fits the default recursion limit — exactly the regime the
    bit-parity tests run it in against the iterative IR sweep.
    """

    __slots__ = ("program", "domain")

    def __init__(
        self, program: Optional[A.Program], domain: IntervalDomain
    ) -> None:
        self.program = program
        self.domain = domain

    def analyze(
        self, expr: A.Expr, env: Dict[str, AbstractValue]
    ) -> AbstractValue:
        domain = self.domain
        if isinstance(expr, A.Var):
            return env[expr.name]
        if isinstance(expr, A.UnitVal):
            return AUnit()
        if isinstance(expr, A.Bang):
            return self.analyze(expr.body, env)
        if isinstance(expr, A.Pair):
            return APair(
                self.analyze(expr.left, env), self.analyze(expr.right, env)
            )
        if isinstance(expr, A.Inl):
            return ASum(self.analyze(expr.body, env), None)
        if isinstance(expr, A.Inr):
            return ASum(None, self.analyze(expr.body, env))
        if isinstance(expr, (A.Let, A.DLet)):
            bound = self.analyze(expr.bound, env)
            inner = dict(env)
            inner[expr.name] = bound
            return self.analyze(expr.body, inner)
        if isinstance(expr, (A.LetPair, A.DLetPair)):
            bound = self.analyze(expr.bound, env)
            if not isinstance(bound, APair):
                raise BeanTypeError("pair elimination of non-pair abstraction")
            inner = dict(env)
            inner[expr.left] = bound.left
            inner[expr.right] = bound.right
            return self.analyze(expr.body, inner)
        if isinstance(expr, A.Case):
            scrut = self.analyze(expr.scrutinee, env)
            if not isinstance(scrut, ASum):
                raise BeanTypeError("case of non-sum abstraction")
            result: Optional[AbstractValue] = None
            if scrut.left is not None:
                inner = dict(env)
                inner[expr.left_name] = scrut.left
                result = join_values(
                    result, self.analyze(expr.left, inner), domain
                )
            if scrut.right is not None:
                inner = dict(env)
                inner[expr.right_name] = scrut.right
                result = join_values(
                    result, self.analyze(expr.right, inner), domain
                )
            if result is None:
                raise BeanTypeError("case with no reachable branch")
            return result
        if isinstance(expr, A.PrimOp):
            left = self.analyze(expr.left, env)
            right = self.analyze(expr.right, env)
            if not isinstance(left, ANum) or not isinstance(right, ANum):
                raise BeanTypeError("arithmetic on non-numeric abstraction")
            if expr.op is A.Op.ADD:
                return ANum(domain.add(left.leaf, right.leaf))
            if expr.op is A.Op.SUB:
                return ANum(domain.sub(left.leaf, right.leaf))
            if expr.op in (A.Op.MUL, A.Op.DMUL):
                return ANum(domain.mul(left.leaf, right.leaf))
            if expr.op is A.Op.DIV:
                return ASum(ANum(domain.div(left.leaf, right.leaf)), AUnit())
            raise BeanTypeError(f"unknown op {expr.op}")
        if isinstance(expr, A.Rnd):
            inner_val = self.analyze(expr.body, env)
            if not isinstance(inner_val, ANum):
                raise BeanTypeError("rnd of non-numeric abstraction")
            return ANum(domain.rnd(inner_val.leaf))
        if isinstance(expr, A.Call):
            if self.program is None or expr.name not in self.program:
                raise BeanTypeError(f"call to unknown definition {expr.name!r}")
            callee = self.program[expr.name]
            frame = {
                p.name: self.analyze(a, env)
                for p, a in zip(callee.params, expr.args)
            }
            return self.analyze(callee.body, frame)
        raise BeanTypeError(f"cannot analyze {expr!r}")
