"""Reference evaluator: Figure 6's big-step rules, one syntax case at a time.

``repro.lam_s.eval.evaluate`` lowers a term to the flat IR and runs one
forward sweep of the unboxed slot executor.  This structural interpreter
over named environments is the rules as the paper writes them, kept as
the independent oracle the differential tests check the executor
against: same values, same seeded stochastic rounding decisions (they
are pure functions of the operands, not of evaluation order), same
errors.

``evaluate_ref`` takes :func:`repro.lam_s.eval.evaluate`'s arguments and
runs the interpreter on a deep auxiliary stack.
"""

from __future__ import annotations

import decimal
import random
from decimal import Decimal
from typing import Dict, Mapping, Optional

from repro.core import ast_nodes as A
from repro.core.deepstack import call_with_deep_stack
from repro.lam_s.eval import (
    IDEAL_PRECISION,
    EvalError,
    round_to_precision,
    stochastic_round,
)
from repro.lam_s.syntax import Const
from repro.lam_s.values import UNIT_VALUE, Value, VInl, VInr, VNum, VPair, to_decimal

__all__ = ["evaluate_ref"]


def evaluate_ref(
    expr: A.Expr,
    env: Optional[Mapping[str, Value]] = None,
    *,
    mode: str = "approx",
    program: Optional[A.Program] = None,
    precision: int = IDEAL_PRECISION,
    rounding: str = "nearest",
    seed: int = 0,
    precision_bits: int = 53,
) -> Value:
    """Evaluate a Λ_S term under ⇓_id or ⇓_ap with the structural rules."""
    interpreter = _Interp(mode, program, precision, rounding, seed, precision_bits)
    return call_with_deep_stack(interpreter.run, expr, dict(env or {}))


class _Interp:
    def __init__(
        self,
        mode: str,
        program: Optional[A.Program],
        precision: int,
        rounding: str = "nearest",
        seed: int = 0,
        precision_bits: int = 53,
    ):
        self.mode = mode
        self.program = program
        self.precision = precision
        self.rounding = rounding
        self.seed = seed
        self.precision_bits = precision_bits

    def _decision_rng(self, *key) -> random.Random:
        """A per-operation RNG keyed by the operands (see module doc)."""
        material = "\x1f".join([str(self.seed), *key])
        return random.Random(material)

    # -- arithmetic ------------------------------------------------------------

    def _binary(self, op: A.Op, a: VNum, b: VNum) -> Value:
        if self.mode == "approx" and self.rounding == "stochastic":
            return self._binary_stochastic(op, a, b)
        if self.mode == "approx":
            x, y = a.as_float(), b.as_float()
            p = self.precision_bits
            if op is A.Op.ADD:
                return VNum(round_to_precision(x + y, p))
            if op is A.Op.SUB:
                return VNum(round_to_precision(x - y, p))
            if op in (A.Op.MUL, A.Op.DMUL):
                return VNum(round_to_precision(x * y, p))
            if op is A.Op.DIV:
                if y == 0.0:
                    return VInr(UNIT_VALUE)
                return VInl(VNum(round_to_precision(x / y, p)))
        with decimal.localcontext() as ctx:
            ctx.prec = self.precision
            dx, dy = to_decimal(a.payload), to_decimal(b.payload)
            if op is A.Op.ADD:
                return VNum(dx + dy)
            if op is A.Op.SUB:
                return VNum(dx - dy)
            if op in (A.Op.MUL, A.Op.DMUL):
                return VNum(dx * dy)
            if op is A.Op.DIV:
                if dy == 0:
                    return VInr(UNIT_VALUE)
                return VInl(VNum(dx / dy))
        raise EvalError(f"unknown operation {op}")

    def _binary_stochastic(self, op: A.Op, a: VNum, b: VNum) -> Value:
        with decimal.localcontext() as ctx:
            ctx.prec = self.precision
            x, y = a.as_float(), b.as_float()
            dx, dy = Decimal(x), Decimal(y)
            if op is A.Op.ADD:
                exact = dx + dy
            elif op is A.Op.SUB:
                exact = dx - dy
            elif op in (A.Op.MUL, A.Op.DMUL):
                exact = dx * dy
            elif op is A.Op.DIV:
                if dy == 0:
                    return VInr(UNIT_VALUE)
                exact = dx / dy
            else:  # pragma: no cover - exhaustive
                raise EvalError(f"unknown operation {op}")
            rng = self._decision_rng(str(op), x.hex(), y.hex())
            rounded = VNum(stochastic_round(exact, rng))
            return VInl(rounded) if op is A.Op.DIV else rounded

    def _round_value(self, value: Value) -> Value:
        """The ``rnd`` kernel (bit-identical to the slot executor's)."""
        if not isinstance(value, VNum):
            raise EvalError(f"rnd of non-number {value!r}")
        if self.mode == "ideal":
            return value
        if self.rounding == "stochastic":
            with decimal.localcontext() as ctx:
                ctx.prec = self.precision
                rng = self._decision_rng("rnd", str(value.payload))
                return VNum(stochastic_round(value.as_decimal(), rng))
        return VNum(round_to_precision(value.as_float(), self.precision_bits))

    # -- evaluation ---------------------------------------------------------------

    def run(self, expr: A.Expr, env: Dict[str, Value]) -> Value:
        # Iterate over let-spines; benchmark programs nest thousands deep.
        while True:
            if isinstance(expr, (A.Let, A.DLet)):
                env = dict(env)
                env[expr.name] = self.run(expr.bound, env)
                expr = expr.body
                continue
            if isinstance(expr, (A.LetPair, A.DLetPair)):
                bound = self.run(expr.bound, env)
                if not isinstance(bound, VPair):
                    raise EvalError(f"let-pair of non-pair value {bound!r}")
                env = dict(env)
                env[expr.left] = bound.left
                env[expr.right] = bound.right
                expr = expr.body
                continue
            return self._step(expr, env)

    def _step(self, expr: A.Expr, env: Dict[str, Value]) -> Value:
        if isinstance(expr, A.Var):
            try:
                return env[expr.name]
            except KeyError:
                raise EvalError(f"unbound variable {expr.name!r} at runtime") from None
        if isinstance(expr, A.UnitVal):
            return UNIT_VALUE
        if isinstance(expr, Const):
            return VNum(expr.value)
        if isinstance(expr, A.Bang):
            return self.run(expr.body, env)
        if isinstance(expr, A.Rnd):
            return self._round_value(self.run(expr.body, env))
        if isinstance(expr, A.Pair):
            return VPair(self.run(expr.left, env), self.run(expr.right, env))
        if isinstance(expr, A.Inl):
            return VInl(self.run(expr.body, env))
        if isinstance(expr, A.Inr):
            return VInr(self.run(expr.body, env))
        if isinstance(expr, A.Case):
            scrut = self.run(expr.scrutinee, env)
            env = dict(env)
            if isinstance(scrut, VInl):
                env[expr.left_name] = scrut.body
                return self.run(expr.left, env)
            if isinstance(scrut, VInr):
                env[expr.right_name] = scrut.body
                return self.run(expr.right, env)
            raise EvalError(f"case scrutinee is not a sum value: {scrut!r}")
        if isinstance(expr, A.PrimOp):
            left = self.run(expr.left, env)
            right = self.run(expr.right, env)
            if not isinstance(left, VNum) or not isinstance(right, VNum):
                raise EvalError(f"arithmetic on non-numbers: {left!r}, {right!r}")
            return self._binary(expr.op, left, right)
        if isinstance(expr, A.Call):
            if self.program is None or expr.name not in self.program:
                raise EvalError(f"call to unknown definition {expr.name!r}")
            callee = self.program[expr.name]
            if len(callee.params) != len(expr.args):
                raise EvalError(f"{expr.name!r}: wrong argument count")
            frame = {
                p.name: self.run(a, env) for p, a in zip(callee.params, expr.args)
            }
            return self.run(callee.body, frame)
        raise EvalError(f"cannot evaluate {expr!r}")
