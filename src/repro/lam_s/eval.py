"""Big-step operational semantics for Λ_S (Figure 6).

Two evaluation modes implement the paper's two step relations:

* ``mode="ideal"`` (⇓_id) — exact real arithmetic, approximated by
  :class:`decimal.Decimal` at a configurable precision (default 50
  significant digits; backward maps involve square roots, so true rational
  arithmetic is not closed);
* ``mode="approx"`` (⇓_ap) — IEEE-754 binary64 hardware floats.  This is
  *sound* for Bean's analysis: the standard model ``fl(x op y) =
  (x op y)(1 + δ), |δ| ≤ u`` is over-approximated by Olver's exponential
  model ``e^δ, |δ| ≤ u/(1-u)`` on which the type system's bounds are
  based (Section 2.1.1), assuming no overflow or underflow.

This module holds the paper's rules as written: :class:`_Interp`, the
structural reference interpreter (``engine="recursive"``), and the
rounding kernels (:func:`round_to_precision`, :func:`stochastic_round`)
that the slot executor of :mod:`repro.semantics.interp` also runs.

Division by zero produces ``inr ()`` in both modes, matching the ``div``
primitive's ``num + unit`` result type.  Λ_S is deterministic and strongly
normalizing (Theorem D.4): evaluation always returns exactly one value.

Two extensions beyond the paper's Figure 6:

* the unary ``rnd`` operation (the explicit-rounding extension of
  Section 2.2.1) rounds its operand to binary64 in approximate mode and
  is the identity in ideal mode;
* ``rounding="stochastic"`` implements stochastic rounding (up/down with
  probability proportional to the distance).  Each rounding decision is
  a *pure function* of (seed, operation, operand bits) — not of a
  sequential RNG state — so evaluation stays compositional: the lens
  backward map re-evaluates subterms standalone and must see the exact
  same rounding decisions the full run made.  Stochastic rounding
  satisfies ``fl(x) = x(1+δ)`` with ``|δ| ≤ 2u``, so Bean's bounds hold
  for it at an effective unit roundoff of ``2u`` — the probabilistic
  backward error setting the paper cites (Connolly et al. 2021) as
  future work.
"""

from __future__ import annotations

import decimal
import math
import random
from decimal import Decimal
from typing import Dict, Mapping, Optional

from ..core import ast_nodes as A
from ..core.deepstack import call_with_deep_stack
from .syntax import Const
from .values import UNIT_VALUE, Value, VInl, VInr, VNum, VPair, to_decimal

__all__ = [
    "evaluate",
    "EvalError",
    "IDEAL_PRECISION",
    "stochastic_round",
    "round_to_precision",
]

#: Significant digits of the ideal (Decimal) arithmetic.
IDEAL_PRECISION = 50


class EvalError(Exception):
    """Raised on malformed programs (ill-typed at runtime)."""


def round_to_precision(x: float, precision_bits: int) -> float:
    """Round a binary64 value to a ``p``-bit significand (nearest-even).

    Computing each operation in binary64 and then rounding to ``p`` bits
    yields *correctly rounded* p-bit arithmetic for +,-,*,/ whenever
    ``53 ≥ 2p + 2`` (double rounding is innocuous; Figueroa 1995), i.e.
    for every format up to p = 25 — covering binary16 (p = 11) and
    binary32 (p = 24).  Exponent range is unbounded, matching the
    paper's no-overflow/underflow assumption.
    """
    if precision_bits >= 53 or x == 0.0 or math.isinf(x) or math.isnan(x):
        return x
    mantissa, exponent = math.frexp(x)  # x = mantissa * 2^exponent, |m| in [0.5, 1)
    scaled = mantissa * (1 << precision_bits)  # exact: power-of-two scaling
    rounded = round(scaled)  # round-half-even, exact on floats
    return math.ldexp(rounded, exponent - precision_bits)


def stochastic_round(exact: Decimal, rng: random.Random) -> float:
    """Round a real to binary64 stochastically.

    Rounds to one of the two neighbouring floats, choosing the far one
    with probability proportional to proximity; unbiased in expectation
    and satisfying ``fl(x) = x(1+δ)`` with ``|δ| ≤ 2u``.
    """
    nearest = float(exact)
    dnear = Decimal(nearest)
    if dnear == exact or math.isinf(nearest):
        return nearest
    other = math.nextafter(
        nearest, math.inf if dnear < exact else -math.inf
    )
    gap = abs(Decimal(other) - dnear)
    if gap == 0:
        return nearest
    p_other = float(abs(exact - dnear) / gap)
    return other if rng.random() < p_other else nearest


def evaluate(
    expr: A.Expr,
    env: Optional[Mapping[str, Value]] = None,
    *,
    mode: str = "approx",
    program: Optional[A.Program] = None,
    precision: int = IDEAL_PRECISION,
    rounding: str = "nearest",
    seed: int = 0,
    precision_bits: int = 53,
    engine: str = "ir",
) -> Value:
    """Evaluate a Λ_S (or erased-Bean) term under ⇓_id or ⇓_ap.

    ``rounding`` selects round-to-nearest (hardware) or seeded
    stochastic rounding for the approximate mode.  ``precision_bits``
    selects the simulated significand width of the approximate
    arithmetic (53 = native binary64, 24 = binary32, 11 = binary16);
    widths in (25, 53) are rejected because double rounding through
    binary64 would not be correctly rounded there.

    ``engine="ir"`` (default) lowers the term once to the flat IR and
    runs one forward sweep of the unboxed slot executor
    (:class:`repro.semantics.interp._SlotExecutor`), so arbitrarily deep
    programs evaluate under the default recursion limit;
    ``engine="recursive"`` runs :class:`_Interp`, the structural
    reference interpreter, on a deep auxiliary stack.  Both implement
    Figure 6 exactly and agree value-for-value (including seeded
    stochastic rounding decisions, which are pure functions of the
    operands, not of evaluation strategy).
    """
    if mode not in ("ideal", "approx"):
        raise ValueError(f"unknown evaluation mode {mode!r}")
    if rounding not in ("nearest", "stochastic"):
        raise ValueError(f"unknown rounding mode {rounding!r}")
    if precision_bits != 53 and not 1 <= precision_bits <= 25:
        raise ValueError(
            "precision_bits must be 53 (native) or at most 25 "
            "(for correctly rounded simulation through binary64)"
        )
    if rounding == "stochastic" and precision_bits != 53:
        raise ValueError("stochastic rounding is only supported at 53 bits")
    if engine == "recursive":
        interpreter = _Interp(mode, program, precision, rounding, seed, precision_bits)
        return call_with_deep_stack(interpreter.run, expr, dict(env or {}))
    if engine != "ir":
        raise ValueError(f"unknown evaluation engine {engine!r}")
    from ..ir.cache import semantic_expr_ir
    from ..semantics.interp import _Frame, _SlotExecutor, _box, _unbox

    ir = semantic_expr_ir(expr)
    env = env or {}
    raw = {p.name: _unbox(env[p.name]) for p in ir.params if env.get(p.name) is not None}
    executor = _SlotExecutor(program, precision, rounding, seed, precision_bits)
    if mode == "ideal":
        return _box(executor.ideal(ir, raw))
    frame = _Frame(ir, raw)
    executor.approx(frame)
    return _box(frame.result())


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
        """The ``rnd`` kernel, shared by both engines (bit-identical)."""
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
