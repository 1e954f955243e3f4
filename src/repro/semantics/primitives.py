"""The primitive arithmetic lenses of Appendix C.

Each floating-point operation denotes a lens whose three components are:

* **forward** — exact real arithmetic (Decimal at high precision),
* **approx** — actual IEEE binary64 arithmetic (a sound instance of
  Olver's model ``fl(x op y) = (x op y)·e^δ`` with ``|δ| ≤ u/(1−u)``),
* **backward** — the explicit witness constructions of Appendix C
  (Equations 52-54 and their analogues), e.g. for addition::

      b((x₁,x₂), x₃) = (x₃·x₁/(x₁+x₂), x₃·x₂/(x₁+x₂))

One refinement over the appendix text: for ``mul``/``div`` with negative
operands the square-root witnesses are given the operands' signs so that
Property 2 holds exactly (``√(x₃²) = |x₃|`` would otherwise flip signs;
the appendix implicitly works with same-sign data, cf. its "both non-zero
and of the same sign" case analyses).

The ``*_backward`` functions work on raw Decimals and are shared with the
program interpreters; each one's generic-case formula is a ``*_witness``
function that the slot executor also calls directly.  ``lens_add`` etc.
wrap them as categorical lenses ``D_ε(R) ⊗ D_ε(R) → R`` for the lens-law
test suite.
"""

from __future__ import annotations

import decimal
from decimal import Decimal
from typing import Any, Callable, Optional, Tuple

from ..core.ast_nodes import Op
from ..core.grades import eps_from_roundoff
from ..lam_s.values import UNIT_VALUE, Value, VInl, VInr, VNum, VPair
from .lens import Lens, LensDomainError
from .spaces import (
    DiscreteSpace,
    GradedSpace,
    NumSpace,
    SumSpace,
    TensorSpace,
    UnitSpace,
)

__all__ = [
    "BACKWARD_PRECISION",
    "add_backward",
    "sub_backward",
    "mul_backward",
    "div_backward",
    "dmul_backward",
    "backward_for_op",
    "lens_add",
    "lens_sub",
    "lens_mul",
    "lens_div",
    "lens_dmul",
]

#: Working precision (significant digits) of backward-map arithmetic.
BACKWARD_PRECISION = 50


# The witness formulas.  Each ``*_witness`` computes in the caller's
# decimal context and returns ``None`` unless the fl-result and the
# target share a sign (the generic case); the ``*_backward`` maps run
# it at ``BACKWARD_PRECISION`` and handle zeros and errors.  The slot
# executor's backward sweep, already in that context, calls the
# ``*_witness`` forms first and the maps only when they return ``None``.


def add_witness(x1: Decimal, x2: Decimal, x3: Decimal) -> Optional[Tuple[Decimal, Decimal]]:
    """``(x₃·x₁/(x₁+x₂), x₃·x₂/(x₁+x₂))`` (Equation 54)."""
    s = x1 + x2
    if (s > 0 and x3 > 0) or (s < 0 and x3 < 0):
        return x3 * x1 / s, x3 * x2 / s
    return None


def sub_witness(x1: Decimal, x2: Decimal, x3: Decimal) -> Optional[Tuple[Decimal, Decimal]]:
    """``(x₃·x₁/(x₁−x₂), x₃·x₂/(x₁−x₂))``."""
    d = x1 - x2
    if (d > 0 and x3 > 0) or (d < 0 and x3 < 0):
        return x3 * x1 / d, x3 * x2 / d
    return None


def mul_witness(x1: Decimal, x2: Decimal, x3: Decimal) -> Optional[Tuple[Decimal, Decimal]]:
    """Both inputs scaled by ``√(x₃/(x₁·x₂))``: the error is split evenly."""
    p = x1 * x2
    if (p > 0 and x3 > 0) or (p < 0 and x3 < 0):
        scale = (x3 / p).sqrt()
        return x1 * scale, x2 * scale
    return None


def div_witness(x1: Decimal, x2: Decimal, x3: Decimal) -> Optional[Tuple[Decimal, Decimal]]:
    """``(±√|x₁·x₂·x₃|, ±√|x₁·x₂/x₃|)`` with the operands' signs, so
    ``b₁/b₂ = x₃`` exactly; ``x₂`` must be non-zero."""
    q = x1 / x2
    if (q > 0 and x3 > 0) or (q < 0 and x3 < 0):
        magnitude1 = abs(x1 * x2 * x3).sqrt()
        magnitude2 = abs(x1 * x2 / x3).sqrt()
        b1 = magnitude1 if x1 > 0 else -magnitude1
        b2 = magnitude2 if x2 > 0 else -magnitude2
        return b1, b2
    return None


def dmul_witness(x1: Decimal, x2: Any, x3: Decimal) -> Optional[Tuple[Decimal, Decimal]]:
    """``(x₁, x₃/x₁)``: all the error goes onto the linear operand.

    The sign test reads the factors, not their product: the caller
    makes sure ``x₁·x₂`` neither overflows nor underflows to zero, as
    for any two binary64 operands (``x₂`` may be the float itself).
    """
    if x2 > 0:
        same = (x1 > 0 and x3 > 0) or (x1 < 0 and x3 < 0)
    elif x2 < 0:
        same = (x1 < 0 and x3 > 0) or (x1 > 0 and x3 < 0)
    else:
        same = False
    return (x1, x3 / x1) if same else None


def _degenerate(
    label: str, result: Decimal, x1: Decimal, x2: Decimal, x3: Decimal
) -> Tuple[Decimal, Decimal]:
    """The non-generic cases of a backward map: a zero result and a zero
    target give the inputs back; anything else is not comparable."""
    if result == 0 and x3 == 0:
        return x1, x2
    raise LensDomainError(
        f"{label} backward: fl-result {result} and target {x3} are not comparable"
    )


def add_backward(x1: Decimal, x2: Decimal, x3: Decimal) -> Tuple[Decimal, Decimal]:
    """Backward map of addition (Equation 54)."""
    with decimal.localcontext() as ctx:
        ctx.prec = BACKWARD_PRECISION
        witness = add_witness(x1, x2, x3)
        return witness if witness is not None else _degenerate("add", x1 + x2, x1, x2, x3)


def sub_backward(x1: Decimal, x2: Decimal, x3: Decimal) -> Tuple[Decimal, Decimal]:
    """Backward map of subtraction (Appendix C, Sub case)."""
    with decimal.localcontext() as ctx:
        ctx.prec = BACKWARD_PRECISION
        witness = sub_witness(x1, x2, x3)
        return witness if witness is not None else _degenerate("sub", x1 - x2, x1, x2, x3)


def mul_backward(x1: Decimal, x2: Decimal, x3: Decimal) -> Tuple[Decimal, Decimal]:
    """Backward map of multiplication (Appendix C, Mul case)."""
    with decimal.localcontext() as ctx:
        ctx.prec = BACKWARD_PRECISION
        witness = mul_witness(x1, x2, x3)
        return witness if witness is not None else _degenerate("mul", x1 * x2, x1, x2, x3)


def div_backward(x1: Decimal, x2: Decimal, target: Value) -> Tuple[Decimal, Decimal]:
    """Backward map of division (Appendix C, Div case).

    The target lives in ``num + unit``.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = BACKWARD_PRECISION
        if x2 == 0:
            if isinstance(target, VInr):
                return x1, x2
            raise LensDomainError("div backward: division by zero vs. inl target")
        if isinstance(target, VInr):
            raise LensDomainError("div backward: finite quotient vs. inr target")
        x3 = target.body.as_decimal() if isinstance(target, VInl) else None
        if x3 is None:
            raise LensDomainError(f"div backward: bad target {target!r}")
        witness = div_witness(x1, x2, x3)
        return witness if witness is not None else _degenerate("div", x1 / x2, x1, x2, x3)


def dmul_backward(x1: Decimal, x2: Decimal, x3: Decimal) -> Tuple[Decimal, Decimal]:
    """Backward map of discrete multiplication (Appendix C, DMul case).

    The first (discrete) operand is returned untouched.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = BACKWARD_PRECISION
        p = x1 * x2
        witness = dmul_witness(x1, x2, x3) if p != 0 else None
        return witness if witness is not None else _degenerate("dmul", p, x1, x2, x3)


def backward_for_op(op: Op) -> Callable:
    """The raw backward function for a primitive operation."""
    return {
        Op.ADD: add_backward,
        Op.SUB: sub_backward,
        Op.MUL: mul_backward,
        Op.DIV: div_backward,
        Op.DMUL: dmul_backward,
    }[op]


# ---------------------------------------------------------------------------
# Categorical lens wrappers  D_g(R) ⊗ D_g(R) → R  (Appendix C)
# ---------------------------------------------------------------------------


def _nums(v: Value) -> Tuple[Decimal, Decimal]:
    if not isinstance(v, VPair) or not isinstance(v.left, VNum) or not isinstance(
        v.right, VNum
    ):
        raise TypeError(f"primitive lens input must be a pair of numbers: {v!r}")
    return v.left.as_decimal(), v.right.as_decimal()


def _ideal_ctx():
    ctx = decimal.Context(prec=BACKWARD_PRECISION)
    return ctx


def _binary_lens(
    label: str,
    operand_grade: Decimal,
    forward_fn,
    approx_fn,
    backward_fn,
    *,
    target_space=None,
    left_discrete: bool = False,
) -> Lens:
    num_space = NumSpace()
    left = DiscreteSpace(num_space) if left_discrete else GradedSpace(num_space, operand_grade)
    right = GradedSpace(num_space, operand_grade)
    return Lens(
        source=TensorSpace(left, right),
        target=target_space if target_space is not None else num_space,
        forward=forward_fn,
        approx=approx_fn,
        backward=backward_fn,
        label=label,
    )


def _grade_eps(u: float) -> Decimal:
    return Decimal(eps_from_roundoff(u))


def lens_add(u: float = 2.0**-53) -> Lens:
    """``L_add : D_ε(R) ⊗ D_ε(R) → R`` (Equations 52-54)."""
    eps = _grade_eps(u)

    def forward(v: Value) -> Value:
        x1, x2 = _nums(v)
        return VNum(_ideal_ctx().add(x1, x2))

    def approx(v: Value) -> Value:
        x1, x2 = _nums(v)
        return VNum(float(x1) + float(x2))

    def backward(v: Value, t: Value) -> Value:
        x1, x2 = _nums(v)
        b1, b2 = add_backward(x1, x2, t.as_decimal())
        return VPair(VNum(b1), VNum(b2))

    return _binary_lens("L_add", eps, forward, approx, backward)


def lens_sub(u: float = 2.0**-53) -> Lens:
    """``L_sub : D_ε(R) ⊗ D_ε(R) → R``."""
    eps = _grade_eps(u)

    def forward(v: Value) -> Value:
        x1, x2 = _nums(v)
        return VNum(_ideal_ctx().subtract(x1, x2))

    def approx(v: Value) -> Value:
        x1, x2 = _nums(v)
        return VNum(float(x1) - float(x2))

    def backward(v: Value, t: Value) -> Value:
        x1, x2 = _nums(v)
        b1, b2 = sub_backward(x1, x2, t.as_decimal())
        return VPair(VNum(b1), VNum(b2))

    return _binary_lens("L_sub", eps, forward, approx, backward)


def lens_mul(u: float = 2.0**-53) -> Lens:
    """``L_mul : D_{ε/2}(R) ⊗ D_{ε/2}(R) → R``."""
    half = _grade_eps(u) / 2

    def forward(v: Value) -> Value:
        x1, x2 = _nums(v)
        return VNum(_ideal_ctx().multiply(x1, x2))

    def approx(v: Value) -> Value:
        x1, x2 = _nums(v)
        return VNum(float(x1) * float(x2))

    def backward(v: Value, t: Value) -> Value:
        x1, x2 = _nums(v)
        b1, b2 = mul_backward(x1, x2, t.as_decimal())
        return VPair(VNum(b1), VNum(b2))

    return _binary_lens("L_mul", half, forward, approx, backward)


def lens_div(u: float = 2.0**-53) -> Lens:
    """``L_div : D_{ε/2}(R) ⊗ D_{ε/2}(R) → R + 1``."""
    half = _grade_eps(u) / 2
    target = SumSpace(NumSpace(), UnitSpace())

    def forward(v: Value) -> Value:
        x1, x2 = _nums(v)
        if x2 == 0:
            return VInr(UNIT_VALUE)
        return VInl(VNum(_ideal_ctx().divide(x1, x2)))

    def approx(v: Value) -> Value:
        x1, x2 = _nums(v)
        f1, f2 = float(x1), float(x2)
        if f2 == 0.0:
            return VInr(UNIT_VALUE)
        return VInl(VNum(f1 / f2))

    def backward(v: Value, t: Value) -> Value:
        x1, x2 = _nums(v)
        b1, b2 = div_backward(x1, x2, t)
        return VPair(VNum(b1), VNum(b2))

    return _binary_lens("L_div", half, forward, approx, backward, target_space=target)


def lens_dmul(u: float = 2.0**-53) -> Lens:
    """``L_dmul : M(R) ⊗ D_ε(R) → R`` — first operand discrete."""
    eps = _grade_eps(u)

    def forward(v: Value) -> Value:
        x1, x2 = _nums(v)
        return VNum(_ideal_ctx().multiply(x1, x2))

    def approx(v: Value) -> Value:
        x1, x2 = _nums(v)
        return VNum(float(x1) * float(x2))

    def backward(v: Value, t: Value) -> Value:
        x1, x2 = _nums(v)
        b1, b2 = dmul_backward(x1, x2, t.as_decimal())
        return VPair(VNum(b1), VNum(b2))

    return _binary_lens("L_dmul", eps, forward, approx, backward, left_discrete=True)
