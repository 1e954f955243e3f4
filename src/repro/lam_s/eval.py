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

:func:`evaluate` lowers a term to the flat IR and runs one forward
sweep of the unboxed slot executor (:mod:`repro.lam_s.executor`), which
also holds the rounding kernels (:func:`round_to_precision`,
:func:`stochastic_round`) re-exported here.

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

from typing import Mapping, Optional

from ..core import ast_nodes as A
from ..ir.cache import semantic_expr_ir
from .executor import (
    IDEAL_PRECISION,
    EvalError,
    _box,
    _Frame,
    _SlotExecutor,
    _unbox,
    round_to_precision,
    stochastic_round,
)
from .values import Value

__all__ = [
    "evaluate",
    "EvalError",
    "IDEAL_PRECISION",
    "stochastic_round",
    "round_to_precision",
]


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
) -> Value:
    """Evaluate a Λ_S (or erased-Bean) term under ⇓_id or ⇓_ap.

    ``rounding`` selects round-to-nearest (hardware) or seeded
    stochastic rounding for the approximate mode.  ``precision_bits``
    selects the simulated significand width of the approximate
    arithmetic (53 = native binary64, 24 = binary32, 11 = binary16);
    widths in (25, 53) are rejected because double rounding through
    binary64 would not be correctly rounded there.

    The term is lowered once to the flat IR and run as one forward
    sweep of the slot executor, so arbitrarily deep programs evaluate
    under the default recursion limit.
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
    ir = semantic_expr_ir(expr)
    env = env or {}
    raw = {p.name: _unbox(env[p.name]) for p in ir.params if env.get(p.name) is not None}
    executor = _SlotExecutor(program, precision, rounding, seed, precision_bits)
    if mode == "ideal":
        return _box(executor.ideal(ir, raw))
    frame = _Frame(ir, raw)
    executor.approx(frame)
    return _box(frame.result())
