"""Error-free transformations and the perturbation-form screen kernels.

The batch witness engine (:mod:`repro.semantics.batch`) screens its
backward and ideal sweeps in floating point and settles every row the
screen cannot decide through the 50-digit scalar reference.  This
module holds the arithmetic of that screen.

*Error-free transformations* (EFTs; Higham, *Accuracy and Stability of
Numerical Algorithms* §4.3):

* :func:`two_sum` (Knuth) — ``s, e`` with ``s = fl(a + b)`` and
  ``a + b = s + e`` **exactly**, for any two finite doubles;
* :func:`two_prod` (Dekker/Veltkamp) — ``p, e`` with ``p = fl(a * b)``
  and ``a * b = p + e`` **exactly**, provided no over/underflow occurs
  in the splitting (the engine keeps every forward value inside
  ``[UNDERFLOW_LIMIT, OVERFLOW_LIMIT]`` or marks its row suspect).

*Perturbation form* (the engine's screen).  A Bean witness is a
relative perturbation, so the engine carries every screened value
``x̃`` as its binary64 forward value ``x`` and a float64 ``δ`` with
``x̃ = x·(1 + δ)`` (Higham's ``(1+δ)`` model, §2-4).  Each forward op
``r ≈ x1 ∘ x2`` contributes ``η`` with ``x1 ∘ x2 = r·(1 + η)``
exactly, from the exact error of its EFT (:func:`eta_add`,
:func:`eta_mul`, :func:`eta_div`, :func:`eta_round`).  The Appendix C
backward maps and the ideal semantics then reduce to a few float ops
on ``δ`` and ``η`` (:func:`back_linear`, :func:`back_root`,
:func:`ideal_sum`, :func:`ideal_prod`, :func:`ideal_quot`,
:func:`grow`), and the RP distance of a perturbed leaf is
``|ln(1 + δ)|`` (:func:`log_distance`).  Every kernel avoids the
cancellation of forming ``1 + δ`` and subtracting one again, so each
has an error bound *relative to its own terms*, stated per kernel
below with ``u = 2^-53``.

*Double-double* (**dd**) kernels — ``hi + lo`` pairs of float64 arrays,
~106 significant bits, relative error at most ``14u²`` (Li et al.,
*QD*; Joldes–Muller–Popescu error bounds): :func:`dd_add`,
:func:`dd_sub`, :func:`dd_mul`, :func:`dd_div`, :func:`dd_sqrt`.  They
serve the value-form test oracle (``tests/oracles/batch_dd_ref.py``,
which also holds the dd∘binary64 kernels), and the benchmark's layer
spans wrap their names.

Soundness contract with the batch engine
----------------------------------------

The witness pipeline never *reports* a screened value: every exact
number that reaches a payload (per-parameter max distances, per-row
reports, ambiguous verdicts) is recomputed by the scalar ``Decimal``
reference on exactly the rows that need it.  The screen decides which
rows provably match the reference and which must be rechecked.  The
one string it renders itself is a per-row distance at 8 significant
digits, and only where its whole error band rounds to that string.

The screen's error is the error of ``λ = ln(1 + δ)``, the quantity the
distance reads.  Along the backward sweep ``λ`` is linear: an
``add``/``sub``/``dmul``/``rnd`` step maps ``λ3`` to ``λ3 - ln(1+η)``
and a ``mul``/``div`` step to half of that, so every ``|λ|`` on a path
of ``K`` rounding ops is at most ``L = K·ε`` with ``ε = -ln(1 - η_max)``
and ``η_max`` the forward rounding's relative error bound.  Each
backward step adds at most ``8u·(|δ'| + |η|)/(1 + δ')`` to the error
of ``λ`` (its kernels' roundings, ``<= 8u|δ'|`` for the longest, div's
divisor witness, plus the ``<= 3u|η|`` error of ``η``), and passes its
input's error on with factor 1 or 1/2.  So a leaf's
distance is within

    ``E = 8u·K·e^L·(e^L - 1 + η_max)``  (:func:`backward_error_bound`)

of the exact one, to first order in ``u``.  Errors add up at about
``u`` relative per op, not ``u²`` as in dd, which is why the bound grows
with ``K²``: ~1.4e-27 for ``K = 120`` binary64 ops, inside the screen's
absolute band term (``MARGINS.slack``); the engine widens that term
(and the noise-floor cap) to ``MARGINS.widening·E`` for any program
where it is not (see ``BatchWitnessEngine._screen_bounds``).  The
relative band term (``MARGINS.relative``) covers the ``<= 2u`` relative
error of ``log1p``.  The ideal sweep feeds only the lens-exactness
screen, whose thresholds (``MARGINS.close_sure``, ``MARGINS.far_sure``)
rest on Property 2: the exact ideal value *is* the forward value, so a
screened gap is rounding noise (~``u·cond·|δ|``).  Any larger gap is
weighed by a condition sweep (``repro.semantics.batch._conditions``)
that bounds both the 50-digit reference's own noise and the screen's
own error in the gap: the row is close if the former is below the
tolerance and the gap within the latter, far only if the gap passes
``far_sure`` by more than the screen's error (which at reduced
precision can itself exceed ``far_sure``), and rechecked otherwise.
Each margin is declared once, in :data:`MARGINS`.

Rows where the EFT premises fail — a forward value outside
``[UNDERFLOW_LIMIT, OVERFLOW_LIMIT]`` (Dekker splitting may overflow,
error terms may go subnormal; ``Decimal``'s exponent range is vastly
wider), a square root of a non-positive ratio, a divisor the ideal
sweep would zero or flip, a discrete target with a nonzero ``δ``, or
any non-finite ``δ`` — are marked suspect or
undecided and settled by the per-row ``Decimal`` reference.  Underflow
inside a ``δ`` term is harmless: its absolute error ``<= 2^-1075``,
divided by a forward value ``>= UNDERFLOW_LIMIT``, is ~1e-44 in ``δ``.

All kernels are elementwise over ``float64`` ndarrays and assume the
caller suppresses IEEE warnings (``np.errstate``); out-of-range rows
produce inf/nan garbage that the suspect masks quarantine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

__all__ = [
    "DD",
    "MARGINS",
    "OVERFLOW_LIMIT",
    "UNDERFLOW_LIMIT",
    "SPLITTER",
    "ScreenMargins",
    "U",
    "back_linear",
    "back_reciprocal",
    "back_root",
    "backward_error_bound",
    "dd_add",
    "dd_div",
    "dd_mul",
    "dd_neg",
    "dd_sqrt",
    "dd_sub",
    "eta_add",
    "eta_div",
    "eta_mul",
    "eta_round",
    "grow",
    "ideal_prod",
    "ideal_quot",
    "ideal_sum",
    "log_distance",
    "split",
    "two_prod",
    "two_sum",
]

Array = np.ndarray


@dataclass(frozen=True)
class ScreenMargins:
    """The batch screen's soundness margins, one per contract term above."""

    #: Relative term of every distance band: ``log1p``'s ``<= 2u`` error.
    relative: float = 1e-12
    #: Absolute term of every distance band: ``E`` of short binary64 chains.
    slack: float = 1e-26
    #: Cap on a noise-floor leaf's exact distance: ``noise_floor + E``.
    noise_cap: float = 1e-27
    #: A leaf distance below this may be the reference's rounding noise.
    noise_floor: float = 1e-28
    #: Factor by which ``slack`` and ``noise_cap`` cover ``E`` on any chain.
    widening: float = 2.0
    #: A closeness gap this small is Property 2's rounding noise.
    close_sure: float = 1e-26
    #: A closeness gap past this (and the screen's error) fails Property 2.
    far_sure: float = 1e-8
    #: Largest κ whose reference noise ``κ·1e-49`` stays under the tolerance.
    close_kappa: float = 1e18
    #: Largest κ whose reference noise stays far below ``far_sure``.
    far_kappa: float = 1e30

    def band(self, x: Union[float, Array], slack: float) -> Union[float, Array]:
        """A screened distance ``x``'s error band, given a program's ``slack``."""
        return self.relative * x + slack


#: The margins every batch verdict rests on; the engine reads each from here.
MARGINS = ScreenMargins()

#: Dekker's splitting constant ``2**27 + 1``: multiplies a double into
#: two 26-bit halves whose product terms are exact.
SPLITTER = 134217729.0

#: Magnitudes above this make Dekker splitting (``x * SPLITTER``) or
#: three-factor witness products liable to overflow ``float64`` even
#: though ``Decimal`` sails through; such rows are suspect.
OVERFLOW_LIMIT = 1e280

#: Nonzero magnitudes below this approach the subnormal range, where
#: ``two_sum``/``two_prod`` exactness claims fail (the error term
#: itself can be inexact); such rows are suspect.
UNDERFLOW_LIMIT = 1e-280


class DD:
    """A batched double-double: elementwise unevaluated sums ``hi + lo``.

    Kernel outputs are normalized (``hi = fl(hi + lo)``), so ``hi``
    alone is the correctly-rounded double of the represented value —
    zero/sign/comparison screens read ``hi``: a normalized dd is zero
    iff its ``hi`` is, and has the sign of its ``hi``.
    """

    __slots__ = ("hi", "lo")

    def __init__(self, hi: Array, lo: Array) -> None:
        self.hi = hi
        self.lo = lo

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DD({self.hi!r}, {self.lo!r})"


# --------------------------------------------------------------------------
# The error-free transformations
# --------------------------------------------------------------------------


def two_sum(a: Array, b: Array) -> Tuple[Array, Array]:
    """Knuth's TwoSum: ``s = fl(a+b)``, ``e`` with ``a + b = s + e`` exactly.

    Soundness: for any two finite doubles whose rounded sum does not
    overflow, the rounding error of IEEE-754 addition is itself a
    double, and Knuth's 6-flop branch-free recovery computes it exactly
    (Higham §4.3, Thm 4.6; no magnitude ordering required).  Overflow
    of ``s`` makes ``e`` nan — caught by the caller's range guard.
    """
    s = a + b
    v = s - a
    e = (a - (s - v)) + (b - v)
    return s, e


def _fast_two_sum(a: Array, b: Array) -> Tuple[Array, Array]:
    """Dekker's FastTwoSum: exact when ``|a| >= |b|`` elementwise.

    Soundness: with the magnitude precondition the 3-flop recovery
    ``e = b - (s - a)`` is the exact rounding error (Dekker 1971).  The
    dd kernels below only call it on ``(hi, err)`` pairs whose first
    component dominates by construction (the result of a prior rounding
    step), so the precondition holds wherever the pair is normalized.
    """
    s = a + b
    e = b - (s - a)
    return s, e


def split(a: Array) -> Tuple[Array, Array]:
    """Veltkamp split: ``a = x + y`` exactly, each half on 26 bits.

    Soundness: exact for ``|a| < 2**996`` (Dekker); beyond that the
    ``a * SPLITTER`` product overflows to a nan error term, which the
    caller's range guard flags.  :data:`OVERFLOW_LIMIT` keeps callers
    far inside the valid range.  A split depends only on its operand,
    so a caller that multiplies or divides by the same binary64 array
    many times computes it once and passes it to :func:`two_prod`.
    """
    t = SPLITTER * a
    x = t - (t - a)
    y = a - x
    return x, y


def two_prod(a: Array, b: Array,
             b_split: Optional[Tuple[Array, Array]] = None) -> Tuple[Array, Array]:
    """Dekker's TwoProd: ``p = fl(a*b)``, ``e`` with ``a * b = p + e`` exactly.

    Soundness: with both factors split exactly, the four partial
    products are exact in double and their telescoped differences
    recover the rounding error of ``a * b`` exactly (Dekker 1971;
    Higham §4.3) — provided neither the product nor the partials
    over/underflow.  NumPy ships no vectorized fma, so the 17-flop
    Dekker form is used; out-of-range rows are quarantined by
    the caller's range guard, never silently accepted.  ``b_split`` is
    ``split(b)`` when the caller already has it.  ``(p, e)`` is a
    normalized dd (``|e| <= ulp(p)/2``).
    """
    p = a * b
    a_hi, a_lo = split(a)
    b_hi, b_lo = split(b) if b_split is None else b_split
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, e


# --------------------------------------------------------------------------
# Perturbation form: x̃ = x·(1 + δ) beside the binary64 forward value x
# --------------------------------------------------------------------------
#
# ``r`` is an op's binary64 forward result; ``r=None`` says it is the
# nearest binary64 of the exact result (``fl(a ∘ b)``), the kernels'
# cheaper case.  Otherwise ``r`` is a faithful rounding of ``a ∘ b``
# (reduced precision or stochastic rounding), within a factor 2 of the
# EFT's leading term, so their difference is exact by Sterbenz's lemma.
# A ``δ`` of ``None`` is the zero perturbation (the value is bitwise
# its forward value); kernels skip its terms.  Bounds are first order
# in ``u = 2^-53`` and assume the caller's range guards hold.

#: The unit roundoff of binary64.
U = 2.0**-53


def eta_add(a: Array, b: Array, r: Optional[Array] = None) -> Array:
    """``η`` with ``a + b = r·(1 + η)`` exactly, within ``2u|η|``.

    The TwoSum error ``e`` is exact; with ``r`` given, ``fl(a+b) - r``
    is exact too, so the one rounding of the sum and the division cost
    ``u|η|`` each.
    """
    s, e = two_sum(a, b)
    if r is None:
        return e / s
    return ((s - r) + e) / r


def eta_mul(a: Array, b: Array, r: Optional[Array] = None,
            b_split: Optional[Tuple[Array, Array]] = None) -> Array:
    """``η`` with ``a·b = r·(1 + η)`` exactly, within ``2u|η|``.

    As :func:`eta_add`, with the exact TwoProd error in place of
    TwoSum's; ``b_split`` is ``split(b)`` when the caller reuses ``b``.
    """
    p, e = two_prod(a, b, b_split)
    if r is None:
        return e / p
    return ((p - r) + e) / r


def eta_div(a: Array, b: Array, r: Array) -> Array:
    """``η`` with ``a/b = r·(1 + η)`` exactly, within ``3u|η|``.

    The residual ``a - r·b`` is ``(a - p) - e`` for the exact TwoProd
    ``r·b = p + e``; ``a - p`` is exact by Sterbenz's lemma, so one
    rounding forms it.  ``η = R/(r·b)``, and dividing by ``p`` in place
    of ``r·b`` (relative ``u``) and the division itself add ``2u|η|``.
    """
    p, e = two_prod(r, b)
    return ((a - p) - e) / p


def eta_round(x: Array, r: Array) -> Array:
    """``η`` with ``x = r·(1 + η)`` for a rounding ``r`` of ``x``.

    ``x - r`` is exact by Sterbenz's lemma; the division costs
    ``u|η|``.
    """
    return (x - r) / r


def back_linear(d3: Optional[Array], eta: Array) -> Array:
    """The add/sub/dmul/rnd backward step: ``(1+δ3)/(1+η) - 1``.

    Formed as ``(δ3 - η)/(1 + η)``: ``x3 = r(1+δ3)`` over an exact
    operand sum (or product by a discrete factor, or unrounded value)
    ``r(1+η)`` scales each linear operand by ``(1+δ3)/(1+η)``.  The
    subtraction, ``fl(1+η)`` and the division each cost at most
    ``u|δ'|``; an input error ``Δ3`` passes on as ``Δ3/(1+η)``, which
    in ``λ = ln(1+δ)`` is factor 1.  Fresh error ``<= 3u|δ'|``.
    """
    num = -eta if d3 is None else d3 - eta
    return num / (1.0 + eta)


def back_root(rho: Array) -> Array:
    """``√(1+ρ) - 1`` without cancellation: ``ρ/(1 + √(1+ρ))``.

    The mul and div backward steps scale both operands by
    ``√((1+δ3)/(1+η))`` (Appendix C), i.e. by ``√(1+ρ)`` with
    ``ρ = back_linear(δ3, η)``.  ``fl(1+ρ)`` and the square root
    perturb the denominator ``≈ 2`` by ``<= 1.5u`` relative and the
    division adds ``u``: fresh error ``<= 3u|δ|``, and an input error
    in ``ρ`` passes on halved (in ``λ``, exactly as the step halves
    ``λ``).  The caller settles rows with ``ρ <= -1`` (a non-positive
    ratio, where the reference takes a root of a non-positive value)
    per row.
    """
    return rho / (1.0 + np.sqrt(1.0 + rho))


def back_reciprocal(d: Array) -> Array:
    """``1/(1+δ) - 1 = -δ/(1+δ)``: div's divisor witness from its
    dividend's, whose factors multiply to one.  Fresh error
    ``<= 2u|δ'|``; in ``λ`` the step is a negation (factor 1)."""
    return -d / (1.0 + d)


def ideal_sum(eta: Array, x1: Array, d1: Optional[Array], x2: Array,
              d2: Optional[Array], r: Array, subtract: bool = False) -> Array:
    """Ideal ``x̃1 ± x̃2`` in perturbation form: ``η + (x1·δ1 ± x2·δ2)/r``.

    ``x1(1+δ1) ± x2(1+δ2) = r(1+η) + x1·δ1 ± x2·δ2`` exactly.  The two
    products, their sum, the division and the final addition give
    absolute error ``<= 3u(|x1·δ1| + |x2·δ2|)/|r| + u|δ|``; the input
    errors enter scaled by ``|x_i/r|``, the op's condition number.
    """
    if d1 is None and d2 is None:
        return eta
    if d1 is None:
        assert d2 is not None
        t = x2 * d2
        terms = -t if subtract else t
    else:
        terms = x1 * d1
        if d2 is not None:
            terms = terms - x2 * d2 if subtract else terms + x2 * d2
    return eta + terms / r


def ideal_prod(d1: Optional[Array], d2: Optional[Array]) -> Optional[Array]:
    """``(1+δ1)(1+δ2) - 1 = δ1 + (δ2 + δ1·δ2)``, within
    ``u(|δ2| + 2|δ1·δ2| + |δ|)`` — the perturbation of a product of two
    perturbed factors (``None`` if neither is perturbed)."""
    if d1 is None:
        return d2
    if d2 is None:
        return d1
    return d1 + (d2 + d1 * d2)


def ideal_quot(d1: Optional[Array], d2: Optional[Array]) -> Optional[Array]:
    """``(1+δ1)/(1+δ2) - 1 = (δ1 - δ2)/(1+δ2)``, within ``3u|δ|``.
    The caller settles rows with ``δ2 <= -1`` (a zero or sign-flipped
    ideal divisor) per row."""
    if d2 is None:
        return d1
    num = -d2 if d1 is None else d1 - d2
    return num / (1.0 + d2)


def grow(eta: Array, a: Optional[Array]) -> Array:
    """``(1+η)(1+a) - 1 = η + (a + η·a)``: an op's exact result
    ``r(1+η)`` scaled by its operands' joint perturbation ``1+a``.
    Within ``u(|a| + 2|η·a| + |δ|)``."""
    if a is None:
        return eta
    return eta + (a + eta * a)


def log_distance(d: Array, out: Optional[np.ndarray] = None) -> Array:
    """The RP distance ``|ln(1+δ)|`` of ``x(1+δ)`` from ``x`` (into
    ``out`` if given, which may be ``d`` itself).

    ``log1p`` is accurate to ~1ulp relative at every scale, so the
    result is within ``2u`` relative of ``|ln(1+δ)|`` for the computed
    ``δ``; an error ``Δ`` in ``δ`` moves it by ``|Δ|/(1+δ)``.  Rows
    with ``δ <= -1`` (a zero or sign-flipped witness, infinite
    distance) or a nan ``δ`` come out nan or inf: the caller's
    undecided rows.
    """
    return np.abs(np.log1p(d, out=out), out=out)


def backward_error_bound(steps: int, eta_max: float) -> float:
    """``E``: the screen's absolute error bound on a leaf distance.

    ``steps`` is the longest chain of rounding ops from the result to
    any leaf (each backward kernel above is one step) and ``eta_max``
    bounds every forward op's ``|η|``.  See the soundness contract in
    the module docstring; ``inf`` where ``e^L`` would overflow.
    """
    if steps <= 0:
        return 0.0
    spread = steps * -math.log1p(-eta_max)
    if spread > 600.0:
        return math.inf
    growth = math.exp(spread)
    return 8.0 * U * steps * growth * (growth - 1.0 + eta_max)


# --------------------------------------------------------------------------
# Double-double arithmetic
# --------------------------------------------------------------------------


def dd_add(x: DD, y: DD) -> DD:
    """dd addition (accurate variant, ~2e-32 relative error).

    Soundness: the leading components combine by exact
    :func:`two_sum`; the error terms join the trailing sum and two
    normalization passes restore ``|lo| <= ulp(hi)/2``.  When both
    operands are pure floats (``lo == 0`` — every first-level witness
    formula), the result is **exact**: it is precisely Knuth's TwoSum,
    so zero/sign screens on such sums are decisions about the real
    value.  In general the relative error is bounded by ``3·2^-106``
    (Joldes–Muller–Popescu, Thm 1 for the accurate add).
    """
    s, e = two_sum(x.hi, y.hi)
    t, f = two_sum(x.lo, y.lo)
    e = e + t
    s, e = _fast_two_sum(s, e)
    e = e + f
    hi, lo = _fast_two_sum(s, e)
    return DD(hi, lo)


def dd_neg(x: DD) -> DD:
    """Exact negation (sign flips are error-free in IEEE-754)."""
    return DD(-x.hi, -x.lo)


def dd_sub(x: DD, y: DD) -> DD:
    """dd subtraction = addition of the exact negation (same bounds)."""
    return dd_add(x, dd_neg(y))


def dd_mul(x: DD, y: DD) -> DD:
    """dd multiplication, ~2e-32 relative error.

    Soundness: the leading product is an exact :func:`two_prod`; the
    cross terms ``hi·lo`` contribute below ``2^-53`` of the result and
    are added in working precision; one normalization restores the
    invariant.  Relative error ``<= 7·2^-106`` (JMP, Thm 2).  Exactness
    of the *leading* component means a zero ``fl(x.hi * y.hi)`` with
    nonzero factors can only be underflow — flagged suspect, because
    ``Decimal`` would keep a nonzero product there.
    """
    p, e = two_prod(x.hi, y.hi)
    e = e + (x.hi * y.lo + x.lo * y.hi)
    hi, lo = _fast_two_sum(p, e)
    return DD(hi, lo)


def dd_div(x: DD, y: DD) -> DD:
    """dd division: one correction against the exact residual, ``<= 14u²``.

    Soundness: ``q = fl(x.hi/y.hi)``; ``q·y.hi`` is an exact
    :func:`two_prod` ``p + e`` and ``x.hi - p`` is exact by Sterbenz's
    lemma, so the residual ``R = x - q·y`` is
    ``(x.hi - p) - e + x.lo - q·y.lo`` exactly.  Each of those terms is
    at most ``u·|x.hi|`` (``u = 2^-53``), so the four roundings that
    form ``R`` cost at most ``7u²·|x.hi|``; dividing by ``y.hi`` in
    place of ``y`` costs ``3u²`` more, and the final rounding ``3u²``.
    ``q + R/y`` is ``x/y`` exactly, so the FastTwoSum of ``q`` and the
    correction is within ``13u² + O(u³)`` relative.  Division by an
    exact dd zero is the caller's case to handle — the batch engine
    marks the row suspect and leaves it to the per-row ``Decimal``
    reference — so no zero substitution happens here; zero divisors
    yield inf/nan garbage the suspect mask quarantines.
    """
    q = x.hi / y.hi
    p, e = two_prod(q, y.hi)
    residual = (((x.hi - p) - e) + x.lo) - q * y.lo
    hi, lo = _fast_two_sum(q, residual / y.hi)
    return DD(hi, lo)


def dd_sqrt(x: DD) -> DD:
    """dd square root (Karp–Markstein refinement), ~3e-32 relative error.

    Soundness: one Newton step on the reciprocal square root, with the
    residual ``x - s²`` formed through the exact :func:`two_prod`
    leading term, doubles the seed's 53-bit accuracy past 106 bits
    (Karp & Markstein 1997).  Exact zeros map to exact zeros.  Negative
    leading components would produce nan — the engine marks a row with
    a negative radicand suspect (the per-row ``Decimal`` reference
    decides it, ``Decimal.sqrt``'s InvalidOperation included), so nan
    here only arises on rows already quarantined.
    """
    zero = x.hi == 0.0
    # Avoid 1/sqrt(0) = inf poisoning the zero rows: substitute 1.0
    # under the mask, then restore the exact zeros at the end.
    safe_hi = np.where(zero, 1.0, x.hi)
    root = np.sqrt(safe_hi)
    inv = 1.0 / root
    s = root  # 53-bit seed of sqrt(x)
    p, e = two_prod(s, s)
    # residual = x - s*s, in dd (exact leading term)
    residual = dd_sub(DD(np.where(zero, 1.0, x.hi), np.where(zero, 0.0, x.lo)), DD(p, e))
    corr = residual.hi * (inv * 0.5)
    hi, lo = _fast_two_sum(s, corr)
    return DD(np.where(zero, 0.0, hi), np.where(zero, 0.0, lo))
