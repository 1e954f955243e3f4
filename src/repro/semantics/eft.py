"""Error-free transformations: double-double NumPy kernels.

The batch witness engine's dominant cost used to be phases 2-3 of
:mod:`repro.semantics.batch` — the backward reverse sweep and the ideal
re-evaluation — executed as per-op ``np.frompyfunc`` dispatch over
object arrays of 50-digit :class:`decimal.Decimal`.  Every element of
every op paid Python-level ``Decimal`` arithmetic.

This module replaces that arithmetic with *error-free transformations*
(EFTs) in the style of Higham, *Accuracy and Stability of Numerical
Algorithms* §4.3, and Ogita–Rump–Oishi's accurate-summation kernels:

* :func:`two_sum` (Knuth) — ``s, e`` with ``s = fl(a + b)`` and
  ``a + b = s + e`` **exactly**, for any two finite doubles;
* :func:`two_prod` (Dekker/Veltkamp) — ``p, e`` with ``p = fl(a * b)``
  and ``a * b = p + e`` **exactly**, provided no over/underflow occurs
  in the splitting (callers guard the range; see
  :func:`range_suspect`);
* double-double (**dd**) arithmetic — a value is an unevaluated sum
  ``hi + lo`` of two ``float64`` arrays with ``|lo| <= ulp(hi)/2``,
  giving ~106 significant bits (~32 decimal digits).  The dd
  add/sub/mul/div/sqrt kernels below carry relative error at most
  ``14u²`` (``u = 2^-53``, ``u² = 2^-106``; Li et al., *QD*;
  Joldes–Muller–Popescu error bounds);
* dd∘binary64 kernels — :func:`dd_add_fp`, :func:`dd_mul_fp`,
  :func:`dd_div_fp` take one operand as a plain double, within ``2u²``,
  ``3u²`` and ``3u²``.  The batch engine's forward values, untouched
  ideal leaves, discrete values and literals are all binary64, so
  these (and the exact :func:`two_sum`/:func:`two_prod` when both
  operands are binary64) do most of the work; the generic dd kernels
  run only where both operands are dd;
* :func:`rp_distance` — the distance screen's ``|ln(o/n)|`` for a
  binary64 original ``o`` and a dd witness ``n``, within ``5u``
  relative at every scale.

Soundness contract with the batch engine
----------------------------------------

The witness pipeline never *reports* a dd value: every exact number
that reaches a payload (per-parameter max distances, per-row reports,
ambiguous verdicts) is recomputed by the scalar ``Decimal`` reference
on exactly the rows that need it.  The dd sweeps are a **screen**: they
decide, with ~1e18-wide safety margins, which rows provably match the
Decimal verdicts and which must be rechecked.  The one string the
screen renders itself is a per-row distance at 8 significant digits,
and only where the whole ``1e-12``-relative band around the dd
distance rounds to that string — so the exact distance does too.  For that to be sound the
kernels must satisfy two properties, each argued per kernel below:

1. **exactness where claimed** — ``two_sum``/``two_prod`` are exact
   (error-free) on in-range data, so zero/sign tests on their results
   are decisions about the *real* value, matching ``Decimal`` bit for
   bit;
2. **bounded rounding elsewhere** — every dd kernel's relative error is
   ``O(2^-104)``, at least eighteen orders of magnitude below the
   1e-30 closeness tolerance and the distance-screen bands the batch
   engine uses, so a verdict decided outside those bands cannot be an
   artifact of dd rounding.  The screen's own distance arithmetic
   (:func:`rp_distance`, ~6e-16 relative) sits ~1e3 inside its
   ``1e-12``-relative margins.

Rows where a kernel leaves the range on which these arguments hold —
non-finite intermediates, magnitudes beyond ``OVERFLOW_LIMIT`` or
beneath ``UNDERFLOW_LIMIT`` where Dekker splitting or subnormal
rounding voids the EFT guarantees (``Decimal``'s exponent range is
vastly wider) — must be diverted to the per-row ``Decimal`` reference.
:func:`range_suspect` is that detector; the engine ORs it into its
per-row suspect mask after every kernel application.

All kernels are elementwise over ``float64`` ndarrays and assume the
caller suppresses IEEE warnings (``np.errstate``); out-of-range rows
produce inf/nan garbage that the suspect mask quarantines.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

__all__ = [
    "DD",
    "OVERFLOW_LIMIT",
    "UNDERFLOW_LIMIT",
    "SPLITTER",
    "as_dd",
    "dd_abs",
    "dd_add",
    "dd_add_fp",
    "dd_div",
    "dd_div_fp",
    "dd_mul",
    "dd_mul_fp",
    "dd_neg",
    "dd_sqrt",
    "dd_sub",
    "from_float",
    "range_suspect",
    "rp_distance",
    "split",
    "two_prod",
    "two_sum",
    "where",
]

Array = np.ndarray

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


def from_float(a: Array) -> DD:
    """Exact embedding of a float64 array: ``a == a + 0`` identically."""
    return DD(np.asarray(a, dtype=np.float64), np.zeros_like(a, dtype=np.float64))


def as_dd(x: Union[DD, Array]) -> DD:
    """Coerce a float leaf array to dd (exact); pass dd through."""
    if isinstance(x, DD):
        return x
    return from_float(x)


# --------------------------------------------------------------------------
# The error-free transformations
# --------------------------------------------------------------------------


def two_sum(a: Array, b: Array) -> Tuple[Array, Array]:
    """Knuth's TwoSum: ``s = fl(a+b)``, ``e`` with ``a + b = s + e`` exactly.

    Soundness: for any two finite doubles whose rounded sum does not
    overflow, the rounding error of IEEE-754 addition is itself a
    double, and Knuth's 6-flop branch-free recovery computes it exactly
    (Higham §4.3, Thm 4.6; no magnitude ordering required).  Overflow
    of ``s`` makes ``e`` nan — caught by :func:`range_suspect`.
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
    ``a * SPLITTER`` product overflows to a nan error term, which
    :func:`range_suspect` flags.  :data:`OVERFLOW_LIMIT` keeps callers
    far inside the valid range.  A split depends only on its operand,
    so a caller that multiplies or divides by the same binary64 array
    many times computes it once and passes it to :func:`two_prod`,
    :func:`dd_mul_fp` and :func:`dd_div_fp`.
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
    :func:`range_suspect`, never silently accepted.  ``b_split`` is
    ``split(b)`` when the caller already has it.  ``(p, e)`` is a
    normalized dd (``|e| <= ulp(p)/2``).
    """
    p = a * b
    a_hi, a_lo = split(a)
    b_hi, b_lo = split(b) if b_split is None else b_split
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, e


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


def dd_abs(x: DD) -> DD:
    """Exact magnitude: negate where the leading component is negative."""
    neg = x.hi < 0.0
    return DD(np.where(neg, -x.hi, x.hi), np.where(neg, -x.lo, x.lo))


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


# --------------------------------------------------------------------------
# dd ∘ binary64 kernels
# --------------------------------------------------------------------------
#
# The batch engine's forward sweep produces binary64 arrays, so every
# first-level operand of a witness formula — and every leaf of the ideal
# sweep the backward map left untouched — is a plain double, not a dd.
# Treating it as ``DD(a, 0)`` pays for a trailing component that is
# identically zero.  The kernels below take the binary64 operand as is
# (Joldes–Muller–Popescu 2017, "Tight and rigorous error bounds for
# basic building blocks of double-word arithmetic"; ``u`` is ``2^-53``,
# so ``u² = 2^-106``).  Each relative-error bound assumes
# no over/underflow, which :func:`range_suspect` polices.


def dd_add_fp(x: DD, y: Array) -> DD:
    """dd + binary64, relative error ``<= 2u²``.

    Soundness: the leading components combine by exact :func:`two_sum`;
    the trailing component joins the error term in one rounding and a
    FastTwoSum normalizes (JMP's ``DWPlusFP``).  Half the work of
    :func:`dd_add`, which also adds two trailing components.
    """
    s, e = two_sum(x.hi, y)
    hi, lo = _fast_two_sum(s, x.lo + e)
    return DD(hi, lo)


def dd_mul_fp(x: DD, y: Array,
              y_split: Optional[Tuple[Array, Array]] = None) -> DD:
    """dd × binary64, relative error ``<= 3u²``.

    Soundness: ``x.hi·y`` is an exact :func:`two_prod`; ``x.lo·y`` is
    below ``u`` of the result and joins the error term in working
    precision; one FastTwoSum normalizes.  JMP bound the variant that
    fuses ``x.lo·y + e`` into one fma by ``2u²``; forming it with two
    roundings adds at most ``u·|x.lo·y| <= u²·|x·y|``.  ``y_split`` is
    ``split(y)`` when the caller reuses one divisor or factor.
    """
    p, e = two_prod(x.hi, y, y_split)
    hi, lo = _fast_two_sum(p, e + x.lo * y)
    return DD(hi, lo)


def dd_div_fp(x: DD, y: Array,
              y_split: Optional[Tuple[Array, Array]] = None) -> DD:
    """dd ÷ binary64, relative error ``<= 3u²``.

    Soundness: the quotient's leading double ``t = fl(x.hi/y)`` leaves
    the residual ``x - t·y``; ``t·y`` is an exact :func:`two_prod`,
    ``x.hi - fl(t·y)`` is exact by Sterbenz's lemma, and the residual
    divided by ``y`` is the correction (JMP's ``DWDivFP3``; their fma
    forms ``t·y`` exactly, as TwoProd does here, so the bound carries
    over).  Zero divisors yield inf/nan garbage, as in :func:`dd_div`.
    """
    t = x.hi / y
    p, e = two_prod(t, y, y_split)
    correction = (((x.hi - p) - e) + x.lo) / y
    hi, lo = _fast_two_sum(t, correction)
    return DD(hi, lo)


def rp_distance(o: Array, n: DD) -> Tuple[Array, Array]:
    """The RP distance ``|ln(o/n)|`` in binary64, and where it is undecided.

    Returns ``(d, undecided)``.  ``undecided`` flags rows the metric
    cannot settle in floating point: a zero on either side or a sign
    flip (where the exact metric is infinite), and non-finite or
    overflowing ratios.  ``d`` is garbage on those rows.

    Elsewhere ``d`` is within ``5u`` relative of the exact distance,
    however small.  Where ``o/n.hi`` lies in ``[1/2, 2]``, ``o - n.hi``
    is exact by Sterbenz's lemma (a TwoSum whose error term is zero), so
    ``gap = ((o - n.hi) - n.lo)/n.hi`` is ``(o - n)/n`` up to three
    roundings, and ``log1p`` is well-conditioned on ``|gap| <= 1/2``:
    gaps at the screens' ``1e-28`` noise floor keep full relative
    precision, where a dd quotient ``o/n`` minus one would cancel.
    The rare rows with ``|gap| > 1/2`` (``|ln(o/n)| >= 0.405``) take
    ``|ln(o/n.hi)|`` instead, whose absolute error of a few ulps is
    again below ``5u`` relative.
    """
    nh = n.hi
    gap = ((o - nh) - n.lo) / nh
    d = np.abs(np.log1p(gap))
    size = np.abs(gap)
    far = size > 0.5
    if far.any():
        d[far] = np.abs(np.log(o[far] / nh[far]))
    # o·sign(n) > 0: both nonzero with one sign; nan fails it.
    decided = o * np.sign(nh) > 0.0
    decided &= np.isfinite(d)
    decided &= size <= 1e300
    return d, ~decided


# --------------------------------------------------------------------------
# Screens and guards
# --------------------------------------------------------------------------


def range_suspect(x: DD) -> Array:
    """Rows where the dd soundness arguments stop holding.

    Flags non-finite components (overflowed kernels, nan garbage),
    magnitudes beyond :data:`OVERFLOW_LIMIT` (subsequent splits or
    three-factor witness products may overflow), and nonzero magnitudes
    beneath :data:`UNDERFLOW_LIMIT` (subnormal territory where the EFT
    error terms are no longer exact).  ``Decimal``'s exponent range
    covers all of these, so flagged rows are handed to the per-row
    ``Decimal`` reference by the engine.

    One clamp tests both magnitude limits: ``|hi|`` survives clamping
    to ``[UNDERFLOW_LIMIT, OVERFLOW_LIMIT]`` unchanged iff it lies in
    that range, and nan never compares equal.  Adding ``lo·0`` (``±0``
    for finite ``lo``, nan otherwise) folds ``lo``'s finiteness into
    the same test.
    """
    a = np.abs(x.hi)
    a += x.lo * 0.0
    clamped = np.maximum(a, UNDERFLOW_LIMIT)
    np.minimum(clamped, OVERFLOW_LIMIT, out=clamped)
    bad = clamped != a
    bad &= a != 0.0
    return bad


def where(mask: Array, left: Union[DD, Array], right: Union[DD, Array]) -> DD:
    """Elementwise row-select between dd values (exact, per component)."""
    dl, dr = as_dd(left), as_dd(right)
    return DD(np.where(mask, dl.hi, dr.hi), np.where(mask, dl.lo, dr.lo))
