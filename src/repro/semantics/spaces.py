"""Slack distance spaces — the objects of the category Bel (Definition 6.1).

A slack distance space is ``(X, d_X, r_X)``: a carrier, a distance
function into ``R≥0 ∪ {∞}``, and a *slack* constant.  This module builds
the spaces Bean's semantics needs:

* ``num`` ↦ the reals with the relative precision metric RP (Equation 5),
* ``m(σ)`` ↦ the discrete space (distinct points infinitely far apart),
* ``σ ⊗ τ`` and ``σ + τ`` ↦ the combinators of Appendix B.2/B.4,
* the graded comonad ``D_r`` ↦ the same space with slack shifted by ``r``
  (Appendix B.5),
* the monoidal unit ``I`` (slack ∞) and terminal-ish ``1`` (slack 0).

Distances are computed on :class:`~repro.lam_s.values.Value` points, in
``Decimal`` arithmetic, with ``Decimal("Infinity")`` for ∞.  The paper's
convention ``a - ∞ = -∞``, ``∞ - a = ∞`` is implemented by
:func:`ext_sub`, and the key derived quantity ``excess(a, b) = d(a, b) -
slack`` (the left/right sides of lens Property 1, cf. Equation 22) is a
method on every space.
"""

from __future__ import annotations

import decimal
from decimal import Decimal
from typing import Any, Iterable, Optional, Tuple, Union

from ..core.grades import Grade, eps_from_roundoff
from ..core.types import Discrete, Num, Sum, Tensor, Type, Unit
from ..lam_s.values import Value, VInl, VInr, VNum, VPair, VUnit, to_decimal

__all__ = [
    "INF",
    "NEG_INF",
    "ext_sub",
    "rp_distance",
    "rp_max_distance",
    "Space",
    "NumSpace",
    "DiscreteSpace",
    "UnitSpace",
    "UnitObjectI",
    "TensorSpace",
    "SumSpace",
    "GradedSpace",
    "space_of_type",
    "type_distance",
    "grade_bound",
    "DISTANCE_PRECISION",
    "ROW_DISTANCE_DIGITS",
    "render_row_distance",
]

INF = Decimal("Infinity")
NEG_INF = Decimal("-Infinity")

#: Working precision for distance computations.
DISTANCE_PRECISION = 60

#: Significant digits of a per-row distance in the ``rows`` payload
#: section: as many as the batch engine's distance screen
#: can certify for nearly every row (its ``eft.MARGINS`` band straddles
#: an 8-digit rounding boundary on well under 1% of rows).
ROW_DISTANCE_DIGITS = 8

_ROW_DISTANCE_CONTEXT = decimal.Context(
    prec=ROW_DISTANCE_DIGITS,
    rounding=decimal.ROUND_HALF_EVEN,
    Emin=decimal.MIN_EMIN,
    Emax=decimal.MAX_EMAX,
)


def ext_sub(d: Decimal, r: Decimal) -> Decimal:
    """Extended-real subtraction with the paper's conventions.

    ``∞ - a = ∞`` for any ``a`` (including ∞), and ``a - ∞ = -∞`` for
    finite ``a`` (Definition 6.1's footnote).
    """
    if d == INF:
        return INF
    if r == INF:
        return NEG_INF
    with decimal.localcontext() as ctx:
        ctx.prec = DISTANCE_PRECISION
        return d - r


def rp_distance(x: Value, y: Value) -> Decimal:
    """The relative precision metric RP (Equation 5) on numeric values.

    ``RP(x, y) = |ln(x/y)|`` when x and y share a sign and are non-zero,
    ``0`` when both are zero, ``∞`` otherwise.
    """
    if not isinstance(x, VNum) or not isinstance(y, VNum):
        raise TypeError("RP distance is defined on numbers")
    dx, dy = x.as_decimal(), y.as_decimal()
    if dx == 0 and dy == 0:
        return Decimal(0)
    if dx == 0 or dy == 0 or (dx > 0) != (dy > 0):
        return INF
    with decimal.localcontext() as ctx:
        ctx.prec = DISTANCE_PRECISION
        return abs((dx / dy).ln())


def rp_max_distance(pairs: Iterable[Tuple[Any, Any]]) -> Decimal:
    """``max_i RP(xᵢ, yᵢ)`` over paired numeric leaves, with one ``ln``.

    This is ``d(a, b)`` for a tensor of ``num`` leaves: every slack is 0,
    so :meth:`TensorSpace.distance` reduces to the maximum of the leaf
    distances, and this function returns the same Decimal, digit for
    digit.  ``pairs`` holds raw payloads (floats, Decimals or ints).

    *Why one ln suffices.*  Decimal's ``ln`` is correctly rounded
    (libmpdec), hence monotone: ``r ≤ r'`` implies ``ln r ≤ ln r'`` after
    rounding.  With the ratios ``rᵢ = xᵢ/yᵢ`` taken at the same 60 digits
    as :func:`rp_distance`, ``max |ln rᵢ|`` is therefore
    ``max(ln(max rᵢ≥1), −ln(min rᵢ<1))``, each one ``ln`` of a ratio the
    per-leaf computation also forms.  A zero or sign-mismatched leaf
    makes the distance ∞, as it does per leaf; every leaf is still
    compared first, so the same inputs raise the same decimal signals.
    Equal nonzero distances are equal 60-digit roundings, so they also
    print the same; an all-zero maximum is ``Decimal(0)`` either way.
    """
    top: Optional[Decimal] = None
    bottom: Optional[Decimal] = None
    infinite = False
    with decimal.localcontext() as ctx:
        ctx.prec = DISTANCE_PRECISION
        for x, y in pairs:
            dx = x if x.__class__ is Decimal else to_decimal(x)
            dy = y if y.__class__ is Decimal else to_decimal(y)
            if dx == 0 and dy == 0:
                continue
            if dx == 0 or dy == 0 or (dx > 0) != (dy > 0):
                infinite = True
                continue
            r = dx / dy
            if r >= 1:
                if top is None or r > top:
                    top = r
            elif bottom is None or r < bottom:
                bottom = r
        if infinite:
            return INF
        extremes = [abs(r.ln()) for r in (top, bottom) if r is not None]
    return max(extremes) if extremes else Decimal(0)


class Space:
    """Base class of slack distance spaces.

    Subclasses provide ``distance`` and a ``slack``; the property-1
    quantity ``excess = distance - slack`` has a generic implementation
    but is overridden where a simpler compositional form exists
    (Equation 22).
    """

    slack: Decimal = Decimal(0)

    def distance(self, a: Value, b: Value) -> Decimal:
        raise NotImplementedError

    def excess(self, a: Value, b: Value) -> Decimal:
        return ext_sub(self.distance(a, b), self.slack)

    def contains(self, v: Value) -> bool:
        """Shallow structural membership check (used by tests)."""
        raise NotImplementedError


class NumSpace(Space):
    """Reals with the RP metric and zero slack: the meaning of ``num``."""

    def distance(self, a: Value, b: Value) -> Decimal:
        return rp_distance(a, b)

    def contains(self, v: Value) -> bool:
        return isinstance(v, VNum)

    def __repr__(self) -> str:
        return "NumSpace"


class DiscreteSpace(Space):
    """A discrete space: distance 0 on equal points, ∞ otherwise."""

    def __init__(self, inner: Space) -> None:
        self.inner = inner

    def distance(self, a: Value, b: Value) -> Decimal:
        # Use the inner space's notion of "the same point": two numeric
        # values are the same point of M(num) iff their RP distance is 0.
        return Decimal(0) if self.inner.distance(a, b) == 0 else INF

    def contains(self, v: Value) -> bool:
        return self.inner.contains(v)

    def __repr__(self) -> str:
        return f"DiscreteSpace({self.inner!r})"


class UnitSpace(Space):
    """The singleton space with zero slack: the ``unit`` type."""

    def distance(self, a: Value, b: Value) -> Decimal:
        if isinstance(a, VUnit) and isinstance(b, VUnit):
            return Decimal(0)
        raise TypeError("unit distance is defined on unit values")

    def contains(self, v: Value) -> bool:
        return isinstance(v, VUnit)

    def __repr__(self) -> str:
        return "UnitSpace"


class UnitObjectI(Space):
    """The monoidal unit I: a singleton with slack ∞ (Appendix B.2)."""

    slack = INF

    def distance(self, a: Value, b: Value) -> Decimal:
        return Decimal(0)

    def contains(self, v: Value) -> bool:
        return isinstance(v, VUnit)

    def __repr__(self) -> str:
        return "UnitObjectI"


class TensorSpace(Space):
    """The monoidal product X ⊗ Y (Equation 21)."""

    def __init__(self, left: Space, right: Space) -> None:
        self.left = left
        self.right = right
        rl, rr = left.slack, right.slack
        with decimal.localcontext() as ctx:
            ctx.prec = DISTANCE_PRECISION
            if rr == INF:
                self.slack = rl
            elif rl == INF:
                self.slack = rr
            else:
                self.slack = rl + rr

    def distance(self, a: Value, b: Value) -> Decimal:
        if not (isinstance(a, VPair) and isinstance(b, VPair)):
            raise TypeError("tensor distance is defined on pairs")
        dl = self.left.distance(a.left, b.left)
        dr = self.right.distance(a.right, b.right)
        if dl == INF or dr == INF:
            return INF
        if self.right.slack == INF:
            return dl
        if self.left.slack == INF:
            return dr
        with decimal.localcontext() as ctx:
            ctx.prec = DISTANCE_PRECISION
            return max(dl + self.right.slack, dr + self.left.slack)

    def excess(self, a: Value, b: Value) -> Decimal:
        # Equation 22: excess of a tensor is the max of component excesses.
        if not (isinstance(a, VPair) and isinstance(b, VPair)):
            raise TypeError("tensor excess is defined on pairs")
        return max(self.left.excess(a.left, b.left), self.right.excess(a.right, b.right))

    def contains(self, v: Value) -> bool:
        return (
            isinstance(v, VPair)
            and self.left.contains(v.left)
            and self.right.contains(v.right)
        )

    def __repr__(self) -> str:
        return f"TensorSpace({self.left!r}, {self.right!r})"


class SumSpace(Space):
    """The coproduct X + Y (Equation 35); requires finite slacks."""

    def __init__(self, left: Space, right: Space) -> None:
        if left.slack == INF or right.slack == INF:
            raise ValueError("coproducts require finite slack (Appendix B.4)")
        self.left = left
        self.right = right
        with decimal.localcontext() as ctx:
            ctx.prec = DISTANCE_PRECISION
            self.slack = left.slack + right.slack

    def distance(self, a: Value, b: Value) -> Decimal:
        with decimal.localcontext() as ctx:
            ctx.prec = DISTANCE_PRECISION
            if isinstance(a, VInl) and isinstance(b, VInl):
                d = self.left.distance(a.body, b.body)
                return INF if d == INF else d + self.right.slack
            if isinstance(a, VInr) and isinstance(b, VInr):
                d = self.right.distance(a.body, b.body)
                return INF if d == INF else d + self.left.slack
            return INF

    def contains(self, v: Value) -> bool:
        if isinstance(v, VInl):
            return self.left.contains(v.body)
        if isinstance(v, VInr):
            return self.right.contains(v.body)
        return False

    def __repr__(self) -> str:
        return f"SumSpace({self.left!r}, {self.right!r})"


class GradedSpace(Space):
    """``D_r X``: the graded comonad on objects (Appendix B.5).

    Same carrier and distance as ``X``; slack shifted by ``r``.  The shift
    is what turns lens Property 1 into a backward error *budget*.
    """

    def __init__(self, inner: Space, r: Union[Decimal, float, int]) -> None:
        self.inner = inner
        self.r = Decimal(r) if not isinstance(r, Decimal) else r
        with decimal.localcontext() as ctx:
            ctx.prec = DISTANCE_PRECISION
            self.slack = INF if inner.slack == INF else inner.slack + self.r

    def distance(self, a: Value, b: Value) -> Decimal:
        return self.inner.distance(a, b)

    def excess(self, a: Value, b: Value) -> Decimal:
        return ext_sub(self.inner.excess(a, b), self.r)

    def contains(self, v: Value) -> bool:
        return self.inner.contains(v)

    def __repr__(self) -> str:
        return f"GradedSpace({self.inner!r}, {self.r})"


def space_of_type(ty: Type) -> Space:
    """Interpret a Bean type as a space with zero slack (Section 6.1.2)."""
    if isinstance(ty, Num):
        return NumSpace()
    if isinstance(ty, Unit):
        return UnitSpace()
    if isinstance(ty, Discrete):
        return DiscreteSpace(space_of_type(ty.inner))
    if isinstance(ty, Tensor):
        return TensorSpace(space_of_type(ty.left), space_of_type(ty.right))
    if isinstance(ty, Sum):
        return SumSpace(space_of_type(ty.left), space_of_type(ty.right))
    raise TypeError(f"no space for type {ty!r}")


def type_distance(ty: Type, a: Value, b: Value) -> Decimal:
    """``d_{⟦ty⟧}(a, b)`` — the distance used by Theorem 3.1."""
    return space_of_type(ty).distance(a, b)


def grade_bound(grade: Grade, u: float) -> Decimal:
    """A grade's numeric bound ``coeff · u/(1-u)`` as an exact Decimal."""
    with decimal.localcontext() as ctx:
        ctx.prec = DISTANCE_PRECISION
        du = to_decimal(u)
        eps = du / (1 - du)
        return (
            Decimal(grade.coeff.numerator) * eps / Decimal(grade.coeff.denominator)
        )


def render_row_distance(d: Decimal) -> str:
    """The one rendering of a per-row distance in the ``rows`` section.

    ``ROW_DISTANCE_DIGITS`` significant digits, rounded half-even from
    the exact value, in the scientific notation of Python's
    ``format(x, ".7e")`` (``"2.5786797e-16"``, ``"1.0000000e+00"``);
    zero renders ``"0"`` and infinity ``"Infinity"``.  The rounding runs
    under a private context, so the ambient decimal context never
    changes the bytes, and a binary64 ``x`` renders exactly as
    ``format(x, ".7e")`` does — which is what lets the batch engine's
    float screen produce these strings without building a Decimal.
    """
    if not d.is_finite():
        return str(d)
    if d.is_zero():
        return "0"
    rounded = _ROW_DISTANCE_CONTEXT.plus(d)
    sign, digits, _ = rounded.as_tuple()
    mantissa = "".join(map(str, digits)).ljust(ROW_DISTANCE_DIGITS, "0")
    return (
        f"{'-' if sign else ''}{mantissa[0]}.{mantissa[1:]}"
        f"e{rounded.adjusted():+03d}"
    )


# Re-exported convenience: numeric eps for floats.
_ = eps_from_roundoff
