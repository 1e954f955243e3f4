"""Runtime values shared by the Λ_S evaluators and the lens semantics.

Values follow the paper's grammar (Appendix D)::

    v ::= () | k ∈ R | (v, v) | inl v | inr v

Numbers carry either a binary64 ``float`` (the approximate semantics) or a
high-precision :class:`decimal.Decimal` (our stand-in for the ideal
real-arithmetic semantics).  :func:`values_close` compares values across
the two representations with a tolerance far below binary64 resolution,
which is how tests check Property 2 of backward error lenses
(``f(b(x, y)) = y``) despite ideal arithmetic being carried out at finite
(50-digit) precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from typing import List, Sequence, Union

__all__ = [
    "Value",
    "VUnit",
    "VNum",
    "VPair",
    "VInl",
    "VInr",
    "UNIT_VALUE",
    "num",
    "pair_of",
    "vector_value",
    "vector_components",
    "values_close",
    "CLOSE_TOLERANCE",
    "to_decimal",
]

NumberLike = Union[int, float, Decimal]


def to_decimal(x: NumberLike) -> Decimal:
    """Exact conversion to Decimal (floats convert without rounding)."""
    if isinstance(x, Decimal):
        return x
    if isinstance(x, int):
        return Decimal(x)
    return Decimal(x)  # Decimal(float) is exact in Python


class Value:
    """Base class for runtime values."""

    __slots__ = ()


@dataclass(frozen=True)
class VUnit(Value):
    """The unit value ``()``."""

    def __repr__(self) -> str:
        return "()"


UNIT_VALUE = VUnit()


@dataclass(frozen=True)
class VNum(Value):
    """A numeric value (binary64 or high-precision Decimal)."""

    payload: NumberLike

    def as_decimal(self) -> Decimal:
        return to_decimal(self.payload)

    def as_float(self) -> float:
        return float(self.payload)

    def __repr__(self) -> str:
        return f"VNum({self.payload})"


@dataclass(frozen=True)
class VPair(Value):
    """A pair value ``(left, right)``."""

    left: Value
    right: Value

    def __repr__(self) -> str:
        return f"({self.left!r}, {self.right!r})"


@dataclass(frozen=True)
class VInl(Value):
    """Left injection."""

    body: Value

    def __repr__(self) -> str:
        return f"inl {self.body!r}"


@dataclass(frozen=True)
class VInr(Value):
    """Right injection."""

    body: Value

    def __repr__(self) -> str:
        return f"inr {self.body!r}"


def num(x: NumberLike) -> VNum:
    """Wrap a Python number."""
    return VNum(x)


def pair_of(left: Value, right: Value) -> VPair:
    return VPair(left, right)


def vector_value(components: Sequence[NumberLike]) -> Value:
    """Pack numbers into the balanced pair tree matching ``types.vector``."""
    values: List[Value] = [VNum(c) for c in components]
    if not values:
        raise ValueError("empty vector")
    return _balanced(values)


def _balanced(parts: List[Value]) -> Value:
    if len(parts) == 1:
        return parts[0]
    mid = len(parts) // 2
    return VPair(_balanced(parts[:mid]), _balanced(parts[mid:]))


def vector_components(value: Value) -> List[VNum]:
    """Flatten a balanced pair tree of numbers back into a list."""
    out: List[VNum] = []
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, VPair):
            stack.append(v.right)
            stack.append(v.left)
        elif isinstance(v, VNum):
            out.append(v)
        else:
            raise TypeError(f"not a numeric vector component: {v!r}")
    return out


#: :func:`values_close`'s relative tolerance on numbers.
CLOSE_TOLERANCE = Decimal("1e-30")


def values_close(a: Value, b: Value, tolerance: Decimal = CLOSE_TOLERANCE) -> bool:
    """Structural equality with a relative tolerance on numbers.

    The tolerance absorbs the 50-digit working precision of the ideal
    evaluator; it is ~15 orders of magnitude below binary64 resolution, so
    it cannot mask a genuine Property-2 violation.
    """
    if isinstance(a, VUnit) and isinstance(b, VUnit):
        return True
    if isinstance(a, VNum) and isinstance(b, VNum):
        da, db = a.as_decimal(), b.as_decimal()
        if da == db:
            return True
        scale = max(abs(da), abs(db))
        if scale == 0:
            return False
        return abs(da - db) / scale <= tolerance
    if isinstance(a, VPair) and isinstance(b, VPair):
        return values_close(a.left, b.left, tolerance) and values_close(
            a.right, b.right, tolerance
        )
    if isinstance(a, VInl) and isinstance(b, VInl):
        return values_close(a.body, b.body, tolerance)
    if isinstance(a, VInr) and isinstance(b, VInr):
        return values_close(a.body, b.body, tolerance)
    return False
