"""Bean types (Figure 2 of the paper).

The grammar is::

    σ, τ ::= unit | num | σ ⊗ σ | σ + σ | α      (types)
    α    ::= m(σ)                                (discrete types)

Types wrapped in the modality ``m`` are *discrete*: they denote spaces with
the discrete metric, carry no backward error, and may be duplicated freely.
All other types are *linear*.

Types are immutable and structurally hashable.  Helper constructors build
the vector/matrix shorthands used throughout Section 4 (``R^n`` as balanced
tensor trees, so that deep benchmark programs keep type depth ``O(log n)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Tuple

__all__ = [
    "Type",
    "Unit",
    "Num",
    "Tensor",
    "Sum",
    "Discrete",
    "UNIT",
    "NUM",
    "DNUM",
    "tensor_of",
    "vector",
    "matrix",
    "tensor_leaves",
    "is_discrete",
    "strip_discrete",
]


class Type:
    """Base class for Bean types."""

    def __str__(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError


@dataclass(frozen=True)
class Unit(Type):
    """The unit type with a single inhabitant ``()``."""

    def __str__(self) -> str:
        return "unit"


@dataclass(frozen=True)
class Num(Type):
    """The numeric base type ``num`` (reals with the RP metric)."""

    def __str__(self) -> str:
        return "num"


@dataclass(frozen=True)
class Tensor(Type):
    """Tensor (monoidal) product ``left ⊗ right``."""

    left: Type
    right: Type

    def __str__(self) -> str:
        return f"({self.left} ⊗ {self.right})"


@dataclass(frozen=True)
class Sum(Type):
    """Coproduct ``left + right`` (e.g. ``num + unit`` for division)."""

    left: Type
    right: Type

    def __str__(self) -> str:
        return f"({self.left} + {self.right})"


@dataclass(frozen=True)
class Discrete(Type):
    """The discrete modality ``m(σ)``: duplicable, error-free data."""

    inner: Type

    def __str__(self) -> str:
        return f"m({self.inner})"


UNIT = Unit()
NUM = Num()
#: Discrete numbers ``m(num)`` — the type of the second argument of dmul.
DNUM = Discrete(NUM)


def tensor_of(parts: Tuple[Type, ...] | list) -> Type:
    """Combine ``parts`` into a balanced tensor tree.

    A balanced shape keeps both type depth and pattern-match depth
    logarithmic, which matters for the size-1000 benchmarks.
    """
    parts = tuple(parts)
    if not parts:
        raise ValueError("cannot build a tensor of zero components")
    if len(parts) == 1:
        return parts[0]
    mid = len(parts) // 2
    return Tensor(tensor_of(parts[:mid]), tensor_of(parts[mid:]))


@lru_cache(maxsize=64)
def vector(n: int, base: Type = NUM) -> Type:
    """The type ``R^n`` as a balanced tensor of ``n`` copies of ``base``.

    Types are immutable, so each size's tree is built once and shared:
    every ``vec(n)`` a program text spells is the same object."""
    if n <= 0:
        raise ValueError("vector length must be positive")
    return tensor_of((base,) * n)


def matrix(rows: int, cols: int, base: Type = NUM) -> Type:
    """The type ``R^{rows x cols}`` in row-major order (Section 4)."""
    return tensor_of(tuple(vector(cols, base) for _ in range(rows)))


def tensor_leaves(ty: Type) -> Iterator[Type]:
    """Yield the leaf types of a tensor tree, left to right."""
    stack = [ty]
    while stack:
        t = stack.pop()
        if isinstance(t, Tensor):
            stack.append(t.right)
            stack.append(t.left)
        else:
            yield t


def is_discrete(ty: Type) -> bool:
    """Whether ``ty`` is a discrete type ``m(σ)``."""
    return isinstance(ty, Discrete)


def strip_discrete(ty: Type) -> Type:
    """Remove a single layer of the discrete modality, if present."""
    return ty.inner if isinstance(ty, Discrete) else ty
