"""Abstract syntax for Bean (Figure 2 of the paper).

Expressions::

    e, f ::= x | z | () | !e | (e, f) | inl e | inr e
           | let x = e in f          | let (x, y) = e in f
           | dlet z = e in f         | dlet (z1, z2) = e in f
           | case e' of (inl x. e | inr y. f)
           | add e f | sub e f | mul e f | dmul e f | div e f

Two extensions beyond the paper's kernel grammar, both used by the paper's
own examples:

* **Calls.**  Section 4 relies on "user-defined abbreviations" (``SVecAdd``
  calls ``ScaleVec``).  We model these as first-order :class:`Call` nodes;
  the checker types a call compositionally from the callee's inferred
  judgment, which is exactly what typing the ``let``-inlined body would
  produce.
* **Arithmetic on subexpressions.**  Figure 3 states the primitive rules on
  variables; ``add e f`` for general ``e`` abbreviates
  ``let x = e in let y = f in add x y`` and the checker types it that way.

Variables are plain names; whether a name is linear or discrete is resolved
against the typing context (the paper's ``x`` vs ``z`` convention is purely
notational).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Optional, Sequence, Tuple

from .grades import Grade
from .types import Type, UNIT

__all__ = [
    "Expr",
    "Var",
    "UnitVal",
    "Bang",
    "Pair",
    "Inl",
    "Inr",
    "Let",
    "LetPair",
    "DLet",
    "DLetPair",
    "Case",
    "Op",
    "PrimOp",
    "Rnd",
    "Call",
    "Param",
    "Definition",
    "Program",
    "subexpressions",
    "free_variables",
    "count_flops",
    "fresh_name",
]


_FRESH = itertools.count()


def fresh_name(hint: str = "t") -> str:
    """A process-unique variable name (used by builders and renaming).

    The leading underscore keeps generated names lexable (so printed
    programs re-parse) while staying out of the way of ordinary user
    names; the global counter makes collisions with *other generated*
    names impossible, and the checker's no-shadowing rule flags any
    collision with user code.  The hint's own leading underscores are
    dropped, so these names start with exactly one: the parser's
    per-definition names start with two and never meet them.
    """
    return f"_{hint.lstrip('_')}{next(_FRESH)}"


class Expr:
    """Base class for Bean expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(Expr):
    """A variable occurrence (linear or discrete, resolved by context)."""

    name: str


@dataclass(frozen=True)
class UnitVal(Expr):
    """The unit value ``()``."""


@dataclass(frozen=True)
class Bang(Expr):
    """``!e`` — promote a linear expression to discrete type (Disc rule)."""

    body: Expr


@dataclass(frozen=True)
class Pair(Expr):
    """``(left, right)`` — tensor introduction."""

    left: Expr
    right: Expr


@dataclass(frozen=True)
class Inl(Expr):
    """``inl e`` with the *right* summand type annotated (defaults unit)."""

    body: Expr
    other: Type = UNIT


@dataclass(frozen=True)
class Inr(Expr):
    """``inr e`` with the *left* summand type annotated (defaults unit)."""

    body: Expr
    other: Type = UNIT


@dataclass(frozen=True)
class Let(Expr):
    """``let name = bound in body`` — linear let (Let rule)."""

    name: str
    bound: Expr
    body: Expr


@dataclass(frozen=True)
class LetPair(Expr):
    """``let (left, right) = bound in body`` — linear pair elimination."""

    left: str
    right: str
    bound: Expr
    body: Expr


@dataclass(frozen=True)
class DLet(Expr):
    """``dlet name = bound in body`` — discrete let (DLet rule)."""

    name: str
    bound: Expr
    body: Expr


@dataclass(frozen=True)
class DLetPair(Expr):
    """``dlet (left, right) = bound in body`` — discrete pair elimination."""

    left: str
    right: str
    bound: Expr
    body: Expr


@dataclass(frozen=True)
class Case(Expr):
    """``case scrutinee of (inl x. left | inr y. right)``."""

    scrutinee: Expr
    left_name: str
    left: Expr
    right_name: str
    right: Expr


class Op(Enum):
    """Primitive floating-point operations (Section 2.2.1)."""

    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    DMUL = "dmul"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class PrimOp(Expr):
    """``op left right`` for op in add/sub/mul/div/dmul.

    For ``dmul`` the *left* operand must have discrete type ``m(num)``
    and receives no backward error (DMul rule).
    """

    op: Op
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Rnd(Expr):
    """``rnd e`` — the unary rounding operation the paper suggests as an
    extension (Section 2.2.1): it makes a rounding step explicit,
    charging its operand ``ε`` backward error.

    Typing rule (derived in the same style as Add/Mul)::

        Φ | Γ, x :_{ε+r} num ⊢ rnd x : num

    since ``fl(x) = x·e^δ = x̃`` with ``|δ| ≤ ε`` exhibits the rounded
    result as the exact value of a perturbed input.
    """

    body: Expr


@dataclass(frozen=True)
class Call(Expr):
    """``Name arg1 .. argN`` — application of a top-level definition."""

    name: str
    args: Tuple[Expr, ...]

    def __init__(self, name: str, args: Sequence[Expr]) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "args", tuple(args))


@dataclass(frozen=True)
class Param:
    """A formal parameter of a definition.

    ``ty`` being a :class:`~repro.core.types.Discrete` type places the
    parameter in the discrete context Φ; otherwise it is linear (Γ).
    ``declared_grade`` is an optional *stability contract*: the largest
    backward error grade (in ε units) the caller is willing to accept;
    the checker verifies the inferred grade against it.
    """

    name: str
    ty: Type
    declared_grade: Optional["Grade"] = None


@dataclass(frozen=True)
class Definition:
    """A top-level definition ``Name (p1 : T1) .. (pn : Tn) := body``.

    ``declared_result`` records an optional result-type annotation from the
    source; the checker verifies it against the inferred type if present.
    """

    name: str
    params: Tuple[Param, ...]
    body: Expr
    declared_result: Optional[Type] = None

    def __init__(
        self,
        name: str,
        params: Sequence[Param],
        body: Expr,
        declared_result: Optional[Type] = None,
    ) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "params", tuple(params))
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "declared_result", declared_result)


@dataclass
class Program:
    """An ordered collection of definitions; later ones may call earlier."""

    definitions: Tuple[Definition, ...] = field(default_factory=tuple)

    def __init__(self, definitions: Sequence[Definition] = ()) -> None:
        self.definitions = tuple(definitions)
        by_name = {}
        for d in self.definitions:
            if d.name in by_name:
                raise ValueError(f"duplicate definition of {d.name!r}")
            by_name[d.name] = d
        self._by_name = by_name

    def __getitem__(self, name: str) -> Definition:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self) -> Iterator[Definition]:
        return iter(self.definitions)

    @property
    def main(self) -> Definition:
        """The last definition — the entry point, by convention."""
        if not self.definitions:
            raise ValueError("empty program has no main definition")
        return self.definitions[-1]


# ---------------------------------------------------------------------------
# Traversals (iterative, so size-5000-op benchmark programs are fine)
# ---------------------------------------------------------------------------

_CHILD_FIELDS = {
    Bang: ("body",),
    Rnd: ("body",),
    Pair: ("left", "right"),
    Inl: ("body",),
    Inr: ("body",),
    Let: ("bound", "body"),
    LetPair: ("bound", "body"),
    DLet: ("bound", "body"),
    DLetPair: ("bound", "body"),
    Case: ("scrutinee", "left", "right"),
    PrimOp: ("left", "right"),
}


def _children(expr: Expr) -> Tuple[Expr, ...]:
    fields = _CHILD_FIELDS.get(type(expr))
    if fields is not None:
        return tuple(getattr(expr, f) for f in fields)
    if isinstance(expr, Call):
        return expr.args
    return ()


def subexpressions(expr: Expr) -> Iterator[Expr]:
    """All subexpressions of ``expr``, including itself (pre-order)."""
    stack = [expr]
    while stack:
        e = stack.pop()
        yield e
        stack.extend(reversed(_children(e)))


def free_variables(expr: Expr) -> set:
    """Free variable names of ``expr`` (linear and discrete alike)."""
    free: set = set()
    # (expr, bound-so-far) pairs; bound sets are small frozensets.
    stack: list = [(expr, frozenset())]
    while stack:
        e, bound = stack.pop()
        if isinstance(e, Var):
            if e.name not in bound:
                free.add(e.name)
        elif isinstance(e, (Let, DLet)):
            stack.append((e.bound, bound))
            stack.append((e.body, bound | {e.name}))
        elif isinstance(e, (LetPair, DLetPair)):
            stack.append((e.bound, bound))
            stack.append((e.body, bound | {e.left, e.right}))
        elif isinstance(e, Case):
            stack.append((e.scrutinee, bound))
            stack.append((e.left, bound | {e.left_name}))
            stack.append((e.right, bound | {e.right_name}))
        else:
            for child in _children(e):
                stack.append((child, bound))
    return free


def count_flops(expr: Expr, program: Optional[Program] = None) -> int:
    """Number of floating-point operations in ``expr``.

    Calls are counted by (transitively) counting the callee body, matching
    the paper's "Ops" column in Table 1.
    """
    cache: dict = {}

    def def_flops(name: str) -> int:
        if name not in cache:
            if program is None or name not in program:
                raise ValueError(f"cannot count flops of unknown call {name!r}")
            cache[name] = _flops_of(program[name].body)
        return cache[name]

    def _flops_of(e: Expr) -> int:
        total = 0
        for sub in subexpressions(e):
            if isinstance(sub, PrimOp):
                total += 1
            elif isinstance(sub, Call):
                total += def_flops(sub.name)
        return total

    return _flops_of(expr)
