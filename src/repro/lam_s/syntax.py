"""The intermediate language Λ_S and the projection Λ from Bean.

Λ_S (Appendix D) is a simply typed first-order language with no grade or
discreteness information; Bean programs *project* into it by erasure
(Definition D.1): ``!e`` disappears, ``dlet`` becomes ``let``, and ``dmul``
becomes ``mul``.  Λ_S additionally has numeric constants ``k ∈ R``.

We reuse Bean's AST node classes for the shared constructs and add
:class:`Const`.  A Λ_S term is *pure* if it contains none of the
Bean-only constructs (``Bang``/``DLet``/``DLetPair``/``dmul``);
:func:`erase_expr` always returns pure terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..core import ast_nodes as A
from ..core.deepstack import call_with_deep_stack
from ..core.types import Discrete, Sum, Tensor, Type

__all__ = ["Const", "erase_type", "erase_expr", "erase_definition", "inline_calls"]


@dataclass(frozen=True)
class Const(A.Expr):
    """A numeric literal ``k ∈ R`` (Λ_S only)."""

    value: float


def erase_type(ty: Type) -> Type:
    """The type projection Λ: strips every ``m(·)`` modality."""
    if isinstance(ty, Discrete):
        return erase_type(ty.inner)
    if isinstance(ty, Tensor):
        return Tensor(erase_type(ty.left), erase_type(ty.right))
    if isinstance(ty, Sum):
        return Sum(erase_type(ty.left), erase_type(ty.right))
    return ty


def erase_expr(expr: A.Expr) -> A.Expr:
    """The term projection Λ of Definition D.1."""
    return call_with_deep_stack(_erase, expr)


def _erase(expr: A.Expr) -> A.Expr:
    if isinstance(expr, (A.Var, A.UnitVal, Const)):
        return expr
    if isinstance(expr, A.Bang):
        return _erase(expr.body)
    if isinstance(expr, A.Pair):
        return A.Pair(_erase(expr.left), _erase(expr.right))
    if isinstance(expr, A.Inl):
        return A.Inl(_erase(expr.body), erase_type(expr.other))
    if isinstance(expr, A.Inr):
        return A.Inr(_erase(expr.body), erase_type(expr.other))
    if isinstance(expr, (A.Let, A.DLet)):
        return A.Let(expr.name, _erase(expr.bound), _erase(expr.body))
    if isinstance(expr, (A.LetPair, A.DLetPair)):
        return A.LetPair(
            expr.left, expr.right, _erase(expr.bound), _erase(expr.body)
        )
    if isinstance(expr, A.Case):
        return A.Case(
            _erase(expr.scrutinee),
            expr.left_name,
            _erase(expr.left),
            expr.right_name,
            _erase(expr.right),
        )
    if isinstance(expr, A.PrimOp):
        op = A.Op.MUL if expr.op is A.Op.DMUL else expr.op
        return A.PrimOp(op, _erase(expr.left), _erase(expr.right))
    if isinstance(expr, A.Rnd):
        # rnd survives erasure: unlike grades it has operational content
        # (the approximate semantics rounds, the ideal one does not).
        return A.Rnd(_erase(expr.body))
    if isinstance(expr, A.Call):
        return A.Call(expr.name, [_erase(a) for a in expr.args])
    raise TypeError(f"cannot erase {expr!r}")


def erase_definition(definition: A.Definition) -> A.Definition:
    """Erase a whole definition (parameter types lose their modalities)."""
    params = [A.Param(p.name, erase_type(p.ty)) for p in definition.params]
    return A.Definition(definition.name, params, erase_expr(definition.body))


def inline_calls(
    expr: A.Expr, program: Optional[A.Program], *, _depth: int = 0
) -> A.Expr:
    """Expand every :class:`Call` into let-bound copies of the callee body.

    Bound variables of the callee are freshened, so inlining is hygienic.
    The result contains no calls; it is how a Λ_S term with abbreviations
    becomes a kernel Λ_S term.
    """
    if _depth > 64:
        raise RecursionError("call inlining exceeded depth 64 (recursive calls?)")
    return call_with_deep_stack(_inline, expr, program, _depth)


def _inline(expr: A.Expr, program: Optional[A.Program], depth: int) -> A.Expr:
    if isinstance(expr, A.Call):
        if program is None or expr.name not in program:
            raise ValueError(f"cannot inline unknown call {expr.name!r}")
        callee = program[expr.name]
        body = _freshen(callee.body, {})
        body = _inline(body, program, depth + 1)
        for param, arg in zip(reversed(callee.params), reversed(expr.args)):
            body = A.Let(param.name, _inline(arg, program, depth), body)
        return body
    if isinstance(expr, (A.Var, A.UnitVal, Const)):
        return expr
    if isinstance(expr, A.Bang):
        return A.Bang(_inline(expr.body, program, depth))
    if isinstance(expr, A.Pair):
        return A.Pair(_inline(expr.left, program, depth), _inline(expr.right, program, depth))
    if isinstance(expr, A.Inl):
        return A.Inl(_inline(expr.body, program, depth), expr.other)
    if isinstance(expr, A.Inr):
        return A.Inr(_inline(expr.body, program, depth), expr.other)
    if isinstance(expr, A.Let):
        return A.Let(expr.name, _inline(expr.bound, program, depth), _inline(expr.body, program, depth))
    if isinstance(expr, A.DLet):
        return A.DLet(expr.name, _inline(expr.bound, program, depth), _inline(expr.body, program, depth))
    if isinstance(expr, A.LetPair):
        return A.LetPair(expr.left, expr.right, _inline(expr.bound, program, depth), _inline(expr.body, program, depth))
    if isinstance(expr, A.DLetPair):
        return A.DLetPair(expr.left, expr.right, _inline(expr.bound, program, depth), _inline(expr.body, program, depth))
    if isinstance(expr, A.Case):
        return A.Case(
            _inline(expr.scrutinee, program, depth),
            expr.left_name,
            _inline(expr.left, program, depth),
            expr.right_name,
            _inline(expr.right, program, depth),
        )
    if isinstance(expr, A.PrimOp):
        return A.PrimOp(expr.op, _inline(expr.left, program, depth), _inline(expr.right, program, depth))
    if isinstance(expr, A.Rnd):
        return A.Rnd(_inline(expr.body, program, depth))
    raise TypeError(f"cannot inline {expr!r}")


def _freshen(expr: A.Expr, renaming: Dict[str, str]) -> A.Expr:
    """Rename every bound variable to a fresh name (capture avoidance)."""
    if isinstance(expr, A.Var):
        return A.Var(renaming.get(expr.name, expr.name))
    if isinstance(expr, (A.UnitVal, Const)):
        return expr
    if isinstance(expr, A.Bang):
        return A.Bang(_freshen(expr.body, renaming))
    if isinstance(expr, A.Pair):
        return A.Pair(_freshen(expr.left, renaming), _freshen(expr.right, renaming))
    if isinstance(expr, A.Inl):
        return A.Inl(_freshen(expr.body, renaming), expr.other)
    if isinstance(expr, A.Inr):
        return A.Inr(_freshen(expr.body, renaming), expr.other)
    if isinstance(expr, (A.Let, A.DLet)):
        bound = _freshen(expr.bound, renaming)
        fresh = A.fresh_name(expr.name)
        inner = dict(renaming)
        inner[expr.name] = fresh
        ctor = A.Let if isinstance(expr, A.Let) else A.DLet
        return ctor(fresh, bound, _freshen(expr.body, inner))
    if isinstance(expr, (A.LetPair, A.DLetPair)):
        bound = _freshen(expr.bound, renaming)
        fresh_l = A.fresh_name(expr.left)
        fresh_r = A.fresh_name(expr.right)
        inner = dict(renaming)
        inner[expr.left] = fresh_l
        inner[expr.right] = fresh_r
        ctor = A.LetPair if isinstance(expr, A.LetPair) else A.DLetPair
        return ctor(fresh_l, fresh_r, bound, _freshen(expr.body, inner))
    if isinstance(expr, A.Case):
        scrut = _freshen(expr.scrutinee, renaming)
        fresh_l = A.fresh_name(expr.left_name)
        fresh_r = A.fresh_name(expr.right_name)
        left_env = dict(renaming)
        left_env[expr.left_name] = fresh_l
        right_env = dict(renaming)
        right_env[expr.right_name] = fresh_r
        return A.Case(
            scrut,
            fresh_l,
            _freshen(expr.left, left_env),
            fresh_r,
            _freshen(expr.right, right_env),
        )
    if isinstance(expr, A.PrimOp):
        return A.PrimOp(
            expr.op, _freshen(expr.left, renaming), _freshen(expr.right, renaming)
        )
    if isinstance(expr, A.Rnd):
        return A.Rnd(_freshen(expr.body, renaming))
    if isinstance(expr, A.Call):
        return A.Call(expr.name, [_freshen(a, renaming) for a in expr.args])
    raise TypeError(f"cannot freshen {expr!r}")
