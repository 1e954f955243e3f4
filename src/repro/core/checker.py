"""Backward error bound inference for Bean.

This module implements the type checking / coeffect inference algorithm of
Section 5.1 (Figure 7, Appendix G).  Given a program without grade
annotations, the algorithm simultaneously

* checks that the program is well-formed (types match, strict linearity is
  respected),
* outputs the program's type, and
* infers the **tightest** per-variable relative backward error bound,
  written ``Φ | Γ•; e ⇒ Γ; σ`` in the paper.

The algorithm is bottom-up: the inferred context of a compound expression
is assembled from the inferred contexts of its parts via disjoint union
``Γ, Δ`` (whose failure is exactly a strict-linearity violation), the grade
shift ``r + Γ`` from the Let/⊗E/+E rules, and pointwise ``max`` across case
branches.  It is sound and complete for the declarative system of Figure 3
(Theorems 5.1 and 5.2); ``tests/test_algorithm_theorems.py`` checks both
properties on randomized programs.

Beyond the paper's kernel the checker supports two conveniences used by
the paper's own examples (Section 4):

* arithmetic on general subexpressions, typed as the evident
  ``let``-expansion;
* calls to earlier top-level definitions, typed compositionally from the
  callee's inferred judgment (equivalent to typing the inlined body).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from . import ast_nodes as A
from .context import Binding, DiscreteContext, LinearContext, Skeleton
from .deepstack import call_with_deep_stack
from .errors import BeanTypeError, LinearityError, UnboundVariableError
from .grades import EPS, HALF_EPS, ZERO, Grade
from .types import (
    NUM,
    UNIT,
    Discrete,
    Num,
    Sum,
    Tensor,
    Type,
    is_discrete,
)

__all__ = ["Judgment", "infer", "check_definition", "check_program", "InferenceEngine"]


@dataclass(frozen=True)
class Judgment:
    """An inferred judgment ``Φ | Γ ⊢ Name p1 .. pn : τ`` for a definition.

    ``linear`` is the tightest inferred context: it contains exactly the
    linear parameters the body *uses*, each with its least grade.  Unused
    linear parameters admit grade 0 (see :meth:`grade_of`).
    """

    name: str
    params: Tuple[A.Param, ...]
    discrete: DiscreteContext
    linear: LinearContext
    result: Type

    def grade_of(self, param: str) -> Grade:
        """The inferred backward error bound for a linear parameter."""
        binding = self.linear.get(param)
        if binding is not None:
            return binding.grade
        for p in self.params:
            if p.name == param:
                if is_discrete(p.ty):
                    raise BeanTypeError(
                        f"{param!r} is a discrete parameter of {self.name!r}; "
                        "discrete variables carry no backward error bound"
                    )
                return ZERO
        raise KeyError(f"{self.name!r} has no parameter {param!r}")

    def max_linear_grade(self) -> Grade:
        """The largest grade over all linear parameters (0 if none)."""
        grades = [b.grade for _, b in self.linear.items()]
        return max(grades, key=lambda g: g.coeff, default=ZERO)

    def format(self, u: Optional[float] = None) -> str:
        """Human-readable judgment, optionally with numeric bounds."""
        phi = str(self.discrete)
        parts = []
        for p in self.params:
            if is_discrete(p.ty):
                continue
            grade = self.grade_of(p.name)
            if u is None:
                parts.append(f"{p.name} :{grade} {p.ty}")
            else:
                parts.append(f"{p.name} :{grade} (= {grade.evaluate(u):.3e}) {p.ty}")
        gamma = ", ".join(parts) if parts else "∅"
        return f"{phi} | {gamma} ⊢ {self.name} : {self.result}"


class InferenceEngine:
    """Stateful driver holding the judgments of previously checked defs."""

    def __init__(self, judgments: Optional[Mapping[str, Judgment]] = None) -> None:
        self.judgments: Dict[str, Judgment] = dict(judgments or {})

    # -- the algorithm -------------------------------------------------------

    def infer(
        self,
        expr: A.Expr,
        phi: DiscreteContext,
        skeleton: Skeleton,
    ) -> Tuple[LinearContext, Type]:
        """``Φ | Γ•; e ⇒ Γ; σ`` — see the module docstring."""
        method = self._DISPATCH[type(expr)]
        return method(self, expr, phi, skeleton)

    # Each rule below mirrors one rule of Figure 7.

    def _infer_var(self, expr: A.Var, phi, skel):
        ty = skel.get(expr.name)
        if ty is not None:  # (Var): x :_0 σ with the least grade 0
            return LinearContext({expr.name: Binding(ZERO, ty)}), ty
        dty = phi.get(expr.name)
        if dty is not None:  # (DVar): discrete variables cost nothing
            return LinearContext(), dty
        raise UnboundVariableError(f"unbound variable {expr.name!r}")

    def _infer_unit(self, expr: A.UnitVal, phi, skel):
        return LinearContext(), UNIT

    def _infer_bang(self, expr: A.Bang, phi, skel):
        # (Disc): Φ | Γ ⊢ e : σ  gives  Φ | Γ ⊢ !e : m(σ)
        ctx, ty = self.infer(expr.body, phi, skel)
        return ctx, Discrete(ty)

    def _infer_pair(self, expr: A.Pair, phi, skel):
        # (⊗I) — disjoint union enforces strict linearity.
        ctx1, ty1 = self.infer(expr.left, phi, skel)
        ctx2, ty2 = self.infer(expr.right, phi, skel)
        return ctx1.disjoint_union(ctx2), Tensor(ty1, ty2)

    def _infer_inl(self, expr: A.Inl, phi, skel):
        ctx, ty = self.infer(expr.body, phi, skel)
        return ctx, Sum(ty, expr.other)

    def _infer_inr(self, expr: A.Inr, phi, skel):
        ctx, ty = self.infer(expr.body, phi, skel)
        return ctx, Sum(expr.other, ty)

    def _infer_let(self, expr: A.Let, phi, skel):
        # (Let): Γ• ; e ⇒ Γ1 ; τ   and   Γ•, x : τ ; f ⇒ Γ2 ; σ
        #        result (r + Γ1), Γ2 \ {x}  where  x :_r τ ∈ Γ2 else r = 0
        ctx1, ty1 = self.infer(expr.bound, phi, skel)
        self._check_fresh(expr.name, phi, skel)
        ctx2, ty2 = self.infer(expr.body, phi, skel.bind(expr.name, ty1))
        r = self._grade_and_drop(ctx2, expr.name)
        return ctx1.shift(r).disjoint_union(ctx2.remove(expr.name)), ty2

    def _infer_dlet(self, expr: A.DLet, phi, skel):
        # (DLet): the bound expression must have discrete type; no shift.
        ctx1, ty1 = self.infer(expr.bound, phi, skel)
        if not is_discrete(ty1):
            raise BeanTypeError(
                f"dlet requires a discrete (m-typed) bound expression, got {ty1}"
            )
        self._check_fresh(expr.name, phi, skel)
        ctx2, ty2 = self.infer(expr.body, phi.bind(expr.name, ty1), skel)
        return ctx1.disjoint_union(ctx2), ty2

    def _infer_letpair(self, expr: A.LetPair, phi, skel):
        # (⊗E_σ): eliminate a linear tensor; the shift r is the max of the
        # grades the body assigns to the two components.
        ctx1, ty1 = self.infer(expr.bound, phi, skel)
        if not isinstance(ty1, Tensor):
            raise BeanTypeError(f"let-pair requires a tensor type, got {ty1}")
        self._check_fresh(expr.left, phi, skel)
        self._check_fresh(expr.right, phi, skel)
        if expr.left == expr.right:
            raise LinearityError(
                f"pair pattern binds {expr.left!r} twice; components must be distinct"
            )
        inner = skel.bind(expr.left, ty1.left).bind(expr.right, ty1.right)
        ctx2, ty2 = self.infer(expr.body, phi, inner)
        r_left = self._grade_and_drop(ctx2, expr.left)
        r_right = self._grade_and_drop(ctx2, expr.right)
        r = max(r_left, r_right, key=lambda g: g.coeff)
        body_ctx = ctx2.remove(expr.left, expr.right)
        return ctx1.shift(r).disjoint_union(body_ctx), ty2

    def _infer_dletpair(self, expr: A.DLetPair, phi, skel):
        # (⊗E_α): eliminate a pair of discrete components.  We accept both
        # encodings of a "discrete pair": a tensor of discrete types
        # α1 ⊗ α2, and a discrete tensor m(σ1 ⊗ σ2) (the two are isomorphic
        # in Bel — both carry the discrete metric on pairs).
        ctx1, ty1 = self.infer(expr.bound, phi, skel)
        if isinstance(ty1, Tensor) and is_discrete(ty1.left) and is_discrete(ty1.right):
            left_ty, right_ty = ty1.left, ty1.right
        elif isinstance(ty1, Discrete) and isinstance(ty1.inner, Tensor):
            left_ty = Discrete(ty1.inner.left)
            right_ty = Discrete(ty1.inner.right)
        else:
            raise BeanTypeError(
                f"dlet-pair requires a pair of discrete components, got {ty1}"
            )
        self._check_fresh(expr.left, phi, skel)
        self._check_fresh(expr.right, phi, skel)
        if expr.left == expr.right:
            raise LinearityError(
                f"pair pattern binds {expr.left!r} twice; components must be distinct"
            )
        inner_phi = phi.bind(expr.left, left_ty).bind(expr.right, right_ty)
        ctx2, ty2 = self.infer(expr.body, inner_phi, skel)
        return ctx1.disjoint_union(ctx2), ty2

    def _infer_case(self, expr: A.Case, phi, skel):
        # (+E): the scrutinee context is shifted by the max grade either
        # branch assigns to its bound variable; branch contexts are merged
        # with pointwise max (a variable needs only the worse of the two
        # bounds, since exactly one branch runs).
        ctx1, scrut_ty = self.infer(expr.scrutinee, phi, skel)
        if not isinstance(scrut_ty, Sum):
            raise BeanTypeError(f"case requires a sum-typed scrutinee, got {scrut_ty}")
        self._check_fresh(expr.left_name, phi, skel)
        ctx2, left_ty = self.infer(
            expr.left, phi, skel.bind(expr.left_name, scrut_ty.left)
        )
        self._check_fresh(expr.right_name, phi, skel)
        ctx3, right_ty = self.infer(
            expr.right, phi, skel.bind(expr.right_name, scrut_ty.right)
        )
        if left_ty != right_ty:
            raise BeanTypeError(
                f"case branches disagree: {left_ty} vs {right_ty}"
            )
        q_left = self._grade_and_drop(ctx2, expr.left_name)
        q_right = self._grade_and_drop(ctx3, expr.right_name)
        q = max(q_left, q_right, key=lambda g: g.coeff)
        branches = ctx2.remove(expr.left_name).merge_max(ctx3.remove(expr.right_name))
        return ctx1.shift(q).disjoint_union(branches), left_ty

    def _infer_primop(self, expr: A.PrimOp, phi, skel):
        # (Add, Sub, Mul, Div, DMul) generalized to subexpressions: the
        # operand grade from Figure 3 is pushed onto the operand's context,
        # exactly as the let-expansion would.
        op = expr.op
        if op is A.Op.DMUL:
            ctx1, ty1 = self.infer(expr.left, phi, skel)
            if ty1 != Discrete(NUM):
                raise BeanTypeError(
                    f"dmul's first operand must be discrete m(num), got {ty1}"
                )
            ctx2, ty2 = self.infer(expr.right, phi, skel)
            self._require_num(ty2, "dmul")
            return ctx1.disjoint_union(ctx2.shift(EPS)), NUM
        grade = EPS if op in (A.Op.ADD, A.Op.SUB) else HALF_EPS
        ctx1, ty1 = self.infer(expr.left, phi, skel)
        self._require_num(ty1, str(op))
        ctx2, ty2 = self.infer(expr.right, phi, skel)
        self._require_num(ty2, str(op))
        merged = ctx1.shift(grade).disjoint_union(ctx2.shift(grade))
        result: Type = Sum(NUM, UNIT) if op is A.Op.DIV else NUM
        return merged, result

    def _infer_rnd(self, expr: A.Rnd, phi, skel):
        # (Rnd, derived): an explicit rounding charges its operand ε —
        # the extension the paper sketches in Section 2.2.1.
        ctx, ty = self.infer(expr.body, phi, skel)
        self._require_num(ty, "rnd")
        return ctx.shift(EPS), NUM

    def _infer_call(self, expr: A.Call, phi, skel):
        judgment = self.judgments.get(expr.name)
        if judgment is None:
            raise UnboundVariableError(
                f"call to unknown definition {expr.name!r} "
                "(definitions must appear before their uses)"
            )
        if len(expr.args) != len(judgment.params):
            raise BeanTypeError(
                f"{expr.name!r} expects {len(judgment.params)} argument(s), "
                f"got {len(expr.args)}"
            )
        combined = LinearContext()
        for param, arg in zip(judgment.params, expr.args):
            ctx, ty = self.infer(arg, phi, skel)
            if ty != param.ty:
                raise BeanTypeError(
                    f"argument for {param.name!r} of {expr.name!r} has type "
                    f"{ty}, expected {param.ty}"
                )
            if not is_discrete(param.ty):
                ctx = ctx.shift(judgment.grade_of(param.name))
            combined = combined.disjoint_union(ctx)
        return combined, judgment.result

    # -- helpers ----------------------------------------------------------------

    @staticmethod
    def _require_num(ty: Type, op: str) -> None:
        if not isinstance(ty, Num):
            raise BeanTypeError(f"{op} requires num operands, got {ty}")

    @staticmethod
    def _grade_and_drop(ctx: LinearContext, name: str) -> Grade:
        binding = ctx.get(name)
        return binding.grade if binding is not None else ZERO

    @staticmethod
    def _check_fresh(name: str, phi: DiscreteContext, skel: Skeleton) -> None:
        if name in phi or name in skel:
            raise BeanTypeError(
                f"binding {name!r} shadows a variable already in scope; "
                "Bean programs must use distinct names"
            )

    _DISPATCH = {
        A.Var: _infer_var,
        A.UnitVal: _infer_unit,
        A.Bang: _infer_bang,
        A.Pair: _infer_pair,
        A.Inl: _infer_inl,
        A.Inr: _infer_inr,
        A.Let: _infer_let,
        A.DLet: _infer_dlet,
        A.LetPair: _infer_letpair,
        A.DLetPair: _infer_dletpair,
        A.Case: _infer_case,
        A.PrimOp: _infer_primop,
        A.Rnd: _infer_rnd,
        A.Call: _infer_call,
    }


def infer(
    expr: A.Expr,
    phi: Optional[DiscreteContext] = None,
    skeleton: Optional[Skeleton] = None,
    judgments: Optional[Mapping[str, Judgment]] = None,
) -> Tuple[LinearContext, Type]:
    """Infer the tightest context and type of a bare expression.

    This entry point runs :class:`InferenceEngine` (the rule-by-rule
    transcription of Figure 7); whole definitions go through the iterative
    IR path of :func:`check_definition` instead.
    """
    engine = InferenceEngine(judgments)
    return call_with_deep_stack(
        engine.infer, expr, phi or DiscreteContext(), skeleton or Skeleton()
    )


#: Identity-keyed cache of judgments for call-free checks (lazy import of
#: repro.ir avoids a module cycle).
_JUDGMENT_CACHE = None


def _judgment_cache():
    global _JUDGMENT_CACHE
    if _JUDGMENT_CACHE is None:
        from ..ir.cache import IdentityCache

        _JUDGMENT_CACHE = IdentityCache(lambda d: _check_definition_uncached(d, None))
    return _JUDGMENT_CACHE


def check_definition(
    definition: A.Definition,
    judgments: Optional[Mapping[str, Judgment]] = None,
) -> Judgment:
    """Check one definition and infer its judgment.

    Parameters annotated with a discrete type enter Φ; the rest form the
    skeleton Γ• whose tightest grades the algorithm infers.  The body is
    compiled to the flat IR and grade inference runs as a single reverse
    sweep — fully iterative, so Sum 10000 checks under the default
    recursion limit.  It produces the judgments of
    :class:`InferenceEngine`, the rule-by-rule transcription of Figure 7.
    """
    if not judgments:
        return _judgment_cache().get(definition)
    return _check_definition_uncached(definition, judgments)


def _check_definition_uncached(
    definition: A.Definition, judgments: Optional[Mapping[str, Judgment]]
) -> Judgment:
    from ..ir.cache import adopt_checked_ir
    from ..ir.infer import infer_definition_ir

    phi, _ = _parameter_contexts(definition)
    ctx, ty, ir = infer_definition_ir(definition, judgments)
    adopt_checked_ir(definition, ir)
    return _judgment(definition, phi, ctx, ty)


def _parameter_contexts(definition: A.Definition) -> Tuple[DiscreteContext, Skeleton]:
    """Φ (the discrete parameters) and the skeleton Γ• (the rest)."""
    phi = DiscreteContext()
    skel = Skeleton()
    for p in definition.params:
        if p.name in phi or p.name in skel:
            raise BeanTypeError(
                f"duplicate parameter {p.name!r} in {definition.name!r}"
            )
        if is_discrete(p.ty):
            phi = phi.bind(p.name, p.ty)
        else:
            skel = skel.bind(p.name, p.ty)
    return phi, skel


def _judgment(
    definition: A.Definition, phi: DiscreteContext, ctx: LinearContext, ty: Type
) -> Judgment:
    """The definition's judgment from its inferred context and type, with
    the declared result type and stability contracts enforced."""
    if definition.declared_result is not None and definition.declared_result != ty:
        raise BeanTypeError(
            f"{definition.name!r} declares result type "
            f"{definition.declared_result} but its body has type {ty}"
        )
    judgment = Judgment(definition.name, definition.params, phi, ctx, ty)
    for p in definition.params:
        if p.declared_grade is None:
            continue
        if is_discrete(p.ty):
            raise BeanTypeError(
                f"{definition.name!r}: discrete parameter {p.name!r} cannot "
                "carry a backward error contract (it absorbs no error)"
            )
        inferred = judgment.grade_of(p.name)
        if not inferred <= p.declared_grade:
            raise BeanTypeError(
                f"{definition.name!r}: stability contract violated for "
                f"{p.name!r}: declared at most {p.declared_grade} but the "
                f"body assigns {inferred}"
            )
    return judgment


#: Identity-keyed cache of whole-program check results.
_PROGRAM_CACHE = None


def check_program(program: A.Program) -> Dict[str, Judgment]:
    """Check every definition in order; later defs may call earlier ones.

    Results are cached by program identity, so repeatedly building
    lenses / witnesses over the same parsed program re-checks nothing.
    """
    global _PROGRAM_CACHE
    if _PROGRAM_CACHE is None:
        from ..ir.cache import IdentityCache

        _PROGRAM_CACHE = IdentityCache(_check_program_uncached)
    return _PROGRAM_CACHE.get(program)


def _check_program_uncached(program: A.Program) -> Dict[str, Judgment]:
    judgments: Dict[str, Judgment] = {}
    for definition in program:
        judgments[definition.name] = check_definition(definition, judgments)
    return judgments
