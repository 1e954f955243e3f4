"""Reference lens: Appendix C's backward maps, one syntax case at a time.

:class:`repro.semantics.interp.BeanLens` runs f̃, f and b as sweeps of
the unboxed slot executor over a definition's flat IR.  The structural
interpreters here read the paper's definitions case by case over named
environments — the symmetry/associativity isos of Appendix B become dict
bookkeeping — and re-run the approximate semantics
(:mod:`oracles.eval_ref`) wherever lens composition needs an
intermediate value.  Their backward map is quadratic; they are the
independent oracle the differential tests check the executor against.

* :class:`ReferenceLens` is a :class:`~repro.semantics.interp.BeanLens`
  whose three maps run on these interpreters (:func:`reference_lens`
  builds one like :func:`~repro.semantics.interp.lens_of_definition`);
* :func:`run_witness_ref` is :func:`repro.semantics.witness.run_witness`
  on boxed values over a reference lens.
"""

from __future__ import annotations

from decimal import Decimal
from typing import Callable, Dict, Mapping, Optional, Sequence, Union, cast

from repro.core import ast_nodes as A
from repro.core.checker import Judgment
from repro.core.deepstack import call_with_deep_stack
from repro.core.grades import BINARY64_UNIT_ROUNDOFF, Grade
from repro.core.types import is_discrete
from repro.lam_s.values import Value, VInl, VInr, VNum, VPair, values_close
from repro.semantics.interp import BeanLens, lens_of_definition
from repro.semantics.lens import LensDomainError
from repro.semantics.primitives import (
    add_backward,
    div_backward,
    dmul_backward,
    mul_backward,
    sub_backward,
)
from repro.semantics.spaces import INF, grade_bound, type_distance
from repro.semantics.witness import (
    _DECIMAL_SIGNALS,
    ParamWitness,
    WitnessReport,
    _non_finite_error,
    env_from_pythons,
)

from oracles.eval_ref import _Interp

__all__ = ["ReferenceLens", "reference_lens", "run_witness_ref"]

Env = Dict[str, Value]
Mods = Dict[str, Value]


class ReferenceLens(BeanLens):
    """A :class:`BeanLens` whose f, f̃ and b run the structural
    interpreters on a deep auxiliary stack."""

    def ideal(self, env: Env) -> Value:
        interp = _Interp("ideal", self.program, self.precision)
        return call_with_deep_stack(interp.run, self.definition.body, dict(env))

    def approx(self, env: Env) -> Value:
        interp = _Interp(
            "approx", self.program, self.precision, self.rounding,
            self.seed, self.precision_bits,
        )
        return call_with_deep_stack(interp.run, self.definition.body, dict(env))

    def backward(self, env: Env, target: Value) -> Env:
        interp = _LensInterp(
            self.program, self.precision, self.rounding, self.seed,
            self.precision_bits,
        )
        discrete = frozenset(
            p.name for p in self.definition.params if is_discrete(p.ty)
        )
        mods = call_with_deep_stack(
            interp.backward, self.definition.body, dict(env), target, discrete
        )
        perturbed = dict(env)
        for name, value in mods.items():
            if name not in perturbed:
                raise LensDomainError(f"backward map produced unknown name {name!r}")
            perturbed[name] = value
        return perturbed


def reference_lens(
    definition: A.Definition,
    judgment: Optional[Judgment] = None,
    program: Optional[A.Program] = None,
    precision: int = 50,
    rounding: str = "nearest",
    seed: int = 0,
    precision_bits: int = 53,
) -> ReferenceLens:
    """:func:`~repro.semantics.interp.lens_of_definition`, as a
    :class:`ReferenceLens`."""
    lens = lens_of_definition(
        definition, judgment, program, precision, rounding, seed, precision_bits
    )
    return ReferenceLens(
        definition, lens.judgment, program, precision, rounding, seed, precision_bits
    )


def run_witness_ref(
    definition: A.Definition,
    inputs: Mapping[str, Union[Value, float, int, Sequence]],
    *,
    program: Optional[A.Program] = None,
    u: float = BINARY64_UNIT_ROUNDOFF,
    lens: Optional[BeanLens] = None,
) -> WitnessReport:
    """The soundness theorem end to end on one input, on boxed values.

    A Decimal signal from a non-finite value is explained exactly as
    :func:`~repro.semantics.witness.run_witness` explains it.
    """
    if lens is None:
        lens = reference_lens(definition, program=program)
    env = env_from_pythons(definition, inputs)
    try:
        return _boxed_witness(definition, env, lens, u)
    except _DECIMAL_SIGNALS as exc:
        error = _non_finite_error(env, lens)
        if error is None:
            raise
        raise error from exc


def _boxed_witness(
    definition: A.Definition, env: Dict[str, Value], lens: BeanLens, u: float
) -> WitnessReport:
    approx_value = lens.approx(env)
    perturbed = lens.backward(env, approx_value)
    ideal_value = lens.ideal(perturbed)
    exact = values_close(ideal_value, approx_value)

    params: Dict[str, ParamWitness] = {}
    for param in definition.params:
        original = env[param.name]
        new = perturbed[param.name]
        if is_discrete(param.ty):
            distance = Decimal(0) if values_close(original, new) else INF
            bound = Decimal(0)
            grade = Grade(0)
        else:
            distance = type_distance(param.ty, original, new)
            grade = lens.judgment.grade_of(param.name)
            bound = grade_bound(grade, u)
        params[param.name] = ParamWitness(
            param.name, original, new, distance, bound, grade
        )
    return WitnessReport(approx_value, ideal_value, exact, params)


class _LensInterp:
    """Backward-map interpreter for (call-bearing) Bean terms."""

    def __init__(
        self,
        program: Optional[A.Program],
        precision: int,
        rounding: str = "nearest",
        seed: int = 0,
        precision_bits: int = 53,
    ) -> None:
        self.program = program
        self.rounding = rounding
        self.seed = seed
        self.precision_bits = precision_bits
        self.approx_interp = _Interp(
            "approx", program, precision, rounding, seed, precision_bits
        )

    def approx(self, expr: A.Expr, env: Env) -> Value:
        # A fresh interpreter per query keeps stochastic rounding a pure
        # function of (expr, env): re-running inside the backward map
        # must reproduce the same rounding decisions.
        interp = _Interp(
            "approx", self.program, self.approx_interp.precision,
            self.rounding, self.seed, self.precision_bits,
        )
        return interp.run(expr, env)

    # The backward map returns only the *modified* (linear) bindings; the
    # caller merges them over the original environment.  ``discrete`` is
    # the set of names currently bound discretely.

    def backward(self, expr: A.Expr, env: Env, target: Value, discrete: frozenset) -> Mods:
        if isinstance(expr, A.Var):
            if expr.name in discrete:
                current = env[expr.name]
                if not values_close(current, target):
                    raise LensDomainError(
                        f"discrete variable {expr.name!r} cannot absorb error: "
                        f"{current!r} vs target {target!r}"
                    )
                return {}
            return {expr.name: target}

        if isinstance(expr, A.UnitVal):
            return {}

        if isinstance(expr, A.Bang):
            # ⟦!e⟧ = η ∘ ⟦e⟧ with η the identity (Definition B.2).
            return self.backward(expr.body, env, target, discrete)

        if isinstance(expr, A.Rnd):
            # L_rnd = (id, fl, b) with b(x, y) = y: the perturbed input
            # *is* the target (f(y) = y, and d(x, y) ≤ ε + d(fl x, y)
            # by the RP triangle inequality).
            return self.backward(expr.body, env, target, discrete)

        if isinstance(expr, A.Pair):
            if not isinstance(target, VPair):
                raise LensDomainError(f"pair target expected, got {target!r}")
            mods = self.backward(expr.left, env, target.left, discrete)
            mods.update(self.backward(expr.right, env, target.right, discrete))
            return mods

        if isinstance(expr, A.Inl):
            if isinstance(target, VInl):
                return self.backward(expr.body, env, target.body, discrete)
            raise LensDomainError("inl value vs. non-inl target (infinite distance)")

        if isinstance(expr, A.Inr):
            if isinstance(target, VInr):
                return self.backward(expr.body, env, target.body, discrete)
            raise LensDomainError("inr value vs. non-inr target (infinite distance)")

        if isinstance(expr, A.Let):
            bound_approx = self.approx(expr.bound, env)
            inner_env = dict(env)
            inner_env[expr.name] = bound_approx
            mods = self.backward(expr.body, inner_env, target, discrete)
            bound_target = mods.pop(expr.name, bound_approx)
            mods.update(self.backward(expr.bound, env, bound_target, discrete))
            return mods

        if isinstance(expr, A.DLet):
            bound_approx = self.approx(expr.bound, env)
            inner_env = dict(env)
            inner_env[expr.name] = bound_approx
            mods = self.backward(
                expr.body, inner_env, target, discrete | {expr.name}
            )
            # The bound expression's target is its own approximant; by
            # Definition B.2 this perturbs nothing, but running it keeps
            # the composition faithful (identity-valued modifications).
            mods.update(self.backward(expr.bound, env, bound_approx, discrete))
            return mods

        if isinstance(expr, A.LetPair):
            bound_approx = self.approx(expr.bound, env)
            if not isinstance(bound_approx, VPair):
                raise LensDomainError(f"let-pair of non-pair {bound_approx!r}")
            inner_env = dict(env)
            inner_env[expr.left] = bound_approx.left
            inner_env[expr.right] = bound_approx.right
            mods = self.backward(expr.body, inner_env, target, discrete)
            left_target = mods.pop(expr.left, bound_approx.left)
            right_target = mods.pop(expr.right, bound_approx.right)
            mods.update(
                self.backward(
                    expr.bound, env, VPair(left_target, right_target), discrete
                )
            )
            return mods

        if isinstance(expr, A.DLetPair):
            bound_approx = self.approx(expr.bound, env)
            if not isinstance(bound_approx, VPair):
                raise LensDomainError(f"dlet-pair of non-pair {bound_approx!r}")
            inner_env = dict(env)
            inner_env[expr.left] = bound_approx.left
            inner_env[expr.right] = bound_approx.right
            mods = self.backward(
                expr.body, inner_env, target, discrete | {expr.left, expr.right}
            )
            mods.update(self.backward(expr.bound, env, bound_approx, discrete))
            return mods

        if isinstance(expr, A.Case):
            scrut_approx = self.approx(expr.scrutinee, env)
            rebuild: Callable[[Value], Value]
            if isinstance(scrut_approx, VInl):
                branch, name, payload = expr.left, expr.left_name, scrut_approx.body
                rebuild = VInl
            elif isinstance(scrut_approx, VInr):
                branch, name, payload = expr.right, expr.right_name, scrut_approx.body
                rebuild = VInr
            else:
                raise LensDomainError(f"case scrutinee not a sum: {scrut_approx!r}")
            inner_env = dict(env)
            inner_env[name] = payload
            mods = self.backward(branch, inner_env, target, discrete)
            payload_target = mods.pop(name, payload)
            mods.update(
                self.backward(expr.scrutinee, env, rebuild(payload_target), discrete)
            )
            return mods

        if isinstance(expr, A.PrimOp):
            left_approx = self.approx(expr.left, env)
            right_approx = self.approx(expr.right, env)
            if not isinstance(left_approx, VNum) or not isinstance(right_approx, VNum):
                raise LensDomainError("arithmetic on non-numbers")
            x1 = left_approx.as_decimal()
            x2 = right_approx.as_decimal()
            # A non-number target fails in as_decimal, as it always has.
            number = cast(VNum, target)
            if expr.op is A.Op.ADD:
                b1, b2 = add_backward(x1, x2, number.as_decimal())
            elif expr.op is A.Op.SUB:
                b1, b2 = sub_backward(x1, x2, number.as_decimal())
            elif expr.op is A.Op.MUL:
                b1, b2 = mul_backward(x1, x2, number.as_decimal())
            elif expr.op is A.Op.DMUL:
                b1, b2 = dmul_backward(x1, x2, number.as_decimal())
            elif expr.op is A.Op.DIV:
                b1, b2 = div_backward(x1, x2, target)
            else:  # pragma: no cover - exhaustive
                raise LensDomainError(f"unknown op {expr.op}")
            mods = self.backward(expr.left, env, VNum(b1), discrete)
            mods.update(self.backward(expr.right, env, VNum(b2), discrete))
            return mods

        if isinstance(expr, A.Call):
            if self.program is None or expr.name not in self.program:
                raise LensDomainError(f"call to unknown definition {expr.name!r}")
            callee = self.program[expr.name]
            arg_approx = [self.approx(a, env) for a in expr.args]
            frame: Env = {
                p.name: v for p, v in zip(callee.params, arg_approx)
            }
            callee_discrete = frozenset(
                p.name for p in callee.params if is_discrete(p.ty)
            )
            frame_mods = self.backward(callee.body, frame, target, callee_discrete)
            mods = {}
            for param, arg, approx_val in zip(callee.params, expr.args, arg_approx):
                arg_target = frame_mods.pop(param.name, approx_val)
                mods.update(self.backward(arg, env, arg_target, discrete))
            return mods

        raise LensDomainError(f"cannot interpret {expr!r}")
