"""Interpreting Bean programs as backward error lenses (Definition 6.2).

Every well-typed term ``Φ | Γ ⊢ e : τ`` denotes a lens ``⟦e⟧ : ⟦Φ⟧ ⊗ ⟦Γ⟧ →
⟦τ⟧``.  Rather than composing positional category morphisms, this
interpreter works with *named environments* — dictionaries from variable
names to values — which are isomorphic to the tensor-of-contexts objects
(the structural symmetry/associativity isos of Appendix B become dict
bookkeeping).  Every syntax case implements exactly the composite of
Appendix C:

* the **ideal map** evaluates under exact (high-precision Decimal)
  arithmetic;
* the **approximate map** evaluates under IEEE binary64;
* the **backward map** threads targets backwards through the program,
  re-running the approximate semantics for the intermediate values that
  lens composition requires (``b(x, z) = b₁(x, b₂(f̃₁(x), z))``,
  Equation 18) and applying the primitive witness constructions of
  :mod:`repro.semantics.primitives` at arithmetic operations.

Discrete variables are never perturbed: the backward map of a
contraction/discrete object is the identity (Lemma B.2), so the
perturbation dictionaries only ever mention linear variables.

The headline API is :class:`BeanLens` (via :func:`lens_of_definition`):
an executable packaging of Theorem 3.1, used by
:mod:`repro.semantics.witness` to produce checkable backward error
witnesses for concrete runs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core import ast_nodes as A
from ..core.checker import Judgment, check_program
from ..core.deepstack import call_with_deep_stack
from ..core.types import is_discrete
from ..ir import lower as L
from ..ir.cache import semantic_definition_ir
from ..lam_s.eval import _Interp, _IRInterp
from ..lam_s.values import (
    Value,
    VInl,
    VInr,
    VNum,
    VPair,
    values_close,
)
from .lens import LensDomainError
from .primitives import (
    add_backward,
    div_backward,
    dmul_backward,
    mul_backward,
    sub_backward,
)

__all__ = ["BeanLens", "lens_of_definition", "lens_of_program"]

Env = Dict[str, Value]
Mods = Dict[str, Value]


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
            if expr.op is A.Op.ADD:
                b1, b2 = add_backward(x1, x2, target.as_decimal())
            elif expr.op is A.Op.SUB:
                b1, b2 = sub_backward(x1, x2, target.as_decimal())
            elif expr.op is A.Op.MUL:
                b1, b2 = mul_backward(x1, x2, target.as_decimal())
            elif expr.op is A.Op.DMUL:
                b1, b2 = dmul_backward(x1, x2, target.as_decimal())
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
            mods: Mods = {}
            for param, arg, approx_val in zip(callee.params, expr.args, arg_approx):
                arg_target = frame_mods.pop(param.name, approx_val)
                mods.update(self.backward(arg, env, arg_target, discrete))
            return mods

        raise LensDomainError(f"cannot interpret {expr!r}")


class _PartialPair:
    """A pair target under construction (projections arrive separately).

    The reverse sweep meets ``snd`` before ``fst``; each contributes one
    component.  Unset components default to the forward value when the
    target is materialized — exactly the ``mods.pop(x, approx.left)``
    defaults of the recursive interpreter.
    """

    __slots__ = ("left", "right")

    def __init__(self):
        self.left = None
        self.right = None


class _IRBackward:
    """The backward lens pass as a reverse sweep over the flat IR.

    One forward sweep records every slot's approximate value; one reverse
    sweep threads targets from the result slot back to the parameter
    slots, applying the primitive witness constructions of
    :mod:`repro.semantics.primitives` at arithmetic ops.  This replaces
    the mutual recursion of :class:`_LensInterp` — and its per-``let``
    re-evaluation of the approximate semantics, which made the recursive
    backward map quadratic in program depth — with two linear passes.
    Targets, defaults, discrete-variable domain checks, and the values
    produced are identical to the recursive interpreter's (same Decimal
    kernels, same operand values, same composition order).
    """

    def __init__(
        self,
        program: Optional[A.Program],
        precision: int,
        rounding: str = "nearest",
        seed: int = 0,
        precision_bits: int = 53,
    ) -> None:
        self.program = program
        self.interp = _IRInterp(
            "approx", program, precision, rounding, seed, precision_bits
        )

    def run(self, ir, env: Env, target: Value, vals: Optional[List] = None) -> Mods:
        """Thread ``target`` back to ``ir``'s parameters; ``vals`` is the
        approximate forward sweep of ``env``, if the caller has it."""
        if vals is None:
            vals = self.interp.run_ir_vals(ir, dict(env))
        targets: List = [None] * ir.n_slots
        targets[ir.result] = target
        self._sweep(ir.ops, vals, targets)
        mods: Mods = {}
        for p in ir.params:
            if p.discrete:
                continue
            t = targets[p.slot]
            if t is not None:
                mods[p.name] = _materialize(t, vals[p.slot])
        return mods

    def _sweep(self, ops, vals: List, targets: List) -> None:
        for op in reversed(ops):
            code = op.code
            dest = op.dest
            if L.ADD <= code <= L.DMUL:
                t = _get_target(targets, vals, dest)
                left, right = vals[op.a], vals[op.b]
                if not isinstance(left, VNum) or not isinstance(right, VNum):
                    raise LensDomainError("arithmetic on non-numbers")
                x1 = left.as_decimal()
                x2 = right.as_decimal()
                if code == L.ADD:
                    b1, b2 = add_backward(x1, x2, t.as_decimal())
                elif code == L.SUB:
                    b1, b2 = sub_backward(x1, x2, t.as_decimal())
                elif code == L.MUL:
                    b1, b2 = mul_backward(x1, x2, t.as_decimal())
                elif code == L.DMUL:
                    b1, b2 = dmul_backward(x1, x2, t.as_decimal())
                else:
                    b1, b2 = div_backward(x1, x2, t)
                targets[op.a] = VNum(b1)
                targets[op.b] = VNum(b2)
            elif code == L.DVAR:
                t = targets[dest]
                if t is not None:
                    current = vals[dest]
                    t = _materialize(t, current)
                    if not values_close(current, t):
                        raise LensDomainError(
                            f"discrete variable {op.aux!r} cannot absorb "
                            f"error: {current!r} vs target {t!r}"
                        )
            elif code == L.BANG or code == L.RND:
                # ⟦!e⟧ = η ∘ ⟦e⟧ with η the identity (Definition B.2);
                # L_rnd = (id, fl, b) with b(x, y) = y.
                targets[op.a] = _get_target(targets, vals, dest)
            elif code == L.PAIR:
                t = _get_target(targets, vals, dest)
                if not isinstance(t, VPair):
                    raise LensDomainError(f"pair target expected, got {t!r}")
                targets[op.a] = t.left
                targets[op.b] = t.right
            elif code == L.FST or code == L.SND:
                partial = targets[op.a]
                if not isinstance(partial, _PartialPair):
                    partial = _PartialPair()
                    targets[op.a] = partial
                component = _get_target(targets, vals, dest)
                if code == L.FST:
                    partial.left = component
                else:
                    partial.right = component
            elif code == L.INL or code == L.INR:
                t = _get_target(targets, vals, dest)
                if code == L.INL:
                    if not isinstance(t, VInl):
                        raise LensDomainError(
                            "inl value vs. non-inl target (infinite distance)"
                        )
                else:
                    if not isinstance(t, VInr):
                        raise LensDomainError(
                            "inr value vs. non-inr target (infinite distance)"
                        )
                targets[op.a] = t.body
            elif code == L.CASE:
                scrut = vals[op.a]
                if isinstance(scrut, VInl):
                    region, rebuild = op.aux[0], VInl
                elif isinstance(scrut, VInr):
                    region, rebuild = op.aux[1], VInr
                else:
                    raise LensDomainError(f"case scrutinee not a sum: {scrut!r}")
                targets[region.result] = _get_target(targets, vals, dest)
                self._sweep(region.ops, vals, targets)
                payload_t = _get_target(targets, vals, region.payload)
                targets[op.a] = rebuild(payload_t)
            elif code == L.CALL:
                self._call(op, vals, targets)
            # UNIT / CONST: nothing flows backward.

    def _call(self, op, vals: List, targets: List) -> None:
        name, arg_slots = op.aux
        if self.program is None or name not in self.program:
            raise LensDomainError(f"call to unknown definition {name!r}")
        callee = self.program[name]
        callee_ir = semantic_definition_ir(callee)
        frame = {
            p.name: vals[s] for p, s in zip(callee.params, arg_slots)
        }
        callee_vals = self.interp.run_ir_vals(callee_ir, frame)
        callee_targets: List = [None] * callee_ir.n_slots
        callee_targets[callee_ir.result] = _get_target(targets, vals, op.dest)
        self._sweep(callee_ir.ops, callee_vals, callee_targets)
        for ir_param, arg_slot in zip(callee_ir.params, arg_slots):
            t = callee_targets[ir_param.slot]
            if t is None or ir_param.discrete:
                # Discrete parameters absorb nothing (Definition B.2):
                # the argument's target is its own approximant.
                targets[arg_slot] = callee_vals[ir_param.slot]
            else:
                targets[arg_slot] = _materialize(t, callee_vals[ir_param.slot])


def _get_target(targets: List, vals: List, slot: int) -> Value:
    t = targets[slot]
    if t is None:
        return vals[slot]
    if isinstance(t, _PartialPair):
        return _materialize(t, vals[slot])
    return t


def _materialize(t, fallback: Value) -> Value:
    if t is None:
        return fallback
    if isinstance(t, _PartialPair):
        if not isinstance(fallback, VPair):
            raise LensDomainError(f"let-pair of non-pair {fallback!r}")
        return VPair(
            _materialize(t.left, fallback.left),
            _materialize(t.right, fallback.right),
        )
    return t


class BeanLens:
    """The executable lens of a checked Bean definition.

    Environments are dictionaries mapping parameter names to
    :class:`~repro.lam_s.values.Value` trees matching the parameter types.

    ``engine`` selects the implementation of the three maps: ``"ir"``
    (default) runs iterative sweeps over the flat IR — no deep-stack
    worker, linear-time backward map; ``"recursive"`` runs the structural
    reference interpreters.  The two are value-identical.
    """

    def __init__(
        self,
        definition: A.Definition,
        judgment: Judgment,
        program: Optional[A.Program] = None,
        precision: int = 50,
        rounding: str = "nearest",
        seed: int = 0,
        precision_bits: int = 53,
        engine: str = "ir",
    ) -> None:
        self.definition = definition
        self.judgment = judgment
        self.program = program
        self.precision = precision
        self.rounding = rounding
        self.seed = seed
        self.precision_bits = precision_bits
        self.engine = engine
        self.discrete_params = frozenset(
            p.name for p in definition.params if is_discrete(p.ty)
        )
        self.linear_params = tuple(
            p.name for p in definition.params if not is_discrete(p.ty)
        )

    @property
    def ir(self):
        """The (cached) semantic IR of this lens's definition."""
        return semantic_definition_ir(self.definition)

    # -- the three maps -------------------------------------------------------

    def ideal(self, env: Env) -> Value:
        """``f`` — exact real (high-precision) evaluation."""
        if self.engine == "recursive":
            interp = _Interp("ideal", self.program, self.precision)
            return call_with_deep_stack(interp.run, self.definition.body, dict(env))
        interp = _IRInterp("ideal", self.program, self.precision)
        return interp.run_ir(self.ir, dict(env))

    def approx(self, env: Env) -> Value:
        """``f̃`` — IEEE binary64 evaluation (seeded stochastic rounding
        if configured)."""
        return self.approx_sweep(env)[0]

    def approx_sweep(self, env: Env) -> Tuple[Value, Optional[List]]:
        """``f̃`` plus the IR forward sweep's slot values (``None`` on the
        recursive engine), for :meth:`backward` to reuse."""
        if self.engine == "recursive":
            interp = _Interp(
                "approx", self.program, self.precision, self.rounding,
                self.seed, self.precision_bits,
            )
            value = call_with_deep_stack(interp.run, self.definition.body, dict(env))
            return value, None
        interp = _IRInterp(
            "approx", self.program, self.precision, self.rounding, self.seed,
            self.precision_bits,
        )
        ir = self.ir
        vals = interp.run_ir_vals(ir, dict(env))
        return interp._fetch(vals, ir.result), vals

    def backward(self, env: Env, target: Value, slots: Optional[List] = None) -> Env:
        """``b`` — the backward error witness constructor.

        Returns a *complete* perturbed environment: discrete parameters
        unchanged, linear parameters possibly perturbed.  ``slots`` are
        the slot values :meth:`approx_sweep` returned for this ``env``;
        without them the IR engine re-runs the forward sweep.
        """
        if self.engine == "recursive":
            interp = _LensInterp(
                self.program, self.precision, self.rounding, self.seed,
                self.precision_bits,
            )
            mods = call_with_deep_stack(
                interp.backward,
                self.definition.body,
                dict(env),
                target,
                self.discrete_params,
            )
        else:
            sweep = _IRBackward(
                self.program, self.precision, self.rounding, self.seed,
                self.precision_bits,
            )
            mods = sweep.run(self.ir, env, target, slots)
        perturbed = dict(env)
        for name, value in mods.items():
            if name not in perturbed:
                raise LensDomainError(f"backward map produced unknown name {name!r}")
            perturbed[name] = value
        return perturbed


def lens_of_definition(
    definition: A.Definition,
    judgment: Optional[Judgment] = None,
    program: Optional[A.Program] = None,
    precision: int = 50,
    rounding: str = "nearest",
    seed: int = 0,
    precision_bits: int = 53,
    engine: str = "ir",
) -> BeanLens:
    """Build the executable lens of a single (checked) definition."""
    if judgment is None:
        if program is not None:
            judgments = check_program(program)
            judgment = judgments[definition.name]
        else:
            from ..core.checker import check_definition

            judgment = check_definition(definition)
    return BeanLens(
        definition, judgment, program, precision, rounding, seed,
        precision_bits, engine,
    )


def lens_of_program(
    program: A.Program,
    name: Optional[str] = None,
    precision: int = 50,
    engine: str = "ir",
) -> BeanLens:
    """Build the executable lens of ``name`` (default: last definition)."""
    judgments = check_program(program)
    definition = program[name] if name else program.main
    return BeanLens(
        definition, judgments[definition.name], program, precision, engine=engine
    )
