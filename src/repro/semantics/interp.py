"""Interpreting Bean programs as backward error lenses (Definition 6.2).

Every well-typed term ``Φ | Γ ⊢ e : τ`` denotes a lens ``⟦e⟧ : ⟦Φ⟧ ⊗ ⟦Γ⟧ →
⟦τ⟧`` with three maps: the **ideal map** f (exact real arithmetic,
approximated by 50-digit ``Decimal``), the **approximate map** f̃ (IEEE
binary64, a simulated narrower precision, or seeded stochastic
rounding) and the **backward map** b, which threads targets backwards
through the program (``b(x, z) = b₁(x, b₂(f̃₁(x), z))``, Equation 18) and
applies the primitive witness constructions of
:mod:`repro.semantics.primitives` at arithmetic operations.  Discrete
variables are never perturbed: the backward map of a
contraction/discrete object is the identity (Lemma B.2), so
perturbations only ever mention linear variables.

f̃ and f are the Λ_S step relations ⇓_ap and ⇓_id, run as forward sweeps
of the unboxed slot executor (:mod:`repro.lam_s.executor`) over a
definition's flat IR (:mod:`repro.ir.lower`).  The forward sweep keeps
its slot array, with one frame per executed ``call``.
:class:`_LensExecutor` adds b on top of it: one reverse loop over that
frame, so the backward pass never re-runs a callee.  It calls the
primitives' generic-case witness formulas (``add_witness`` etc.) inside
its own decimal context (``BACKWARD_PRECISION``), and the full backward
maps only for the degenerate or failing cases, so domain errors keep
their exact messages.  Values stay unboxed (raw ``float``/``Decimal``
payloads, tuples, :class:`~repro.lam_s.executor._Inj`) and are boxed
into :class:`~repro.lam_s.values.Value` trees only at public edges and
to build error messages.

The headline API is :class:`BeanLens` (via :func:`lens_of_definition`):
an executable packaging of Theorem 3.1, used by
:mod:`repro.semantics.witness` to produce checkable backward error
witnesses for concrete runs.
"""

from __future__ import annotations

import decimal
import math
from decimal import Decimal
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core import ast_nodes as A
from ..core.checker import Judgment, check_program
from ..core.types import Num, Tensor, Type
from ..ir import lower as L
from ..ir.cache import semantic_definition_ir
from ..lam_s.executor import (
    _ADD,
    _BANG,
    _CALL,
    _CASE,
    _D,
    _DIV,
    _DMUL,
    _DVAR,
    _FST,
    _INL,
    _INR,
    _PAIR,
    _RND,
    _SND,
    _STRUCTURAL,
    _SUB,
    _box,
    _exact,
    _Frame,
    _Inj,
    _is_num,
    _SlotExecutor,
    _unbox,
)
from ..lam_s.values import CLOSE_TOLERANCE, Value, VUnit, to_decimal
from .lens import LensDomainError
from .primitives import (
    BACKWARD_PRECISION,
    add_backward,
    add_witness,
    div_backward,
    div_witness,
    dmul_backward,
    dmul_witness,
    mul_backward,
    mul_witness,
    sub_backward,
    sub_witness,
)

__all__ = ["BeanLens", "lens_of_definition", "lens_of_program"]

Env = Dict[str, Value]


class _PartialPair:
    """A pair target under construction: the reverse sweep meets ``snd``
    before ``fst``; unset halves default to the forward value."""

    __slots__ = ("left", "right")

    def __init__(self) -> None:
        self.left: Any = None
        self.right: Any = None


#: The generic-case witness formulas of ``add``, ``sub`` and ``mul``.
_WITNESS = (add_witness, sub_witness, mul_witness)


def _values_close_raw(a: Any, b: Any, ctx: decimal.Context) -> bool:
    """:func:`~repro.lam_s.values.values_close` on raw values, with its
    arithmetic rounded in ``ctx`` (the caller's ambient context).

    A non-NaN float is close to itself without a Decimal conversion: a
    discrete variable's target shares every leaf object with its value,
    and each enclosing ``dlet`` level compares those leaves again."""
    ca, cb = a.__class__, b.__class__
    if a is b and ca is float and a == a:
        return True
    if ca is tuple:
        return (
            cb is tuple
            and _values_close_raw(a[0], b[0], ctx)
            and _values_close_raw(a[1], b[1], ctx)
        )
    if ca is _Inj:
        return cb is _Inj and a.left is b.left and _values_close_raw(a.body, b.body, ctx)
    if ca is VUnit:
        return cb is VUnit
    if ca in _STRUCTURAL or cb in _STRUCTURAL:
        return False
    da = a if ca is _D else (_D(a) if ca is float else to_decimal(a))
    db = b if cb is _D else (_D(b) if cb is float else to_decimal(b))
    if da == db:
        return True
    scale = max(ctx.abs(da), ctx.abs(db))
    if scale == 0:
        return False
    return bool(ctx.divide(ctx.abs(ctx.subtract(da, db)), scale) <= CLOSE_TOLERANCE)


def _paired_num_leaves(ty: Type, a: Any, b: Any) -> Optional[List[Tuple[Any, Any]]]:
    """The leaves of two raw values of a tensor-of-``num`` type, paired
    left to right; ``None`` when ``ty`` has any other leaf or a value
    does not have its shape."""
    out: List[Tuple[Any, Any]] = []
    stack: List[Tuple[Type, Any, Any]] = [(ty, a, b)]
    while stack:
        t, x, y = stack.pop()
        if isinstance(t, Num):
            if x.__class__ in _STRUCTURAL or y.__class__ in _STRUCTURAL:
                return None
            out.append((x, y))
        elif isinstance(t, Tensor) and x.__class__ is tuple and y.__class__ is tuple:
            stack.append((t.right, x[1], y[1]))
            stack.append((t.left, x[0], y[0]))
        else:
            return None
    return out


# ---------------------------------------------------------------------------
# The backward map
# ---------------------------------------------------------------------------


class _LensExecutor(_SlotExecutor):
    """The slot executor with the lens backward map b on top of its
    forward sweeps (see the module docstring)."""

    def backward(self, frame: _Frame, target: Any) -> Dict[str, Any]:
        """b: thread ``target`` back through an approximated ``frame``.

        Returns the raw targets of the linear parameters that received
        one; discrete parameters are never perturbed (Lemma B.2).
        """
        ir = frame.ir
        targets: List[Any] = [None] * ir.n_slots
        targets[ir.result] = target
        ambient = decimal.getcontext()
        with decimal.localcontext() as ctx:
            ctx.prec = BACKWARD_PRECISION
            self._reverse(ir.ops, frame.vals, targets, frame.calls, ambient, {})
        mods: Dict[str, Any] = {}
        for p in ir.params:
            if p.discrete:
                continue
            t = targets[p.slot]
            if t is not None:
                mods[p.name] = _materialize(t, frame.vals[p.slot])
        return mods

    def _reverse(
        self, ops: Sequence[L.IROp], vals: List[Any], targets: List[Any],
        calls: Dict[int, Any], ambient: decimal.Context, memo: Dict[int, Decimal],
    ) -> None:
        """``memo`` holds the Decimal of each ``dmul`` discrete operand:
        one conversion per value, and its ``dvar`` check passes by
        identity (the target *is* that Decimal)."""
        partial_cls = _PartialPair
        for op in reversed(ops):
            code = op.code
            dest = op.dest
            if _ADD <= code <= _DMUL:
                t = targets[dest]
                if t is None:
                    t = vals[dest]
                elif t.__class__ is partial_cls:
                    t = _materialize(t, vals[dest])
                x = vals[op.a]
                y = vals[op.b]
                if x.__class__ in _STRUCTURAL or y.__class__ in _STRUCTURAL:
                    raise LensDomainError("arithmetic on non-numbers")
                if code == _DIV:
                    b1, b2 = _div_target(_D(x), _D(y), t)
                else:
                    cls = t.__class__
                    x3 = t if cls is _D else (_D(t) if cls is float else _box(t).as_decimal())
                    if code == _DMUL:
                        # Binary64 factors: their product neither overflows nor
                        # underflows, so the witness's sign test may skip it.
                        x1 = _exact(x, memo)
                        w = None
                        if x.__class__ is float and y.__class__ is float:
                            w = dmul_witness(x1, y, x3)
                        b1, b2 = w if w is not None else dmul_backward(x1, _D(y), x3)
                    else:
                        x1 = _D(x)
                        x2 = _D(y)
                        w = _WITNESS[code - _ADD](x1, x2, x3)
                        if w is not None:
                            b1, b2 = w
                        elif code == _ADD:
                            b1, b2 = add_backward(x1, x2, x3)
                        elif code == _SUB:
                            b1, b2 = sub_backward(x1, x2, x3)
                        else:
                            b1, b2 = mul_backward(x1, x2, x3)
                targets[op.a] = b1
                targets[op.b] = b2
            elif code == _FST or code == _SND:
                partial = targets[op.a]
                if partial.__class__ is not partial_cls:
                    partial = partial_cls()
                    targets[op.a] = partial
                component = _get_target(targets, vals, dest)
                if code == _FST:
                    partial.left = component
                else:
                    partial.right = component
            elif code == _DVAR:
                t = targets[dest]
                if t is not None:
                    current = vals[dest]
                    t = _materialize(t, current)
                    if t is not memo.get(id(current)) and not _values_close_raw(
                        current, t, ambient
                    ):
                        raise LensDomainError(
                            f"discrete variable {op.aux!r} cannot absorb "
                            f"error: {_box(current)!r} vs target {_box(t)!r}"
                        )
            elif code == _BANG or code == _RND:
                # ⟦!e⟧ = η ∘ ⟦e⟧ with η the identity (Definition B.2);
                # L_rnd = (id, fl, b) with b(x, y) = y.
                targets[op.a] = _get_target(targets, vals, dest)
            elif code == _PAIR:
                t = _get_target(targets, vals, dest)
                if t.__class__ is not tuple:
                    raise LensDomainError(f"pair target expected, got {_box(t)!r}")
                targets[op.a] = t[0]
                targets[op.b] = t[1]
            elif code == _INL or code == _INR:
                t = _get_target(targets, vals, dest)
                if code == _INL:
                    if t.__class__ is not _Inj or not t.left:
                        raise LensDomainError(
                            "inl value vs. non-inl target (infinite distance)"
                        )
                elif t.__class__ is not _Inj or t.left:
                    raise LensDomainError(
                        "inr value vs. non-inr target (infinite distance)"
                    )
                targets[op.a] = t.body
            elif code == _CASE:
                scrut = vals[op.a]
                if scrut.__class__ is not _Inj:
                    raise LensDomainError(f"case scrutinee not a sum: {_box(scrut)!r}")
                region = op.aux[0] if scrut.left else op.aux[1]
                targets[region.result] = _get_target(targets, vals, dest)
                self._reverse(region.ops, vals, targets, calls, ambient, memo)
                targets[op.a] = _Inj(scrut.left, _get_target(targets, vals, region.payload))
            elif code == _CALL:
                self._reverse_call(op, vals, targets, calls, ambient, memo)
            # UNIT / CONST: nothing flows backward.

    def _reverse_call(
        self, op: L.IROp, vals: List[Any], targets: List[Any],
        calls: Dict[int, Any], ambient: decimal.Context, memo: Dict[int, Decimal],
    ) -> None:
        name, arg_slots = op.aux
        if self.program is None or name not in self.program:
            raise LensDomainError(f"call to unknown definition {name!r}")
        callee_ir, callee_vals, callee_calls = calls[op.dest]
        callee_targets: List[Any] = [None] * callee_ir.n_slots
        callee_targets[callee_ir.result] = _get_target(targets, vals, op.dest)
        self._reverse(
            callee_ir.ops, callee_vals, callee_targets, callee_calls, ambient, memo
        )
        for ir_param, arg_slot in zip(callee_ir.params, arg_slots):
            t = callee_targets[ir_param.slot]
            if t is None or ir_param.discrete:
                # Discrete parameters absorb nothing (Definition B.2):
                # the argument's target is its own approximant.
                targets[arg_slot] = callee_vals[ir_param.slot]
            else:
                targets[arg_slot] = _materialize(t, callee_vals[ir_param.slot])


def _div_target(x1: Decimal, x2: Decimal, t: Any) -> Tuple[Decimal, Decimal]:
    """Division's backward map for a raw target: the witness formula
    when an ``inl`` target and the quotient share a sign, the primitive
    itself (zero divisors, ``inr`` targets, errors) otherwise."""
    if t.__class__ is _Inj and t.left and x2 != 0:
        cls = t.body.__class__
        if cls is _D or cls is float:
            w = div_witness(x1, x2, _D(t.body))
            if w is not None:
                return w
    return div_backward(x1, x2, _box(t))


def _get_target(targets: List[Any], vals: List[Any], slot: int) -> Any:
    t = targets[slot]
    if t is None:
        return vals[slot]
    if t.__class__ is _PartialPair:
        return _materialize(t, vals[slot])
    return t


def _materialize(t: Any, fallback: Any) -> Any:
    if t is None:
        return fallback
    if t.__class__ is _PartialPair:
        if fallback.__class__ is not tuple:
            raise LensDomainError(f"let-pair of non-pair {_box(fallback)!r}")
        return (
            _materialize(t.left, fallback[0]),
            _materialize(t.right, fallback[1]),
        )
    return t


def _finite(raw: Any) -> bool:
    if raw.__class__ is _D:
        return bool(raw.is_finite())
    try:
        return math.isfinite(raw)
    except (TypeError, ValueError, OverflowError):
        return True


def _non_finite_reason(frame: _Frame) -> Optional[str]:
    """Why an approximated ``frame`` left Bean's error model, which
    assumes finite values and no overflow: the first parameter holding a
    non-finite number, else the first arithmetic op, in forward order,
    whose binary64 value is non-finite; ``None`` if there is neither.

    Reads only the slots the sweep filled, so it also explains a sweep
    that stopped on a non-finite operand.  ``case`` regions are walked on
    the taken branch and ``call`` ops through their recorded frames.
    """
    for p in frame.ir.params:
        leaf = _non_finite_leaf(frame.vals[p.slot])
        if leaf is not None:
            return (
                f"parameter {p.name!r} is not finite ({leaf!r}): "
                "the error model assumes finite inputs"
            )
    origin = _first_overflow(frame.ir.ops, frame.vals, frame.calls)
    if origin is None:
        return None
    op, x, y, value = origin
    return (
        f"{op} of {x!r} and {y!r} overflows binary64 to {value!r}: "
        "the error model assumes no overflow"
    )


def _non_finite_leaf(raw: Any) -> Any:
    cls = raw.__class__
    if cls is tuple:
        left = _non_finite_leaf(raw[0])
        return left if left is not None else _non_finite_leaf(raw[1])
    if cls is _Inj:
        return _non_finite_leaf(raw.body)
    if cls in _STRUCTURAL or _finite(raw):
        return None
    return raw


def _first_overflow(
    ops: Sequence[L.IROp], vals: List[Any], calls: Dict[int, Any]
) -> Optional[Tuple[str, Any, Any, Any]]:
    for op in ops:
        code = op.code
        if code == _CALL and op.dest in calls:
            callee_ir, callee_vals, callee_calls = calls[op.dest]
            found = _first_overflow(callee_ir.ops, callee_vals, callee_calls)
            if found is not None:
                return found
        elif code == _CASE and vals[op.a].__class__ is _Inj:
            region = op.aux[0] if vals[op.a].left else op.aux[1]
            found = _first_overflow(region.ops, vals, calls)
            if found is not None:
                return found
        value = vals[op.dest]
        if value is None:
            return None
        if _ADD <= code <= _DMUL:
            if value.__class__ is _Inj:
                value = value.body
            if _is_num(value) and not _finite(value):
                return L.OP_NAMES[code], vals[op.a], vals[op.b], value
    return None


class BeanLens:
    """The executable lens of a checked Bean definition.

    Environments are dictionaries mapping parameter names to
    :class:`~repro.lam_s.values.Value` trees matching the parameter types.

    The three maps run on the slot executor (:class:`_LensExecutor`):
    iterative sweeps over the flat IR, a linear-time backward map,
    values boxed only on the way out.
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
    ) -> None:
        self.definition = definition
        self.judgment = judgment
        self.program = program
        self.precision = precision
        self.rounding = rounding
        self.seed = seed
        self.precision_bits = precision_bits

    @property
    def ir(self) -> L.IRProgram:
        """The (cached) semantic IR of this lens's definition."""
        return semantic_definition_ir(self.definition)

    # -- the three maps -------------------------------------------------------

    def executor(self) -> _LensExecutor:
        """The slot executor for this lens's current configuration
        (``precision_bits`` may be set after construction)."""
        return _LensExecutor(
            self.program, self.precision, self.rounding, self.seed,
            self.precision_bits,
        )

    def ideal(self, env: Env) -> Value:
        """``f`` — exact real (high-precision) evaluation."""
        return _box(self.executor().ideal(self.ir, _unboxed(env)))

    def approx(self, env: Env) -> Value:
        """``f̃`` — IEEE binary64 evaluation (seeded stochastic rounding
        if configured)."""
        frame = _Frame(self.ir, _unboxed(env))
        self.executor().approx(frame)
        return _box(frame.result())

    def backward(self, env: Env, target: Value) -> Env:
        """``b`` — the backward error witness constructor.

        Returns a *complete* perturbed environment: discrete parameters
        unchanged, linear parameters possibly perturbed.
        """
        executor = self.executor()
        frame = _Frame(self.ir, _unboxed(env))
        executor.approx(frame)
        perturbed = dict(env)
        for name, raw in executor.backward(frame, _unbox(target)).items():
            perturbed[name] = _box(raw)
        return perturbed


def _unboxed(env: Env) -> Dict[str, object]:
    return {name: _unbox(v) for name, v in env.items() if v is not None}


def lens_of_definition(
    definition: A.Definition,
    judgment: Optional[Judgment] = None,
    program: Optional[A.Program] = None,
    precision: int = 50,
    rounding: str = "nearest",
    seed: int = 0,
    precision_bits: int = 53,
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
        definition, judgment, program, precision, rounding, seed, precision_bits
    )


def lens_of_program(
    program: A.Program,
    name: Optional[str] = None,
    precision: int = 50,
) -> BeanLens:
    """Build the executable lens of ``name`` (default: last definition)."""
    judgments = check_program(program)
    definition = program[name] if name else program.main
    return BeanLens(definition, judgments[definition.name], program, precision)
