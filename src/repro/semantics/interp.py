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

Two implementations of the three maps live here.

**The unboxed slot executor** (:class:`_SlotExecutor`, the default
``engine="ir"``) runs them as sweeps over a definition's flat IR
(:mod:`repro.ir.lower`):

* f̃ and f are one forward loop parameterized by a per-sweep *op table*
  — the arithmetic kernels, the operand class they expect and the
  ``rnd`` kernel — so nearest, stochastic and ``precision_bits < 53``
  rounding are chosen once per sweep, not branched on per op.  The
  forward sweep keeps its slot array (a :class:`_Frame`), with one frame
  per executed ``call``, so the backward pass never re-runs a callee.
* b is one reverse loop over that frame.  It calls the primitives'
  generic-case witness formulas (``add_witness`` etc.) inside its own
  decimal context, and the full backward maps only for the degenerate
  or failing cases, so domain errors keep their exact messages.

Values are *unboxed*: numbers are raw ``float``/``Decimal`` payloads,
pairs are tuples, sums are :class:`_Inj` and unit is ``UNIT_VALUE``.  Each
sweep runs under one ``decimal`` context (the ideal precision for f,
``BACKWARD_PRECISION`` for b) with the operand values and composition
order of the reference interpreters, so the results are bit-identical
to theirs, stochastic rounding decisions included (they are keyed by
operand bits).  Values are boxed into :class:`~repro.lam_s.values.Value`
trees (:func:`_box`) only at public edges and to build error messages.

**The structural reference interpreter** (:class:`_LensInterp` with
:class:`repro.lam_s.eval._Interp`, ``engine="recursive"``) reads
Appendix C syntax case by syntax case over named environments — the
structural symmetry/associativity isos of Appendix B become dict
bookkeeping — re-running the approximate semantics wherever lens
composition needs an intermediate value.  It is the oracle the slot
executor is tested against.

The headline API is :class:`BeanLens` (via :func:`lens_of_definition`):
an executable packaging of Theorem 3.1, used by
:mod:`repro.semantics.witness` to produce checkable backward error
witnesses for concrete runs.
"""

from __future__ import annotations

import decimal
import math
import operator
import random
from decimal import Decimal
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, cast

from ..core import ast_nodes as A
from ..core.checker import Judgment, check_program
from ..core.deepstack import call_with_deep_stack
from ..core.types import Num, Tensor, Type, is_discrete
from ..ir import lower as L
from ..ir.cache import semantic_definition_ir
from ..lam_s.eval import EvalError, _Interp, round_to_precision, stochastic_round
from ..lam_s.values import (
    UNIT_VALUE,
    Value,
    VInl,
    VInr,
    VNum,
    VPair,
    VUnit,
    to_decimal,
    values_close,
)
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
Mods = Dict[str, Value]


# ---------------------------------------------------------------------------
# The unboxed slot executor
# ---------------------------------------------------------------------------

_ADD, _SUB, _MUL, _DIV, _DMUL = L.ADD, L.SUB, L.MUL, L.DIV, L.DMUL
_CALL, _CASE = L.CALL, L.CASE
_FST, _SND, _PAIR, _DVAR, _BANG, _RND = L.FST, L.SND, L.PAIR, L.DVAR, L.BANG, L.RND
_INL, _INR, _CONST, _UNIT = L.INL, L.INR, L.CONST, L.UNIT


class _Inj:
    """An unboxed sum value: ``inl body`` when ``left``, else ``inr body``."""

    __slots__ = ("left", "body")

    def __init__(self, left: bool, body: Any) -> None:
        self.left = left
        self.body = body


class _Missing:
    """A parameter slot the environment did not supply.

    Reading it raises the reference interpreter's unbound-variable
    error; a parameter nobody reads stays harmless (lazy errors).
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class _Opaque:
    """A non-:class:`Value` object found in an environment, kept as-is
    so every check that rejects it can still name it."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value


class _PartialPair:
    """A pair target under construction: the reverse sweep meets ``snd``
    before ``fst``; unset halves default to the forward value."""

    __slots__ = ("left", "right")

    def __init__(self) -> None:
        self.left: Any = None
        self.right: Any = None


#: Raw classes that are not numbers; any other payload is one.
_STRUCTURAL = frozenset({tuple, _Inj, VUnit, _Missing, _Opaque})
#: :func:`~repro.lam_s.values.values_close`'s relative tolerance.
_CLOSE_TOLERANCE = Decimal("1e-30")
_INR_UNIT = _Inj(False, UNIT_VALUE)
_D = Decimal
_NUMBERS = frozenset({float, Decimal})
#: The generic-case witness formulas of ``add``, ``sub`` and ``mul``.
_WITNESS = (add_witness, sub_witness, mul_witness)


# ---------------------------------------------------------------------------
# Boxing at the public edges
# ---------------------------------------------------------------------------


def _unbox(value: Any) -> Any:
    """A :class:`Value` tree as raw slot data (payloads are not converted)."""
    cls = value.__class__
    if cls is VNum:
        return value.payload
    if cls is VPair:
        return (_unbox(value.left), _unbox(value.right))
    if cls is VInl:
        return _Inj(True, _unbox(value.body))
    if cls is VInr:
        return _Inj(False, _unbox(value.body))
    if cls is VUnit:
        return value
    return _Opaque(value)


def _box(raw: Any) -> Value:
    """Raw slot data as a :class:`Value` tree (the inverse of :func:`_unbox`)."""
    cls = raw.__class__
    if cls is tuple:
        left, right = raw
        return VPair(
            VNum(left) if left.__class__ in _NUMBERS else _box(left),
            VNum(right) if right.__class__ in _NUMBERS else _box(right),
        )
    if cls is _Inj:
        return VInl(_box(raw.body)) if raw.left else VInr(_box(raw.body))
    if cls is VUnit:
        return raw
    if cls is _Opaque:
        return raw.value
    return VNum(raw)


def _is_num(raw: Any) -> bool:
    return raw.__class__ not in _STRUCTURAL


def _unbound(missing: _Missing) -> EvalError:
    return EvalError(f"unbound variable {missing.name!r} at runtime")


def _read(raw: Any) -> Any:
    """A checked slot read: a missing parameter raises here."""
    if raw.__class__ is _Missing:
        raise _unbound(raw)
    return raw


def _values_close_raw(a: Any, b: Any, ctx: decimal.Context) -> bool:
    """:func:`~repro.lam_s.values.values_close` on raw values, with its
    arithmetic rounded in ``ctx`` (the caller's ambient context)."""
    ca, cb = a.__class__, b.__class__
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
    return bool(ctx.divide(ctx.abs(ctx.subtract(da, db)), scale) <= _CLOSE_TOLERANCE)


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
# Per-sweep op tables
# ---------------------------------------------------------------------------

Kernel = Callable[[Any, Any], Any]


class _Table:
    """What one forward sweep does at arithmetic and ``rnd`` ops.

    ``arith[code - ADD]`` combines two operands of class ``num``;
    operands of any other class go through ``coerce``, which raises the
    reference interpreter's error for non-numbers and converts numbers
    exactly as ``VNum.as_float``/``as_decimal`` would.
    """

    __slots__ = ("arith", "num", "coerce", "rnd")

    def __init__(
        self,
        arith: Sequence[Kernel],
        num: type,
        coerce: Callable[[Any, Any], Tuple[Any, Any]],
        rnd: Callable[[Any], Any],
    ) -> None:
        self.arith = tuple(arith)
        self.num = num
        self.coerce = coerce
        self.rnd = rnd


def _operands(x: Any, y: Any) -> None:
    _read(x)
    _read(y)
    if not (_is_num(x) and _is_num(y)):
        raise EvalError(f"arithmetic on non-numbers: {_box(x)!r}, {_box(y)!r}")


def _float_operands(x: Any, y: Any) -> Tuple[float, float]:
    _operands(x, y)
    return float(x), float(y)


def _decimal_operands(memo: Dict[int, Decimal]) -> Callable[[Any, Any], Tuple[Any, Any]]:
    """f's coercion: a binary64 operand (a discrete input, reused at every
    op that reads it) is converted once per sweep, keyed by the object."""

    def coerce(x: Any, y: Any) -> Tuple[Decimal, Decimal]:
        cx, cy = x.__class__, y.__class__
        if (cx is float or cx is _D) and (cy is float or cy is _D):
            return _exact(x, memo), _exact(y, memo)
        _operands(x, y)
        return to_decimal(x), to_decimal(y)

    return coerce


def _exact(x: Any, memo: Dict[int, Decimal]) -> Decimal:
    """``Decimal(x)`` for a float or Decimal, memoized by object identity
    (the slot arrays keep every memoized object alive)."""
    if x.__class__ is _D:
        return x
    d = memo.get(id(x))
    if d is None:
        d = memo[id(x)] = _D(x)
    return d


def _rnd_operand(x: Any) -> Any:
    _read(x)
    if not _is_num(x):
        raise EvalError(f"rnd of non-number {_box(x)!r}")
    return x


def _div_float(x: float, y: float) -> _Inj:
    return _INR_UNIT if y == 0.0 else _Inj(True, x / y)


def _div_decimal(x: Decimal, y: Decimal) -> _Inj:
    return _INR_UNIT if y == 0 else _Inj(True, x / y)


def _rnd_ideal(x: Any) -> Any:
    return x if x.__class__ is _D else _rnd_operand(x)


def _rnd_native(x: Any) -> float:
    return x if x.__class__ is float else float(_rnd_operand(x))


def _ideal_table() -> _Table:
    """f: exact arithmetic in the sweep's Decimal context; ``rnd`` is the
    identity."""
    return _Table(
        (operator.add, operator.sub, operator.mul, _div_decimal, operator.mul),
        Decimal, _decimal_operands({}), _rnd_ideal,
    )

#: f̃ at native binary64, round to nearest.
_NATIVE = _Table(
    (operator.add, operator.sub, operator.mul, _div_float, operator.mul),
    float, _float_operands, _rnd_native,
)


def _narrow_table(bits: int) -> _Table:
    """f̃ at a ``bits``-bit significand: binary64 then round (Figueroa)."""

    def narrow(combine: Kernel) -> Kernel:
        return lambda x, y: round_to_precision(combine(x, y), bits)

    def div(x: float, y: float) -> _Inj:
        return _INR_UNIT if y == 0.0 else _Inj(True, round_to_precision(x / y, bits))

    def rnd(x: Any) -> float:
        return round_to_precision(float(_rnd_operand(x)), bits)

    mul = narrow(operator.mul)
    return _Table(
        (narrow(operator.add), narrow(operator.sub), mul, div, mul),
        float, _float_operands, rnd,
    )


def _stochastic_table(seed: int) -> _Table:
    """f̃ under seeded stochastic rounding.

    Each decision is ``random.Random`` keyed by (seed, op name, operand
    bits), exactly the reference interpreter's ``_decision_rng`` keys,
    so the bits do not depend on evaluation order.
    """
    seed_s = str(seed)

    def kernel(op: A.Op, combine: Callable[[Decimal, Decimal], Decimal]) -> Kernel:
        label = str(op)
        is_div = op is A.Op.DIV

        def run(x: float, y: float) -> Any:
            dx, dy = _D(x), _D(y)
            if is_div and dy == 0:
                return _INR_UNIT
            exact = combine(dx, dy)
            rng = random.Random("\x1f".join([seed_s, label, x.hex(), y.hex()]))
            rounded = stochastic_round(exact, rng)
            return _Inj(True, rounded) if is_div else rounded

        return run

    def rnd(x: Any) -> float:
        x = _rnd_operand(x)
        rng = random.Random("\x1f".join([seed_s, "rnd", str(x)]))
        return stochastic_round(to_decimal(x), rng)

    return _Table(
        (
            kernel(A.Op.ADD, operator.add),
            kernel(A.Op.SUB, operator.sub),
            kernel(A.Op.MUL, operator.mul),
            kernel(A.Op.DIV, operator.truediv),
            kernel(A.Op.DMUL, operator.mul),
        ),
        float, _float_operands, rnd,
    )


# ---------------------------------------------------------------------------
# Frames and the executor
# ---------------------------------------------------------------------------


CallRecord = Tuple[L.IRProgram, List[Any], Dict[int, Any]]


class _Frame:
    """One IR program's slot array, plus the frames of its executed calls
    (keyed by the ``call`` op's destination slot)."""

    __slots__ = ("ir", "vals", "calls")

    def __init__(self, ir: L.IRProgram, env: Mapping[str, Any]) -> None:
        self.ir = ir
        self.vals = _slots(ir, env)
        self.calls: Dict[int, CallRecord] = {}

    def result(self) -> Any:
        """The raw value of the result slot (unbound reads raise)."""
        return _read(self.vals[self.ir.result])


def _slots(ir: L.IRProgram, env: Mapping[str, Any]) -> List[Any]:
    vals: List[Any] = [None] * ir.n_slots
    for p in ir.params:
        v = env.get(p.name)
        vals[p.slot] = v if v is not None else _Missing(p.name)
    return vals


class _SlotExecutor:
    """Runs f̃, f and b over raw slot arrays (see the module docstring).

    ``precision`` is the ideal map's significant digits (and the
    stochastic kernels' working precision); ``rounding``, ``seed`` and
    ``precision_bits`` configure f̃.
    """

    def __init__(
        self,
        program: Optional[A.Program],
        precision: int = 50,
        rounding: str = "nearest",
        seed: int = 0,
        precision_bits: int = 53,
    ) -> None:
        self.program = program
        self.precision = precision
        if rounding == "stochastic":
            self._approx_table = _stochastic_table(seed)
        elif precision_bits < 53:
            self._approx_table = _narrow_table(precision_bits)
        else:
            self._approx_table = _NATIVE

    # -- sweep entry points ---------------------------------------------------

    def approx(self, frame: _Frame) -> None:
        """f̃: fill ``frame`` with the approximate forward sweep."""
        with decimal.localcontext() as ctx:
            ctx.prec = self.precision
            self._forward(frame.ir.ops, frame.vals, frame.calls, self._approx_table)

    def ideal(self, ir: L.IRProgram, env: Mapping[str, Any]) -> Any:
        """f: the raw result of the ideal forward sweep over ``env``."""
        frame = _Frame(ir, env)
        with decimal.localcontext() as ctx:
            ctx.prec = self.precision
            self._forward(ir.ops, frame.vals, frame.calls, _ideal_table())
        return frame.result()

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

    # -- the forward loop -----------------------------------------------------

    def _forward(
        self, ops: Sequence[L.IROp], vals: List[Any], calls: Dict[int, Any],
        table: _Table,
    ) -> None:
        arith = table.arith
        num = table.num
        coerce = table.coerce
        missing = _Missing
        for op in ops:
            code = op.code
            if code >= _ADD:
                if code <= _DMUL:
                    x = vals[op.a]
                    y = vals[op.b]
                    if x.__class__ is not num or y.__class__ is not num:
                        x, y = coerce(x, y)
                    vals[op.dest] = arith[code - _ADD](x, y)
                elif code == _CASE:
                    scrut = vals[op.a]
                    if scrut.__class__ is not _Inj:
                        _read(scrut)
                        raise EvalError(
                            f"case scrutinee is not a sum value: {_box(scrut)!r}"
                        )
                    region = op.aux[0] if scrut.left else op.aux[1]
                    vals[region.payload] = scrut.body
                    self._forward(region.ops, vals, calls, table)
                    vals[op.dest] = _read(vals[region.result])
                else:
                    vals[op.dest] = self._call(op, vals, calls, table)
            elif code == _FST or code == _SND:
                bound = vals[op.a]
                if bound.__class__ is not tuple:
                    _read(bound)
                    raise EvalError(f"let-pair of non-pair value {_box(bound)!r}")
                vals[op.dest] = bound[0] if code == _FST else bound[1]
            elif code == _DVAR or code == _BANG:
                v = vals[op.a]
                if v.__class__ is missing:
                    raise _unbound(v)
                vals[op.dest] = v
            elif code == _PAIR:
                left = vals[op.a]
                right = vals[op.b]
                if left.__class__ is missing or right.__class__ is missing:
                    _read(left)
                    _read(right)
                vals[op.dest] = (left, right)
            elif code == _RND:
                vals[op.dest] = table.rnd(vals[op.a])
            elif code == _INL or code == _INR:
                v = vals[op.a]
                if v.__class__ is missing:
                    raise _unbound(v)
                vals[op.dest] = _Inj(code == _INL, v)
            elif code == _CONST:
                vals[op.dest] = op.aux
            elif code == _UNIT:
                vals[op.dest] = UNIT_VALUE
            else:  # pragma: no cover - exhaustive over opcodes
                raise EvalError(f"unknown opcode {code}")

    def _call(
        self, op: L.IROp, vals: List[Any], calls: Dict[int, Any], table: _Table
    ) -> Any:
        name, arg_slots = op.aux
        program = self.program
        if program is None or name not in program:
            raise EvalError(f"call to unknown definition {name!r}")
        callee = program[name]
        if len(callee.params) != len(arg_slots):
            raise EvalError(f"{name!r}: wrong argument count")
        callee_ir = semantic_definition_ir(callee)
        env = {p.name: _read(vals[s]) for p, s in zip(callee.params, arg_slots)}
        frame = _Frame(callee_ir, env)
        calls[op.dest] = (callee_ir, frame.vals, frame.calls)
        self._forward(callee_ir.ops, frame.vals, frame.calls, table)
        return frame.result()

    # -- the reverse loop -----------------------------------------------------

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


# ---------------------------------------------------------------------------
# The structural reference interpreter
# ---------------------------------------------------------------------------


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


class BeanLens:
    """The executable lens of a checked Bean definition.

    Environments are dictionaries mapping parameter names to
    :class:`~repro.lam_s.values.Value` trees matching the parameter types.

    ``engine`` selects the implementation of the three maps: ``"ir"``
    (default) runs them on the unboxed slot executor
    (:class:`_SlotExecutor`) — iterative sweeps over the flat
    IR, a linear-time backward map, values boxed only on the way out;
    ``"recursive"`` runs the structural reference interpreters below.
    The two are value-identical.
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
    def ir(self) -> L.IRProgram:
        """The (cached) semantic IR of this lens's definition."""
        return semantic_definition_ir(self.definition)

    # -- the three maps -------------------------------------------------------

    def executor(self) -> _SlotExecutor:
        """The slot executor for this lens's current configuration
        (``precision_bits`` may be set after construction)."""
        return _SlotExecutor(
            self.program, self.precision, self.rounding, self.seed,
            self.precision_bits,
        )

    def ideal(self, env: Env) -> Value:
        """``f`` — exact real (high-precision) evaluation."""
        if self.engine == "recursive":
            interp = _Interp("ideal", self.program, self.precision)
            return call_with_deep_stack(interp.run, self.definition.body, dict(env))
        return _box(self.executor().ideal(self.ir, _unboxed(env)))

    def approx(self, env: Env) -> Value:
        """``f̃`` — IEEE binary64 evaluation (seeded stochastic rounding
        if configured)."""
        if self.engine == "recursive":
            interp = _Interp(
                "approx", self.program, self.precision, self.rounding,
                self.seed, self.precision_bits,
            )
            return call_with_deep_stack(interp.run, self.definition.body, dict(env))
        frame = _Frame(self.ir, _unboxed(env))
        self.executor().approx(frame)
        return _box(frame.result())

    def backward(self, env: Env, target: Value) -> Env:
        """``b`` — the backward error witness constructor.

        Returns a *complete* perturbed environment: discrete parameters
        unchanged, linear parameters possibly perturbed.
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
            executor = self.executor()
            frame = _Frame(self.ir, _unboxed(env))
            executor.approx(frame)
            raw_mods = executor.backward(frame, _unbox(target))
            mods = {name: _box(raw) for name, raw in raw_mods.items()}
        perturbed = dict(env)
        for name, value in mods.items():
            if name not in perturbed:
                raise LensDomainError(f"backward map produced unknown name {name!r}")
            perturbed[name] = value
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
