"""The Λ_S step relations ⇓_id and ⇓_ap as one unboxed slot executor.

Figure 6 gives Λ_S two big-step relations: ⇓_id (exact real
arithmetic, approximated by :class:`decimal.Decimal` at a configurable
precision, 50 significant digits by default) and ⇓_ap (IEEE-754
binary64, a simulated narrower significand, or seeded stochastic
rounding).  :class:`_SlotExecutor` runs both as forward sweeps over a
term's flat IR (:mod:`repro.ir.lower`):

* ⇓_ap and ⇓_id are one forward loop parameterized by a per-sweep *op
  table* — the arithmetic kernels, the operand class they expect and
  the ``rnd`` kernel — so nearest, stochastic and ``precision_bits <
  53`` rounding are chosen once per sweep, not branched on per op.
* The sweep keeps its slot array (a :class:`_Frame`), with one frame
  per executed ``call``, so the lens backward map built on top of this
  executor (:mod:`repro.semantics.interp`) never re-runs a callee.

Values are *unboxed*: numbers are raw ``float``/``Decimal`` payloads,
pairs are tuples, sums are :class:`_Inj` and unit is ``UNIT_VALUE``.
Each sweep runs under one ``decimal`` context (the ideal precision)
and composes operations in the order the rules of Figure 6 read, so
stochastic rounding decisions, keyed by operand bits, do not depend on
evaluation order.  Values are boxed into
:class:`~repro.lam_s.values.Value` trees (:func:`_box`) only at public
edges and to build error messages.

The module also holds the rounding kernels :func:`round_to_precision`
and :func:`stochastic_round`, which the vectorized batch engine replays.
"""

from __future__ import annotations

import decimal
import math
import operator
import random
from decimal import Decimal
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core import ast_nodes as A
from ..ir import lower as L
from ..ir.cache import semantic_definition_ir
from .values import UNIT_VALUE, Value, VInl, VInr, VNum, VPair, VUnit, to_decimal

__all__ = ["EvalError", "IDEAL_PRECISION", "round_to_precision", "stochastic_round"]

#: Significant digits of the ideal (Decimal) arithmetic.
IDEAL_PRECISION = 50


class EvalError(Exception):
    """Raised on malformed programs (ill-typed at runtime)."""


def round_to_precision(x: float, precision_bits: int) -> float:
    """Round a binary64 value to a ``p``-bit significand (nearest-even).

    Computing each operation in binary64 and then rounding to ``p`` bits
    yields *correctly rounded* p-bit arithmetic for +,-,*,/ whenever
    ``53 ≥ 2p + 2`` (double rounding is innocuous; Figueroa 1995), i.e.
    for every format up to p = 25 — covering binary16 (p = 11) and
    binary32 (p = 24).  Exponent range is unbounded, matching the
    paper's no-overflow/underflow assumption.
    """
    if precision_bits >= 53 or x == 0.0 or math.isinf(x) or math.isnan(x):
        return x
    mantissa, exponent = math.frexp(x)  # x = mantissa * 2^exponent, |m| in [0.5, 1)
    scaled = mantissa * (1 << precision_bits)  # exact: power-of-two scaling
    rounded = round(scaled)  # round-half-even, exact on floats
    return math.ldexp(rounded, exponent - precision_bits)


def stochastic_round(exact: Decimal, rng: random.Random) -> float:
    """Round a real to binary64 stochastically.

    Rounds to one of the two neighbouring floats, choosing the far one
    with probability proportional to proximity; unbiased in expectation
    and satisfying ``fl(x) = x(1+δ)`` with ``|δ| ≤ 2u``.
    """
    nearest = float(exact)
    dnear = Decimal(nearest)
    if dnear == exact or math.isinf(nearest):
        return nearest
    other = math.nextafter(
        nearest, math.inf if dnear < exact else -math.inf
    )
    gap = abs(Decimal(other) - dnear)
    if gap == 0:
        return nearest
    p_other = float(abs(exact - dnear) / gap)
    return other if rng.random() < p_other else nearest


# ---------------------------------------------------------------------------
# Unboxed values
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

    Reading it raises the unbound-variable :class:`EvalError`; a
    parameter nobody reads stays harmless (lazy errors).
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


#: Raw classes that are not numbers; any other payload is one.
_STRUCTURAL = frozenset({tuple, _Inj, VUnit, _Missing, _Opaque})
_INR_UNIT = _Inj(False, UNIT_VALUE)
_D = Decimal
_NUMBERS = frozenset({float, Decimal})


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


# ---------------------------------------------------------------------------
# Per-sweep op tables
# ---------------------------------------------------------------------------

Kernel = Callable[[Any, Any], Any]


class _Table:
    """What one forward sweep does at arithmetic and ``rnd`` ops.

    ``arith[code - ADD]`` combines two operands of class ``num``;
    operands of any other class go through ``coerce``, which raises
    :class:`EvalError` for non-numbers and converts numbers
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
    bits), so the bits do not depend on evaluation order.
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
    """Runs ⇓_ap (f̃) and ⇓_id (f) over raw slot arrays (see the module
    docstring).

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
