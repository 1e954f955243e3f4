"""Executable backward error witnesses — Theorem 3.1 as a runtime check.

Given a checked Bean definition and concrete inputs, the witness runner

1. evaluates the program under the **approximate** (binary64) semantics,
   obtaining ``v``;
2. applies the **backward map** to construct perturbed inputs ``k̃``,
   reusing step 1's forward slot values (the approximate semantics
   runs once per witness);
3. re-evaluates under the **ideal** (high-precision) semantics on ``k̃``
   and checks ``f(k̃) = v`` (Property 2);
4. measures ``d_{⟦σᵢ⟧}(kᵢ, k̃ᵢ)`` for every linear parameter and checks
   it against the inferred grade ``rᵢ`` (Property 1 / the soundness
   bound), with discrete parameters verified unperturbed.

All four steps run on the unboxed slots of the slot executor
(:class:`~repro.semantics.interp._LensExecutor`): closeness and
distances read the raw values, and a tensor of ``num`` leaves takes one
``ln`` per parameter (:func:`~repro.semantics.spaces.rp_max_distance`).
Values stay raw from the inputs to the report: plain floats and lists
become slot data directly (a list as the balanced tuple tree
:func:`~repro.lam_s.values.vector_value` would build), and
:class:`WitnessReport` and :class:`ParamWitness` keep raw data, boxing
a field into a :class:`~repro.lam_s.values.Value` tree only when it is
first read.  Their ``*_repr`` properties render the raw data to the
field's ``repr`` without boxing it
(:func:`~repro.lam_s.executor.raw_repr`), which is what the audit
payload prints.

Bean's error model assumes no overflow.  A witness whose inputs or
binary64 forward values are non-finite, and whose Decimal arithmetic
therefore fails, raises a :class:`~repro.semantics.lens.LensDomainError`
naming the parameter or the overflowing op.

This is the paper's headline guarantee, made machine-checkable on every
run; the property-based test-suite drives it with randomized programs and
inputs.
"""

from __future__ import annotations

import decimal
from dataclasses import FrozenInstanceError
from decimal import Decimal
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..core import ast_nodes as A
from ..core.grades import BINARY64_UNIT_ROUNDOFF, Grade
from ..core.types import is_discrete
from ..lam_s.executor import _box, _Frame, _unbox, raw_repr
from ..lam_s.values import Value
from .interp import (
    BeanLens,
    _LensExecutor,
    _non_finite_reason,
    _paired_num_leaves,
    _values_close_raw,
    lens_of_definition,
)
from .lens import LensDomainError
from .spaces import INF, grade_bound, rp_max_distance, type_distance

__all__ = [
    "ParamWitness", "WitnessReport", "run_witness", "witness_distances",
    "env_from_pythons",
]


class _Report:
    """Frozen report fields; each ``Value`` field is stored raw (slot
    data, see :mod:`repro.lam_s.executor`) or boxed, and boxed once, on
    first read.  Subclasses list their public fields in ``_FIELDS`` and
    store the ``Value`` ones in ``_``-prefixed slots."""

    __slots__ = ()
    _FIELDS: Tuple[str, ...] = ()

    def __init__(self, *values: Any) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def _value(self, slot: str) -> Value:
        stored = getattr(self, slot)
        if not isinstance(stored, Value):  # raw slot data
            stored = _box(stored)
            object.__setattr__(self, slot, stored)
        return stored

    def _fields(self) -> Tuple[Any, ...]:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._FIELDS, self._fields()))
        return f"{self.__class__.__name__}({fields})"

    def __reduce__(self):
        return self.__class__, self._fields()


def _value_text(stored: Any) -> str:
    """``repr`` of a report field's ``Value``, from its raw data if unboxed."""
    return repr(stored) if isinstance(stored, Value) else raw_repr(stored)


class ParamWitness(_Report):
    """Per-parameter outcome of a witness run."""

    __slots__ = ("name", "_original", "_perturbed", "distance", "bound", "grade")
    _FIELDS = ("name", "original", "perturbed", "distance", "bound", "grade")

    name: str
    distance: Decimal
    bound: Decimal
    grade: Grade

    def __init__(self, name: str, original: Any, perturbed: Any,
                 distance: Decimal, bound: Decimal, grade: Grade) -> None:
        super().__init__(name, original, perturbed, distance, bound, grade)

    @property
    def original(self) -> Value:
        return self._value("_original")

    @property
    def perturbed(self) -> Value:
        return self._value("_perturbed")

    @property
    def original_repr(self) -> str:
        """``repr(self.original)``, without boxing it."""
        return _value_text(self._original)

    @property
    def perturbed_repr(self) -> str:
        """``repr(self.perturbed)``, without boxing it."""
        return _value_text(self._perturbed)

    @property
    def within_bound(self) -> bool:
        return self.distance <= self.bound


class WitnessReport(_Report):
    """The full outcome of one witness run."""

    __slots__ = ("_approx_value", "_ideal_on_perturbed", "exact_match", "params")
    _FIELDS = ("approx_value", "ideal_on_perturbed", "exact_match", "params")

    exact_match: bool
    params: Dict[str, ParamWitness]

    def __init__(self, approx_value: Any, ideal_on_perturbed: Any,
                 exact_match: bool, params: Dict[str, ParamWitness]) -> None:
        super().__init__(approx_value, ideal_on_perturbed, exact_match, params)

    @property
    def approx_value(self) -> Value:
        return self._value("_approx_value")

    @property
    def ideal_on_perturbed(self) -> Value:
        return self._value("_ideal_on_perturbed")

    @property
    def approx_value_repr(self) -> str:
        """``repr(self.approx_value)``, without boxing it."""
        return _value_text(self._approx_value)

    @property
    def ideal_on_perturbed_repr(self) -> str:
        """``repr(self.ideal_on_perturbed)``, without boxing it."""
        return _value_text(self._ideal_on_perturbed)

    @property
    def sound(self) -> bool:
        """Did this run satisfy the backward error soundness theorem?"""
        return self.exact_match and all(
            w.within_bound for w in self.params.values()
        )

    def describe(self) -> str:
        lines = [
            f"approximate result : {self.approx_value_repr}",
            f"ideal on perturbed : {self.ideal_on_perturbed_repr}",
            f"results match      : {self.exact_match}",
        ]
        for w in self.params.values():
            status = "ok" if w.within_bound else "VIOLATION"
            lines.append(
                f"  {w.name}: d = {w.distance:.3e} <= {w.bound:.3e} ({w.grade})  [{status}]"
            )
        return "\n".join(lines)


def _raw_input(value: Union[Value, float, int, Sequence]) -> Any:
    """One input as raw slot data: a ``Value`` unboxed, a scalar as a
    float, a flat sequence as the balanced tuple tree ``vector_value``
    builds (matching ``vec(n)`` parameter types)."""
    if isinstance(value, Value):
        return _unbox(value)
    if isinstance(value, (int, float)):
        return float(value)
    leaves = [float(c) for c in value]
    if not leaves:
        raise ValueError("empty vector")
    return _balanced(leaves, 0, len(leaves))


def _balanced(leaves: List[float], lo: int, hi: int) -> Any:
    """``leaves[lo:hi]`` split as :func:`~repro.lam_s.values.vector_value` splits."""
    if hi - lo == 1:
        return leaves[lo]
    mid = lo + (hi - lo) // 2
    return (_balanced(leaves, lo, mid), _balanced(leaves, mid, hi))


def _raw_env(
    definition: A.Definition,
    inputs: Mapping[str, Union[Value, float, int, Sequence]],
) -> Dict[str, Any]:
    """Each parameter's input as raw slot data (:func:`_raw_input`)."""
    raw: Dict[str, Any] = {}
    for param in definition.params:
        if param.name not in inputs:
            raise KeyError(f"missing input for parameter {param.name!r}")
        raw[param.name] = _raw_input(inputs[param.name])
    return raw


def env_from_pythons(
    definition: A.Definition,
    inputs: Mapping[str, Union[Value, float, int, Sequence]],
) -> Dict[str, Value]:
    """Build a value environment from plain Python data.

    Scalars map to ``VNum``; flat sequences map to balanced vector values
    (matching ``vec(n)`` parameter types).  Already-built values pass
    through.
    """
    raw = _raw_env(definition, inputs)
    return {
        name: inputs[name] if isinstance(inputs[name], Value) else _box(value)
        for name, value in raw.items()
    }


#: The decimal signals a non-finite value raises in Decimal arithmetic.
_DECIMAL_SIGNALS = (decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow)


def run_witness(
    definition: A.Definition,
    inputs: Mapping[str, Union[Value, float, int, Sequence]],
    *,
    program: Optional[A.Program] = None,
    u: float = BINARY64_UNIT_ROUNDOFF,
    lens: Optional[BeanLens] = None,
) -> WitnessReport:
    """Run the soundness theorem end-to-end on one concrete input."""
    if lens is None:
        lens = lens_of_definition(definition, program=program)
    raw = _raw_env(definition, inputs)
    try:
        return _slot_witness(definition, inputs, raw, lens, u)
    except _DECIMAL_SIGNALS as exc:
        error = _non_finite_error(raw, lens)
        if error is None:
            raise
        raise error from exc


def witness_distances(
    definition: A.Definition,
    inputs: Mapping[str, Union[Value, float, int, Sequence]],
    *,
    lens: BeanLens,
) -> Dict[str, Decimal]:
    """The per-parameter distances :func:`run_witness` reports, digit for
    digit, without its ideal re-evaluation: steps 1, 2 and 4 only.

    For a caller that has settled the verdicts some other way and needs
    only the exact distances.  Errors raised by the approximate run or
    the backward map are :func:`run_witness`'s own; an input on which
    :func:`run_witness` raises only later (in the ideal re-evaluation)
    may return distances here instead.
    """
    raw = _raw_env(definition, inputs)
    try:
        perturbed_raw, _, _ = _backward_witness(raw, lens, lens.executor())
        ambient = decimal.getcontext()
        return {
            param.name: _param_distance(
                param, raw[param.name], perturbed_raw[param.name], ambient
            )
            for param in definition.params
        }
    except _DECIMAL_SIGNALS as exc:
        error = _non_finite_error(raw, lens)
        if error is None:
            raise
        raise error from exc


def _backward_witness(
    raw: Dict[str, Any], lens: BeanLens, executor: _LensExecutor
) -> Tuple[Dict[str, Any], Dict[str, Any], Any]:
    """Steps 1-2 on the raw inputs: the approximate run and the backward
    map.

    Returns the raw perturbed inputs, the raw targets of the parameters
    that received one, and the raw approximate result."""
    frame = _Frame(lens.ir, raw)
    executor.approx(frame)
    approx_raw = frame.result()
    mods = executor.backward(frame, approx_raw)
    perturbed_raw = dict(raw)
    perturbed_raw.update(mods)
    return perturbed_raw, mods, approx_raw


def _param_distance(
    param: A.Param, old: Any, new: Any, ambient: decimal.Context
) -> Decimal:
    """Step 4's distance of one parameter from its raw input ``old`` and
    raw witness ``new``: ``d(kᵢ, k̃ᵢ)`` for a linear one, ``0`` (or ∞ if
    its target moved) for a discrete one."""
    if is_discrete(param.ty):
        # Theorem 3.1(2): discrete inputs carry no backward error.
        return Decimal(0) if _values_close_raw(old, new, ambient) else INF
    leaves = _paired_num_leaves(param.ty, old, new)
    if leaves is not None:
        return rp_max_distance(leaves)
    return type_distance(param.ty, _box(old), _box(new))


def _slot_witness(
    definition: A.Definition,
    inputs: Mapping[str, Any],
    raw: Dict[str, Any],
    lens: BeanLens,
    u: float,
) -> WitnessReport:
    executor = lens.executor()
    perturbed_raw, mods, approx_raw = _backward_witness(raw, lens, executor)
    ideal_raw = executor.ideal(lens.ir, perturbed_raw)
    ambient = decimal.getcontext()
    exact = _values_close_raw(ideal_raw, approx_raw, ambient)

    params: Dict[str, ParamWitness] = {}
    for param in definition.params:
        name = param.name
        old, new = raw[name], perturbed_raw[name]
        distance = _param_distance(param, old, new, ambient)
        # A given Value is reported as itself, as are unperturbed ones.
        given = inputs[name]
        original = given if isinstance(given, Value) else old
        if is_discrete(param.ty):
            bound = Decimal(0)
            grade = Grade(0)
        else:
            grade = lens.judgment.grade_of(name)
            bound = grade_bound(grade, u)
        params[name] = ParamWitness(
            name, original, new if name in mods else original,
            distance, bound, grade,
        )
    return WitnessReport(approx_raw, ideal_raw, exact, params)


def _non_finite_error(
    env: Mapping[str, Any], lens: BeanLens
) -> Optional[LensDomainError]:
    """The witness's Decimal arithmetic failed: name the non-finite input
    or the binary64 overflow behind it (``None`` if there is neither).
    ``env`` holds ``Value``\\ s or raw slot data."""
    frame = _Frame(lens.ir, {
        name: _unbox(value) if isinstance(value, Value) else value
        for name, value in env.items()
    })
    try:
        lens.executor().approx(frame)
    except _DECIMAL_SIGNALS:
        pass  # the filled slots still locate the cause
    reason = _non_finite_reason(frame)
    return None if reason is None else LensDomainError(reason)
