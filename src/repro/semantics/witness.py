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
distances read the raw values, a tensor of ``num`` leaves takes one
``ln`` per parameter (:func:`~repro.semantics.spaces.rp_max_distance`),
and only the report's fields are boxed into
:class:`~repro.lam_s.values.Value` trees.

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
from dataclasses import dataclass
from decimal import Decimal
from typing import Dict, Mapping, Optional, Sequence, Union

from ..core import ast_nodes as A
from ..core.grades import BINARY64_UNIT_ROUNDOFF, Grade
from ..core.types import is_discrete
from ..lam_s.executor import _box, _Frame, _unbox
from ..lam_s.values import Value, VNum, vector_value
from .interp import (
    BeanLens,
    _non_finite_reason,
    _paired_num_leaves,
    _values_close_raw,
    lens_of_definition,
)
from .lens import LensDomainError
from .spaces import INF, grade_bound, rp_max_distance, type_distance

__all__ = ["ParamWitness", "WitnessReport", "run_witness", "env_from_pythons"]


@dataclass(frozen=True)
class ParamWitness:
    """Per-parameter outcome of a witness run."""

    name: str
    original: Value
    perturbed: Value
    distance: Decimal
    bound: Decimal
    grade: Grade

    @property
    def within_bound(self) -> bool:
        return self.distance <= self.bound


@dataclass(frozen=True)
class WitnessReport:
    """The full outcome of one witness run."""

    approx_value: Value
    ideal_on_perturbed: Value
    exact_match: bool
    params: Dict[str, ParamWitness]

    @property
    def sound(self) -> bool:
        """Did this run satisfy the backward error soundness theorem?"""
        return self.exact_match and all(
            w.within_bound for w in self.params.values()
        )

    def describe(self) -> str:
        lines = [
            f"approximate result : {self.approx_value!r}",
            f"ideal on perturbed : {self.ideal_on_perturbed!r}",
            f"results match      : {self.exact_match}",
        ]
        for w in self.params.values():
            status = "ok" if w.within_bound else "VIOLATION"
            lines.append(
                f"  {w.name}: d = {w.distance:.3e} <= {w.bound:.3e} ({w.grade})  [{status}]"
            )
        return "\n".join(lines)


def env_from_pythons(
    definition: A.Definition,
    inputs: Mapping[str, Union[Value, float, int, Sequence]],
) -> Dict[str, Value]:
    """Build a value environment from plain Python data.

    Scalars map to ``VNum``; flat sequences map to balanced vector values
    (matching ``vec(n)`` parameter types).  Already-built values pass
    through.
    """
    env: Dict[str, Value] = {}
    for param in definition.params:
        if param.name not in inputs:
            raise KeyError(f"missing input for parameter {param.name!r}")
        raw = inputs[param.name]
        if isinstance(raw, Value):
            env[param.name] = raw
        elif isinstance(raw, (int, float)):
            env[param.name] = VNum(float(raw))
        else:
            env[param.name] = vector_value([float(c) for c in raw])
    return env


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
    env = env_from_pythons(definition, inputs)
    try:
        return _slot_witness(definition, env, lens, u)
    except _DECIMAL_SIGNALS as exc:
        error = _non_finite_error(env, lens)
        if error is None:
            raise
        raise error from exc


def _slot_witness(
    definition: A.Definition, env: Dict[str, Value], lens: BeanLens, u: float
) -> WitnessReport:
    executor = lens.executor()
    ir = lens.ir
    raw = {name: _unbox(value) for name, value in env.items()}
    frame = _Frame(ir, raw)
    executor.approx(frame)
    approx_raw = frame.result()
    mods = executor.backward(frame, approx_raw)
    perturbed_raw = dict(raw)
    perturbed_raw.update(mods)
    ideal_raw = executor.ideal(ir, perturbed_raw)
    ambient = decimal.getcontext()
    exact = _values_close_raw(ideal_raw, approx_raw, ambient)

    params: Dict[str, ParamWitness] = {}
    for param in definition.params:
        name = param.name
        original = env[name]
        old, new_raw = raw[name], perturbed_raw[name]
        new = _box(new_raw) if name in mods else original
        if is_discrete(param.ty):
            # Theorem 3.1(2): discrete inputs carry no backward error.
            distance = Decimal(0) if _values_close_raw(old, new_raw, ambient) else INF
            bound = Decimal(0)
            grade = Grade(0)
        else:
            leaves = _paired_num_leaves(param.ty, old, new_raw)
            if leaves is None:
                distance = type_distance(param.ty, original, new)
            else:
                distance = rp_max_distance(leaves)
            grade = lens.judgment.grade_of(name)
            bound = grade_bound(grade, u)
        params[name] = ParamWitness(name, original, new, distance, bound, grade)
    return WitnessReport(_box(approx_raw), _box(ideal_raw), exact, params)


def _non_finite_error(env: Dict[str, Value], lens: BeanLens) -> Optional[LensDomainError]:
    """The witness's Decimal arithmetic failed: name the non-finite input
    or the binary64 overflow behind it (``None`` if there is neither)."""
    frame = _Frame(lens.ir, {name: _unbox(value) for name, value in env.items()})
    try:
        lens.executor().approx(frame)
    except _DECIMAL_SIGNALS:
        pass  # the filled slots still locate the cause
    reason = _non_finite_reason(frame)
    return None if reason is None else LensDomainError(reason)
