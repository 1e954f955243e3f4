"""A Gappa-like interval + rounding error abstract interpreter.

Gappa [de Dinechin et al. 2011] verifies error bounds given *interval*
hypotheses on the inputs — the paper runs it with every variable in
``[0.1, 1000]`` (Table 3).  This module re-implements that style of
analysis: each subterm carries

* an interval ``[lo, hi]`` enclosing its **exact** value, and
* a bound ``rel`` on the relative-precision error ``RP(approx, exact)``
  accumulated so far (in numeric units, not symbolic ε).

Interval information is what lets the analyzer handle subtraction and
mixed-sign addition: when the result interval excludes zero, cancellation
is bounded by the amplification factor ``κ = (max|I₁| + max|I₂|) /
min|I₁ ∓ I₂|``; when it straddles zero the error is unbounded.  On
same-signed data the rules coincide with :mod:`repro.analysis.forward`,
which is why the two baselines (and Bean's converted bound) agree to all
printed digits on the Table 3 benchmarks.

The numeric rules live in :class:`IntervalDomain`, a transfer table for
the shared iterative IR interpreter in :mod:`repro.analysis.transfer`,
which handles ``Sum 10000`` under the default recursion limit.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..core import ast_nodes as A
from ..core.grades import eps_from_roundoff
from .transfer import (
    AbstractValue,
    TransferInterpreter,
    abstract_of_leaves,
    abstract_of_type,
    worst_measure,
)

__all__ = [
    "DEFAULT_RANGE",
    "Interval",
    "IntervalDomain",
    "interval_forward_bound",
    "parse_interval",
    "render_interval",
]

#: The input range the paper uses for Gappa.
DEFAULT_RANGE = (0.1, 1000.0)


def parse_interval(text: str) -> Tuple[float, float, bool, bool]:
    """Parse an interval hypothesis string: ``(lo, hi)`` brackets each
    independently open (``(``/``)``) or closed (``[``/``]``).

    Returns ``(lo, hi, lo_open, hi_open)``.  Endpoints must be finite
    numbers; an interval with an open end needs ``lo < hi`` (it would
    otherwise be empty), a fully closed one allows the point interval
    ``lo == hi``.  Raises ``ValueError`` on anything else — every
    surface already renders that as a CLI ``error:`` line / HTTP 422.
    """
    s = text.strip()
    if len(s) < 2 or s[0] not in "([" or s[-1] not in ")]":
        raise ValueError(
            f"bad interval {text!r}: expected brackets like "
            "\"[lo, hi]\" / \"(lo, hi]\""
        )
    lo_open = s[0] == "("
    hi_open = s[-1] == ")"
    parts = s[1:-1].split(",")
    if len(parts) != 2:
        raise ValueError(
            f"bad interval {text!r}: expected two comma-separated endpoints"
        )
    try:
        lo = float(parts[0])
        hi = float(parts[1])
    except ValueError:
        raise ValueError(
            f"bad interval {text!r}: endpoints must be numbers"
        ) from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(
            f"bad interval {text!r}: endpoints must be finite"
        )
    if lo_open or hi_open:
        if not lo < hi:
            raise ValueError(
                f"bad interval {text!r}: an open end needs lo < hi"
            )
    elif lo > hi:
        raise ValueError(f"bad interval {text!r}: lo > hi")
    return lo, hi, lo_open, hi_open


def render_interval(
    lo: float, hi: float, lo_open: bool, hi_open: bool
) -> str:
    """The canonical rendering of a parsed interval hypothesis."""
    left = "(" if lo_open else "["
    right = ")" if hi_open else "]"
    return f"{left}{lo!r}, {hi!r}{right}"


class Interval:
    """A closed interval with outward-rounded float endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float) -> None:
        if math.isnan(lo) or math.isnan(hi) or lo > hi:
            raise ValueError(f"bad interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    # Outward rounding by one ulp keeps the enclosure sound despite the
    # endpoint arithmetic itself rounding.
    @staticmethod
    def _down(x: float) -> float:
        return math.nextafter(x, -math.inf)

    @staticmethod
    def _up(x: float) -> float:
        return math.nextafter(x, math.inf)

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self._down(self.lo + other.lo), self._up(self.hi + other.hi))

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self._down(self.lo - other.hi), self._up(self.hi - other.lo))

    def __mul__(self, other: "Interval") -> "Interval":
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(self._down(min(products)), self._up(max(products)))

    def divide(self, other: "Interval") -> "Interval":
        if other.contains_zero():
            raise ZeroDivisionError("division by an interval containing zero")
        quotients = (
            self.lo / other.lo,
            self.lo / other.hi,
            self.hi / other.lo,
            self.hi / other.hi,
        )
        return Interval(self._down(min(quotients)), self._up(max(quotients)))

    def contains_zero(self) -> bool:
        return self.lo <= 0.0 <= self.hi

    def same_signed(self) -> bool:
        return self.lo > 0.0 or self.hi < 0.0

    def mag_max(self) -> float:
        return max(abs(self.lo), abs(self.hi))

    def mag_min(self) -> float:
        if self.contains_zero():
            return 0.0
        return min(abs(self.lo), abs(self.hi))

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


class _ILeaf:
    """One numeric leaf: its exact-value enclosure and error bound."""

    __slots__ = ("interval", "rel")

    def __init__(self, interval: Interval, rel: float) -> None:
        self.interval = interval
        self.rel = rel  # bound on RP(approx, exact); math.inf = unbounded


def _linear_combination_rel(
    a: _ILeaf, b: _ILeaf, result: Interval, eps: float
) -> float:
    """Relative error of an add/sub through possibly-cancelling data."""
    if a.rel == math.inf or b.rel == math.inf:
        return math.inf
    worst = max(a.rel, b.rel)
    if result.contains_zero():
        # Exact zero may meet non-zero approximation: RP unbounded.
        if worst == 0.0 and eps == 0.0:
            return 0.0
        return math.inf
    if a.interval.same_signed() == b.interval.same_signed() and (
        (a.interval.lo >= 0.0 and b.interval.lo >= 0.0)
        or (a.interval.hi <= 0.0 and b.interval.hi <= 0.0)
    ):
        # Same-signed addition: ratios average, no amplification.
        return worst + eps
    # Cancellation bounded by the interval-derived amplification factor.
    kappa = (a.interval.mag_max() + b.interval.mag_max()) / result.mag_min()
    classical = math.expm1(worst)  # RP -> classical relative error
    amplified = kappa * classical
    return math.log1p(amplified) + eps


class IntervalDomain:
    """The interval analysis as a transfer table over ``_ILeaf`` leaves."""

    __slots__ = ("eps",)

    def __init__(self, eps: float) -> None:
        self.eps = eps

    def const(self, value: float) -> _ILeaf:
        return _ILeaf(Interval(value, value), 0.0)

    def rnd(self, x: _ILeaf) -> _ILeaf:
        rel = math.inf if x.rel == math.inf else x.rel + self.eps
        return _ILeaf(x.interval, rel)

    def add(self, a: _ILeaf, b: _ILeaf) -> _ILeaf:
        result = a.interval + b.interval
        return _ILeaf(result, _linear_combination_rel(a, b, result, self.eps))

    def sub(self, a: _ILeaf, b: _ILeaf) -> _ILeaf:
        result = a.interval - b.interval
        flipped = _ILeaf(Interval(-b.interval.hi, -b.interval.lo), b.rel)
        return _ILeaf(
            result, _linear_combination_rel(a, flipped, result, self.eps)
        )

    def mul(self, a: _ILeaf, b: _ILeaf) -> _ILeaf:
        rel = (
            math.inf
            if math.inf in (a.rel, b.rel)
            else a.rel + b.rel + self.eps
        )
        return _ILeaf(a.interval * b.interval, rel)

    def div(self, a: _ILeaf, b: _ILeaf) -> _ILeaf:
        if b.interval.contains_zero():
            # Cannot exclude the error branch; report both.
            return _ILeaf(Interval(-math.inf, math.inf), math.inf)
        rel = (
            math.inf
            if math.inf in (a.rel, b.rel)
            else a.rel + b.rel + self.eps
        )
        return _ILeaf(a.interval.divide(b.interval), rel)

    def join(self, a: _ILeaf, b: _ILeaf) -> _ILeaf:
        return _ILeaf(
            Interval(
                min(a.interval.lo, b.interval.lo),
                max(a.interval.hi, b.interval.hi),
            ),
            max(a.rel, b.rel),
        )

    def measure(self, x: _ILeaf) -> float:
        return x.rel

    def combine_measures(self, a: float, b: float) -> float:
        return max(a, b)

    def zero_measure(self) -> float:
        return 0.0


def interval_forward_bound(
    definition: A.Definition,
    program: Optional[A.Program] = None,
    *,
    input_range: Tuple[float, float] = DEFAULT_RANGE,
    ranges: Optional[Mapping[str, Tuple[float, float]]] = None,
    leaf_ranges: Optional[
        Mapping[str, Sequence[Tuple[float, float]]]
    ] = None,
    u: float = 2.0**-53,
) -> float:
    """A relative forward error bound from interval hypotheses.

    ``input_range`` applies to every numeric input leaf (the paper's
    "all variables in [0.1, 1000]"); ``ranges`` overrides per parameter;
    ``leaf_ranges`` overrides *per numeric leaf* of a parameter (one
    ``(lo, hi)`` per leaf in the type's left-to-right order — a
    length mismatch raises ``ValueError``), taking precedence over
    ``ranges`` for the parameters it names.  Returns the bound on
    ``RP(f̃(x), f(x))`` (``math.inf`` if the intervals cannot exclude
    cancellation through zero).
    """
    domain = IntervalDomain(eps_from_roundoff(u))
    env = _input_env(definition, input_range, ranges, leaf_ranges)
    result = TransferInterpreter(domain, program).analyze_definition(definition, env)
    return float(worst_measure(result, domain))


def _input_env(
    definition: A.Definition,
    input_range: Tuple[float, float],
    ranges: Optional[Mapping[str, Tuple[float, float]]],
    leaf_ranges: Optional[Mapping[str, Sequence[Tuple[float, float]]]],
) -> Dict[str, AbstractValue]:
    """The abstract input of each parameter from the interval hypotheses."""
    env: Dict[str, AbstractValue] = {}
    for p in definition.params:
        per_leaf = leaf_ranges.get(p.name) if leaf_ranges else None
        if per_leaf is not None:
            leaves = [_ILeaf(Interval(lo, hi), 0.0) for lo, hi in per_leaf]
            try:
                env[p.name] = abstract_of_leaves(p.ty, leaves)
            except ValueError as exc:
                raise ValueError(
                    f"per-leaf interval hypotheses for {p.name!r}: {exc}"
                ) from None
            continue
        rng = ranges.get(p.name, input_range) if ranges else input_range
        env[p.name] = abstract_of_type(p.ty, _ILeaf(Interval(*rng), 0.0))
    return env
