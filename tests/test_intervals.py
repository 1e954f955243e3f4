"""Tests for the Gappa-like interval + rounding analyzer."""

import math
import random

import pytest

from repro.analysis.intervals import DEFAULT_RANGE, Interval, interval_forward_bound
from repro.analysis.metrics import rp
from repro.core import check_program, parse_program
from repro.lam_s import VNum, evaluate
from repro.programs.generators import dot_prod, mat_vec_mul, vec_sum

from oracles.intervals_ref import interval_forward_bound_ref


def bound_of(src, name=None, **kw):
    program = parse_program(src)
    check_program(program)
    definition = program[name] if name else program.main
    return interval_forward_bound(definition, program, **kw)


class TestIntervalArithmetic:
    def test_add(self):
        r = Interval(1.0, 2.0) + Interval(3.0, 4.0)
        assert r.lo <= 4.0 and r.hi >= 6.0

    def test_sub(self):
        r = Interval(1.0, 2.0) - Interval(0.5, 1.0)
        assert r.lo <= 0.0 and r.hi >= 1.5

    def test_mul_signs(self):
        r = Interval(-2.0, 3.0) * Interval(-1.0, 4.0)
        assert r.lo <= -8.0 and r.hi >= 12.0

    def test_divide(self):
        r = Interval(1.0, 4.0).divide(Interval(2.0, 2.0))
        assert r.lo <= 0.5 and r.hi >= 2.0

    def test_divide_by_zero_interval(self):
        with pytest.raises(ZeroDivisionError):
            Interval(1.0, 2.0).divide(Interval(-1.0, 1.0))

    def test_contains_zero(self):
        assert Interval(-1.0, 1.0).contains_zero()
        assert not Interval(0.5, 1.0).contains_zero()

    def test_outward_rounding(self):
        r = Interval(0.1, 0.1) + Interval(0.2, 0.2)
        assert r.lo < 0.1 + 0.2 < r.hi

    def test_invalid(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)


class TestAnalyzer:
    def test_add_positive_range(self):
        b = bound_of("F (x : num) (y : num) := add x y", u=2.0**-53)
        eps = (2.0**-53) / (1 - 2.0**-53)
        assert b == pytest.approx(eps)

    def test_sub_separated_intervals_finite(self):
        # With x in [10, 20] and y in [1, 2], x - y cannot cancel.
        b = bound_of(
            "F (x : num) (y : num) := sub x y",
            ranges={"x": (10.0, 20.0), "y": (1.0, 2.0)},
        )
        assert math.isfinite(b)
        assert b < 1e-14  # amplification κ ≤ (20+2)/8

    def test_sub_overlapping_intervals_unbounded(self):
        b = bound_of("F (x : num) (y : num) := sub x y")  # both [0.1, 1000]
        assert b == math.inf

    def test_div_by_zero_possible_unbounded(self):
        b = bound_of(
            "F (x : num) (y : num) := div x y",
            ranges={"x": (1.0, 2.0), "y": (-1.0, 1.0)},
        )
        assert b == math.inf

    def test_div_safe_interval(self):
        b = bound_of("F (x : num) (y : num) := div x y")
        assert math.isfinite(b)

    def test_matches_forward_analyzer_on_positive_programs(self):
        from repro.analysis.forward import forward_error_bound

        for make in (lambda: vec_sum(32), lambda: dot_prod(16)):
            definition = make()
            gappa = interval_forward_bound(definition, u=2.0**-53)
            numfuzz = forward_error_bound(definition).evaluate(2.0**-53)
            assert gappa == pytest.approx(numfuzz, rel=1e-9)

    def test_default_range_is_papers(self):
        assert DEFAULT_RANGE == (0.1, 1000.0)


class TestRecursiveReferenceParity:
    """The retired recursive AST walker (:mod:`oracles.intervals_ref`),
    kept as the bit-parity oracle for the iterative IR sweep."""

    @pytest.mark.parametrize("seed", [1, 5, 9, 13, 21])
    def test_ir_equals_recursive_bit_for_bit(self, seed):
        from strategies import random_definition, random_program

        spec = random_program(seed, n_helpers=2, allow_div=True)
        ir = interval_forward_bound(spec.definition, spec.program)
        rec = interval_forward_bound_ref(spec.definition, spec.program)
        assert ir == rec  # identical floats, not approx
        spec2 = random_definition(seed, allow_case=True, allow_div=True)
        ir2 = interval_forward_bound(spec2.definition)
        rec2 = interval_forward_bound_ref(spec2.definition)
        assert ir2 == rec2

    def test_benchmark_kernels_bit_for_bit(self):
        for definition in (vec_sum(64), dot_prod(32), vec_sum(200), mat_vec_mul(12)):
            assert interval_forward_bound(definition) == (
                interval_forward_bound_ref(definition)
            )


class TestEmpiricalSoundness:
    def test_subtraction_bound_holds_on_samples(self):
        """The κ-amplified bound dominates observed error for in-range data."""
        program = parse_program(
            "F (x : num) (w : num) (y : num) := sub (mul x w) y"
        )
        check_program(program)
        definition = program["F"]
        ranges = {"x": (3.0, 4.0), "w": (3.0, 4.0), "y": (1.0, 2.0)}
        bound = interval_forward_bound(definition, ranges=ranges, u=2.0**-53)
        assert math.isfinite(bound)
        rng = random.Random(5)
        for _ in range(50):
            env = {
                k: VNum(rng.uniform(*ranges[k])) for k in ("x", "w", "y")
            }
            approx = evaluate(definition.body, env, mode="approx").as_float()
            exact = float(evaluate(definition.body, env, mode="ideal").as_decimal())
            assert rp(approx, exact) <= bound
