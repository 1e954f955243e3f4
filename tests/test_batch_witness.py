"""Batch witness engine: bitwise agreement with the scalar loop.

The contract of :class:`repro.semantics.batch.BatchWitnessEngine` is not
"approximately the same" — it is the *same computation*: identical float
forward values, identical Decimal perturbed inputs and distances,
identical soundness verdicts, row for row, as looping
:func:`repro.semantics.witness.run_witness`.  These tests enforce that
on 1000 random environments (the satellite acceptance bar), on the
paper's vector benchmarks, and on the scalar-fallback path.
"""

from __future__ import annotations

import numpy as np
import pytest

from strategies import batch_row, random_batch_inputs, random_definition
from repro.programs.generators import (
    dot_prod,
    horner,
    mat_vec_mul,
    safe_div_sum,
    vec_sum,
)
from repro.semantics.batch import BatchWitnessEngine, run_witness_batch
from repro.semantics.shard import run_witness_sharded
from repro.semantics.witness import run_witness


def _assert_bitwise_equal(batch_report, reference, i):
    got = batch_report[i]
    assert got.sound == reference.sound
    assert got.exact_match == reference.exact_match
    assert repr(got.approx_value) == repr(reference.approx_value)
    assert repr(got.ideal_on_perturbed) == repr(reference.ideal_on_perturbed)
    assert set(got.params) == set(reference.params)
    for name, ref_witness in reference.params.items():
        witness = got.params[name]
        assert str(witness.distance) == str(ref_witness.distance)
        assert str(witness.bound) == str(ref_witness.bound)
        assert witness.grade == ref_witness.grade
        assert repr(witness.perturbed) == repr(ref_witness.perturbed)
        assert repr(witness.original) == repr(ref_witness.original)


class TestBitwiseAgreement:
    def test_1000_random_environments(self):
        """The headline property: 1000 envs, batch ≡ loop, bit for bit."""
        spec = random_definition(11, n_linear=4, n_steps=7, allow_case=False)
        engine = BatchWitnessEngine(spec.definition)
        assert engine.vectorized
        columns = random_batch_inputs(spec, seed=77, n_rows=1000)
        report = engine.run(columns)
        assert report.n_rows == 1000
        for i in range(1000):
            reference = run_witness(
                spec.definition, batch_row(columns, i), u=engine.u,
                lens=engine.lens,
            )
            _assert_bitwise_equal(report, reference, i)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_programs_small_batches(self, seed):
        spec = random_definition(seed, allow_case=False)
        engine = BatchWitnessEngine(spec.definition)
        columns = random_batch_inputs(spec, seed=seed + 500, n_rows=60)
        report = engine.run(columns)
        for i in range(60):
            reference = run_witness(
                spec.definition, batch_row(columns, i), u=engine.u,
                lens=engine.lens,
            )
            _assert_bitwise_equal(report, reference, i)

    @pytest.mark.parametrize(
        "definition",
        [vec_sum(50), dot_prod(16), horner(12)],
        ids=["Sum50", "DotProd16", "Horner12"],
    )
    def test_vector_benchmarks(self, definition):
        from repro.semantics.batch import _leaf_count

        rng = np.random.default_rng(3)
        n_rows = 50
        columns = {}
        for p in definition.params:
            k = _leaf_count(p.ty)
            columns[p.name] = (
                rng.uniform(0.5, 4.0, (n_rows, k))
                if k > 1
                else rng.uniform(0.5, 4.0, n_rows)
            )
        engine = BatchWitnessEngine(definition)
        assert engine.vectorized
        report = engine.run(columns)
        assert report.all_sound
        for i in range(0, n_rows, 7):
            row = {
                p.name: (
                    list(columns[p.name][i])
                    if columns[p.name].ndim == 2
                    else float(columns[p.name][i])
                )
                for p in definition.params
            }
            reference = run_witness(definition, row, u=engine.u, lens=engine.lens)
            _assert_bitwise_equal(report, reference, i)


class TestRndLowPrecisionRegression:
    """rnd on a raw parameter under reduced precision (PR 3 regression).

    The backward map for ``rnd`` hands the *rounded float array* through
    as the parameter's perturbed value; with ``precision_bits < 53``
    that array differs from the original, and the vectorized distance
    screen used to mix it (float64) with the Decimal originals and raise
    ``TypeError`` instead of converting exactly like the scalar path.
    """

    @pytest.mark.parametrize("precision_bits", [11, 24, 53])
    def test_rnd_param_distance_bitwise(self, precision_bits):
        from repro.core import parse_program

        program = parse_program(
            "RndId (x0 : num) : num := let r = rnd x0 in r"
        )
        engine = BatchWitnessEngine(
            program.main, program, precision_bits=precision_bits
        )
        columns = {"x0": np.array([3.45547648, -1.97200053, 0.125, 1e-30])}
        report = engine.run(columns)
        assert report.fallback_rows == 0
        for i in range(4):
            reference = run_witness(
                program.main,
                {"x0": float(columns["x0"][i])},
                program=program,
                u=engine.u,
                lens=engine.lens,
            )
            _assert_bitwise_equal(report, reference, i)


class TestFallbacks:
    def test_case_programs_vectorize_without_fallback(self):
        # Div + case used to drop the whole batch to the scalar loop;
        # the full-language engine runs them with branch masks — zero
        # fallback rows on benign inputs — and still agrees bitwise.
        found = 0
        for seed in range(200):
            spec = random_definition(seed, n_linear=6, n_steps=4)
            engine = BatchWitnessEngine(spec.definition)
            assert engine.vectorized
            if not engine.ir.has_cases:
                continue
            found += 1
            columns = random_batch_inputs(spec, seed=seed + 900, n_rows=12)
            report = engine.run(columns)
            assert report.fallback_rows == 0
            for i in range(12):
                reference = run_witness(
                    spec.definition, batch_row(columns, i), u=engine.u,
                    lens=engine.lens,
                )
                _assert_bitwise_equal(report, reference, i)
            if found >= 3:
                break
        assert found >= 3

    def test_zero_divisor_rows_fall_back_rowwise(self):
        # A zero divisor sends only the affected row down the scalar
        # path (where it takes the inr branch); the rest stay batched.
        found = False
        for seed in range(200):
            spec = random_definition(seed, n_linear=6, n_steps=4)
            engine = BatchWitnessEngine(spec.definition)
            if not engine.ir.has_cases:
                continue
            found = True
            break
        assert found
        columns = random_batch_inputs(spec, seed=31, n_rows=10)
        # The generated case always divides two pool variables; zeroing
        # every input in one row forces its divisor to zero.
        for name in columns:
            columns[name] = columns[name].copy()
            columns[name][6] = 0.0
        report = engine.run(columns)
        assert 1 <= report.fallback_rows < 10
        for i in range(10):
            try:
                reference = run_witness(
                    spec.definition, batch_row(columns, i), u=engine.u,
                    lens=engine.lens,
                )
            except Exception as exc:  # noqa: BLE001 - error parity below
                assert type(report.errors[i]) is type(exc)
                assert str(report.errors[i]) == str(exc)
                continue
            _assert_bitwise_equal(report, reference, i)

    def test_zero_rows_fall_back_rowwise(self):
        # An exact zero intermediate puts only the offending row on the
        # scalar path; the others stay vectorized.  Sum of (x0, -x0, x2)
        # hits s == 0 in the first add.
        spec = random_definition(0, n_linear=3, n_steps=3, allow_case=False)
        engine = BatchWitnessEngine(spec.definition)
        if not engine.vectorized:
            pytest.skip("generator did not produce a vectorizable program")
        columns = random_batch_inputs(spec, seed=5, n_rows=20)
        # Force a risky row: make every input zero in row 4.
        for name in columns:
            columns[name] = columns[name].copy()
            columns[name][4] = 0.0
        report = engine.run(columns)
        assert report.fallback_rows >= 1
        for i in (3, 4, 5):
            try:
                reference = run_witness(
                    spec.definition, batch_row(columns, i), u=engine.u,
                    lens=engine.lens,
                )
            except Exception as exc:  # noqa: BLE001 - error parity below
                with pytest.raises(type(exc)):
                    report[i]
                continue
            _assert_bitwise_equal(report, reference, i)

    def test_engine_adopts_lens_configuration(self):
        # Regression: a caller-provided lens defines the arithmetic —
        # its precision_bits must drive the vectorized sweep, and a
        # stochastic lens must configure the vectorized rounding replay.
        from repro.semantics.interp import lens_of_definition

        definition = vec_sum(8)
        lens24 = lens_of_definition(definition, precision_bits=24)
        engine = BatchWitnessEngine(definition, lens=lens24)
        assert engine.precision_bits == 24
        xs = np.linspace(0.5, 4.0, 8)
        report = engine.run({"x": np.tile(xs, (4, 1))})
        reference = run_witness(
            definition, {"x": list(xs)}, u=engine.u, lens=lens24
        )
        _assert_bitwise_equal(report, reference, 0)
        stochastic = lens_of_definition(definition, rounding="stochastic")
        st_engine = BatchWitnessEngine(definition, lens=stochastic)
        assert st_engine.vectorized
        assert st_engine.rounding == "stochastic"

    def test_stochastic_rounding_vectorizes_and_replays_the_stream(self):
        # Stochastic rounding decisions are keyed by operand bits, not
        # by a sequential RNG, so the batched sweep reproduces the
        # scalar stream per row — no whole-batch fallback anymore.
        definition = vec_sum(8)
        engine = BatchWitnessEngine(definition, rounding="stochastic", seed=9)
        assert engine.vectorized
        rng = np.random.default_rng(2)
        columns = {"x": rng.uniform(0.5, 4.0, (6, 8))}
        report = engine.run(columns)
        assert report.fallback_rows == 0
        for i in range(6):
            reference = run_witness(
                definition, {"x": list(columns["x"][i])}, u=engine.u,
                lens=engine.lens,
            )
            _assert_bitwise_equal(report, reference, i)


class TestRowErrors:
    def test_nonfinite_rows_match_scalar_loop_error_for_error(self):
        # Non-finite data drives the primitive backward maps into
        # Decimal signals (inf/inf, NaN comparisons).  The report must
        # record the *same* exception, type and message, on the same
        # rows the scalar loop raises on — and stay bitwise on the rest.
        spec = random_definition(5, n_linear=4, n_steps=6, allow_case=False)
        engine = BatchWitnessEngine(spec.definition)
        columns = random_batch_inputs(spec, seed=41, n_rows=12)
        poisons = {1: float("inf"), 4: float("nan"), 7: float("-inf")}
        for name in columns:
            columns[name] = columns[name].copy()
            for row, value in poisons.items():
                columns[name][row] = value
        report = engine.run(columns)
        assert report.fallback_rows >= len(poisons)
        raised = 0
        for i in range(12):
            try:
                reference = run_witness(
                    spec.definition, batch_row(columns, i), u=engine.u,
                    lens=engine.lens,
                )
            except Exception as exc:  # noqa: BLE001 - exact parity below
                raised += 1
                assert type(report.errors[i]) is type(exc)
                assert str(report.errors[i]) == str(exc)
                assert not report.sound[i]
                with pytest.raises(type(exc)):
                    report[i]
                continue
            assert i not in report.errors
            _assert_bitwise_equal(report, reference, i)
        assert raised >= 1  # the poison actually bit

    def test_exact_zero_forward_values_match_scalar_loop(self):
        # An exact-zero intermediate diverts the row to the scalar path;
        # whether that path certifies or raises, the report must mirror
        # it row for row (usually d = 0, identity perturbation).
        spec = random_definition(11, n_linear=4, n_steps=7, allow_case=False)
        engine = BatchWitnessEngine(spec.definition)
        columns = random_batch_inputs(spec, seed=13, n_rows=10)
        for name in columns:
            columns[name] = columns[name].copy()
            columns[name][3] = 0.0
        report = engine.run(columns)
        assert report.fallback_rows >= 1
        for i in range(10):
            try:
                reference = run_witness(
                    spec.definition, batch_row(columns, i), u=engine.u,
                    lens=engine.lens,
                )
            except Exception as exc:  # noqa: BLE001
                assert type(report.errors[i]) is type(exc)
                continue
            _assert_bitwise_equal(report, reference, i)

    def test_lens_domain_error_is_captured_row_for_row(self, monkeypatch):
        # Bean's type discipline makes LensDomainError unreachable for
        # well-typed programs on self-consistent targets, so force one:
        # make the addition backward map refuse zero sums, as it would
        # for a genuinely incomparable target.  The capture machinery
        # must record it on exactly the offending rows.
        import repro.semantics.interp as interp_mod
        from repro.semantics.lens import LensDomainError

        real_add_backward = interp_mod.add_backward

        def strict_add_backward(x1, x2, x3):
            if x1 + x2 == 0:
                raise LensDomainError("add backward: zero sum refused")
            return real_add_backward(x1, x2, x3)

        monkeypatch.setattr(interp_mod, "add_backward", strict_add_backward)
        definition = vec_sum(4)
        rng = np.random.default_rng(8)
        columns = {"x": rng.uniform(0.5, 4.0, (8, 4))}
        # Row 2 sums to zero at the first add: x0 + x1 == 0.
        columns["x"][2, 0], columns["x"][2, 1] = 1.5, -1.5
        engine = BatchWitnessEngine(definition)
        report = engine.run(columns)
        assert 2 in report.errors
        assert isinstance(report.errors[2], LensDomainError)
        assert "zero sum refused" in str(report.errors[2])
        assert not report.sound[2] and not report.all_sound
        with pytest.raises(LensDomainError):
            report[2]
        # Every other row is untouched by the patch and stays bitwise.
        for i in (0, 1, 3):
            reference = run_witness(
                definition, {"x": list(columns["x"][i])}, u=engine.u,
                lens=engine.lens,
            )
            _assert_bitwise_equal(report, reference, i)

    def test_nonfinite_row_is_captured_not_fatal(self):
        # Regression: one inf row must not abort the batch — the other
        # rows keep their reports and the bad row records its error.
        definition = vec_sum(5)
        rng = np.random.default_rng(1)
        columns = {"x": rng.uniform(0.5, 4.0, (6, 5))}
        columns["x"][2, 0] = float("inf")
        engine = BatchWitnessEngine(definition)
        report = engine.run(columns)
        assert not report.all_sound
        assert 2 in report.errors
        with pytest.raises(Exception):
            report[2]
        for i in (0, 1, 3, 4, 5):
            reference = run_witness(
                definition,
                {"x": list(columns["x"][i])},
                u=engine.u,
                lens=engine.lens,
            )
            _assert_bitwise_equal(report, reference, i)


class TestDecimalConversionMemo:
    def test_no_array_converted_twice(self, monkeypatch):
        # Regression for the latent slow-path waste: the ideal sweep
        # used to re-convert pass-through float arrays the backward
        # sweep (or a sibling op) had already pushed through _to_dec.
        # The phases now share one id-keyed memo, so within a run every
        # distinct float array is converted at most once.
        from repro.semantics import batch as batch_module

        real = batch_module._to_dec
        counts: dict = {}

        def counting(a):
            counts[id(a)] = counts.get(id(a), 0) + 1
            return real(a)

        monkeypatch.setattr(batch_module, "_to_dec", counting)
        spec = random_definition(11, n_linear=4, n_steps=7, allow_case=False)
        engine = BatchWitnessEngine(spec.definition, exact_backend="decimal")
        assert engine.vectorized
        columns = random_batch_inputs(spec, seed=77, n_rows=40)
        report = engine.run(columns)
        assert report.n_rows == 40
        # Distances/maxima force the phase-4 conversions too.
        assert set(report.param_max_distance) == {p.name for p in spec.definition.params}
        assert counts, "expected the decimal backend to convert arrays"
        assert max(counts.values()) == 1, (
            "an array crossed _to_dec more than once: the cross-phase "
            "memo regressed"
        )


class TestAggregates:
    def test_report_aggregates(self):
        definition = vec_sum(10)
        rng = np.random.default_rng(0)
        columns = {"x": rng.uniform(0.5, 4.0, (30, 10))}
        report = run_witness_batch(definition, columns)
        assert report.all_sound
        assert report.sound_count == 30
        assert len(report) == 30
        assert report.param_max_distance["x"] <= report.param_bound["x"]
        text = report.describe()
        assert "Sum10" in text and "30/30" in text

    def test_input_validation(self):
        definition = vec_sum(10)
        engine = BatchWitnessEngine(definition)
        with pytest.raises(KeyError):
            engine.run({})
        with pytest.raises(ValueError, match="shape"):
            engine.run({"x": np.zeros((5, 3))})
        # An explicitly 2-D empty with the wrong width is still a shape
        # bug, not a vacuously sound batch.
        with pytest.raises(ValueError, match="shape"):
            engine.run({"x": np.zeros((0, 3))})

    @pytest.mark.parametrize(
        "empty", [[], np.zeros((0, 10)), np.zeros(0)],
        ids=["list", "2d", "1d"],
    )
    def test_empty_environment_list_returns_empty_report(self, empty):
        # Regression: an empty batch used to trip NumPy's zero-size
        # array ops (an empty list has no row shape to infer).  It must
        # produce an empty — vacuously sound — report instead.
        report = run_witness_batch(vec_sum(10), {"x": empty})
        assert report.n_rows == 0
        assert len(report) == 0
        assert report.all_sound  # vacuously: no rows, no errors
        assert report.sound_count == 0
        assert report.fallback_rows == 0
        assert list(report) == []
        assert report.param_max_distance["x"] == 0
        assert "0/0" in report.describe()
        with pytest.raises(IndexError):
            report[0]

    def test_empty_batch_on_scalar_path_program(self):
        # The empty short-circuit must also cover non-vectorized
        # engines (here: a definition whose call cannot be inlined
        # because the engine was built without its program).
        from repro.core import Definition, NUM, Param, Program
        from repro.core import builders as B
        from repro.semantics.interp import lens_of_program

        double = Definition("Double", [Param("a", NUM)], B.rnd("a"))
        caller = Definition("F", [Param("x", NUM)], B.call("Double", B.var("x")))
        program = Program([double, caller])
        lens = lens_of_program(program, "F")
        engine = BatchWitnessEngine(caller, lens=lens)  # no program: no inline
        assert not engine.vectorized
        report = engine.run({"x": []})
        assert report.n_rows == 0 and report.all_sound


def _screen_batches(n_rows: int):
    """The audit benchmark's programs with its input distributions."""
    rng = np.random.default_rng(2024)

    def pos(*shape):
        return rng.uniform(0.1, 1.0, shape)

    def mixed(*shape):
        return pos(*shape) * rng.choice((-1.0, 1.0), shape)

    divisors = pos(n_rows, 40)
    divisors[[3, n_rows // 2], [0, 7]] = 0.0  # two scalar-fallback rows
    return [
        (horner(60), {"a": pos(n_rows, 61), "z": rng.uniform(0.5, 1.0, n_rows)}, 0),
        (dot_prod(100), {"x": mixed(n_rows, 100), "y": mixed(n_rows, 100)}, 0),
        (mat_vec_mul(10), {"M": pos(n_rows, 100), "z": pos(n_rows, 10)}, 0),
        (vec_sum(100), {"x": mixed(n_rows, 100)}, 0),
        (safe_div_sum(40), {"x": pos(n_rows, 40), "y": divisors,
                            "f": pos(n_rows, 40)}, 2),
    ]


class TestScreenEfficiency:
    """The dd screen must decide nearly every clean row by itself.

    Parity tests cannot see a screen that quietly sends every row to
    the scalar reference: the bytes stay right, only the speed goes.
    On well-conditioned batches the reference rechecks at most the rows
    holding each linear parameter's maximum distance (whose exact
    Decimal value the report needs).
    """

    @pytest.mark.parametrize("index", range(5))
    def test_rechecks_one_row(self, index):
        definition, columns, fallback = _screen_batches(1000)[index]
        report = run_witness_batch(definition, columns)
        assert report.all_sound
        assert report.fallback_rows == fallback
        # The screen before the binary64-operand kernels rechecked one
        # row on each of these batches; more is a screen that slid.
        assert report.rechecked_rows == 1, definition.name

    def test_decimal_backend_rechecks_nothing(self):
        definition, columns, _ = _screen_batches(50)[3]
        report = run_witness_batch(definition, columns, exact_backend="decimal")
        assert report.rechecked_rows == 0

    def test_sharded_counts_sum_over_shards(self):
        definition, columns, _ = _screen_batches(40)[3]
        halves = [
            run_witness_batch(definition, {"x": columns["x"][lo:hi]})
            for lo, hi in ((0, 20), (20, 40))
        ]
        sharded = run_witness_sharded(definition, columns, workers=2)
        assert sharded.rechecked_rows == sum(h.rechecked_rows for h in halves)
