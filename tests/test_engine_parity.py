"""Cross-engine differential harness: four engines and an oracle, one bit pattern.

The repository certifies the soundness theorem through four engines —
the iterative IR sweeps (``engine="ir"``), the vectorized
:class:`~repro.semantics.batch.BatchWitnessEngine`, the multiprocess
:func:`~repro.semantics.shard.run_witness_sharded`, and the **served**
path (``repro serve`` dispatching the same audits over HTTP) — and the
contract between them is not "approximately equal": identical float
approximants, identical Decimal perturbed inputs and distances,
identical verdicts, identical captured exceptions, row for row.  For
the served engine the contract is byte-level: the response body equals
the ``repro witness --json`` stdout for the same audit.  The recursive
reference interpreters of ``tests/oracles/`` (Figure 6 and Appendix C,
one syntax case at a time) are the oracle all of them answer to.

This module is the fuzz oracle for that contract.  Hypothesis drives
randomly generated well-typed Bean programs across the *whole* language
surface the batch engine now vectorizes — ``case``, ``div``, defined
function ``call``s (exercising the IR inlining pass), promotion, ``rnd``,
stochastic rounding — plus adversarial inputs (exact zeros, infinities,
NaNs) that force per-row scalar fallback and error capture.

Run with a fixed seed in CI via ``HYPOTHESIS_PROFILE=ci`` (derandomized;
see ``conftest.py``).
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles.batch_decimal_ref import DecimalBatchEngine
from oracles.interp_ref import reference_lens, run_witness_ref
from strategies import (
    batch_row,
    random_batch_inputs,
    random_definition,
    random_program,
)
from repro.api import batch_report_payload, render_payload
from repro.api import engines as registered_engines
from repro.semantics.batch import BatchWitnessEngine
from repro.semantics.witness import run_witness

#: Engine sets derived from the registry's capability flags — never a
#: hand-maintained name list.  "Fast" engines go into hypothesis inner
#: loops; process pools are too slow for that and get fixed-seed
#: coverage instead.  Remote engines dispatch to external serve nodes
#: and are exercised by tests/test_fleet.py, not the in-process parity
#: loops.
FAST_ENGINES = [
    name
    for name, engine in registered_engines().items()
    if not (engine.caps.multiprocess or engine.caps.remote)
]
SLOW_ENGINES = [
    name
    for name, engine in registered_engines().items()
    if engine.caps.multiprocess and not engine.caps.remote
]

#: Examples budgets scale with the loaded hypothesis profile (40 for
#: the default/ci profiles, 400 under HYPOTHESIS_PROFILE=nightly), so
#: the schedule-triggered soak deepens the search without code changes.
_BUDGET = settings().max_examples
_SMALL_BUDGET = max(_BUDGET // 4, 10)


def assert_witness_reports_equal(got, reference, ctx=""):
    """Bitwise equality of two scalar WitnessReports."""
    assert got.sound == reference.sound, ctx
    assert got.exact_match == reference.exact_match, ctx
    assert repr(got.approx_value) == repr(reference.approx_value), ctx
    assert repr(got.ideal_on_perturbed) == repr(reference.ideal_on_perturbed), ctx
    assert set(got.params) == set(reference.params), ctx
    for name, ref_witness in reference.params.items():
        witness = got.params[name]
        assert str(witness.distance) == str(ref_witness.distance), (ctx, name)
        assert str(witness.bound) == str(ref_witness.bound), (ctx, name)
        assert witness.grade == ref_witness.grade, (ctx, name)
        assert repr(witness.perturbed) == repr(ref_witness.perturbed), (ctx, name)
        assert repr(witness.original) == repr(ref_witness.original), (ctx, name)


def assert_batch_matches_scalar_loop(report, spec, engine, columns, n_rows):
    """Every batch row equals the scalar loop — verdict, values, errors."""
    for i in range(n_rows):
        try:
            reference = run_witness(
                spec.definition,
                batch_row(columns, i),
                program=spec.program,
                u=engine.u,
                lens=engine.lens,
            )
        except Exception as exc:  # noqa: BLE001 - exact error parity below
            captured = report.errors.get(i)
            assert captured is not None, (i, type(exc), exc)
            assert type(captured) is type(exc), i
            assert str(captured) == str(exc), i
            assert not report.sound[i]
            with pytest.raises(type(exc)):
                report[i]
            continue
        assert i not in report.errors, (i, report.errors.get(i))
        assert bool(report.sound[i]) == reference.sound, i
        assert bool(report.exact[i]) == reference.exact_match, i
        assert_witness_reports_equal(report[i], reference, ctx=i)


@st.composite
def engine_cases(draw):
    """A generated program spec plus an engine configuration."""
    kind = draw(
        st.sampled_from(["flat", "case", "div", "call", "stochastic", "lowprec"])
    )
    seed = draw(st.integers(0, 2**16))
    n_linear = draw(st.integers(1, 4))
    n_steps = draw(st.integers(1, 6))
    n_discrete = draw(st.integers(0, 2))
    engine_options = {}
    if kind == "call":
        spec = random_program(
            seed,
            n_linear=max(2, n_linear),
            n_discrete=max(1, n_discrete),
            n_steps=n_steps,
            n_helpers=draw(st.integers(1, 2)),
            allow_div=draw(st.booleans()),
        )
    else:
        spec = random_definition(
            seed,
            n_linear=n_linear + (2 if kind == "div" else 0),
            n_discrete=n_discrete,
            n_steps=n_steps,
            allow_case=kind in ("case", "div"),
            allow_div=kind == "div",
        )
    if kind == "stochastic":
        engine_options = {"rounding": "stochastic", "seed": draw(st.integers(0, 99))}
    elif kind == "lowprec":
        engine_options = {"precision_bits": draw(st.sampled_from([11, 24]))}
    return spec, engine_options


@given(case=engine_cases(), data=st.data())
@settings(max_examples=_BUDGET, deadline=None)
def test_engines_bitwise_agree(case, data):
    """The differential property: reference ≡ IR ≡ batch, bit for bit."""
    spec, engine_options = case
    n_rows = data.draw(st.integers(2, 5), label="n_rows")
    input_seed = data.draw(st.integers(0, 2**20), label="input_seed")
    inject = data.draw(
        st.sampled_from([None, "zero", "inf", "nan"]), label="inject"
    )
    columns = random_batch_inputs(spec, input_seed, n_rows)
    if inject is not None:
        poison = {"zero": 0.0, "inf": float("inf"), "nan": float("nan")}[inject]
        for name in columns:
            columns[name] = columns[name].copy()
            columns[name][1] = poison

    engine = BatchWitnessEngine(spec.definition, spec.program, **engine_options)
    report = engine.run(columns)
    assert report.n_rows == n_rows

    # Batch vs the scalar loop on every row (including captured errors).
    assert_batch_matches_scalar_loop(report, spec, engine, columns, n_rows)

    # IR vs the recursive reference oracle on one clean row (row 0 is
    # never poisoned): same lens semantics, structurally different
    # execution.
    recursive_lens = reference_lens(
        spec.definition, program=spec.program, **engine_options
    )
    row = batch_row(columns, 0)
    ir_report = run_witness(
        spec.definition, row, program=spec.program, u=engine.u, lens=engine.lens
    )
    recursive_report = run_witness_ref(
        spec.definition, row, program=spec.program, u=engine.u,
        lens=recursive_lens,
    )
    assert_witness_reports_equal(recursive_report, ir_report, ctx="recursive")


@given(data=st.data())
@settings(max_examples=_SMALL_BUDGET, deadline=None)
def test_call_programs_see_through_inlining(data):
    """Programs with calls vectorize (no whole-batch scalar fallback)."""
    seed = data.draw(st.integers(0, 2**16))
    spec = random_program(seed, n_helpers=2, allow_div=data.draw(st.booleans()))
    engine = BatchWitnessEngine(spec.definition, spec.program)
    assert engine.vectorized
    columns = random_batch_inputs(spec, seed + 1, 4)
    report = engine.run(columns)
    assert report.fallback_rows == 0
    assert_batch_matches_scalar_loop(report, spec, engine, columns, 4)


class TestShardedParity:
    """The multiprocess engine against the in-process engines.

    Process pools are too slow for a hypothesis inner loop; fixed seeds
    keep this deterministic while still covering the call/div/case
    surface.
    """

    @pytest.mark.parametrize("seed", [3, 11])
    def test_sharded_equals_batch_and_loop(self, seed):
        from repro.semantics.shard import run_witness_sharded

        spec = random_program(seed, n_helpers=1, allow_div=True)
        engine = BatchWitnessEngine(spec.definition, spec.program)
        columns = random_batch_inputs(spec, seed + 7, 9)
        # Poison one mid-shard row so error capture crosses the merge.
        for name in columns:
            columns[name] = columns[name].copy()
            columns[name][4] = float("inf")
        batch = engine.run(columns)
        sharded = run_witness_sharded(
            spec.definition, columns, program=spec.program, workers=3
        )
        assert list(sharded.sound) == list(batch.sound)
        assert list(sharded.exact) == list(batch.exact)
        assert set(sharded.errors) == set(batch.errors)
        for i in sharded.errors:
            assert type(sharded.errors[i]) is type(batch.errors[i])
            assert str(sharded.errors[i]) == str(batch.errors[i])
        assert {k: str(v) for k, v in sharded.param_max_distance.items()} == {
            k: str(v) for k, v in batch.param_max_distance.items()
        }
        # Materialized rows rebuild through the scalar runner: bitwise.
        for i in (0, 8):
            assert_witness_reports_equal(sharded[i], batch[i], ctx=i)


class TestExactBackendParity:
    """The perturbation-form screen against the Decimal reference.

    The batch engine's backward/ideal sweeps run in perturbation form
    on error-free transformations; the contract is that every
    observable — verdicts,
    exact-match flags, Decimal distance strings, per-param maxima,
    perturbed-value reprs, captured error types/messages, and the
    ``fallback_rows`` accounting — is *bit-for-bit* what the 50-digit
    Decimal sweeps of :mod:`oracles.batch_decimal_ref` produce.  With
    ``collect_rows`` the rendered payloads, ``rows`` section included,
    are byte-identical.
    """

    @staticmethod
    def _payload_text(report):
        return render_payload(batch_report_payload(
            report, engine="batch", u=2.0**-53, precision_bits=53
        ))

    @classmethod
    def _compare(cls, eft, dec, n_rows, collect_rows=False):
        assert list(eft.sound) == list(dec.sound)
        assert list(eft.exact) == list(dec.exact)
        assert eft.fallback_rows == dec.fallback_rows
        assert set(eft.errors) == set(dec.errors)
        for i in eft.errors:
            assert type(eft.errors[i]) is type(dec.errors[i]), i
            assert str(eft.errors[i]) == str(dec.errors[i]), i
        assert {k: str(v) for k, v in eft.param_max_distance.items()} == {
            k: str(v) for k, v in dec.param_max_distance.items()
        }
        for i in range(n_rows):
            if i in eft.errors:
                continue
            assert_witness_reports_equal(eft[i], dec[i], ctx=i)
        assert (eft.rows is not None) == collect_rows
        assert (dec.rows is not None) == collect_rows
        assert cls._payload_text(eft) == cls._payload_text(dec)

    @pytest.mark.parametrize("collect_rows", [False, True])
    @given(case=engine_cases(), data=st.data())
    @settings(max_examples=_BUDGET, deadline=None)
    def test_eft_equals_decimal_bitwise(self, collect_rows, case, data):
        spec, engine_options = case
        n_rows = data.draw(st.integers(2, 5), label="n_rows")
        input_seed = data.draw(st.integers(0, 2**20), label="input_seed")
        inject = data.draw(
            st.sampled_from([None, "zero", "inf", "nan"]), label="inject"
        )
        columns = random_batch_inputs(spec, input_seed, n_rows)
        if inject is not None:
            poison = {"zero": 0.0, "inf": float("inf"), "nan": float("nan")}[inject]
            for name in columns:
                columns[name] = columns[name].copy()
                columns[name][1] = poison
        reports = {}
        for backend, engine_cls in (("eft", BatchWitnessEngine),
                                    ("decimal", DecimalBatchEngine)):
            engine = engine_cls(
                spec.definition,
                spec.program,
                collect_rows=collect_rows,
                **engine_options,
            )
            reports[backend] = engine.run(columns)
        self._compare(reports["eft"], reports["decimal"], n_rows, collect_rows)

    @pytest.mark.parametrize("collect_rows", [False, True])
    @pytest.mark.parametrize("workers", [2, 4])
    def test_sharded_eft_equals_decimal(self, workers, collect_rows):
        from repro.semantics.shard import run_witness_sharded

        spec = random_program(7, n_helpers=1, allow_div=True)
        columns = random_batch_inputs(spec, 13, 8)
        for name in columns:
            columns[name] = columns[name].copy()
            columns[name][3] = float("inf")
        # The reference runs in-process on the whole batch; sharding
        # is invisible in every observable the comparison reads.
        reports = {
            "eft": run_witness_sharded(
                spec.definition,
                columns,
                program=spec.program,
                workers=workers,
                collect_rows=collect_rows,
            ),
            "decimal": DecimalBatchEngine(
                spec.definition, spec.program, collect_rows=collect_rows
            ).run(columns),
        }
        self._compare(reports["eft"], reports["decimal"], 8, collect_rows)


class TestServedParity:
    """The served engine against the one-shot CLI, byte for byte.

    The server and the CLI share one :class:`repro.api.Session` code
    path by construction; this class is the end-to-end oracle that the HTTP
    layer (request validation, coalescing, executor dispatch, response
    rendering) preserves that equality — over randomized programs whose
    *source text* travels to the server while the CLI re-parses the same
    text locally.
    """

    @pytest.fixture(scope="class")
    def served(self):
        from repro.service.server import AuditServer, serve

        handle = serve(AuditServer(port=0))
        try:
            yield handle
        finally:
            handle.stop()

    @staticmethod
    def assert_served_equals_cli(handle, source, inputs, engine, tmp_path):
        from repro.cli import main
        from repro.service.client import audit

        status, body = audit(
            handle.host,
            handle.port,
            {"source": source, "inputs": inputs, "engine": engine, "workers": 2},
        )
        assert status == 200, body
        path = tmp_path / "prog.bean"
        path.write_text(source)
        argv = ["witness", str(path), "--inputs", json.dumps(inputs), "--json"]
        caps = registered_engines()[engine].caps
        if engine in ("batch", "sharded"):
            argv.append("--batch")  # exercise the legacy flag spelling
        else:
            argv += ["--engine", engine]
        if caps.multiprocess:
            argv += ["--workers", "2"]
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            main(argv)
        assert body == buffer.getvalue(), (engine, source)

    @given(data=st.data())
    @settings(
        max_examples=_SMALL_BUDGET,
        deadline=None,
        suppress_health_check=[
            # The server fixture is class-scoped by design (one server,
            # many examples); tmp_path is only a scratch file path.
            HealthCheck.function_scoped_fixture,
            HealthCheck.too_slow,
        ],
    )
    def test_served_random_programs_bitwise(self, served, tmp_path, data):
        from repro.core import pretty_program

        seed = data.draw(st.integers(0, 2**16), label="seed")
        spec = random_program(
            seed, n_helpers=data.draw(st.integers(1, 2)),
            allow_div=data.draw(st.booleans()),
        )
        source = pretty_program(spec.program)
        engine = data.draw(st.sampled_from(FAST_ENGINES), label="engine")
        n_rows = data.draw(st.integers(1, 3), label="n_rows")
        columns = random_batch_inputs(spec, seed + 1, n_rows)
        if registered_engines()[engine].caps.batched:
            inputs = {k: v.tolist() for k, v in columns.items()}
        else:
            inputs = batch_row(columns, 0)
        self.assert_served_equals_cli(served, source, inputs, engine, tmp_path)

    @pytest.mark.parametrize("engine", SLOW_ENGINES)
    def test_served_slow_engines_bitwise(self, served, tmp_path, engine):
        # One fixed seed per engine: the process pool is too slow for a
        # hypothesis inner loop.
        from repro.core import pretty_program

        spec = random_program(5, n_helpers=1, allow_div=True)
        source = pretty_program(spec.program)
        columns = random_batch_inputs(spec, 11, 4)
        if registered_engines()[engine].caps.batched:
            inputs = {k: v.tolist() for k, v in columns.items()}
        else:
            inputs = batch_row(columns, 0)
        self.assert_served_equals_cli(served, source, inputs, engine, tmp_path)

    def test_served_error_capture_bitwise(self, served, tmp_path):
        # Poisoned rows (inf) force per-row scalar fallback and error
        # capture; the captured type+message must cross the HTTP layer
        # exactly as the CLI renders them.
        from repro.core import pretty_program

        spec = random_program(3, n_helpers=1, allow_div=True)
        source = pretty_program(spec.program)
        columns = random_batch_inputs(spec, 7, 3)
        inputs = {}
        for name, arr in columns.items():
            arr = arr.copy()
            arr[1] = float("inf")
            inputs[name] = arr.tolist()
        self.assert_served_equals_cli(served, source, inputs, "batch", tmp_path)
