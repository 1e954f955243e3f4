"""The static-analysis and sweep engines, end to end.

Three contracts:

* **Soundness cross-check** — for random programs and inputs, the
  ``interval`` and ``forward`` engines' static bounds must contain the
  forward error actually observed by every *executed* witness engine
  (ir / batch / sharded) on the same inputs.
* **Sweep bit-parity** — the ``sweep`` engine's ``per_precision``
  sections must equal independently run single-precision batch audits
  bit for bit, and its per-row tightest precision must follow from
  those audits' verdicts.
* **Surface parity** — ``repro witness --engine interval|forward|sweep``,
  the Python Session, and ``repro serve`` return byte-identical
  schema-v3 payloads (the registry-derived harness in
  ``test_engine_parity.py`` also samples these engines; the tests here
  pin each one explicitly).

Plus the recursion-limit acceptance check: both analyzers handle
``Sum 10000`` under the default recursion limit.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from strategies import batch_row, random_batch_inputs, random_definition, random_program
from repro.api import SWEEP_PRECISIONS, AuditResult, Session, engines
from repro.core import Program, pretty_program
from repro.lam_s.eval import evaluate
from repro.lam_s.values import VInl, VInr, VNum, VPair, VUnit
from repro.semantics.spaces import rp_distance
from repro.semantics.witness import env_from_pythons

_BUDGET = settings().max_examples
_SMALL_BUDGET = max(_BUDGET // 4, 10)

#: The executed (non-static, non-sweep, non-remote) engines, from the
#: registry.
EXECUTED_ENGINES = [
    name
    for name, engine in engines().items()
    if not engine.caps.static
    and not engine.caps.remote
    and name != "sweep"
]


def numeric_leaves(value):
    """Flatten a Λ_S value's numeric leaves, in deterministic order."""
    out = []
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, VNum):
            out.append(v)
        elif isinstance(v, VPair):
            stack.append(v.right)
            stack.append(v.left)
        elif isinstance(v, (VInl, VInr)):
            stack.append(v.body)
        elif isinstance(v, VUnit):
            pass
        else:  # pragma: no cover - exhaustive over closed values
            raise TypeError(f"unexpected value {v!r}")
    return out


def ideal_leaves_on(definition, program, inputs):
    """The exact (high-precision ideal) result leaves on the inputs."""
    env = env_from_pythons(definition, inputs)
    ideal = evaluate(definition.body, env, mode="ideal", program=program)
    return numeric_leaves(ideal)


def observed_errors_of(approx_value, exact_leaves):
    """Per-leaf RP(approx, exact) of one engine's approximate result.

    Measured against the exact Decimal: rounding the exact result to
    binary64 first can make a correctly rounded result read as 2u.
    """
    approx_leaves = numeric_leaves(approx_value)
    assert len(approx_leaves) == len(exact_leaves)
    return [rp_distance(a, e) for a, e in zip(approx_leaves, exact_leaves)]


class TestSoundnessCrossCheck:
    """Static bounds contain what the executed engines observe."""

    @staticmethod
    def assert_bounds_contain_observed(spec, columns, n_rows, fast_only=True):
        program = spec.program or Program([spec.definition])
        session = Session()
        engine_names = (
            [n for n in EXECUTED_ENGINES if not engines()[n].caps.multiprocess]
            if fast_only
            else EXECUTED_ENGINES
        )
        # One static audit per analyzer; the interval hypotheses are the
        # concrete inputs themselves (their hulls), so the executed runs
        # below are inside the hypothesis by construction.
        hull_inputs = {k: v.tolist() for k, v in columns.items()}
        interval = session.audit(
            program, spec.definition.name, inputs=hull_inputs,
            engine="interval",
        )
        forward = session.audit(
            program, spec.definition.name, inputs={}, engine="forward"
        )
        interval_bound = interval.static_bounds["forward_bound"]
        forward_bound = forward.static_bounds["forward_bound"]
        exact = [
            ideal_leaves_on(spec.definition, spec.program, batch_row(columns, i))
            for i in range(n_rows)
        ]
        for name in engine_names:
            caps = engines()[name].caps
            # Each engine's own approximate result is what the static
            # bounds must dominate, row for row.
            if caps.batched:
                result = session.audit(
                    program, spec.definition.name,
                    inputs=hull_inputs, engine=name,
                )
                assert result.sound, name
                row_reports = [result.report[i] for i in range(n_rows)]
            else:
                row_reports = [
                    session.audit(
                        program, spec.definition.name,
                        inputs=batch_row(columns, i), engine=name,
                    ).report
                    for i in range(n_rows)
                ]
            for i, report in enumerate(row_reports):
                for err in observed_errors_of(report.approx_value, exact[i]):
                    if interval_bound is not None:
                        assert err <= interval_bound, (name, i, err)
                    if forward_bound is not None:
                        assert err <= forward_bound, (name, i, err)

    @given(data=st.data())
    @settings(max_examples=_SMALL_BUDGET, deadline=None)
    def test_static_bounds_contain_observed_error(self, data):
        seed = data.draw(st.integers(0, 2**16), label="seed")
        kind = data.draw(st.sampled_from(["flat", "case", "call"]), label="kind")
        if kind == "call":
            spec = random_program(seed, n_helpers=1)
        else:
            spec = random_definition(
                seed,
                n_linear=data.draw(st.integers(1, 3))
                + (2 if kind == "case" else 0),
                n_steps=data.draw(st.integers(1, 5)),
                allow_case=kind == "case",
                allow_div=kind == "case",
            )
        n_rows = data.draw(st.integers(1, 3), label="n_rows")
        # Positive data: the regime both analyzers are sound in.
        columns = random_batch_inputs(spec, seed + 1, n_rows, positive=True)
        self.assert_bounds_contain_observed(spec, columns, n_rows)

    def test_correctly_rounded_add_within_unit_bound(self):
        # Regression: ``let t1 = add x1 x2 in (t1, x0)``.  The ir
        # engine's correctly rounded add is 9.5e-17 from the exact sum,
        # but read 2.2e-16 against 1.1e-16 bounds when the exact sum
        # was first rounded to binary64.
        spec = random_definition(
            98, n_linear=3, n_steps=1, allow_case=False, allow_div=False
        )
        columns = random_batch_inputs(spec, 99, 1, positive=True)
        self.assert_bounds_contain_observed(spec, columns, 1)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_all_executed_engines_pinned_seed(self, seed):
        # The process pool is too slow for the hypothesis inner loop;
        # pinned seeds cover it.
        spec = random_program(seed, n_helpers=1)
        columns = random_batch_inputs(spec, seed + 7, 4, positive=True)
        self.assert_bounds_contain_observed(spec, columns, 4, fast_only=False)

    def test_unbounded_analyses_report_unsound(self):
        session = Session()
        program = session.parse("F (x : num) (y : num) : num := sub x y")
        forward = session.audit(program, inputs={}, engine="forward")
        assert not forward.sound
        assert forward.static_bounds["forward_bound"] is None
        # Overlapping default ranges cannot exclude cancellation either.
        interval = session.audit(program, inputs={}, engine="interval")
        assert not interval.sound
        assert interval.static_bounds["forward_bound"] is None


class TestIntervalHypotheses:
    def test_scalar_vector_and_range_inputs_resolve_to_hulls(self):
        session = Session()
        program = session.parse(
            "F (x : num) (y : vec(2)) (w : num) : num :=\n"
            "  let (y0, y1) = y in add (mul x y0) (mul w y1)"
        )
        result = session.audit(
            program,
            inputs={"x": 2.0, "y": [3.0, 0.5, 7.0, 1.0]},
            engine="interval",
        )
        ranges = result.static_bounds["input_ranges"]
        assert ranges["x"] == [2.0, 2.0]
        assert ranges["y"] == [0.5, 7.0]
        assert ranges["w"] == [0.1, 1000.0]  # the paper's default

    @pytest.mark.parametrize(
        "inputs",
        [
            {"x": float("nan")},
            {"x": float("inf")},  # would render as non-RFC-8259 JSON
            {"x": [1.0, float("-inf")]},
            {"x": "wide"},
            {"x": []},
            {"nosuch": 1.0},
            {"x": True},
        ],
    )
    def test_bad_hypotheses_rejected(self, inputs):
        session = Session()
        program = session.parse("F (x : num) (y : num) : num := add x y")
        with pytest.raises(ValueError):
            session.audit(program, inputs=inputs, engine="interval")

    def test_forward_rejects_unknown_names_too(self):
        # forward ignores hypotheses, but a typo must not pass silently.
        session = Session()
        program = session.parse("F (x : num) (y : num) : num := add x y")
        with pytest.raises(ValueError):
            session.audit(program, inputs={"nosuch": 1.0}, engine="forward")


class TestSweepEngine:
    def _workload(self):
        session = Session()
        program = session.parse(
            "Scale (x : num) (y : num) (w : num) : num := add (mul x y) w"
        )
        inputs = {
            "x": [1.5, 2.25, 1.0 / 3.0, 1e-3],
            "y": [3.0, 1.0, 7.0, 2.5],
            "w": [1.0, 2.0, 0.25, 9.0],
        }
        return session, program, inputs

    def test_per_precision_bitwise_equals_independent_audits(self):
        session, program, inputs = self._workload()
        sweep = session.audit(program, inputs=inputs, engine="sweep")
        assert sweep.schema_version == 3
        for bits in SWEEP_PRECISIONS:
            independent = session.audit(
                program, inputs=inputs, engine="batch", precision_bits=bits
            )
            assert sweep.per_precision[str(bits)] == independent.payload, bits
            # …and therefore the rendered bytes agree too.
            assert json.dumps(sweep.per_precision[str(bits)], indent=2) == (
                independent.to_json()
            )

    def test_per_precision_eft_bitwise_and_decimal_cross(self, monkeypatch):
        # The sweep engine inherits the EFT fast path: its
        # per_precision entries stay bit-equal to independent batch
        # audits, and to the Decimal reference's bytes too.
        from oracles.batch_decimal_ref import DecimalBatchEngine
        from repro.semantics import batch as batch_module

        session, program, inputs = self._workload()
        sweep = session.audit(program, inputs=inputs, engine="sweep")
        for bits in SWEEP_PRECISIONS:
            independent = session.audit(
                program,
                inputs=inputs,
                engine="batch",
                precision_bits=bits,
            )
            assert sweep.per_precision[str(bits)] == independent.payload, bits
            with monkeypatch.context() as patch:
                patch.setattr(batch_module, "BatchWitnessEngine",
                              DecimalBatchEngine)
                reference = session.audit(
                    program,
                    inputs=inputs,
                    engine="batch",
                    precision_bits=bits,
                )
            assert sweep.per_precision[str(bits)] == reference.payload, bits

    def test_tightest_bits_follow_from_independent_verdicts(self):
        session, program, inputs = self._workload()
        sweep = session.audit(program, inputs=inputs, engine="sweep")
        verdicts = {
            bits: session.audit(
                program, inputs=inputs, engine="batch", precision_bits=bits
            ).payload["sound"]
            for bits in SWEEP_PRECISIONS
        }
        n_rows = sweep.payload["n_rows"]
        expected = []
        for i in range(n_rows):
            sound_bits = [b for b in SWEEP_PRECISIONS if verdicts[b][i]]
            expected.append(min(sound_bits) if sound_bits else None)
        assert sweep.payload["tightest_sound_bits"] == expected
        assert sweep.sound == all(b is not None for b in expected)

    def test_empty_batch(self):
        session, program, _ = self._workload()
        result = session.audit(
            program, inputs={"x": [], "y": [], "w": []}, engine="sweep"
        )
        assert result.sound
        assert result.payload["n_rows"] == 0
        assert result.payload["tightest_sound_bits"] == []


class TestStaticSurfaceParity:
    """Session == CLI --json == served body, byte for byte, schema v3."""

    @pytest.fixture(scope="class")
    def served(self):
        from repro.service.server import AuditServer, serve

        handle = serve(AuditServer(port=0))
        try:
            yield handle
        finally:
            handle.stop()

    @pytest.mark.parametrize("engine", ["interval", "forward", "sweep"])
    def test_new_engines_byte_identical_across_surfaces(
        self, served, tmp_path, engine
    ):
        from repro.cli import main
        from repro.service.client import audit

        spec = random_program(5, n_helpers=1)
        source = pretty_program(spec.program)
        columns = random_batch_inputs(spec, 11, 3, positive=True)
        inputs = {k: v.tolist() for k, v in columns.items()}

        session = Session()
        result = session.audit(
            session.parse(source), inputs=inputs, engine=engine
        )
        assert result.schema_version == 3

        status, body = audit(
            served.host, served.port,
            {"source": source, "inputs": inputs, "engine": engine},
        )
        assert status == 200
        assert body == result.to_json() + "\n"

        path = tmp_path / "prog.bean"
        path.write_text(source)
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            main(
                ["witness", str(path), "--inputs", json.dumps(inputs),
                 "--json", "--engine", engine]
            )
        assert buffer.getvalue() == body
        # The wire payload round-trips the strict v3 reader.
        rebuilt = AuditResult.from_json(body)
        assert rebuilt.payload == result.payload

    def test_cli_human_output_mentions_static_verdict(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "prog.bean"
        path.write_text(
            "F (x : num) (y : num) (w : num) : num := add (mul x y) w\n"
        )
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(
                ["witness", str(path), "--inputs",
                 '{"x": [0.5, 4.0], "y": [0.5, 4.0]}',
                 "--engine", "interval"]
            )
        assert code == 0
        out = buffer.getvalue()
        assert "finite static bound derived: True" in out
        assert "static analysis" in out


class TestDeepPrograms:
    """The acceptance bar: Sum 10000 under the default recursion limit."""

    def test_sum_10000_interval_and_forward(self):
        import sys

        from repro.analysis.forward import forward_error_bound
        from repro.analysis.intervals import interval_forward_bound
        from repro.programs.generators import vec_sum

        assert sys.getrecursionlimit() <= 10000, (
            "the point is the *default* limit; if this fails the limit "
            "was raised globally"
        )
        definition = vec_sum(10000)
        grade = forward_error_bound(definition)
        assert grade.coeff == 9999
        bound = interval_forward_bound(definition)
        assert bound == pytest.approx(grade.evaluate(2.0**-53), rel=1e-6)
