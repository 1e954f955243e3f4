"""The perturbation-form screen against the value-form sweep and the loop.

:class:`~repro.semantics.batch.BatchWitnessEngine` screens every batch
row in perturbation form: each value is its binary64 forward value
times ``(1 + δ)``.  Two references decide the same rows independently:

* :class:`oracles.batch_dd_ref.DdBatchEngine` runs the backward and
  ideal sweeps on the values themselves as double-double arrays (the
  engine's former sweeps) and hands them to the same phase-4 screens;
* the scalar reference, :func:`~repro.semantics.witness.run_witness`
  on every row (``BatchWitnessEngine._run_scalar``), with the batch's
  ``fallback_rows`` count, which phase 1 decides for all three.

Every audit must render to the same payload bytes under all three, with
and without the ``rows`` section: verdicts, exact maxima, captured
errors and 8-digit row distances.  Hypothesis draws the programs of
``tests/strategies.py`` (cases, division, calls, stochastic rounding,
reduced precision, zero and non-finite rows) and the Table-1 families
with mixed-sign rows.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

np = pytest.importorskip("numpy")

from oracles.batch_dd_ref import DdBatchEngine
from strategies import random_batch_inputs, random_definition, random_program
from repro.api import batch_report_payload, render_payload
from repro.core import Program
from repro.programs.generators import BENCHMARK_FAMILIES, safe_div_sum
from repro.semantics.batch import BatchWitnessEngine, _leaf_count

_BUDGET = settings().max_examples

#: Table-1 families plus the guarded quotient, at sizes a scalar loop
#: over every row can afford.
_FAMILIES = dict(BENCHMARK_FAMILIES, SafeDiv=safe_div_sum)


def _payload(report, engine) -> str:
    return render_payload(batch_report_payload(
        report, engine="batch", u=engine.u,
        precision_bits=engine.precision_bits,
    ))


def _assert_same_bytes(definition, program, columns, options) -> None:
    """δ engine ≡ dd value-form oracle ≡ scalar loop, payload bytes."""
    n_rows = len(next(iter(columns.values())))
    texts = {}
    for name, cls in (("delta", BatchWitnessEngine), ("dd", DdBatchEngine)):
        engine = cls(definition, program, **options)
        report = engine.run(columns)
        texts[name] = _payload(report, engine)
    reference = engine._run_scalar(engine._columns(columns), n_rows,
                                   range(n_rows))
    reference.fallback_rows = report.fallback_rows
    texts["scalar"] = _payload(reference, engine)
    assert texts["delta"] == texts["dd"]
    assert texts["delta"] == texts["scalar"]


@st.composite
def generated_cases(draw):
    """A ``tests/strategies.py`` program, its options and inputs."""
    kind = draw(st.sampled_from(
        ["flat", "case", "div", "call", "stochastic", "lowprec"]
    ))
    seed = draw(st.integers(0, 2**16))
    if kind == "call":
        spec = random_program(seed, n_linear=3, n_discrete=1,
                              n_steps=draw(st.integers(1, 6)),
                              n_helpers=draw(st.integers(1, 2)),
                              allow_div=draw(st.booleans()))
    else:
        spec = random_definition(
            seed,
            n_linear=draw(st.integers(1, 4)) + (2 if kind == "div" else 0),
            n_discrete=draw(st.integers(0, 2)),
            n_steps=draw(st.integers(1, 6)),
            allow_case=kind in ("case", "div"),
            allow_div=kind == "div",
        )
    options = {}
    if kind == "stochastic":
        options = {"rounding": "stochastic", "seed": draw(st.integers(0, 99))}
    elif kind == "lowprec":
        options = {"precision_bits": draw(st.sampled_from([11, 24]))}
    columns = random_batch_inputs(spec, draw(st.integers(0, 2**20)),
                                  draw(st.integers(2, 6)))
    poison = draw(st.sampled_from([None, 0.0, float("inf"), float("nan")]))
    if poison is not None:  # row 1 takes the fallback or raises
        for name in columns:
            columns[name] = columns[name].copy()
            columns[name][1] = poison
    return spec.definition, spec.program, columns, options


@st.composite
def family_cases(draw):
    """A Table-1 family (or SafeDiv) with mixed-sign rows."""
    family = draw(st.sampled_from(sorted(_FAMILIES)))
    n = draw(st.integers(2, 24))
    definition = _FAMILIES[family](n)
    rng = np.random.default_rng(draw(st.integers(0, 2**20)))
    n_rows = draw(st.integers(2, 12))
    columns = {}
    for p in definition.params:
        shape = (n_rows, _leaf_count(p.ty))
        values = rng.uniform(0.1, 1.0, shape)
        if family in ("Sum", "DotProd") or draw(st.booleans()):
            values *= rng.choice((-1.0, 1.0), shape)
        columns[p.name] = values
    if family == "SafeDiv" and draw(st.booleans()):
        columns["y"][0, 0] = 0.0  # a zero divisor: the scalar fallback
    options = draw(st.sampled_from([
        {}, {"precision_bits": 11}, {"precision_bits": 24},
        {"rounding": "stochastic", "seed": 3},
    ]))
    return definition, Program([definition]), columns, options


@pytest.mark.parametrize("collect_rows", [False, True])
@given(case=generated_cases())
@settings(max_examples=_BUDGET, deadline=None)
def test_generated_programs(collect_rows, case):
    definition, program, columns, options = case
    _assert_same_bytes(definition, program, columns,
                       dict(options, collect_rows=collect_rows))


@pytest.mark.parametrize("collect_rows", [False, True])
@given(case=family_cases())
@settings(max_examples=_BUDGET, deadline=None)
def test_table1_families(collect_rows, case):
    definition, program, columns, options = case
    _assert_same_bytes(definition, program, columns,
                       dict(options, collect_rows=collect_rows))


def test_screen_bounds_reuse_each_programs_longest_chain(monkeypatch):
    """A second engine on the same program reads the chain length from
    the per-IR cache and derives bit-identical bounds."""
    from repro.semantics import batch as batch_module

    definition = BENCHMARK_FAMILIES["Horner"](12)
    program = Program([definition])
    first = BatchWitnessEngine(definition, program)._screen_bounds()

    def forbidden(ops):
        raise AssertionError("longest chain recomputed")

    monkeypatch.setattr(batch_module, "_longest_chain", forbidden)
    second = BatchWitnessEngine(definition, program)._screen_bounds()
    assert [v.hex() for v in second] == [v.hex() for v in first]
