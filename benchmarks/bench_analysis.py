"""Static-analysis benchmarks: the interval IR sweep, and the sweep
engine vs. independent per-precision audits.

Two ratios are gated:

* **sweep vs independent** — the ``sweep`` engine fans one audit across
  ``SWEEP_PRECISIONS`` through the same batch engine an independent
  per-precision audit uses, so it must not cost more than running the
  audits separately (ratio ~1x, gated against drift; the per-precision
  payload sections are asserted equal byte for byte first);
* **sweep EFT vs Decimal** — the same sweep with the exact-arithmetic
  backend pinned to Decimal, sections asserted equal modulo the
  backend stamp.

Also recorded (ungated): the interval analyzer's iterative sweep over
the flat IR on Sum 200, MatVecMul 12 and Sum 10000 — a depth no
structural walker reaches at the default recursion limit.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from conftest import write_bench_json

from repro.analysis.intervals import interval_forward_bound
from repro.api import SWEEP_PRECISIONS, Session
from repro.core import Program, pretty_program
from repro.programs.generators import BENCHMARK_FAMILIES, mat_vec_mul, vec_sum

SUM_SIZE = 200
MATVEC_SIZE = 12
DEEP_SUM_SIZE = 10_000

SWEEP_KERNEL_SIZE = 20  #: Sum kernel size for the sweep comparison
#: Environment rows per sweep audit.  Sized so the 53-bit section —
#: the only one the EFT backend accelerates (11/24-bit audits run the
#: Decimal sweeps under either backend) — carries enough weight for
#: ``sweep_eft_vs_decimal_x`` to measure the kernels, not fixed
#: per-audit overhead.
SWEEP_ENVS = 400
REPS = 5  #: timing repetitions per side


def _best_of(fn, reps=REPS):
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


class AnalysisBench:
    """Everything measured once, shared by the assertions below."""

    def __init__(self) -> None:
        # -- interval: the IR sweep -------------------------------------
        self.interval_s = {}
        for label, definition in (
            ("sum", vec_sum(SUM_SIZE)),
            ("matvec", mat_vec_mul(MATVEC_SIZE)),
        ):
            interval_forward_bound(definition)  # warm IR caches
            self.interval_s[label] = _best_of(
                lambda d=definition: interval_forward_bound(d)
            )

        deep = vec_sum(DEEP_SUM_SIZE)
        interval_forward_bound(deep)  # warm the lowering cache
        self.deep_s = _best_of(
            lambda: interval_forward_bound(deep), reps=2
        )

        # -- sweep engine vs independent per-precision audits -------------
        session = Session()
        definition = BENCHMARK_FAMILIES["Sum"](SWEEP_KERNEL_SIZE)
        program = session.parse(pretty_program(Program([definition])))
        rng = np.random.default_rng(11)
        inputs = {
            program.main.params[0].name: rng.uniform(
                0.5, 4.0, (SWEEP_ENVS, SWEEP_KERNEL_SIZE)
            ).tolist()
        }
        sweep = session.audit(program, inputs=inputs, engine="sweep")
        for bits in SWEEP_PRECISIONS:
            independent = session.audit(
                program, inputs=inputs, engine="batch", precision_bits=bits
            )
            section = sweep.per_precision[str(bits)]
            assert section == independent.payload, bits
            assert json.dumps(section, indent=2) == independent.to_json()

        self.sweep_s = _best_of(
            lambda: session.audit(program, inputs=inputs, engine="sweep"),
            reps=3,
        )

        def independents() -> None:
            for bits in SWEEP_PRECISIONS:
                session.audit(
                    program, inputs=inputs, engine="batch",
                    precision_bits=bits,
                )

        self.independent_s = _best_of(independents, reps=3)

        # -- sweep engine: EFT backend vs the Decimal reference -----------
        # Same audit, exact-arithmetic backend pinned to Decimal; every
        # per-precision section must match the EFT run's bytes modulo
        # the informational backend stamp, and the timing ratio records
        # how much of the sweep's cost the EFT kernels removed.
        dec_sweep = session.audit(
            program, inputs=inputs, engine="sweep", exact_backend="decimal"
        )
        for bits in SWEEP_PRECISIONS:
            eft_section = dict(sweep.per_precision[str(bits)])
            dec_section = dict(dec_sweep.per_precision[str(bits)])
            assert eft_section.pop("exact_backend") == "eft"
            assert dec_section.pop("exact_backend") == "decimal"
            assert eft_section == dec_section, bits
        self.sweep_dec_s = _best_of(
            lambda: session.audit(
                program, inputs=inputs, engine="sweep",
                exact_backend="decimal",
            ),
            reps=3,
        )


@pytest.fixture(scope="module")
def bench():
    return AnalysisBench()


def test_analysis_bench_report(bench):
    write_bench_json(
        "analysis",
        {
            "interval_ir_sum_s": bench.interval_s["sum"],
            "interval_ir_matvec_s": bench.interval_s["matvec"],
            "interval_ir_sum10000_s": bench.deep_s,
            "sweep_total_s": bench.sweep_s,
            "independent_audits_total_s": bench.independent_s,
            "sweep_vs_independent_x": bench.independent_s / bench.sweep_s,
            "sweep_decimal_total_s": bench.sweep_dec_s,
            "sweep_eft_vs_decimal_x": bench.sweep_dec_s / bench.sweep_s,
        },
        gate_metrics=[
            "sweep_vs_independent_x",
            "sweep_eft_vs_decimal_x",
        ],
        meta={
            "sum_size": SUM_SIZE,
            "matvec_size": MATVEC_SIZE,
            "deep_sum_size": DEEP_SUM_SIZE,
            "sweep_kernel": f"Sum{SWEEP_KERNEL_SIZE}",
            "sweep_envs": SWEEP_ENVS,
            "sweep_precisions": list(SWEEP_PRECISIONS),
        },
    )

