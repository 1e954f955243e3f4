"""IR benchmark: flat-IR check/eval timings, and batch witnesses.

Records the cold check and one evaluation on the flat IR (ungated
absolute timings), and times the vectorized :class:`BatchWitnessEngine`
against a loop of scalar ``run_witness`` calls on 1000 environments.
Asserts the two produce identical soundness verdicts, and that batching
clears a 5x throughput bar on the 1000-environment cells.  The
formatted comparison is written to ``results/ir.txt``.
"""

from __future__ import annotations

import pytest

from conftest import write_bench_json, write_result
from repro.bench.irbench import format_ir_bench, run_ir_bench

SPECS = [
    ("DotProd", 100, 1000),
    ("Sum", 100, 1000),
    ("Horner", 100, 1000),
    ("Sum", 1000, 200),
    ("SafeDiv", 100, 1000),
]


@pytest.fixture(scope="module")
def ir_rows():
    return run_ir_bench(SPECS)


def test_ir_bench_report(ir_rows):
    """Persist the comparison table + the machine-readable trajectory."""
    write_result("ir.txt", format_ir_bench(ir_rows))
    metrics = {}
    gated = []
    for row in ir_rows:
        cell = row.name.lower()
        metrics[f"{cell}_check_ir_s"] = row.check_ir_s
        metrics[f"{cell}_eval_ir_s"] = row.eval_ir_s
        if row.witness_batch_s is not None:
            metrics[f"{cell}_witness_batch_s"] = row.witness_batch_s
        if row.batch_speedup is not None:
            metrics[f"{cell}_batch_speedup_x"] = row.batch_speedup
            gated.append(f"{cell}_batch_speedup_x")
    write_bench_json("ir", metrics, gate_metrics=gated)


def test_batch_witness_verdicts_agree(ir_rows):
    assert all(r.verdicts_agree for r in ir_rows)


def test_batch_witness_throughput(ir_rows):
    """The vectorized engine clears 5x over the scalar loop at N=1000."""
    big = [r for r in ir_rows if r.n_envs >= 1000]
    assert big, "no 1000-environment cells in SPECS"
    for row in big:
        assert row.batch_speedup is not None
        assert row.batch_speedup >= 5.0, (
            f"{row.name}: batch speedup {row.batch_speedup:.2f}x < 5x "
            f"(loop {row.witness_loop_s:.3f}s, batch {row.witness_batch_s:.3f}s)"
        )
