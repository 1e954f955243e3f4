"""Sharded witness benchmark: batch engine × worker processes.

Times the full-fragment vectorized engine against the looped scalar
witness on the div+case ``SafeDiv`` kernel (the family the Table 1
benchmarks cannot represent — data-dependent control flow on every
term), then shards the same batch across worker processes and checks
the merged verdicts stay identical.  The formatted comparison is
written to ``results/shard.txt``.

On a single-core runner the sharded cell mostly measures pool overhead;
the agreement assertions are the point there, the speedup column is
meaningful on >= 2 cores.
"""

from __future__ import annotations

import os
import time

import pytest

from conftest import write_bench_json, write_result
from repro.bench.irbench import format_ir_bench, run_ir_bench

SPECS = [
    ("SafeDiv", 100, 1000),
    ("DotProd", 100, 1000),
]

WORKERS = max(2, min(4, os.cpu_count() or 1))

#: Warm-vs-cold cell: repeated audits of the same kernel, the workload
#: the persistent pool exists for.  Cold builds a transient
#: spawn-context pool per audit (re-import + re-pickle + re-lower every
#: time); warm reuses one ShardWorkerPool whose workers hold the
#: prepared program.  Small rows on purpose — the cell measures dispatch
#: overhead, not row throughput.
POOL_REPEATS = 4
POOL_ROWS = 64
POOL_WIDTH = 20


@pytest.fixture(scope="module")
def shard_rows():
    return run_ir_bench(SPECS, workers=WORKERS)


@pytest.fixture(scope="module")
def pool_cell():
    """Median-free warm/cold timings for repeated pooled audits."""
    import numpy as np

    from repro.programs.generators import safe_div_sum
    from repro.semantics.pool import ShardWorkerPool
    from repro.semantics.shard import run_witness_sharded

    definition = safe_div_sum(POOL_WIDTH)
    rng = np.random.default_rng(41)
    columns = {
        name: rng.uniform(0.5, 4.0, (POOL_ROWS, POOL_WIDTH))
        for name in ("x", "y", "f")
    }

    cold_reports = []
    t0 = time.perf_counter()
    for _ in range(POOL_REPEATS):
        cold_reports.append(
            run_witness_sharded(
                definition, columns, workers=2, mp_context="spawn"
            )
        )
    cold_s = (time.perf_counter() - t0) / POOL_REPEATS

    with ShardWorkerPool(mp_context="spawn") as pool:
        # One warmup audit pays the spawn + prepare cost the pool
        # amortizes; the timed repeats are the steady state.
        run_witness_sharded(definition, columns, workers=2, pool=pool)
        warm_reports = []
        t0 = time.perf_counter()
        for _ in range(POOL_REPEATS):
            warm_reports.append(
                run_witness_sharded(
                    definition, columns, workers=2, pool=pool
                )
            )
        warm_s = (time.perf_counter() - t0) / POOL_REPEATS
        stats = pool.stats()

    agree = all(
        list(w.sound) == list(c.sound) and list(w.exact) == list(c.exact)
        for w, c in zip(warm_reports, cold_reports)
    )
    return {
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup": cold_s / warm_s,
        "agree": agree,
        "stats": stats,
    }


def test_shard_bench_report(shard_rows, pool_cell):
    """Persist the comparison table + the machine-readable trajectory."""
    lines = [
        format_ir_bench(shard_rows),
        "",
        f"warm pool vs cold pool ({POOL_REPEATS} repeated audits, "
        f"{POOL_ROWS} rows):",
        f"  cold one-audit pool  : {pool_cell['cold_s'] * 1e3:9.1f} ms/audit",
        f"  warm persistent pool : {pool_cell['warm_s'] * 1e3:9.1f} ms/audit",
        f"  speedup              : {pool_cell['speedup']:9.1f}x",
    ]
    write_result("shard.txt", "\n".join(lines))
    metrics = {}
    gated = []
    for row in shard_rows:
        cell = row.name.lower()
        if row.witness_batch_s is not None:
            metrics[f"{cell}_witness_batch_s"] = row.witness_batch_s
        if row.batch_speedup is not None:
            metrics[f"{cell}_batch_speedup_x"] = row.batch_speedup
            gated.append(f"{cell}_batch_speedup_x")
        if row.witness_shard_s is not None:
            metrics[f"{cell}_witness_shard_s"] = row.witness_shard_s
    metrics["pool_cold_spawn_s"] = pool_cell["cold_s"]
    metrics["pool_warm_s"] = pool_cell["warm_s"]
    metrics["pool_warm_vs_cold_x"] = pool_cell["speedup"]
    gated.append("pool_warm_vs_cold_x")
    write_bench_json(
        "shard", metrics, gate_metrics=gated, meta={"workers": WORKERS}
    )


def test_batch_clears_4x_on_div_case_kernel(shard_rows):
    """The acceptance bar: div+case no longer means scalar fallback."""
    safe_div = next(r for r in shard_rows if r.name.startswith("SafeDiv"))
    assert safe_div.batch_speedup is not None
    assert safe_div.batch_speedup >= 4.0, safe_div


def test_sharded_verdicts_identical(shard_rows):
    assert all(r.verdicts_agree for r in shard_rows)
    assert all(r.shard_agree for r in shard_rows)


def test_warm_pool_clears_3x_on_repeat_audits(pool_cell):
    """The acceptance bar: a warm pool beats cold spawn by >= 3x."""
    assert pool_cell["agree"], "warm and cold verdicts must match"
    assert pool_cell["stats"]["prepared_hits"] >= 2 * POOL_REPEATS
    assert pool_cell["speedup"] >= 3.0, pool_cell


def test_sharding_helps_on_multicore(shard_rows):
    """Workers must pay off wherever there are cores to use."""
    if (os.cpu_count() or 1) < 2:
        pytest.skip("single-core runner: sharding can only add overhead")
    safe_div = next(r for r in shard_rows if r.name.startswith("SafeDiv"))
    assert safe_div.shard_speedup is not None
    assert safe_div.shard_speedup > 1.2, safe_div
