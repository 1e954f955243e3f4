"""Flat-IR timings plus batch witness throughput.

Over the Table 1 program families plus the div+case ``SafeDiv`` kernel:

* **check** — cold grade inference (lowering + the IR reverse sweep);
* **eval**  — one approximate evaluation (the IR forward sweep);
* **witness** — ``run_witness`` looped over N environments vs.
  :class:`repro.semantics.batch.BatchWitnessEngine` on the same N
  environments (and, with ``workers > 1``, vs.
  :func:`repro.semantics.shard.run_witness_sharded` across processes),
  asserting the soundness verdicts agree row-for-row.  Each timed
  witness cell starts from a fresh ``gc.collect()``, so a generation-2
  pause left over by an earlier cell is not charged to it.

Used by ``repro-bean bench`` and ``benchmarks/bench_ir.py`` /
``benchmarks/bench_shard.py``.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import count_flops
from ..core.checker import check_definition
from ..lam_s.eval import evaluate
from ..lam_s.values import Value, VNum, vector_value
from ..programs.generators import BENCHMARK_FAMILIES
from ..semantics.batch import BatchWitnessEngine, _leaf_count
from ..semantics.witness import run_witness

__all__ = ["IRBenchRow", "DEFAULT_SPECS", "run_ir_bench", "format_ir_bench"]

#: Default (family, size, n_envs) cells.
DEFAULT_SPECS: Tuple[Tuple[str, int, int], ...] = (
    ("DotProd", 100, 1000),
    ("Horner", 100, 1000),
    ("Sum", 100, 1000),
    ("Sum", 1000, 200),
    ("PolyVal", 50, 200),
    ("SafeDiv", 100, 1000),
)


@dataclass(frozen=True)
class IRBenchRow:
    name: str
    ops: int
    check_ir_s: float
    eval_ir_s: float
    n_envs: int
    witness_loop_s: Optional[float]
    witness_batch_s: Optional[float]
    verdicts_agree: Optional[bool]
    witness_shard_s: Optional[float] = None
    shard_agree: Optional[bool] = None
    witness_dec_s: Optional[float] = None
    dec_agree: Optional[bool] = None

    @property
    def batch_speedup(self) -> Optional[float]:
        if not self.witness_loop_s or not self.witness_batch_s:
            return None
        return self.witness_loop_s / self.witness_batch_s

    @property
    def shard_speedup(self) -> Optional[float]:
        """Sharded over single-process batch (cores actually helping)."""
        if not self.witness_batch_s or not self.witness_shard_s:
            return None
        return self.witness_batch_s / self.witness_shard_s

    @property
    def eft_speedup(self) -> Optional[float]:
        """Decimal-backend batch over the default EFT-backend batch.

        The default batch timing runs the double-double EFT sweeps;
        this ratio is what killing the Decimal hot path bought on the
        witness sweep itself.
        """
        if not self.witness_batch_s or not self.witness_dec_s:
            return None
        return self.witness_dec_s / self.witness_batch_s


def _random_columns(definition, n_envs: int, rng) -> Dict[str, np.ndarray]:
    columns = {}
    for p in definition.params:
        k = _leaf_count(p.ty)
        shape = (n_envs, k) if k > 1 else (n_envs,)
        columns[p.name] = rng.uniform(0.5, 4.0, shape)
    return columns


def _row_env(definition, columns, i: int) -> Dict[str, Value]:
    env = {}
    for p in definition.params:
        arr = columns[p.name]
        if arr.ndim == 1:
            env[p.name] = VNum(float(arr[i]))
        else:
            env[p.name] = vector_value([float(x) for x in arr[i]])
    return env


def run_ir_bench(
    specs: Sequence[Tuple[str, int, int]] = DEFAULT_SPECS,
    *,
    include_batch: bool = True,
    include_decimal: bool = True,
    seed: int = 0,
    workers: Optional[int] = None,
) -> List[IRBenchRow]:
    """Time the IR paths and witness engines on each (family, size, n_envs) cell.

    ``workers > 1`` adds a sharded-witness timing per cell (pool
    startup included — this is the price a caller actually pays).
    ``include_decimal`` additionally times the batch engine pinned to
    the 50-digit Decimal exact-arithmetic backend on the same rows and
    checks its (bit-identical) verdicts/maxima against the default EFT
    run — the ``eft_speedup`` ratio.
    """
    rng = np.random.default_rng(seed)
    rows: List[IRBenchRow] = []
    for family, size, n_envs in specs:
        definition = BENCHMARK_FAMILIES[family](size)
        name = definition.name

        # The definition object is freshly generated, so this is a cold
        # (cache-miss) lowering + inference timing.
        start = time.perf_counter()
        check_definition(definition)
        check_ir = time.perf_counter() - start

        columns = _random_columns(definition, max(n_envs, 1), rng)
        env = _row_env(definition, columns, 0)
        start = time.perf_counter()
        evaluate(definition.body, env)
        eval_ir = time.perf_counter() - start

        witness_loop = witness_batch = witness_shard = witness_dec = None
        agree = shard_agree = dec_agree = None
        if include_batch:
            engine = BatchWitnessEngine(definition)
            engine.run({k: v[:1] for k, v in columns.items()})  # warm caches
            gc.collect()
            start = time.perf_counter()
            batch_report = engine.run(columns)
            witness_batch = time.perf_counter() - start
            if include_decimal:
                dec_engine = BatchWitnessEngine(
                    definition, exact_backend="decimal"
                )
                dec_engine.run({k: v[:1] for k, v in columns.items()})
                gc.collect()
                start = time.perf_counter()
                dec_report = dec_engine.run(columns)
                witness_dec = time.perf_counter() - start
                dec_agree = list(dec_report.sound) == list(
                    batch_report.sound
                ) and {
                    k: str(v) for k, v in dec_report.param_max_distance.items()
                } == {
                    k: str(v) for k, v in batch_report.param_max_distance.items()
                }
            if workers and workers > 1:
                from ..semantics.shard import run_witness_sharded

                gc.collect()
                start = time.perf_counter()
                shard_report = run_witness_sharded(
                    definition, columns, workers=workers
                )
                witness_shard = time.perf_counter() - start
                shard_agree = list(shard_report.sound) == list(batch_report.sound)
            gc.collect()
            start = time.perf_counter()
            loop_sound = []
            for i in range(n_envs):
                row = {
                    p.name: (
                        list(columns[p.name][i])
                        if columns[p.name].ndim == 2
                        else float(columns[p.name][i])
                    )
                    for p in definition.params
                }
                loop_sound.append(run_witness(definition, row).sound)
            witness_loop = time.perf_counter() - start
            agree = list(batch_report.sound) == loop_sound

        rows.append(
            IRBenchRow(
                name=name,
                ops=count_flops(definition.body),
                check_ir_s=check_ir,
                eval_ir_s=eval_ir,
                n_envs=n_envs,
                witness_loop_s=witness_loop,
                witness_batch_s=witness_batch,
                verdicts_agree=agree,
                witness_shard_s=witness_shard,
                shard_agree=shard_agree,
                witness_dec_s=witness_dec,
                dec_agree=dec_agree,
            )
        )
    return rows


def format_ir_bench(rows: List[IRBenchRow]) -> str:
    sharded = any(r.witness_shard_s is not None for r in rows)
    decimal_timed = any(r.witness_dec_s is not None for r in rows)
    header = (
        f"{'Benchmark':<14}{'Ops':>8}{'check IR':>10}"
        f"{'eval IR':>9}{'N':>6}{'loop':>9}{'batch':>9}"
        f"{'x':>6}"
        + (f"{'decimal':>9}{'dd x':>7}" if decimal_timed else "")
        + (f"{'shard':>9}{'x':>6}" if sharded else "")
        + "  agree"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        batch_x = f"{r.batch_speedup:.1f}" if r.batch_speedup else "-"
        loop = f"{r.witness_loop_s:.3f}" if r.witness_loop_s else "-"
        batch = f"{r.witness_batch_s:.3f}" if r.witness_batch_s else "-"
        agree = {True: "yes", False: "NO", None: "-"}[r.verdicts_agree]
        if r.shard_agree is False or r.dec_agree is False:
            agree = "NO"
        line = (
            f"{r.name:<14}{r.ops:>8}{r.check_ir_s:>10.3f}"
            f"{r.eval_ir_s:>9.3f}{r.n_envs:>6}"
            f"{loop:>9}{batch:>9}{batch_x:>6}"
        )
        if decimal_timed:
            dec = f"{r.witness_dec_s:.3f}" if r.witness_dec_s else "-"
            dec_x = f"{r.eft_speedup:.1f}" if r.eft_speedup else "-"
            line += f"{dec:>9}{dec_x:>7}"
        if sharded:
            shard = f"{r.witness_shard_s:.3f}" if r.witness_shard_s else "-"
            shard_x = f"{r.shard_speedup:.1f}" if r.shard_speedup else "-"
            line += f"{shard:>9}{shard_x:>6}"
        lines.append(line + f"  {agree}")
    return "\n".join(lines)
