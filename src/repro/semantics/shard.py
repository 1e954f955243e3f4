"""Sharding batch witness runs across worker processes.

The vectorized :class:`~repro.semantics.batch.BatchWitnessEngine` spends
its time in NumPy array kernels and per-row ``Decimal`` rechecks —
CPU-bound work the GIL serializes onto one core.
:func:`run_witness_sharded` splits the environment rows into contiguous
shards, certifies each shard on a worker of a
:class:`~repro.semantics.pool.ShardWorkerPool`, and merges the
per-shard results into one
:class:`~repro.semantics.batch.BatchWitnessReport`, row indices intact.

Design points:

* **one executor** — the caller's pool when one is passed (a
  :class:`~repro.api.session.Session` passes its own, so repeat audits
  reuse warm workers), otherwise a transient pool built with the
  caller's ``mp_context`` and closed before the call returns;
* **deterministic shard→row mapping** — shard ``i`` of ``W`` receives
  the contiguous rows ``[bounds[i], bounds[i+1])`` with the first
  ``n_rows % W`` shards one row longer (:func:`shard_bounds`), so the
  merged report's row ``i`` is always input row ``i`` regardless of
  worker scheduling;
* **spawn-safe workers** — the definition and program ASTs are pickled
  in the parent (on a deep auxiliary stack: benchmark programs nest
  thousands of ``let`` binders, deeper than the default pickler
  recursion allows) and each worker unpickles and **re-lowers the IR
  locally**; nothing relies on forked interpreter state, so the pool
  works under any multiprocessing start method;
* **bit-identical results** — every shard runs the same engine
  configuration on its row slice, and the engine is bitwise equal to
  looping :func:`~repro.semantics.witness.run_witness`; the merged
  verdicts, distances, and captured per-row errors are exactly those of
  a single-process run.  Lazy per-row reports materialize in the parent
  by running the scalar witness on demand (reports cannot cross the
  process boundary — they hold closures over engine state).

``workers=None`` uses ``os.cpu_count()``; with one worker (or one row)
the call degrades to an in-process :func:`run_witness_batch`, so callers
can pass ``--workers`` unconditionally.
"""

from __future__ import annotations

import contextlib
import os
from decimal import Decimal
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..core import ast_nodes as A
from ..core.grades import BINARY64_UNIT_ROUNDOFF
from .batch import BatchWitnessEngine, BatchWitnessReport
from .pool import ShardWorkerPool
from .witness import run_witness

__all__ = ["run_witness_sharded", "shard_bounds"]

_DEC_ZERO = Decimal(0)


def shard_bounds(n_rows: int, shards: int) -> List[int]:
    """Contiguous shard boundaries: ``shards + 1`` increasing offsets.

    Rows are balanced to within one: the first ``n_rows % shards``
    shards take ``ceil(n_rows / shards)`` rows, the rest the floor.
    """
    if shards < 1:
        raise ValueError("need at least one shard")
    base, extra = divmod(n_rows, shards)
    bounds = [0]
    for i in range(shards):
        bounds.append(bounds[-1] + base + (1 if i < extra else 0))
    return bounds


def run_witness_sharded(
    definition: A.Definition,
    inputs: Mapping[str, Sequence],
    *,
    program: Optional[A.Program] = None,
    u: float = BINARY64_UNIT_ROUNDOFF,
    workers: Optional[int] = None,
    mp_context: Optional[str] = None,
    pool: Optional[ShardWorkerPool] = None,
    **engine_options,
) -> BatchWitnessReport:
    """Certify a batch of environments across ``workers`` processes.

    ``inputs`` takes the same shape as
    :func:`~repro.semantics.batch.run_witness_batch`; ``engine_options``
    are the engine's configuration kwargs (``rounding``, ``seed``,
    ``precision_bits``, ``collect_rows``).  A pre-built lens cannot ship
    to worker processes — pass its configuration instead.  ``mp_context``
    selects the multiprocessing start method (default: the platform's);
    the workers are spawn-safe either way.

    ``pool`` runs the shards on that
    :class:`~repro.semantics.pool.ShardWorkerPool`, whose warm workers
    skip pickling and re-lowering for a known fingerprint; without one,
    a transient pool (``mp_context``) serves this call alone.  Results
    are byte-identical either way.
    """
    if "lens" in engine_options:
        raise ValueError(
            "run_witness_sharded cannot ship a lens to worker processes; "
            "pass the engine configuration (rounding, seed, "
            "precision_bits) instead"
        )
    engine = BatchWitnessEngine(definition, program, u=u, **engine_options)
    columns = engine._columns(inputs)
    n_rows = next(iter(columns.values())).shape[0]
    if workers is None:
        workers = os.cpu_count() or 1
    shards = max(1, min(int(workers), n_rows))
    if shards <= 1 or n_rows == 0:
        return engine.run(inputs)

    bounds = shard_bounds(n_rows, shards)
    runner = (
        contextlib.nullcontext(pool)
        if pool is not None
        else ShardWorkerPool(mp_context=mp_context)
    )
    with runner as shard_pool:
        results = shard_pool.run_shards(
            definition, program, columns, bounds, u=u,
            engine_options=engine_options,
        )

    sound = np.concatenate([r[0] for r in results])
    exact = np.concatenate([r[1] for r in results])
    errors: Dict[int, BaseException] = {}
    fallback_rows = 0
    rechecked_rows = 0
    max_dist: Dict[str, Decimal] = {
        p.name: _DEC_ZERO for p in definition.params
    }
    rows = [] if engine.collect_rows else None
    for i, (_, _, shard_errors, shard_dist, shard_fallback,
            shard_rows, shard_rechecked) in enumerate(results):
        offset = bounds[i]
        for row, exc in shard_errors.items():
            errors[offset + row] = exc
        fallback_rows += shard_fallback
        rechecked_rows += shard_rechecked
        for name, dist in shard_dist.items():
            if dist > max_dist[name]:
                max_dist[name] = dist
        if rows is not None:
            # Re-anchor each shard's local row indices at its offset so
            # the merged rows are exactly the whole-batch run's.
            rows.extend(
                (offset + r, s, e, d, exc)
                for (r, s, e, d, exc) in shard_rows
            )

    def materialize(i: int):
        # Row reports cannot travel between processes; rebuild on demand
        # with the scalar runner, which the engine is bit-identical to.
        return run_witness(
            definition,
            engine._row_inputs(columns, i),
            program=program,
            u=u,
            lens=engine.lens,
        )

    return BatchWitnessReport(
        definition,
        n_rows,
        sound,
        exact,
        errors,
        materialize,
        max_dist,
        dict(engine._bounds),
        fallback_rows=fallback_rows,
        rows=rows,
        rechecked_rows=rechecked_rows,
    )
