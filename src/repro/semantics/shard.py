"""Sharding batch witness runs across worker processes.

The vectorized :class:`~repro.semantics.batch.BatchWitnessEngine` spends
its time in NumPy array kernels and ``Decimal`` object loops — CPU-bound
pure-Python work the GIL serializes onto one core.
:func:`run_witness_sharded` splits the environment rows into contiguous
shards, certifies each shard in its own ``ProcessPoolExecutor`` worker,
and merges the per-shard results into one
:class:`~repro.semantics.batch.BatchWitnessReport`, row indices intact.

Design points:

* **deterministic shard→row mapping** — shard ``i`` of ``W`` receives
  the contiguous rows ``[bounds[i], bounds[i+1])`` with the first
  ``n_rows % W`` shards one row longer (:func:`shard_bounds`), so the
  merged report's row ``i`` is always input row ``i`` regardless of
  worker scheduling;
* **spawn-safe workers** — the definition and program ASTs are pickled
  once in the parent (on a deep auxiliary stack: benchmark programs
  nest thousands of ``let`` binders, deeper than the default pickler
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

Spawn-per-audit is the default; passing ``pool=`` (a
:class:`~repro.semantics.pool.ShardWorkerPool`) dispatches the same
shards to persistent warm workers instead — byte-identical results,
none of the per-audit spawn/pickle/re-lower cost.  Setting
``REPRO_POOL=1`` routes every sharded run through a process-default
pool (how the nightly soak exercises pooled execution).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from decimal import Decimal
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..core import ast_nodes as A
from ..core.deepstack import call_with_deep_stack
from ..core.grades import BINARY64_UNIT_ROUNDOFF
from .batch import BatchWitnessEngine, BatchWitnessReport
from .witness import run_witness

if TYPE_CHECKING:
    from .pool import ShardWorkerPool

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


def _run_shard(blob: bytes, columns: Dict[str, np.ndarray], u: float,
               engine_options: Dict, cache_dir: Optional[str] = None,
               compose: bool = False):
    """Worker body: re-lower the IR locally and certify one row slice.

    Returns a picklable summary — the lazy per-row reports stay behind
    (they close over worker-local engine state).  With ``cache_dir``,
    the worker warm-starts its re-lowering (semantic IR, inlined IR,
    inferred judgments) from the shared on-disk artifact cache the
    parent populated, instead of recomputing them from the AST.  Under
    ``compose`` the execution IR is re-planned locally from composed
    summaries (:func:`repro.semantics.pool._build_engine`) — planning
    is deterministic, so shipping the flag beats shipping the IR.
    """
    if cache_dir:
        from ..service.cache import activate

        activate(cache_dir)
    from .pool import _build_engine

    definition, program = call_with_deep_stack(pickle.loads, blob)
    engine = _build_engine(definition, program, u, engine_options, compose)
    report = engine.run(columns)
    return (
        np.asarray(report.sound),
        np.asarray(report.exact),
        report.errors,
        report.param_max_distance,
        report.fallback_rows,
        report.rows,
        report.rechecked_rows,
    )


def run_witness_sharded(
    definition: A.Definition,
    inputs: Mapping[str, Sequence],
    *,
    program: Optional[A.Program] = None,
    u: float = BINARY64_UNIT_ROUNDOFF,
    workers: Optional[int] = None,
    mp_context: Optional[str] = None,
    cache_dir: Optional[str] = None,
    pool: Optional["ShardWorkerPool"] = None,
    compose: bool = False,
    **engine_options,
) -> BatchWitnessReport:
    """Certify a batch of environments across ``workers`` processes.

    ``inputs`` takes the same shape as
    :func:`~repro.semantics.batch.run_witness_batch`; ``engine_options``
    are the engine's configuration kwargs (``precision``, ``rounding``,
    ``seed``, ``precision_bits``).  A pre-built lens cannot ship to
    worker processes — pass its configuration instead.  ``mp_context``
    selects the multiprocessing start method (default: the platform's);
    the workers are spawn-safe either way.

    ``cache_dir`` names a shared on-disk artifact cache
    (:class:`repro.service.cache.ArtifactCache`): the parent activates
    it before building its engine — persisting the lowered IR, inlined
    IR, and judgments — and every worker warm-starts from it instead of
    re-lowering from the pickled AST.  Results are bitwise identical
    either way; the cache only changes who pays for lowering.

    ``pool`` dispatches the shards to a persistent
    :class:`~repro.semantics.pool.ShardWorkerPool` instead of spawning
    a fresh executor (byte-identical results; repeat audits of a known
    fingerprint skip pickling and re-lowering).  With ``compose=True``
    the execution IR is planned from composed per-definition summaries
    (:func:`repro.compose.engine.compose_execution_ir`) in the parent
    and re-planned deterministically in every worker — payload bytes
    are unchanged vs the non-composed audit.
    """
    if "lens" in engine_options:
        raise ValueError(
            "run_witness_sharded cannot ship a lens to worker processes; "
            "pass the engine configuration (precision, rounding, seed, "
            "precision_bits) instead"
        )
    if cache_dir:
        from ..service.cache import activate

        activate(cache_dir)
    if pool is None and os.environ.get("REPRO_POOL"):
        from .pool import default_pool

        pool = default_pool()
    parent_options = dict(engine_options)
    if compose and program is not None:
        from ..compose.engine import compose_execution_ir, composed_judgments

        composed = composed_judgments(program)
        planned_ir, _execution = compose_execution_ir(
            definition, program, composed.summaries
        )
        parent_options["inlined_ir"] = planned_ir
    engine = BatchWitnessEngine(definition, program, u=u, **parent_options)
    # Pin the parent's resolved exact-arithmetic backend into the
    # options the workers receive: a worker must never re-resolve
    # ``REPRO_EXACT_BACKEND`` (or the default) for itself, so every
    # shard provably runs the same backend as the merged report claims.
    engine_options = dict(engine_options)
    engine_options["exact_backend"] = engine.exact_backend
    columns = engine._columns(inputs)
    n_rows = next(iter(columns.values())).shape[0]
    if workers is None:
        workers = os.cpu_count() or 1
    shards = max(1, min(int(workers), n_rows))
    if pool is not None:
        shards = min(shards, pool.workers)
    if shards <= 1 or n_rows == 0:
        return engine.run(inputs)

    bounds = shard_bounds(n_rows, shards)
    if pool is not None:
        # Persistent warm workers: the pool fingerprints the program,
        # skips the blob for prepared workers, and moves the rows
        # through shared memory.  Same per-shard result shape, so the
        # merge below is shared — and byte-identical — with the
        # spawn-per-audit path.
        results = pool.run_shards(
            definition,
            program,
            columns,
            bounds,
            u=u,
            engine_options=engine_options,
            cache_dir=cache_dir,
            compose=compose,
        )
    else:
        # Pickle the ASTs once, on a deep stack (let-chains nest past
        # the default pickler recursion depth); workers get opaque
        # bytes.
        blob = call_with_deep_stack(
            pickle.dumps, (definition, program), pickle.HIGHEST_PROTOCOL
        )
        ctx = (
            multiprocessing.get_context(mp_context)
            if isinstance(mp_context, str)
            else mp_context
        )
        with ProcessPoolExecutor(max_workers=shards, mp_context=ctx) as spawned:
            futures = [
                spawned.submit(
                    _run_shard,
                    blob,
                    {
                        name: arr[bounds[i]: bounds[i + 1]]
                        for name, arr in columns.items()
                    },
                    u,
                    engine_options,
                    cache_dir,
                    compose,
                )
                for i in range(shards)
            ]
            results = [f.result() for f in futures]

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
        exact_backend=engine.exact_backend,
        rows=rows,
        rechecked_rows=rechecked_rows,
    )
