"""Persistent shard workers: a warm, crash-safe process pool.

:func:`~repro.semantics.shard.run_witness_sharded` spawns a fresh
``ProcessPoolExecutor`` per audit: every call pays process startup,
re-pickles the definition/program ASTs on a deep stack, and has each
worker re-lower semantic + inlined IR from scratch.  For a server whose
fleet deliberately routes repeat fingerprints to the same node (so its
prepared tables stay hot), that fixed cost lands on *every* ``--workers``
request.

:class:`ShardWorkerPool` amortizes all three across audits:

* **long-lived spawn-safe workers** — each worker is one
  ``multiprocessing`` process (default start method: ``spawn``; nothing
  relies on forked state) holding a **fingerprint-keyed prepared-program
  table**: a bounded LRU of unpickled ASTs plus the engines built from
  them.  Because the tables preserve object identity, a warm worker's
  engine rebuilds hit the identity-keyed IR caches
  (:mod:`repro.ir.cache`) — a repeat audit of a known fingerprint skips
  unpickling *and* re-lowering; the dispatch message is just
  ``(fingerprint, row slice, config)``.
* **shared-memory row transport** — input columns travel as one
  ``multiprocessing.shared_memory`` float64 block the workers slice
  in place, and the per-row ``sound``/``exact`` verdict bits come back
  through a shared output block; only the non-float payloads (captured
  exceptions, exact ``Decimal`` distances, schema-v4 row tuples) ride
  the pipe as pickles.  When shared memory is unavailable the pool
  falls back to whole-payload pickling automatically — results are
  byte-identical either way.
* **crash safety** — a worker dying mid-shard (OOM kill, segfault,
  operator ``kill -9``) is detected on its pipe, restarted, and its
  slice re-dispatched with the program blob; the merged report is
  byte-identical to an undisturbed run, the same discipline the fleet
  applies to node death.

The pool is shared: :class:`repro.api.session.Session` lazily owns one
(``Session(pool=True)``, shut down by ``Session.close()``/``with``),
``repro serve --pool`` shares a single pool across all sharded requests,
and ``/stats`` exposes the counters from :meth:`ShardWorkerPool.stats`.
Spawn-per-audit remains the default — a pool only pays off when audits
repeat.
"""

from __future__ import annotations

import atexit
import itertools
import os
import pickle
import signal
import sys
import threading
from collections import OrderedDict
from decimal import Decimal
from multiprocessing import get_context
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from multiprocessing.shared_memory import SharedMemory
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import ast_nodes as A
from ..core.deepstack import call_with_deep_stack

__all__ = ["ShardWorkerPool", "default_pool", "close_default_pool"]

#: What one shard hands back for merging — the exact shape of
#: :func:`repro.semantics.shard._run_shard`'s return value.
ShardResult = Tuple[
    np.ndarray,  # sound  (bool, one slot per slice row)
    np.ndarray,  # exact  (bool)
    Dict[int, BaseException],  # slice-local row -> captured error
    Dict[str, Decimal],  # parameter -> max exact distance
    int,  # fallback rows
    Optional[List[Tuple[Any, ...]]],  # schema-v4 row tuples (collect_rows)
    int,  # rows the EFT screen rechecked on the scalar reference
]

#: Columns layout inside the packed input block: (name, offset, width).
_Layout = List[Tuple[str, int, int]]


def _attach_shm(name: str) -> SharedMemory:
    """Attach to a parent-owned segment without adopting its lifetime.

    The parent creates and unlinks every segment; a child that merely
    attaches must keep the ``resource_tracker`` out of the loop, or
    several children registering/unregistering the same name floods the
    (shared) tracker with duplicate-remove errors and double-unlink
    attempts.  3.13 has ``track=False`` for exactly this; earlier
    interpreters suppress the registration call during the attach.
    """
    if sys.version_info >= (3, 13):
        return SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def _skip_shm(res_name: str, rtype: str) -> None:
        if rtype != "shared_memory":
            original(res_name, rtype)

    resource_tracker.register = _skip_shm  # type: ignore[assignment]
    try:
        return SharedMemory(name=name)
    finally:
        resource_tracker.register = original  # type: ignore[assignment]


def _read_columns(task: Dict[str, Any]) -> Dict[str, np.ndarray]:
    """The worker's row slice, from shared memory or the pickled task."""
    lo, hi = task["lo"], task["hi"]
    if task.get("shm") is None:
        columns: Dict[str, np.ndarray] = task["columns"]
        return {name: arr[lo:hi] for name, arr in columns.items()}
    name, n_rows, layout = task["shm"]
    total = sum(k for (_n, _o, k) in layout)
    shm = _attach_shm(name)
    try:
        packed = np.ndarray((n_rows, total), dtype=np.float64, buffer=shm.buf)
        # Copy out: the slice must survive the segment being unlinked.
        return {
            col: np.array(packed[lo:hi, off: off + k], dtype=np.float64)
            for (col, off, k) in layout
        }
    finally:
        shm.close()


def _write_verdicts(
    task: Dict[str, Any], sound: np.ndarray, exact: np.ndarray
) -> bool:
    """Write the slice's verdict bits to the shared output block.

    Returns ``False`` when the audit runs on the pickle fallback (no
    output block) and the verdicts must ride the pipe instead.
    """
    if task.get("out") is None:
        return False
    name, n_rows = task["out"]
    lo, hi = task["lo"], task["hi"]
    shm = _attach_shm(name)
    try:
        verdicts = np.ndarray((n_rows, 2), dtype=np.bool_, buffer=shm.buf)
        verdicts[lo:hi, 0] = sound
        verdicts[lo:hi, 1] = exact
    finally:
        shm.close()
    return True


def _build_engine(
    definition: A.Definition,
    program: Optional[A.Program],
    u: float,
    engine_options: Dict[str, Any],
    compose: bool,
) -> Any:
    """One configured engine; composed audits plan their execution IR.

    Under ``compose`` the worker re-plans
    :func:`repro.compose.engine.compose_execution_ir` from locally built
    summaries — planning is deterministic, so every worker (and the
    parent) lands on the same IR without shipping a possibly
    multi-million-op object graph across the pipe, and a warm worker's
    summary store makes the re-plan a cache hit.
    """
    from .batch import BatchWitnessEngine

    options = dict(engine_options)
    if compose and program is not None:
        from ..compose.engine import compose_execution_ir, composed_judgments

        composed = composed_judgments(program)
        ir, _execution = compose_execution_ir(
            definition, program, composed.summaries
        )
        options["inlined_ir"] = ir
    return BatchWitnessEngine(definition, program, u=u, **options)


def _run_task(
    task: Dict[str, Any],
    programs: "OrderedDict[str, Tuple[A.Definition, Optional[A.Program]]]",
    engines: "OrderedDict[Tuple[str, str], Any]",
    max_prepared: int,
) -> Tuple[str, Dict[str, Any]]:
    """Worker body for one ``run`` message."""
    if task.get("cache_dir"):
        from ..service.cache import activate

        activate(task["cache_dir"])
    fingerprint: str = task["fingerprint"]
    transient: bool = task["transient"]
    evictions = 0
    prepared_hit = fingerprint in programs and not transient
    if prepared_hit:
        programs.move_to_end(fingerprint)
        definition, program = programs[fingerprint]
    else:
        if task.get("blob") is None:
            # Parent thought we still had this program; the LRU evicted
            # it.  Ask for the blob rather than failing the shard.
            return ("need-program", {"fingerprint": fingerprint})
        definition, program = call_with_deep_stack(
            pickle.loads, task["blob"]
        )
        if not transient:
            programs[fingerprint] = (definition, program)
            while len(programs) > max_prepared:
                evicted, _ = programs.popitem(last=False)
                for key in [k for k in engines if k[0] == evicted]:
                    del engines[key]
                evictions += 1

    engine_key = (fingerprint, task["config_key"])
    engine = None if transient else engines.get(engine_key)
    if engine is None:
        engine = _build_engine(
            definition, program, task["u"], task["engine_options"],
            task["compose"],
        )
        if not transient:
            engines[engine_key] = engine
            while len(engines) > max_prepared:
                engines.popitem(last=False)
    else:
        engines.move_to_end(engine_key)

    columns = _read_columns(task)
    report = engine.run(columns)
    sound = np.asarray(report.sound)
    exact = np.asarray(report.exact)
    in_shm = _write_verdicts(task, sound, exact)
    reply: Dict[str, Any] = {
        "prepared_hit": prepared_hit,
        "evictions": evictions,
        "errors": report.errors,
        "dist": report.param_max_distance,
        "fallback_rows": report.fallback_rows,
        "rows": report.rows,
        "rechecked_rows": report.rechecked_rows,
    }
    if not in_shm:
        reply["sound"] = sound
        reply["exact"] = exact
    return ("ok", reply)


def _worker_main(conn: Connection, max_prepared: int) -> None:
    """The long-lived worker loop (spawn-imported; must stay top-level)."""
    programs: "OrderedDict[str, Tuple[A.Definition, Optional[A.Program]]]"
    programs = OrderedDict()
    engines: "OrderedDict[Tuple[str, str], Any]" = OrderedDict()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        op = msg[0]
        if op == "stop":
            break
        if op == "crash":
            # Test seam: die the way an OOM-killed worker dies.
            os.kill(os.getpid(), signal.SIGKILL)
        if op != "run":
            continue
        reply: Tuple[str, Any]
        try:
            reply = _run_task(msg[1], programs, engines, max_prepared)
        except BaseException as exc:  # noqa: BLE001 - shipped to parent
            try:
                pickle.dumps(exc)
            except Exception:
                exc = RuntimeError(
                    f"unpicklable worker error: {exc!r}"
                )
            reply = ("err", exc)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    conn.close()


class ShardWorkerPool:
    """A persistent pool of prepared shard workers.

    ``workers=None`` sizes the pool to ``os.cpu_count()``.
    ``max_prepared`` bounds each worker's fingerprint-keyed
    prepared-program LRU, mirroring the server's ``--max-prepared``.
    ``mp_context`` selects the start method (default ``spawn`` — the
    workers never rely on forked state, and spawn is the one method
    that is safe from a threaded server).

    Workers start lazily on the first :meth:`run_shards`;
    :meth:`close` (or the context manager) shuts them down.  One audit
    runs at a time — a :class:`threading.Lock` serializes concurrent
    callers such as the server's heavy lane — but each audit still fans
    its shards across every worker.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        mp_context: str = "spawn",
        max_prepared: int = 32,
    ) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError("need at least one pool worker")
        if max_prepared < 1:
            raise ValueError("max_prepared must be positive")
        self.workers = int(workers)
        self.max_prepared = int(max_prepared)
        self._ctx = get_context(mp_context)
        self._procs: List[Optional[BaseProcess]] = [None] * self.workers
        self._conns: List[Optional[Connection]] = [None] * self.workers
        #: Parent-side view of each worker's prepared fingerprints.  It
        #: may run ahead of the worker's own LRU (the worker evicts on
        #: its side too); the ``need-program`` round-trip reconciles.
        self._known: List["OrderedDict[str, None]"] = [
            OrderedDict() for _ in range(self.workers)
        ]
        #: Pickled (definition, program) blobs by fingerprint, so a
        #: repeat audit never re-pickles a deep AST.
        self._blobs: "OrderedDict[str, bytes]" = OrderedDict()
        self._anon = itertools.count()
        self._lock = threading.Lock()
        self._closed = False
        #: Test seam: index of a worker to SIGKILL just before its next
        #: dispatch, exercising the restart + re-dispatch path.
        self._test_crash_next: Optional[int] = None
        #: Test seam: force the pickle transport even when shared
        #: memory is available.
        self._force_pickle = False
        #: Segment names of the most recent audit (leak assertions).
        self._last_segments: List[str] = []
        self._stats: Dict[str, int] = {
            "audits": 0,
            "prepared_hits": 0,
            "prepared_misses": 0,
            "prepared_evictions": 0,
            "restarts": 0,
            "shm_bytes_in_flight": 0,
            "pickle_fallbacks": 0,
        }

    # -- lifecycle ---------------------------------------------------------

    def _start_worker(self, i: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.max_prepared),
            daemon=True,
            name=f"repro-pool-{i}",
        )
        proc.start()
        child_conn.close()
        self._procs[i] = proc
        self._conns[i] = parent_conn
        self._known[i] = OrderedDict()

    def _ensure_started(self) -> None:
        if self._closed:
            raise RuntimeError("ShardWorkerPool is closed")
        for i in range(self.workers):
            if self._procs[i] is None:
                self._start_worker(i)

    def _restart(self, i: int) -> None:
        """Replace a dead worker; its prepared table starts empty."""
        conn = self._conns[i]
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        proc = self._procs[i]
        if proc is not None:
            proc.terminate()
            proc.join(timeout=5)
        self._procs[i] = None
        self._start_worker(i)
        self._stats["restarts"] += 1

    def close(self) -> None:
        """Stop every worker and release the pipes (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for conn in self._conns:
                if conn is None:
                    continue
                try:
                    conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
            for proc in self._procs:
                if proc is not None:
                    proc.join(timeout=5)
                    if proc.is_alive():
                        proc.kill()
                        proc.join(timeout=5)
            for conn in self._conns:
                if conn is not None:
                    try:
                        conn.close()
                    except OSError:
                        pass
            self._procs = [None] * self.workers
            self._conns = [None] * self.workers

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            if not self._closed:
                self.close()
        except Exception:
            pass

    # -- stats -------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """A point-in-time counter snapshot (the ``/stats`` pool section)."""
        snapshot = dict(self._stats)
        snapshot["workers"] = self.workers
        snapshot["workers_alive"] = sum(
            1 for p in self._procs if p is not None and p.is_alive()
        )
        return snapshot

    # -- program identity --------------------------------------------------

    def _program_key(
        self, definition: A.Definition, program: Optional[A.Program]
    ) -> Tuple[str, bool]:
        """``(fingerprint, reusable)`` for one audit's program.

        Unfingerprintable ASTs (nodes outside the kernel grammar) get a
        fresh anonymous key: they are dispatched with the blob every
        time and never enter a prepared table, so identity confusion is
        impossible.
        """
        from ..service.fingerprint import (
            UnfingerprintableError,
            fingerprint_definition,
        )

        try:
            return (
                fingerprint_definition(definition, program, kind="pool"),
                True,
            )
        except UnfingerprintableError:
            return (f"anon:{next(self._anon)}", False)

    # -- dispatch ----------------------------------------------------------

    def _send_task(
        self, i: int, task: Dict[str, Any], blob: bytes
    ) -> Dict[str, Any]:
        """Send one ``run`` message, restarting through dead pipes."""
        for _attempt in range(3):
            conn = self._conns[i]
            assert conn is not None
            try:
                conn.send(("run", task))
                return task
            except (BrokenPipeError, OSError):
                self._restart(i)
                task = dict(task, blob=blob)
        raise RuntimeError(f"pool worker {i} died {3} times during dispatch")

    def _collect(
        self, i: int, task: Dict[str, Any], blob: bytes
    ) -> Tuple[str, Any]:
        """Receive one reply, re-dispatching through crashes/evictions."""
        attempts = 0
        while True:
            conn = self._conns[i]
            assert conn is not None
            try:
                reply = conn.recv()
            except (EOFError, ConnectionResetError, OSError):
                attempts += 1
                if attempts > 3:
                    raise RuntimeError(
                        f"pool worker {i} died {attempts} times on one shard"
                    ) from None
                self._restart(i)
                task = self._send_task(i, dict(task, blob=blob), blob)
                continue
            if reply[0] == "need-program":
                task = self._send_task(i, dict(task, blob=blob), blob)
                continue
            return reply

    def run_shards(
        self,
        definition: A.Definition,
        program: Optional[A.Program],
        columns: Dict[str, np.ndarray],
        bounds: Sequence[int],
        *,
        u: float,
        engine_options: Dict[str, Any],
        cache_dir: Optional[str] = None,
        compose: bool = False,
    ) -> List[ShardResult]:
        """Certify ``bounds``-sliced row shards across the warm workers.

        Returns one :data:`ShardResult` per shard, in shard order —
        exactly what spawn-per-audit workers return, so
        :func:`repro.semantics.shard.run_witness_sharded` merges both
        paths with the same code (and the same bytes).
        """
        shards = len(bounds) - 1
        if shards < 1:
            raise ValueError("need at least one shard")
        if shards > self.workers:
            raise ValueError(
                f"{shards} shards exceed the pool's {self.workers} workers"
            )
        with self._lock:
            return self._run_shards_locked(
                definition, program, columns, bounds, shards,
                u=u, engine_options=engine_options, cache_dir=cache_dir,
                compose=compose,
            )

    def _run_shards_locked(
        self,
        definition: A.Definition,
        program: Optional[A.Program],
        columns: Dict[str, np.ndarray],
        bounds: Sequence[int],
        shards: int,
        *,
        u: float,
        engine_options: Dict[str, Any],
        cache_dir: Optional[str],
        compose: bool,
    ) -> List[ShardResult]:
        self._ensure_started()
        self._stats["audits"] += 1
        fingerprint, reusable = self._program_key(definition, program)
        blob = self._blob_for(fingerprint, reusable, definition, program)
        config_key = self._config_key(u, engine_options, compose)
        n_rows = int(bounds[-1])

        in_shm: Optional[SharedMemory] = None
        out_shm: Optional[SharedMemory] = None
        shm_bytes = 0
        self._last_segments = []
        try:
            in_spec: Optional[Tuple[str, int, _Layout]] = None
            out_spec: Optional[Tuple[str, int]] = None
            if not self._force_pickle:
                try:
                    in_shm, layout = self._pack_columns(columns, n_rows)
                    out_shm = SharedMemory(
                        create=True, size=max(1, n_rows * 2)
                    )
                    in_spec = (in_shm.name, n_rows, layout)
                    out_spec = (out_shm.name, n_rows)
                    shm_bytes = in_shm.size + out_shm.size
                    self._stats["shm_bytes_in_flight"] += shm_bytes
                    self._last_segments = [in_shm.name, out_shm.name]
                except (OSError, ValueError):
                    # No usable /dev/shm (or segment limit): fall back
                    # to pickling whole slices through the pipes.
                    for seg in (in_shm, out_shm):
                        if seg is not None:
                            seg.close()
                            seg.unlink()
                    in_shm = out_shm = None
                    in_spec = out_spec = None
                    shm_bytes = 0
                    self._last_segments = []
            if in_spec is None:
                self._stats["pickle_fallbacks"] += 1

            tasks: List[Dict[str, Any]] = []
            for i in range(shards):
                lo, hi = int(bounds[i]), int(bounds[i + 1])
                known = self._known[i]
                task: Dict[str, Any] = {
                    "fingerprint": fingerprint,
                    "transient": not reusable,
                    "blob": None if fingerprint in known else blob,
                    "config_key": config_key,
                    "u": u,
                    "engine_options": engine_options,
                    "compose": compose,
                    "cache_dir": cache_dir,
                    "lo": lo,
                    "hi": hi,
                    "shm": in_spec,
                    "out": out_spec,
                }
                if in_spec is None:
                    task["columns"] = {
                        name: arr[lo:hi] for name, arr in columns.items()
                    }
                    task["lo"], task["hi"] = 0, hi - lo
                tasks.append(task)

            for i in range(shards):
                if self._test_crash_next == i:
                    self._test_crash_next = None
                    conn = self._conns[i]
                    assert conn is not None
                    try:
                        conn.send(("crash",))
                    except (BrokenPipeError, OSError):
                        pass
                tasks[i] = self._send_task(i, tasks[i], blob)

            replies: List[Tuple[str, Any]] = []
            for i in range(shards):
                replies.append(self._collect(i, tasks[i], blob))

            failure: Optional[BaseException] = None
            for i, (tag, payload) in enumerate(replies):
                if tag == "err":
                    failure = failure or payload
                    continue
                if payload["prepared_hit"]:
                    self._stats["prepared_hits"] += 1
                else:
                    self._stats["prepared_misses"] += 1
                self._stats["prepared_evictions"] += payload["evictions"]
                if reusable:
                    known = self._known[i]
                    known[fingerprint] = None
                    known.move_to_end(fingerprint)
                    while len(known) > self.max_prepared:
                        known.popitem(last=False)
            if failure is not None:
                raise failure

            results: List[ShardResult] = []
            verdicts: Optional[np.ndarray] = None
            if out_shm is not None:
                verdicts = np.ndarray(
                    (n_rows, 2), dtype=np.bool_, buffer=out_shm.buf
                )
            for i, (_tag, payload) in enumerate(replies):
                lo, hi = int(bounds[i]), int(bounds[i + 1])
                if verdicts is not None:
                    # Copy out before the finally-block unlinks.
                    sound = np.array(verdicts[lo:hi, 0], dtype=bool)
                    exact = np.array(verdicts[lo:hi, 1], dtype=bool)
                else:
                    sound = np.asarray(payload["sound"])
                    exact = np.asarray(payload["exact"])
                results.append(
                    (
                        sound,
                        exact,
                        payload["errors"],
                        payload["dist"],
                        payload["fallback_rows"],
                        payload["rows"],
                        payload["rechecked_rows"],
                    )
                )
            return results
        finally:
            for seg in (in_shm, out_shm):
                if seg is not None:
                    try:
                        seg.close()
                        seg.unlink()
                    except OSError:
                        pass
            if shm_bytes:
                self._stats["shm_bytes_in_flight"] -= shm_bytes

    # -- transport helpers -------------------------------------------------

    def _blob_for(
        self,
        fingerprint: str,
        reusable: bool,
        definition: A.Definition,
        program: Optional[A.Program],
    ) -> bytes:
        """The pickled AST pair, cached per fingerprint across audits."""
        if reusable and fingerprint in self._blobs:
            self._blobs.move_to_end(fingerprint)
            return self._blobs[fingerprint]
        blob: bytes = call_with_deep_stack(
            pickle.dumps, (definition, program), pickle.HIGHEST_PROTOCOL
        )
        if reusable:
            self._blobs[fingerprint] = blob
            while len(self._blobs) > self.max_prepared:
                self._blobs.popitem(last=False)
        return blob

    @staticmethod
    def _config_key(
        u: float, engine_options: Dict[str, Any], compose: bool
    ) -> str:
        """A stable engine-configuration key (primitive options only)."""
        return repr(
            (u, compose, sorted(engine_options.items()))
        )

    @staticmethod
    def _pack_columns(
        columns: Dict[str, np.ndarray], n_rows: int
    ) -> Tuple[SharedMemory, _Layout]:
        """All input columns as one shared float64 block plus its layout."""
        layout: _Layout = []
        offset = 0
        for name, arr in columns.items():
            width = int(arr.shape[1])
            layout.append((name, offset, width))
            offset += width
        shm = SharedMemory(
            create=True, size=max(1, n_rows * offset * 8)
        )
        packed = np.ndarray(
            (n_rows, offset), dtype=np.float64, buffer=shm.buf
        )
        for name, off, width in layout:
            packed[:, off: off + width] = columns[name]
        return shm, layout


# --------------------------------------------------------------------------
# The process-default pool (REPRO_POOL=1 runs, e.g. nightly soak)
# --------------------------------------------------------------------------

_DEFAULT_POOL: Optional[ShardWorkerPool] = None


def default_pool() -> ShardWorkerPool:
    """The lazily-created process-wide pool (``REPRO_POOL=1`` runs).

    Sized by ``REPRO_POOL_WORKERS`` (default: ``os.cpu_count()``);
    closed automatically at interpreter exit.
    """
    global _DEFAULT_POOL
    if _DEFAULT_POOL is None or _DEFAULT_POOL._closed:
        workers_env = os.environ.get("REPRO_POOL_WORKERS")
        _DEFAULT_POOL = ShardWorkerPool(
            int(workers_env) if workers_env else None
        )
        atexit.register(close_default_pool)
    return _DEFAULT_POOL


def close_default_pool() -> None:
    """Shut down the process-default pool, if one was created."""
    global _DEFAULT_POOL
    if _DEFAULT_POOL is not None:
        _DEFAULT_POOL.close()
        _DEFAULT_POOL = None
