"""Shard workers: the one executor behind every sharded audit.

:func:`~repro.semantics.shard.run_witness_sharded` certifies row shards
on a :class:`ShardWorkerPool` — the caller's, or a transient one built
for a single audit and closed when it returns (which *is*
spawn-per-audit: same startup, pickling and re-lowering cost).  A pool
that outlives one audit amortizes all three:

* **long-lived spawn-safe workers** — each worker is one
  ``multiprocessing`` process (nothing relies on forked state, so any
  start method works) holding a **fingerprint-keyed prepared-program
  table**: a bounded LRU of unpickled ASTs plus the engines built from
  them.  Because the tables preserve object identity, a warm worker's
  engine rebuilds hit the identity-keyed IR caches
  (:mod:`repro.ir.cache`) — a repeat audit of a known fingerprint skips
  unpickling *and* re-lowering; the dispatch message is just
  ``(fingerprint, row slice, config)``.
* **workers leased per audit** — an audit takes one idle worker per
  shard from a free list, starts new workers when none is idle, and
  hands them back when it finishes.  Concurrent audits therefore run
  in parallel on disjoint workers, and the pool grows to the peak
  number of shards in flight (the audit server bounds that at
  ``--heavy-threads`` × ``--max-request-workers``).
* **shared-memory row transport** — input columns travel as one
  ``multiprocessing.shared_memory`` float64 block the workers slice
  in place, and the per-row ``sound``/``exact`` verdict bits come back
  through a shared output block; only the non-float payloads (captured
  exceptions, exact ``Decimal`` distances, schema-v5 row tuples) ride
  the pipe as pickles.  When shared memory is unavailable the pool
  falls back to whole-payload pickling automatically — results are
  byte-identical either way.
* **crash safety** — a worker dying mid-shard (OOM kill, segfault,
  operator ``kill -9``) is detected on its pipe, restarted, and its
  slice re-dispatched with the program blob; the merged report is
  byte-identical to an undisturbed run, the same discipline the fleet
  applies to node death.

Every :class:`repro.api.session.Session` owns one pool, created lazily
on its first multiprocess audit and shut down by ``Session.close()`` /
``with``; ``repro serve`` keeps its session's workers warm across
requests and reports :meth:`ShardWorkerPool.stats` under ``"pool"`` in
``GET /stats``.
"""

from __future__ import annotations

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

__all__ = ["ShardWorkerPool"]

#: What one shard hands back for merging in
#: :func:`repro.semantics.shard.run_witness_sharded`.
ShardResult = Tuple[
    np.ndarray,  # sound  (bool, one slot per slice row)
    np.ndarray,  # exact  (bool)
    Dict[int, BaseException],  # slice-local row -> captured error
    Dict[str, Decimal],  # parameter -> max exact distance
    int,  # fallback rows
    Optional[List[Tuple[Any, ...]]],  # schema-v5 row tuples (collect_rows)
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


def _run_task(
    task: Dict[str, Any],
    programs: "OrderedDict[str, Tuple[A.Definition, Optional[A.Program]]]",
    engines: "OrderedDict[Tuple[str, str], Any]",
    max_prepared: int,
) -> Tuple[str, Dict[str, Any]]:
    """Worker body for one ``run`` message."""
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
        from .batch import BatchWitnessEngine

        engine = BatchWitnessEngine(
            definition, program, u=task["u"], **task["engine_options"]
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


class _Worker:
    """One worker process, its pipe, and what the parent thinks it holds."""

    __slots__ = ("proc", "conn", "known")

    def __init__(self, proc: BaseProcess, conn: Connection) -> None:
        self.proc = proc
        self.conn = conn
        #: Parent-side view of the worker's prepared fingerprints.  It
        #: may run ahead of the worker's own LRU (the worker evicts on
        #: its side too); the ``need-program`` round-trip reconciles.
        self.known: "OrderedDict[str, None]" = OrderedDict()


def _stop_workers(workers: Sequence[_Worker]) -> None:
    """Ask every worker to stop, then reap them all (killing stragglers)."""
    for worker in workers:
        try:
            worker.conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
    for worker in workers:
        worker.proc.join(timeout=5)
        if worker.proc.is_alive():
            worker.proc.kill()
            worker.proc.join(timeout=5)
        try:
            worker.conn.close()
        except OSError:
            pass


class ShardWorkerPool:
    """Prepared shard workers, leased to audits one worker per shard.

    ``max_prepared`` bounds each worker's fingerprint-keyed
    prepared-program LRU, mirroring the server's ``--max-prepared``.
    ``mp_context`` selects the start method (``None``: the platform
    default).  The workers never rely on forked state; a threaded
    caller such as the audit server passes ``"spawn"``.

    The pool has no fixed width.  :meth:`run_shards` leases one idle
    worker per shard (the most recently used first, so repeat audits
    land on warm tables), starts new workers when none is idle, and
    returns them when the audit finishes — so concurrent audits run in
    parallel, and the pool holds as many workers as the most shards it
    ever had in flight.  :meth:`close` (or the context manager) stops
    the idle workers at once and the leased ones as their audits end.
    """

    def __init__(
        self,
        *,
        mp_context: Optional[str] = None,
        max_prepared: int = 32,
    ) -> None:
        if max_prepared < 1:
            raise ValueError("max_prepared must be positive")
        self.max_prepared = int(max_prepared)
        self._ctx = get_context(mp_context)
        #: Every live worker, leased or idle.
        self._workers: List[_Worker] = []
        #: The free list; ``pop()`` takes the most recently returned.
        self._idle: List[_Worker] = []
        #: Pickled (definition, program) blobs by fingerprint, so a
        #: repeat audit never re-pickles a deep AST.
        self._blobs: "OrderedDict[str, bytes]" = OrderedDict()
        self._anon = itertools.count()
        self._names = itertools.count()
        #: Guards the worker lists, the blob cache and the counters;
        #: never held while an audit waits on its workers.
        self._lock = threading.Lock()
        self._closed = False
        #: Test seam: index of a shard whose worker is SIGKILLed just
        #: before its next dispatch, exercising restart + re-dispatch.
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

    def _spawn(self) -> Tuple[BaseProcess, Connection]:
        """Start one worker process (callers hold ``_lock``, so no
        forked child inherits another worker's half-set-up pipe)."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.max_prepared),
            daemon=True,
            name=f"repro-pool-{next(self._names)}",
        )
        proc.start()
        child_conn.close()
        return proc, parent_conn

    def _lease(self, n: int) -> List[_Worker]:
        """``n`` workers for one audit: idle ones first, then new ones."""
        with self._lock:
            if self._closed:
                raise RuntimeError("ShardWorkerPool is closed")
            leased = [self._idle.pop() for _ in range(min(n, len(self._idle)))]
            while len(leased) < n:
                worker = _Worker(*self._spawn())
                self._workers.append(worker)
                leased.append(worker)
        return leased

    def _release(self, leased: List[_Worker], settled: bool) -> None:
        """Hand an audit's workers back.

        Only workers whose replies were all collected (``settled``) can
        serve another audit; after a dispatch failure a worker may
        still owe a reply, so it is stopped rather than reused.
        """
        with self._lock:
            if settled and not self._closed:
                # Reversed, so the next lease pops them in this order.
                self._idle.extend(reversed(leased))
                return
            for worker in leased:
                self._workers.remove(worker)
        if not settled:
            for worker in leased:
                worker.proc.kill()
        _stop_workers(leased)

    def _restart(self, worker: _Worker) -> None:
        """Replace a dead worker's process; its prepared table starts empty."""
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.proc.terminate()
        worker.proc.join(timeout=5)
        with self._lock:
            if self._closed:
                raise RuntimeError("ShardWorkerPool is closed")
            worker.proc, worker.conn = self._spawn()
            worker.known.clear()
            self._stats["restarts"] += 1

    def close(self) -> None:
        """Stop every worker and release the pipes (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            idle, self._idle = self._idle, []
            for worker in idle:
                self._workers.remove(worker)
        _stop_workers(idle)

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

    def _count(self, **deltas: int) -> None:
        with self._lock:
            for key, delta in deltas.items():
                self._stats[key] += delta

    def stats(self) -> Dict[str, int]:
        """A point-in-time counter snapshot (the ``/stats`` pool section)."""
        with self._lock:
            snapshot = dict(self._stats)
            workers = list(self._workers)
        snapshot["workers"] = len(workers)
        snapshot["workers_alive"] = sum(
            1 for w in workers if w.proc.is_alive()
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
        self, worker: _Worker, task: Dict[str, Any], blob: bytes
    ) -> Dict[str, Any]:
        """Send one ``run`` message, restarting through dead pipes."""
        for _attempt in range(3):
            try:
                worker.conn.send(("run", task))
                return task
            except (BrokenPipeError, OSError):
                self._restart(worker)
                task = dict(task, blob=blob)
        raise RuntimeError("pool worker died 3 times during dispatch")

    def _collect(
        self, worker: _Worker, task: Dict[str, Any], blob: bytes
    ) -> Tuple[str, Any]:
        """Receive one reply, re-dispatching through crashes/evictions."""
        attempts = 0
        while True:
            try:
                reply: Tuple[str, Any] = worker.conn.recv()
            except (EOFError, ConnectionResetError, OSError):
                attempts += 1
                if attempts > 3:
                    raise RuntimeError(
                        f"pool worker died {attempts} times on one shard"
                    ) from None
                self._restart(worker)
                task = self._send_task(worker, dict(task, blob=blob), blob)
                continue
            if reply[0] == "need-program":
                task = self._send_task(worker, dict(task, blob=blob), blob)
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
    ) -> List[ShardResult]:
        """Certify ``bounds``-sliced row shards, one leased worker each.

        Returns one :data:`ShardResult` per shard, in shard order, for
        :func:`repro.semantics.shard.run_witness_sharded` to merge.
        """
        shards = len(bounds) - 1
        if shards < 1:
            raise ValueError("need at least one shard")
        fingerprint, reusable = self._program_key(definition, program)
        blob = self._blob_for(fingerprint, reusable, definition, program)
        config_key = self._config_key(u, engine_options)
        n_rows = int(bounds[-1])
        leased = self._lease(shards)
        self._count(audits=1)

        in_shm: Optional[SharedMemory] = None
        out_shm: Optional[SharedMemory] = None
        shm_bytes = 0
        settled = False
        try:
            in_spec: Optional[Tuple[str, int, _Layout]] = None
            out_spec: Optional[Tuple[str, int]] = None
            segments: List[str] = []
            if not self._force_pickle:
                try:
                    in_shm, layout = self._pack_columns(columns, n_rows)
                    out_shm = SharedMemory(
                        create=True, size=max(1, n_rows * 2)
                    )
                    in_spec = (in_shm.name, n_rows, layout)
                    out_spec = (out_shm.name, n_rows)
                    shm_bytes = in_shm.size + out_shm.size
                    self._count(shm_bytes_in_flight=shm_bytes)
                    segments = [in_shm.name, out_shm.name]
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
            self._last_segments = segments
            if in_spec is None:
                self._count(pickle_fallbacks=1)

            tasks: List[Dict[str, Any]] = []
            for i, worker in enumerate(leased):
                lo, hi = int(bounds[i]), int(bounds[i + 1])
                task: Dict[str, Any] = {
                    "fingerprint": fingerprint,
                    "transient": not reusable,
                    "blob": None if fingerprint in worker.known else blob,
                    "config_key": config_key,
                    "u": u,
                    "engine_options": engine_options,
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

            for i, worker in enumerate(leased):
                if self._test_crash_next == i:
                    self._test_crash_next = None
                    try:
                        worker.conn.send(("crash",))
                    except (BrokenPipeError, OSError):
                        pass
                tasks[i] = self._send_task(worker, tasks[i], blob)

            replies = [
                self._collect(worker, task, blob)
                for worker, task in zip(leased, tasks)
            ]
            settled = True

            failure: Optional[BaseException] = None
            hits = misses = evictions = 0
            for worker, (tag, payload) in zip(leased, replies):
                if tag == "err":
                    failure = failure or payload
                    continue
                if payload["prepared_hit"]:
                    hits += 1
                else:
                    misses += 1
                evictions += payload["evictions"]
                if reusable:
                    known = worker.known
                    known[fingerprint] = None
                    known.move_to_end(fingerprint)
                    while len(known) > self.max_prepared:
                        known.popitem(last=False)
            self._count(
                prepared_hits=hits,
                prepared_misses=misses,
                prepared_evictions=evictions,
            )
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
            self._release(leased, settled)
            for seg in (in_shm, out_shm):
                if seg is not None:
                    try:
                        seg.close()
                        seg.unlink()
                    except OSError:
                        pass
            if shm_bytes:
                self._count(shm_bytes_in_flight=-shm_bytes)

    # -- transport helpers -------------------------------------------------

    def _blob_for(
        self,
        fingerprint: str,
        reusable: bool,
        definition: A.Definition,
        program: Optional[A.Program],
    ) -> bytes:
        """The pickled AST pair, cached per fingerprint across audits."""
        if reusable:
            with self._lock:
                cached = self._blobs.get(fingerprint)
                if cached is not None:
                    self._blobs.move_to_end(fingerprint)
                    return cached
        blob: bytes = call_with_deep_stack(
            pickle.dumps, (definition, program), pickle.HIGHEST_PROTOCOL
        )
        if reusable:
            with self._lock:
                self._blobs[fingerprint] = blob
                while len(self._blobs) > self.max_prepared:
                    self._blobs.popitem(last=False)
        return blob

    @staticmethod
    def _config_key(u: float, engine_options: Dict[str, Any]) -> str:
        """A stable engine-configuration key (primitive options only)."""
        return repr((u, sorted(engine_options.items())))

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
