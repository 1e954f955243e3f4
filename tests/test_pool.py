"""Shard-worker pool: parity, crash recovery, transport, leasing.

The contract under test is byte-for-byte: an audit on a warm pool must
produce exactly the bytes of a transient one-audit pool and of the
single-process batch engine (pinned further in ``test_shard.py`` and
``test_engine_parity.py``) — including when a worker is SIGKILLed
mid-audit and the pool restarts + re-dispatches.  Beyond parity this
module covers the pool's own machinery: the fingerprint-keyed
prepared-program LRU (hits, misses, evictions, the ``need-program``
reconciliation round-trip), shared-memory segment hygiene on success
*and* error paths, the pickle transport fallback, per-audit worker
leases (growth, concurrency), and the Session / stats surfaces.
"""

from __future__ import annotations

import sys
import threading

import pytest

np = pytest.importorskip("numpy")

from oracles.batch_decimal_ref import run_witness_batch_ref
from repro.api import Session
from repro.api.result import render_payload
from repro.programs.generators import safe_div_sum, vec_sum
from repro.semantics.batch import run_witness_batch
from repro.semantics.pool import ShardWorkerPool
from repro.semantics.shard import run_witness_sharded, shard_bounds

CHAIN = """
Scale (a : num) (b : num) : num := mul a b
Twice (a : num) (b : num) (c : num) : num :=
  let s = Scale a b in add s c
Main (a : num) (b : num) (c : num) (d : num) : num :=
  let t = Twice a b c in add t d
"""


@pytest.fixture(scope="module")
def pool():
    """One warm two-worker pool shared by the read-only parity tests."""
    with ShardWorkerPool(mp_context="spawn") as p:
        yield p


def _poisoned_columns(n_rows: int = 23, width: int = 6):
    rng = np.random.default_rng(11)
    columns = {"x": rng.uniform(0.5, 4.0, (n_rows, width))}
    for bad in (0, 9, 22):
        columns["x"][bad, 0] = float("inf")
    return columns


def _as_batch_json(result):
    """A sharded payload relabelled as the batch engine's bytes."""
    payload = dict(result.payload, engine="batch")
    del payload["workers"]
    return render_payload(payload)


def _assert_report_parity(pooled, single):
    assert list(pooled.sound) == list(single.sound)
    assert list(pooled.exact) == list(single.exact)
    assert set(pooled.errors) == set(single.errors)
    assert pooled.fallback_rows == single.fallback_rows
    assert {k: str(v) for k, v in pooled.param_max_distance.items()} == {
        k: str(v) for k, v in single.param_max_distance.items()
    }


class TestPooledParity:
    def test_matches_batch_and_spawn_with_errors(self, pool):
        definition = vec_sum(6)
        columns = _poisoned_columns()
        single = run_witness_batch(definition, columns)
        # No pool: the call runs on a transient one of its own.
        spawned = run_witness_sharded(definition, columns, workers=2)
        pooled = run_witness_sharded(
            definition, columns, workers=2, pool=pool
        )
        _assert_report_parity(pooled, single)
        _assert_report_parity(pooled, spawned)
        assert set(pooled.errors) == {0, 9, 22}

    def test_decimal_backend_parity(self, pool):
        definition = safe_div_sum(5)
        rng = np.random.default_rng(7)
        columns = {
            name: rng.uniform(0.5, 4.0, (9, 5)) for name in ("x", "y", "f")
        }
        columns["y"][4, 2] = 0.0  # one inr row, mid-shard
        single = run_witness_batch_ref(definition, columns)
        pooled = run_witness_sharded(
            definition, columns, workers=2, pool=pool,
        )
        _assert_report_parity(pooled, single)
        assert pooled.fallback_rows >= 1

    def test_repeat_audit_hits_prepared_table(self, pool):
        definition = vec_sum(4)
        rng = np.random.default_rng(5)
        columns = {"x": rng.uniform(0.5, 4.0, (8, 4))}
        run_witness_sharded(definition, columns, workers=2, pool=pool)
        before = pool.stats()
        pooled = run_witness_sharded(
            definition, columns, workers=2, pool=pool
        )
        after = pool.stats()
        # The second audit of a known fingerprint is all warm: every
        # shard hits the worker's prepared table, no blob is re-sent.
        assert after["prepared_hits"] - before["prepared_hits"] == 2
        assert after["prepared_misses"] == before["prepared_misses"]
        single = run_witness_batch(definition, columns)
        _assert_report_parity(pooled, single)

    def test_force_pickle_transport_parity(self, pool):
        definition = vec_sum(3)
        rng = np.random.default_rng(9)
        columns = {"x": rng.uniform(0.5, 4.0, (7, 3))}
        single = run_witness_batch(definition, columns)
        before = pool.stats()["pickle_fallbacks"]
        pool._force_pickle = True
        try:
            pooled = run_witness_sharded(
                definition, columns, workers=2, pool=pool
            )
        finally:
            pool._force_pickle = False
        _assert_report_parity(pooled, single)
        assert pool.stats()["pickle_fallbacks"] > before

    def test_pool_grows_to_the_widest_audit(self):
        # A per-call shard count is honoured, not clamped: the 4-shard
        # audit reuses the two idle workers and starts two more.
        definition = vec_sum(3)
        rng = np.random.default_rng(13)
        columns = {"x": rng.uniform(0.5, 4.0, (10, 3))}
        single = run_witness_batch(definition, columns)
        with ShardWorkerPool(mp_context="spawn") as p:
            for workers, held in ((2, 2), (4, 4)):
                pooled = run_witness_sharded(
                    definition, columns, workers=workers, pool=p
                )
                _assert_report_parity(pooled, single)
                assert p.stats()["workers"] == held
            assert p.stats()["workers_alive"] == 4


class TestCrashRecovery:
    def test_sigkill_mid_audit_restarts_and_matches(self, pool):
        definition = vec_sum(6)
        columns = _poisoned_columns()
        single = run_witness_batch(definition, columns)
        before = pool.stats()["restarts"]
        pool._test_crash_next = 0  # SIGKILL worker 0 before its dispatch
        pooled = run_witness_sharded(
            definition, columns, workers=2, pool=pool
        )
        assert pool.stats()["restarts"] > before
        _assert_report_parity(pooled, single)
        # The restarted worker lost its prepared table; a repeat audit
        # re-sends the blob to it and still merges identically.
        again = run_witness_sharded(
            definition, columns, workers=2, pool=pool
        )
        _assert_report_parity(again, single)
        assert pool.stats()["workers_alive"] == 2


class TestSharedMemoryHygiene:
    def test_segments_unlinked_after_success(self, pool):
        from multiprocessing.shared_memory import SharedMemory

        definition = vec_sum(4)
        rng = np.random.default_rng(17)
        columns = {"x": rng.uniform(0.5, 4.0, (6, 4))}
        run_witness_sharded(definition, columns, workers=2, pool=pool)
        assert pool.stats()["shm_bytes_in_flight"] == 0
        assert pool._last_segments  # the audit did use shared memory
        for name in pool._last_segments:
            with pytest.raises(FileNotFoundError):
                SharedMemory(name=name)

    def test_segments_unlinked_after_worker_error(self, pool):
        from multiprocessing.shared_memory import SharedMemory

        definition = vec_sum(4)
        rng = np.random.default_rng(19)
        columns = {"x": rng.uniform(0.5, 4.0, (6, 4))}
        with pytest.raises(TypeError):
            pool.run_shards(
                definition, None, columns, shard_bounds(6, 2),
                u=2.0 ** -53,
                engine_options={"bogus_engine_option": 1},
            )
        assert pool.stats()["shm_bytes_in_flight"] == 0
        for name in pool._last_segments:
            with pytest.raises(FileNotFoundError):
                SharedMemory(name=name)
        # The pool survives the failed audit.
        pooled = run_witness_sharded(
            definition, columns, workers=2, pool=pool
        )
        _assert_report_parity(pooled, run_witness_batch(definition, columns))


class TestPreparedLRU:
    def test_eviction_at_capacity_one(self):
        defs = {"a": vec_sum(3), "b": vec_sum(4)}
        rng = np.random.default_rng(23)
        cols = {
            "a": {"x": rng.uniform(0.5, 4.0, (5, 3))},
            "b": {"x": rng.uniform(0.5, 4.0, (5, 4))},
        }
        with ShardWorkerPool(mp_context="spawn", max_prepared=1) as p:
            for key in ("a", "b", "a"):
                report = p.run_shards(
                    defs[key], None, cols[key], shard_bounds(5, 1),
                    u=2.0 ** -53, engine_options={},
                )
                assert len(report) == 1
            stats = p.stats()
            # a, b, a: every dispatch misses (capacity one), and both
            # the b and the second-a insert evict the previous entry.
            assert stats["prepared_hits"] == 0
            assert stats["prepared_misses"] == 3
            assert stats["prepared_evictions"] == 2

    def test_need_program_roundtrip_after_desync(self):
        # Force the parent's known-fingerprint view to run ahead of the
        # worker's LRU: the worker answers ``need-program`` and the pool
        # re-dispatches with the blob instead of failing the shard.
        defs = {"a": vec_sum(3), "b": vec_sum(4)}
        rng = np.random.default_rng(29)
        cols = {
            "a": {"x": rng.uniform(0.5, 4.0, (5, 3))},
            "b": {"x": rng.uniform(0.5, 4.0, (5, 4))},
        }
        with ShardWorkerPool(mp_context="spawn", max_prepared=1) as p:
            fp_a, reusable = p._program_key(defs["a"], None)
            assert reusable
            for key in ("a", "b"):
                p.run_shards(
                    defs[key], None, cols[key], shard_bounds(5, 1),
                    u=2.0 ** -53, engine_options={},
                )
            # The worker evicted a's program; lie to the parent that it
            # is still prepared.
            p._workers[0].known[fp_a] = None
            pooled = p.run_shards(
                defs["a"], None, cols["a"], shard_bounds(5, 1),
                u=2.0 ** -53, engine_options={},
            )
            single = run_witness_batch(defs["a"], cols["a"])
            assert list(pooled[0][0]) == list(single.sound)
            assert list(pooled[0][1]) == list(single.exact)


class TestLifecycle:
    def test_close_is_idempotent_and_kills_workers(self):
        p = ShardWorkerPool(mp_context="spawn")
        definition = vec_sum(3)
        rng = np.random.default_rng(31)
        columns = {"x": rng.uniform(0.5, 4.0, (4, 3))}
        p.run_shards(
            definition, None, columns, shard_bounds(4, 1),
            u=2.0 ** -53, engine_options={},
        )
        assert p.stats()["workers_alive"] == 1
        p.close()
        p.close()
        assert p.stats()["workers_alive"] == 0
        with pytest.raises(RuntimeError):
            p.run_shards(
                definition, None, columns, shard_bounds(4, 1),
                u=2.0 ** -53, engine_options={},
            )

    def test_workers_start_lazily(self):
        with ShardWorkerPool(mp_context="spawn") as p:
            assert p.stats()["workers"] == 0


class TestSessionPool:
    def test_session_pooled_audit_byte_parity(self):
        inputs = {
            "a": [1.5, 2.5, 0.5, 3.0],
            "b": [2.0, 1.0, 4.0, 0.25],
            "c": [0.5, 3.0, 1.0, 2.0],
            "d": [1.0, 1.0, 2.0, 0.125],
        }
        batch = Session().audit(CHAIN, "Main", inputs=inputs, engine="batch")
        with Session(workers=2, mp_context="spawn") as session:
            cold = session.audit(
                CHAIN, "Main", inputs=inputs, engine="sharded"
            )
            warm = session.audit(
                CHAIN, "Main", inputs=inputs, engine="sharded"
            )
            # The repeat audit ran on the first one's warm workers.
            assert session.pool_stats()["prepared_hits"] == 2
        assert warm.to_json() == cold.to_json()
        assert _as_batch_json(warm) == batch.to_json()

    def test_session_owned_pool_lifecycle(self):
        with Session(workers=2) as session:
            assert session.pool_stats() is None  # lazy: no audit yet
            # Scalar audits must not touch (or create) the pool.
            session.audit(
                CHAIN, "Main",
                inputs={"a": 1.0, "b": 2.0, "c": 0.5, "d": 1.0},
            )
            assert session.pool_stats() is None
            result = session.audit(
                CHAIN,
                "Main",
                inputs={"a": [1.0, 2.0], "b": [2.0, 1.0],
                        "c": [0.5, 3.0], "d": [1.0, 4.0]},
                engine="sharded",
            )
            assert result.sound
            stats = session.pool_stats()
            assert stats is not None and stats["audits"] == 1
            assert stats["workers_alive"] == 2
        # close() shut the pool down and dropped the reference.
        assert session.pool_stats() is None

    def test_concurrent_audits_lease_disjoint_workers(self):
        inputs = {
            "a": [1.5, 2.5, 0.5, 3.0, 1.25],
            "b": [2.0, 1.0, 4.0, 0.25, 0.5],
            "c": [0.5, 3.0, 1.0, 2.0, 8.0],
            "d": [1.0, 1.0, 2.0, 0.125, 3.0],
        }
        batch = Session().audit(CHAIN, "Main", inputs=inputs, engine="batch")
        results = [None, None]
        start = threading.Barrier(2, timeout=60)

        def audit(slot):
            start.wait()
            results[slot] = session.audit(
                CHAIN, "Main", inputs=inputs, engine="sharded"
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with Session(workers=2, mp_context="spawn") as session:
                threads = [
                    threading.Thread(target=audit, args=(i,)) for i in (0, 1)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                    assert not thread.is_alive()
                stats = session.pool_stats()
        finally:
            sys.setswitchinterval(interval)
        # Both audits held two workers at once: neither waited for the
        # other's lease.  No counter update was lost between them.
        assert stats["workers"] >= 4
        assert stats["audits"] == 2
        assert stats["prepared_hits"] + stats["prepared_misses"] == 4
        assert stats["shm_bytes_in_flight"] == 0
        for result in results:
            assert _as_batch_json(result) == batch.to_json()
