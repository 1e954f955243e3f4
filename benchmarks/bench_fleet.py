"""Fleet benchmark: 4 `repro serve` subprocesses vs. a single node.

The fleet dispatcher's claim is **cache locality**: consistent hashing
on the program fingerprint partitions the program corpus across the
nodes, so each node's prepared-program table holds *its* shard instead
of thrashing through all of it.  This module measures that claim where
it actually bites — a corpus **larger than one node's prepared-program
capacity** (``--max-prepared``), exercised with a hot/cold mix:

* every fourth request re-audits one of a few **hot** programs, the
  rest walk a long tail of **cold** ones;
* on a single node (capacity ``MAX_PREPARED``) the cold tail between
  two uses of a hot program is wider than the LRU table, so *even the
  hot set* is evicted — every request re-prepares from scratch;
* a 4-node fleet (aggregate capacity ``4 * MAX_PREPARED`` > corpus)
  keeps *everything* resident after one warm-up pass.

The audits are scalar (``engine: ir``), where preparation (parse,
typecheck, lower, inline, infer) dominates the warm audit ~4x — the
regime the serving layer exists for.

Every fleet response is verified byte-identical to the single node's
response for the same program.  ``BENCH_fleet.json`` records sustained
throughput, p99 latency and prepared-table hit ratios for both
topologies; the CI gate enforces the throughput ratio
(``fleet4_vs_single_node_throughput_x``), which is hardware-insensitive
because both topologies run on the same box in the same job.
"""

from __future__ import annotations

import itertools
import os
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from conftest import REPO_ROOT, write_bench_json

from repro.core import Program, pretty_program
from repro.programs.generators import BENCHMARK_FAMILIES
from repro.semantics.batch import _leaf_count
from repro.service import client as service_client
from repro.service.client import ClientError
from repro.service.fleet import FleetDispatcher

SIZE = 12  #: SafeDiv kernel size — preparation cost dominates the audit
NODES = 4
MAX_PREPARED = 24  #: per-node prepared-program capacity
CORPUS = 64  #: distinct programs: > one node's capacity, < the fleet's
HOT = 8  #: programs that take every fourth request
REQUESTS = 192  #: measured workload (after one warm-up pass)
CLIENT_THREADS = 4
STARTUP_TIMEOUT_S = 60.0


def _corpus():
    """``CORPUS`` distinct programs (same shape, distinct fingerprints)
    plus one shared scalar environment."""
    definition = BENCHMARK_FAMILIES["SafeDiv"](SIZE)
    base_source = pretty_program(Program([definition]))
    rng = np.random.default_rng(11)
    inputs = {}
    for p in definition.params:
        k = _leaf_count(p.ty)
        if k > 1:
            inputs[p.name] = rng.uniform(0.5, 4.0, k).tolist()
        else:
            inputs[p.name] = float(rng.uniform(0.5, 4.0))
    sources = [
        base_source.replace(definition.name, f"{definition.name}v{i:02d}", 1)
        for i in range(CORPUS)
    ]
    return sources, inputs


def _schedule():
    """The hot/cold request mix: program indices, ``REQUESTS`` long."""
    hot = itertools.cycle(range(HOT))
    cold = itertools.cycle(range(HOT, CORPUS))
    return [
        next(hot) if j % 4 == 0 else next(cold) for j in range(REQUESTS)
    ]


class _NodeProc:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, port: int, proc: subprocess.Popen) -> None:
        self.host = "127.0.0.1"
        self.port = port
        self.proc = proc


def _free_ports(n):
    socks = []
    for _ in range(n):
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(("127.0.0.1", 0))
        socks.append(sock)
    ports = [sock.getsockname()[1] for sock in socks]
    for sock in socks:
        sock.close()
    return ports


def _spawn_nodes(n):
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    env.pop("REPRO_NODES", None)
    nodes = []
    for port in _free_ports(n):
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", str(port),
                "--max-prepared", str(MAX_PREPARED),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        nodes.append(_NodeProc(port, proc))
    deadline = time.monotonic() + STARTUP_TIMEOUT_S
    for node in nodes:
        while True:
            try:
                service_client.healthz(node.host, node.port, timeout=2)
                break
            except ClientError:
                if node.proc.poll() is not None:
                    _stop_nodes(nodes)
                    raise RuntimeError(
                        f"serve node on port {node.port} exited "
                        f"with {node.proc.returncode}"
                    )
                if time.monotonic() > deadline:
                    _stop_nodes(nodes)
                    raise RuntimeError("serve nodes failed to come up")
                time.sleep(0.1)
    return nodes


def _stop_nodes(nodes):
    for node in nodes:
        node.proc.terminate()
    for node in nodes:
        try:
            node.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            node.proc.kill()
            node.proc.wait(timeout=10)


def _prep_counters(nodes):
    hits = misses = 0
    for node in nodes:
        server = service_client.stats(node.host, node.port)["server"]
        hits += server.get("prep_hits", 0)
        misses += server.get("prep_misses", 0)
    return hits, misses


class FleetBench:
    """Everything measured once, shared by the assertions below."""

    def __init__(self):
        sources, inputs = _corpus()
        self.specs = [
            {"source": source, "inputs": inputs, "engine": "ir"}
            for source in sources
        ]
        self.schedule = _schedule()
        self.golden = {}
        self.mismatches = []
        self.failures = []

        nodes = _spawn_nodes(1)
        try:
            single = nodes[0]
            for i, spec in enumerate(self.specs):  # warm-up + goldens
                status, body = service_client.audit(
                    single.host, single.port, spec
                )
                assert status == 200, f"program {i}: HTTP {status}"
                self.golden[i] = body
            hits0, misses0 = _prep_counters(nodes)

            def single_request(spec):
                status, body = service_client.audit(
                    single.host, single.port, spec
                )
                return body if status == 200 else None

            self.single_total_s, self.single_latencies = self._fire(
                single_request, "single"
            )
            hits1, misses1 = _prep_counters(nodes)
            self.single_hit_ratio = (hits1 - hits0) / max(
                1, (hits1 - hits0) + (misses1 - misses0)
            )
        finally:
            _stop_nodes(nodes)

        nodes = _spawn_nodes(NODES)
        try:
            dispatcher = FleetDispatcher(
                ",".join(f"{n.host}:{n.port}" for n in nodes),
                spill_depth=None,  # pure locality: the capacity effect
            )
            for i, spec in enumerate(self.specs):  # warm-up pass
                body = dispatcher.audit_spec(spec)
                if body != self.golden[i]:
                    self.mismatches.append(("warmup", i))

            self.fleet_total_s, self.fleet_latencies = self._fire(
                dispatcher.audit_spec, "fleet"
            )
            hits, misses = _prep_counters(nodes)
            # Warm-up is one miss per program per owning node; everything
            # after must hit, so fold the whole lifetime in.
            self.fleet_hit_ratio = hits / max(1, hits + misses)
            self.dispatcher_stats = dict(dispatcher.stats)
            self.ejected = dict(dispatcher.ejected)
        finally:
            _stop_nodes(nodes)

    def _fire(self, request, label):
        counter = iter(range(len(self.schedule)))
        lock = threading.Lock()
        latencies = []

        def worker():
            while True:
                with lock:
                    j = next(counter, None)
                if j is None:
                    return
                i = self.schedule[j]
                t0 = time.perf_counter()
                body = request(self.specs[i])
                elapsed = time.perf_counter() - t0
                with lock:
                    latencies.append(elapsed)
                    if body is None:
                        self.failures.append((label, j))
                    elif body != self.golden[i]:
                        self.mismatches.append((label, j))

        threads = [
            threading.Thread(target=worker) for _ in range(CLIENT_THREADS)
        ]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return time.perf_counter() - start, latencies


def _p99(latencies):
    ordered = sorted(latencies)
    return ordered[int(0.99 * (len(ordered) - 1))]


@pytest.fixture(scope="module")
def bench():
    return FleetBench()


def test_fleet_workload_bitwise_identical(bench):
    assert not bench.failures
    assert not bench.mismatches
    assert not bench.ejected


def test_fleet_keeps_the_corpus_resident(bench):
    # The mechanism itself: the fleet's aggregate prepared-program
    # capacity holds the whole corpus, the single node's cannot.
    assert bench.fleet_hit_ratio > bench.single_hit_ratio


def test_fleet_bench_report(bench):
    single_rps = len(bench.schedule) / bench.single_total_s
    fleet_rps = len(bench.schedule) / bench.fleet_total_s
    write_bench_json(
        "fleet",
        {
            "single_node_req_s": single_rps,
            "fleet4_req_s": fleet_rps,
            "fleet4_vs_single_node_throughput_x": fleet_rps / single_rps,
            "single_node_p99_s": _p99(bench.single_latencies),
            "fleet4_p99_s": _p99(bench.fleet_latencies),
            "single_node_prep_hit_ratio": bench.single_hit_ratio,
            "fleet4_prep_hit_ratio": bench.fleet_hit_ratio,
        },
        gate_metrics=["fleet4_vs_single_node_throughput_x"],
        meta={
            "kernel": f"SafeDiv{SIZE}",
            "corpus_programs": CORPUS,
            "hot_programs": HOT,
            "requests": REQUESTS,
            "client_threads": CLIENT_THREADS,
            "nodes": NODES,
            "max_prepared_per_node": MAX_PREPARED,
            "dispatcher_stats": bench.dispatcher_stats,
        },
    )


def test_fleet_beats_single_node(bench):
    """The acceptance bar: >= 2x sustained throughput over one node."""
    speedup = bench.single_total_s / bench.fleet_total_s
    assert speedup >= 2.0, (
        f"fleet of {NODES} sustained only {speedup:.2f}x the single-node "
        f"throughput on a {CORPUS}-program corpus "
        f"(capacity {MAX_PREPARED}/node)"
    )
