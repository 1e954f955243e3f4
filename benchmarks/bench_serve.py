"""Serving benchmark: warm `repro serve` vs. cold CLI invocations.

The serving layer exists to amortize per-program work (interpreter and
NumPy startup, parse, typecheck, lower, inline, infer) across audit
requests.  This module quantifies that claim on the div+case ``SafeDiv``
kernel:

* a warm server (program prepared) audits a
  **100-request batch workload** fired from concurrent client threads,
  every response verified byte-identical to the one-shot CLI output;
* the same audit runs as **cold CLI invocations** — fresh subprocesses,
  empty caches — a few times, and the per-invocation cost is
  extrapolated to the same 100-request workload.

``BENCH_serve.json`` records both totals and their ratio; the CI gate
enforces the ratio (hardware-insensitive) rather than raw seconds.

The streaming half measures **first-verdict latency**: a 100k-environment
audit served as chunked NDJSON must emit its first per-row verdict well
before the audit finishes — the whole point of streaming is that a
client can start acting on early rows while the server is still
computing the tail.  ``BENCH_serve_stream.json`` records the first-row
latency as a fraction of total wall time; the same-box bar is
``test_stream_first_verdict_latency`` (fraction < 0.10).  It also times
the same audit **buffered without rows** on the same server and gates
``stream_vs_buffered_x`` (buffered over streamed wall time; higher is
better): per-row witnesses ride the batch engine's fast path, so the
stream should cost about what the row-free audit costs, and a stream
that falls back to a slow per-row sweep shows up as a collapsed ratio.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np
import pytest

from conftest import REPO_ROOT, write_bench_json

from repro.cli import main as cli_main
from repro.core import Program, pretty_program
from repro.programs.generators import BENCHMARK_FAMILIES
from repro.semantics.batch import _leaf_count
from repro.service import client as service_client
from repro.service.server import AuditServer, serve

SIZE = 20  #: SafeDiv kernel size (each request audits a div+case chain)
ENVS = 50  #: environment rows per request
REQUESTS = 100  #: the workload the acceptance criterion names
CLIENT_THREADS = 8
COLD_CLI_SAMPLES = 5
STREAM_ENVS = 100_000  #: rows for the first-verdict-latency stream
STREAM_DEGREE = 60  #: Horner degree for the streamed kernel


def _workload(envs=ENVS):
    definition = BENCHMARK_FAMILIES["SafeDiv"](SIZE)
    source = pretty_program(Program([definition]))
    rng = np.random.default_rng(7)
    inputs = {}
    for p in definition.params:
        k = _leaf_count(p.ty)
        shape = (envs, k) if k > 1 else (envs,)
        inputs[p.name] = rng.uniform(0.5, 4.0, shape).tolist()
    return definition, source, inputs


def _stream_workload():
    """A compute-dense kernel for the first-verdict-latency stream.

    Horner evaluation spends ~2 flops per input coefficient, and the
    inputs are rounded to two decimals so the 100k-row request body
    stays a few tens of MB — the stream timing should be dominated by
    the audit itself, not by shipping 17-digit float literals.
    """
    definition = BENCHMARK_FAMILIES["Horner"](STREAM_DEGREE)
    source = pretty_program(Program([definition]))
    rng = np.random.default_rng(11)
    inputs = {}
    for p in definition.params:
        k = _leaf_count(p.ty)
        shape = (STREAM_ENVS, k) if k > 1 else (STREAM_ENVS,)
        inputs[p.name] = np.round(
            rng.uniform(0.5, 4.0, shape), 2
        ).tolist()
    return source, inputs


class ServeBench:
    """Everything measured once, shared by the assertions below."""

    def __init__(self):
        definition, source, inputs = _workload()
        self.spec = {"source": source, "inputs": inputs, "engine": "batch"}

        # The golden body: what the CLI prints for this audit.
        self.bean_path = os.path.join(
            tempfile.mkdtemp(prefix="repro-bench-serve"), "safediv.bean"
        )
        with open(self.bean_path, "w", encoding="utf-8") as handle:
            handle.write(source)
        self.inputs_json = json.dumps(inputs)
        import contextlib
        import io

        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli_main(
                [
                    "witness", self.bean_path, "--inputs", self.inputs_json,
                    "--json", "--batch",
                ]
            )
        assert code == 0, "workload must be sound"
        self.golden = buffer.getvalue()

        handle = serve(AuditServer(port=0))
        try:
            # Warm-up: first request pays parse/check/lower/inline once.
            status, body = service_client.audit(
                handle.host, handle.port, self.spec
            )
            assert status == 200 and body == self.golden
            self.mismatches, self.failures = [], []
            self.serve_total_s = self._fire_workload(handle)
        finally:
            handle.stop()
        self.cli_cold_per_invocation_s = self._time_cold_cli()

    def _fire_workload(self, handle) -> float:
        counter = iter(range(REQUESTS))
        lock = threading.Lock()

        def worker():
            while True:
                with lock:
                    i = next(counter, None)
                if i is None:
                    return
                status, body = service_client.audit(
                    handle.host, handle.port, self.spec
                )
                if status != 200:
                    self.failures.append((i, status))
                elif body != self.golden:
                    self.mismatches.append(i)

        threads = [
            threading.Thread(target=worker) for _ in range(CLIENT_THREADS)
        ]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return time.perf_counter() - start

    def _time_cold_cli(self) -> float:
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        )
        argv = [
            sys.executable, "-m", "repro.cli", "witness", self.bean_path,
            "--inputs", self.inputs_json, "--json", "--batch",
        ]
        timings = []
        for _ in range(COLD_CLI_SAMPLES):
            start = time.perf_counter()
            out = subprocess.run(
                argv, capture_output=True, text=True, env=env, check=True
            )
            timings.append(time.perf_counter() - start)
            assert out.stdout == self.golden
        return min(timings)  # the kindest-to-the-CLI estimate


class StreamBench:
    """One 100k-row streamed audit, timed line by line, and the same
    audit buffered without rows."""

    def __init__(self):
        source, inputs = _stream_workload()
        spec = {
            "source": source,
            "inputs": inputs,
            "engine": "batch",
            "stream": True,
        }
        handle = serve(AuditServer(port=0))
        try:
            # Warm-up: a tiny buffered audit pays parse/check/lower once,
            # so the stream timing measures row production, not startup.
            status, _ = service_client.audit(
                handle.host,
                handle.port,
                {
                    "source": source,
                    "inputs": {k: v[:8] for k, v in inputs.items()},
                    "engine": "batch",
                },
            )
            assert status == 200
            self.first_row_s = None
            self.n_rows = 0
            self.trailer = None
            start = time.perf_counter()
            for line in service_client.audit_stream(
                handle.host, handle.port, spec, timeout=3600.0
            ):
                if "row" in line:
                    if self.first_row_s is None:
                        self.first_row_s = time.perf_counter() - start
                    self.n_rows += 1
                elif "n_rows" not in line:
                    self.trailer = line
            self.total_s = time.perf_counter() - start
            buffered = {k: v for k, v in spec.items() if k != "stream"}
            start = time.perf_counter()
            status, body = service_client.audit(
                handle.host, handle.port, buffered, timeout=3600.0
            )
            self.buffered_total_s = time.perf_counter() - start
            assert status == 200 and json.loads(body)["all_sound"] is True
        finally:
            handle.stop()


@pytest.fixture(scope="module")
def bench():
    return ServeBench()


@pytest.fixture(scope="module")
def stream_bench():
    return StreamBench()


def test_served_workload_bitwise_identical(bench):
    assert not bench.failures
    assert not bench.mismatches


def test_serve_bench_report(bench):
    cold_total = bench.cli_cold_per_invocation_s * REQUESTS
    speedup = cold_total / bench.serve_total_s
    write_bench_json(
        "serve",
        {
            "serve_warm_100req_total_s": bench.serve_total_s,
            "serve_warm_per_request_s": bench.serve_total_s / REQUESTS,
            "cli_cold_per_invocation_s": bench.cli_cold_per_invocation_s,
            "cli_cold_100req_extrapolated_s": cold_total,
            "serve_vs_cold_cli_x": speedup,
        },
        # No gated metrics: serve_vs_cold_cli_x compares process startup
        # to warm compute, which shifts with CPU count and disk speed,
        # so a cross-hardware baseline comparison would flake.  The
        # same-box bar is test_warm_serve_beats_cold_cli below, which
        # the bench-gate job runs right before the comparator; the
        # comparator still fails if this trajectory is not emitted.
        gate_metrics=[],
        meta={
            "kernel": f"SafeDiv{SIZE}",
            "envs_per_request": ENVS,
            "requests": REQUESTS,
            "client_threads": CLIENT_THREADS,
            "cold_cli_samples": COLD_CLI_SAMPLES,
        },
    )


def test_warm_serve_beats_cold_cli(bench):
    """The acceptance bar: the warm server must clearly win the workload."""
    cold_total = bench.cli_cold_per_invocation_s * REQUESTS
    assert bench.serve_total_s < cold_total / 2, (
        f"warm serve took {bench.serve_total_s:.2f}s for {REQUESTS} requests; "
        f"cold CLI extrapolates to {cold_total:.2f}s — expected >= 2x headroom"
    )


def test_stream_delivers_every_row(stream_bench):
    assert stream_bench.n_rows == STREAM_ENVS
    assert stream_bench.trailer is not None
    assert stream_bench.trailer["all_sound"] is True


def test_stream_first_verdict_latency(stream_bench):
    """The streaming bar: the first row lands in the first 10% of the run."""
    frac = stream_bench.first_row_s / stream_bench.total_s
    assert frac < 0.10, (
        f"first streamed row took {stream_bench.first_row_s:.2f}s of a "
        f"{stream_bench.total_s:.2f}s run ({frac:.1%}) — streaming should "
        "deliver early verdicts, not a buffered payload in disguise"
    )


def test_serve_stream_bench_report(stream_bench):
    write_bench_json(
        "serve_stream",
        {
            "stream_first_row_s": stream_bench.first_row_s,
            "stream_total_s": stream_bench.total_s,
            "stream_first_row_frac": stream_bench.first_row_s
            / stream_bench.total_s,
            "buffered_total_s": stream_bench.buffered_total_s,
            "stream_vs_buffered_x": stream_bench.buffered_total_s
            / stream_bench.total_s,
        },
        # Absolute timings shift with hardware and the first-row
        # fraction is bounded by the same-box assertion above; the
        # buffered/streamed ratio compares two runs of one audit on one
        # box, so it is the gated metric.
        gate_metrics=["stream_vs_buffered_x"],
        meta={
            "kernel": f"Horner{STREAM_DEGREE}",
            "envs": STREAM_ENVS,
            "transport": "chunked NDJSON over HTTP",
        },
    )
