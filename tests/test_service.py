"""The serving layer: fingerprints and the audit server.

Two contracts under test:

* **fingerprints** are canonical: stable across parses (the parser's
  fresh-name counter must not leak into keys), alpha-invariant, and
  sensitive to everything semantic (structure, types, grades, kinds);
* **the served audit path** is bitwise identical to the CLI: for all
  four engines the response body equals the ``repro witness --json``
  stdout for the same audit, byte for byte.
"""

from __future__ import annotations

import contextlib
import gc
import http.client
import io
import json
import os
import re
import socket
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

from repro import api as repro_api
from repro.cli import main
from repro.core import parse_program
from repro.service.fingerprint import (
    fingerprint_definition,
    fingerprint_program,
    fingerprint_source,
)
from repro.service import client as service_client
from repro.service.server import AuditServer, serve

SAFEDIV = os.path.join(
    os.path.dirname(__file__), "..", "examples", "bean", "safediv4.bean"
)
SAFEDIV_SOURCE = Path(SAFEDIV).read_text()

DOTPROD = """
DotProd2 (x : vec(2)) (y : vec(2)) : num :=
  let (x0, x1) = x in
  let (y0, y1) = y in
  let v = mul x0 y0 in
  let w = mul x1 y1 in
  add v w
"""

BATCH_INPUTS = {
    "x": [[1, 2, 3, 4], [2, 3, 4, 5], [1, 1, 1, 1]],
    "y": [[1, 1, 2, 2], [0, 1, 1, 2], [4, 3, 2, 1]],
    "f": [[1, 1, 1, 1], [2, 2, 2, 2], [3, 3, 3, 3]],
}
SCALAR_INPUTS = {k: v[0] for k, v in BATCH_INPUTS.items()}


def cli_json(argv):
    """Run the CLI in-process, capturing stdout."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


# --------------------------------------------------------------------------
# Fingerprints
# --------------------------------------------------------------------------


class TestFingerprint:
    def test_stable_across_parses(self):
        p1 = parse_program(DOTPROD)
        p2 = parse_program(DOTPROD)
        assert fingerprint_program(p1) == fingerprint_program(p2)

    def test_stable_under_fresh_name_drift(self):
        # Two parses of one text build distinct but equal ASTs; a parse
        # in between must not change the second one's fingerprint.
        source = "H (x : num) (y : num) : num := add (mul x y) y"
        p1 = parse_program(source)
        parse_program(DOTPROD)
        p2 = parse_program(source)
        assert p1.main.body is not p2.main.body
        assert fingerprint_definition(p1.main, p1) == fingerprint_definition(
            p2.main, p2
        )

    def test_alpha_invariant(self):
        a = parse_program("F (x : num) : num := let t = add x x in mul t t")
        b = parse_program("F (x : num) : num := let s = add x x in mul s s")
        assert fingerprint_program(a) == fingerprint_program(b)

    def test_sensitive_to_structure(self):
        a = parse_program("F (x : num) : num := add x x")
        b = parse_program("F (x : num) : num := mul x x")
        assert fingerprint_program(a) != fingerprint_program(b)

    def test_sensitive_to_parameter_names(self):
        # Parameter names are free names: callers address them in the
        # inputs mapping, so they are semantic, not alpha-convertible.
        a = parse_program("F (x : num) : num := add x x")
        b = parse_program("F (y : num) : num := add y y")
        assert fingerprint_program(a) != fingerprint_program(b)

    def test_sensitive_to_kind_and_options(self):
        p = parse_program(DOTPROD)
        plain = fingerprint_definition(p.main, p)
        kinded = fingerprint_definition(p.main, p, kind="inlined-ir")
        optioned = fingerprint_definition(
            p.main, p, options={"precision_bits": 24}
        )
        assert len({plain, kinded, optioned}) == 3

    def test_deep_programs_fingerprint_iteratively(self):
        from repro.programs.generators import BENCHMARK_FAMILIES

        deep = BENCHMARK_FAMILIES["Sum"](5000)
        # A recursive walk would blow the default recursion limit here.
        assert fingerprint_definition(deep)

    def test_source_fingerprint(self):
        assert fingerprint_source("abc") == fingerprint_source("abc")
        assert fingerprint_source("abc") != fingerprint_source("abd")
        assert fingerprint_source("abc", kind="x") != fingerprint_source(
            "abc", kind="y"
        )


# --------------------------------------------------------------------------
# The in-memory identity caches behind the sharded path
# --------------------------------------------------------------------------


class TestPersistentLayer:
    def test_sharded_with_cache_dir_matches_batch(self):
        # The on-disk cache_dir layer is gone; what remains is that a
        # sharded run equals the batch engine both cold and with the
        # in-process IR caches warm from a previous run.
        from repro.semantics.batch import BatchWitnessEngine
        from repro.semantics.shard import run_witness_sharded

        program = parse_program(SAFEDIV_SOURCE)
        definition = program.main
        batch = BatchWitnessEngine(definition, program).run(BATCH_INPUTS)
        for _round in range(2):  # cold then warm in-process caches
            sharded = run_witness_sharded(
                definition, BATCH_INPUTS, program=program, workers=2
            )
            assert list(sharded.sound) == list(batch.sound)
            assert list(sharded.exact) == list(batch.exact)
            assert {
                k: str(v) for k, v in sharded.param_max_distance.items()
            } == {k: str(v) for k, v in batch.param_max_distance.items()}


# --------------------------------------------------------------------------
# The audit server
# --------------------------------------------------------------------------


@pytest.fixture(scope="class")
def audit_server():
    handle = serve(AuditServer(port=0))
    try:
        yield handle
    finally:
        handle.stop()


def served_audit(handle, spec):
    return service_client.audit(handle.host, handle.port, spec)


class TestAuditServer:
    @pytest.mark.parametrize("engine", repro_api.engine_names())
    def test_served_bitwise_equals_cli(self, audit_server, engine):
        source = SAFEDIV_SOURCE
        caps = repro_api.engines()[engine].caps
        if caps.remote:
            pytest.skip(
                "remote dispatches to external serve nodes; "
                "covered by tests/test_fleet.py"
            )
        inputs = BATCH_INPUTS if caps.batched else SCALAR_INPUTS
        status, body = served_audit(
            audit_server,
            {"source": source, "inputs": inputs, "engine": engine, "workers": 2},
        )
        assert status == 200
        argv = [
            "witness", SAFEDIV, "--inputs", json.dumps(inputs), "--json",
        ]
        if engine in ("batch", "sharded"):
            argv.append("--batch")  # exercise the legacy flag spelling
        else:
            argv += ["--engine", engine]
        if caps.multiprocess:
            argv += ["--workers", "2"]
        code, out = cli_json(argv)
        assert body == out  # byte-for-byte, trailing newline included
        assert code == 0
        assert json.loads(body)["engine"] == engine

    def test_low_precision_and_custom_u(self, audit_server):
        source = SAFEDIV_SOURCE
        status, body = served_audit(
            audit_server,
            {
                "source": source,
                "inputs": BATCH_INPUTS,
                "engine": "batch",
                "precision_bits": 24,
                "u": "2^-24",
            },
        )
        assert status == 200
        code, out = cli_json(
            [
                "witness", SAFEDIV, "--inputs", json.dumps(BATCH_INPUTS),
                "--json", "--batch", "--precision-bits", "24", "--u", "2^-24",
            ]
        )
        assert body == out

    def test_named_definition(self, audit_server):
        source = DOTPROD + "\nMain (z : num) (w : num) : num := add z w\n"
        status, body = served_audit(
            audit_server,
            {
                "source": source,
                "name": "DotProd2",
                "inputs": {"x": [1.5, 2.25], "y": [3.1, -0.7]},
            },
        )
        assert status == 200
        assert json.loads(body)["definition"] == "DotProd2"

    def test_unsound_rows_still_audit(self, audit_server):
        # A divisor of exactly zero routes through inl/inr fallback and
        # the audit still completes; soundness is reported per row.
        status, body = served_audit(
            audit_server,
            {
                "source": SAFEDIV_SOURCE,
                "inputs": BATCH_INPUTS,
                "engine": "batch",
            },
        )
        assert status == 200
        payload = json.loads(body)
        assert payload["n_rows"] == 3
        assert payload["sound_rows"] == sum(payload["sound"])

    def test_coalesces_concurrent_preparations(self):
        handle = serve(AuditServer(port=0))
        try:
            # A program the server has never seen, hit by many clients
            # at once: preparation must run exactly once.
            source = DOTPROD.replace("DotProd2", "DotProdCoalesce")
            spec = {
                "source": source,
                "inputs": {"x": [1.0, 2.0], "y": [3.0, 4.0]},
            }
            results = []
            errors = []

            def worker():
                try:
                    results.append(served_audit(handle, spec))
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert {status for status, _ in results} == {200}
            assert len({body for _, body in results}) == 1
            stats = handle.server.stats
            assert stats["prep_misses"] == 1
            assert stats["prep_hits"] == 7
        finally:
            handle.stop()

    def test_health_and_stats(self, audit_server):
        health = service_client.healthz(audit_server.host, audit_server.port)
        assert health["status"] == "ok"
        status, raw = service_client.request(
            audit_server.host, audit_server.port, "GET", "/stats"
        )
        assert status == 200
        stats = json.loads(raw)
        assert "server" in stats and "cache" not in stats
        # Engine-aware scheduling exposes both pools' queue depths.
        queues = stats["queues"]
        for pool in ("light", "heavy"):
            assert queues[pool]["workers"] >= 1
            assert queues[pool]["depth"] >= 0

    def test_bad_heavy_threads_rejected(self):
        from repro.cli import main
        from repro.service.server import AuditServer

        with pytest.raises(ValueError):
            AuditServer(heavy_threads=0)
        # The CLI renders the same failure as an error line, not a
        # ThreadPoolExecutor traceback.
        assert main(["serve", "--port", "0", "--heavy-threads", "0"]) == 1

    def test_worker_cap_below_default_is_refused(self):
        with pytest.raises(ValueError, match="max_request_workers"):
            AuditServer(default_workers=16, max_request_workers=8)
        assert main(["serve", "--port", "0", "--workers", "16",
                     "--max-request-workers", "8"]) == 1

    @pytest.mark.parametrize("default_workers, max_request_workers",
                             [(2, 8), (16, None)])
    def test_worker_cap_admits_the_default(self, default_workers,
                                           max_request_workers):
        handle = serve(AuditServer(
            port=0, default_workers=default_workers,
            max_request_workers=max_request_workers,
        ))
        try:
            cap = handle.server.max_request_workers
            assert cap >= default_workers
            status, _ = served_audit(handle, {
                "source": SAFEDIV_SOURCE, "inputs": SCALAR_INPUTS,
                "engine": "ir",
            })
            assert status == 200
            status, body = served_audit(handle, {
                "source": SAFEDIV_SOURCE, "inputs": BATCH_INPUTS,
                "engine": "sharded", "workers": cap + 1,
            })
            assert status == 400
            assert f"'workers' capped at {cap}" in json.loads(body)["error"]
        finally:
            handle.stop()

    def test_engine_aware_pool_routing(self, audit_server):
        source = SAFEDIV_SOURCE
        before = dict(audit_server.server.stats)
        status, _ = served_audit(
            audit_server,
            {"source": source, "inputs": SCALAR_INPUTS, "engine": "ir"},
        )
        assert status == 200
        status, _ = served_audit(
            audit_server,
            {"source": source, "inputs": SCALAR_INPUTS, "engine": "forward"},
        )
        assert status == 200
        status, _ = served_audit(
            audit_server,
            {"source": source, "inputs": BATCH_INPUTS, "engine": "batch"},
        )
        assert status == 200
        after = audit_server.server.stats
        # Scalar and static audits stay on the light pool; the batched
        # audit crossed to the bounded heavy pool.
        assert after["audits_light"] - before["audits_light"] == 2
        assert after["audits_heavy"] - before["audits_heavy"] == 1

    def test_malformed_body_is_400(self, audit_server):
        status, raw = service_client.request(
            audit_server.host, audit_server.port, "POST", "/audit",
            b"this is not json",
        )
        assert status == 400
        assert "error" in json.loads(raw)

    @pytest.mark.parametrize(
        "spec",
        [
            {},
            {"source": "F (x : num) := add x x"},  # no inputs
            {"source": "", "inputs": {}},
            {"source": "F (x : num) := x", "inputs": {}, "engine": "warp"},
            {"source": "F (x : num) := x", "inputs": {}, "workers": 0},
            {"source": "F (x : num) := x", "inputs": {}, "precision_bits": 0},
            {"source": "F (x : num) := x", "inputs": {}, "bogus_field": 1},
            {"source": "F (x : num) := x", "inputs": [], "u": None},
            # Overflowing roundoff spellings must 400, not drop the
            # connection (regression: OverflowError escaped the handler).
            {"source": "F (x : num) := x", "inputs": {"x": 1}, "u": "2^99999"},
            {"source": "F (x : num) := x", "inputs": {"x": 1}, "u": "huge"},
            # bool is an int subclass; it must not pass the int checks.
            {"source": "F (x : num) := x", "inputs": {"x": 1},
             "precision_bits": True},
            {"source": "F (x : num) := x", "inputs": {"x": 1},
             "engine": "sharded", "workers": True},
            # A client cannot dictate an unbounded process-pool size.
            {"source": "F (x : num) := x", "inputs": {"x": 1},
             "engine": "sharded", "workers": 10_000},
        ],
    )
    def test_invalid_specs_are_400(self, audit_server, spec):
        status, body = served_audit(audit_server, spec)
        assert status == 400
        assert "error" in json.loads(body)

    def test_bean_errors_are_422(self, audit_server):
        # Parse error.
        status, _ = served_audit(
            audit_server,
            {"source": "F (x : num := x", "inputs": {"x": 1.0}},
        )
        assert status == 422
        # Type error (same variable twice).
        status, _ = served_audit(
            audit_server,
            {"source": "F (x : num) : num := add x x", "inputs": {"x": 1.0}},
        )
        assert status == 422
        # Missing input for a parameter.
        status, body = served_audit(
            audit_server,
            {"source": DOTPROD, "inputs": {"x": [1.0, 2.0]}},
        )
        assert status == 422
        assert "y" in json.loads(body)["error"]
        # A non-ASCII numeral is a positioned syntax error.
        status, body = served_audit(
            audit_server,
            {"source": "F (x : vec(²)) := x", "inputs": {"x": [1.0]}},
        )
        assert status == 422
        assert "1:12: unexpected character '²'" in json.loads(body)["error"]

    def test_unknown_path_and_method(self, audit_server):
        status, _ = service_client.request(
            audit_server.host, audit_server.port, "GET", "/nope"
        )
        assert status == 404
        status, _ = service_client.request(
            audit_server.host, audit_server.port, "GET", "/audit"
        )
        assert status == 405

    def test_client_cli_round_trip(self, audit_server):
        code, out = cli_json(
            [
                "client", SAFEDIV,
                "--host", audit_server.host,
                "--port", str(audit_server.port),
                "--inputs", json.dumps(BATCH_INPUTS),
                "--batch", "--workers", "2",
            ]
        )
        ref_code, ref_out = cli_json(
            [
                "witness", SAFEDIV, "--inputs", json.dumps(BATCH_INPUTS),
                "--json", "--batch", "--workers", "2",
            ]
        )
        assert out == ref_out
        assert code == ref_code == 0

    def test_client_cli_unreachable_server(self):
        code, _out = cli_json(
            [
                "client", SAFEDIV, "--port", "1",
                "--inputs", json.dumps(SCALAR_INPUTS), "--timeout", "2",
            ]
        )
        assert code == 1


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _readme_audit_examples():
    """``(spec, shown output lines)`` of each README ``curl .../audit``."""
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    examples = []
    for block in re.findall(r"```bash\n(.*?)```", text, re.S):
        match = re.search(r"curl -s\w* \S+/audit -X POST -d '(.*?)'\n",
                          block, re.S)
        if match:
            examples.append(
                (json.loads(match.group(1)), block[match.end():].splitlines())
            )
    return examples


class TestReadmeAuditExamples:
    """The README's ``POST /audit`` bodies run, and show what they return."""

    def test_examples_found(self):
        assert len(_readme_audit_examples()) == 2

    @pytest.mark.parametrize("index", [0, 1])
    def test_example_is_200(self, audit_server, index):
        spec, shown = _readme_audit_examples()[index]
        connection = http.client.HTTPConnection(
            audit_server.host, audit_server.port, timeout=30
        )
        try:
            connection.request("POST", "/audit", json.dumps(spec))
            response = connection.getresponse()
            body = response.read().decode()
        finally:
            connection.close()
        assert response.status == 200, body
        if shown:  # the NDJSON the README prints is this run's, verbatim
            assert body.splitlines() == shown


class TestServerHandleStop:
    """``ServerHandle.stop`` is idempotent and safe once the loop ended.

    A second stop used to schedule its shutdown coroutine on the
    stopped loop, wait out the whole timeout, and leave the coroutine
    never awaited (a ``RuntimeWarning`` at collection).
    """

    @staticmethod
    @contextlib.contextmanager
    def _no_runtime_warnings():
        unraisable = []
        previous = sys.unraisablehook
        sys.unraisablehook = unraisable.append
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                yield
                gc.collect()
        finally:
            sys.unraisablehook = previous
        assert [u.exc_value for u in unraisable] == []

    def test_stop_twice(self):
        with self._no_runtime_warnings():
            handle = serve(AuditServer(port=0))
            handle.stop()
            assert not handle.thread.is_alive()
            start = time.monotonic()
            handle.stop()
            assert time.monotonic() - start < 1.0

    def test_stop_after_loop_stopped(self):
        with self._no_runtime_warnings():
            handle = serve(AuditServer(port=0))
            handle.loop.call_soon_threadsafe(handle.loop.stop)
            handle.thread.join(timeout=10)
            start = time.monotonic()
            handle.stop()
            handle.stop()
            assert time.monotonic() - start < 5.0
            # The shutdown still ran: the listening socket is closed.
            with pytest.raises(OSError):
                socket.create_connection((handle.host, handle.port),
                                         timeout=1).close()


# --------------------------------------------------------------------------
# Nightly soak (opt-in: REPRO_SOAK=1)
# --------------------------------------------------------------------------


@pytest.mark.skipif(
    not os.environ.get("REPRO_SOAK"),
    reason="soak workload only runs in the nightly pipeline (REPRO_SOAK=1)",
)
class TestServeSoak:
    def test_concurrent_clients_bitwise_stable(self):
        clients = int(os.environ.get("REPRO_SOAK_CLIENTS", "8"))
        requests_each = int(os.environ.get("REPRO_SOAK_REQUESTS", "25"))
        source = SAFEDIV_SOURCE
        handle = serve(AuditServer(port=0))
        try:
            # The golden bodies, one per local engine (the soak mix
            # mirrors production traffic).
            soak_engines = [
                name
                for name, eng in repro_api.engines().items()
                if not eng.caps.remote
            ]
            golden = {}
            for engine in soak_engines:
                caps = repro_api.engines()[engine].caps
                inputs = BATCH_INPUTS if caps.batched else SCALAR_INPUTS
                argv = [
                    "witness", SAFEDIV, "--inputs", json.dumps(inputs),
                    "--json", "--engine", engine,
                ]
                if caps.multiprocess:
                    argv += ["--workers", "2"]
                _, golden[engine] = cli_json(argv)
            failures = []

            def worker(worker_id: int):
                for i in range(requests_each):
                    engine = soak_engines[
                        (worker_id + i) % len(soak_engines)
                    ]
                    batched = repro_api.engines()[engine].caps.batched
                    spec = {
                        "source": source,
                        "inputs": BATCH_INPUTS if batched else SCALAR_INPUTS,
                        "engine": engine,
                        "workers": 2,
                    }
                    status, body = served_audit(handle, spec)
                    if status != 200 or body != golden[engine]:
                        failures.append((worker_id, i, engine, status))

            threads = [
                threading.Thread(target=worker, args=(w,))
                for w in range(clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not failures
            stats = handle.server.stats
            assert stats["audits"] == clients * requests_each
        finally:
            handle.stop()
