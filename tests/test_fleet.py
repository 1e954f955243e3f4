"""The fleet failure-mode suite: client taxonomy, hashing, merge, dispatch.

Four contracts under test:

* **the client's failure taxonomy** is trustworthy: wall-clock deadlines
  fire against drip-feeding peers, truncated bodies are never accepted
  as complete, and a server killed mid-request surfaces as the
  retryable :class:`~repro.service.client.ClientConnectionError` —
  the dispatcher's eject-vs-retry decisions build on these;
* **consistent hashing** is stable: placement is insertion-order
  independent, adding a node moves only ~1/N of the keys (all of them
  *to* the new node), and the preference order is the failover order;
* **the merge** replicates the single-node batch payload byte for byte
  and refuses header/bound mismatches loudly;
* **fleet dispatch** is byte-identical to a single-node audit — split
  or unsplit, even after a node dies mid-run — and a mixed-version
  node is rejected, never merged.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import socket
import struct
import threading
import time
from pathlib import Path

import pytest

from repro import api as repro_api
from repro.api.result import (
    render_payload,
    stream_header_of_payload,
    stream_trailer_of_payload,
)
from repro.cli import main
from repro.semantics.shard import shard_bounds
from repro.service import client as service_client
from repro.service.client import (
    ClientConnectionError,
    ClientDeadlineError,
    ClientStatusError,
    ClientTruncationError,
)
from repro.service.fleet import (
    FleetDispatcher,
    FleetError,
    HashRing,
    Node,
    merge_batch_payloads,
    parse_nodes,
)
from repro.service.server import AuditServer, serve

SAFEDIV = os.path.join(
    os.path.dirname(__file__), "..", "examples", "bean", "safediv4.bean"
)
SAFEDIV_SOURCE = Path(SAFEDIV).read_text()

BATCH_INPUTS = {
    "x": [[1, 2, 3, 4], [2, 3, 4, 5], [1, 1, 1, 1]],
    "y": [[1, 1, 2, 2], [0, 1, 1, 2], [4, 3, 2, 1]],
    "f": [[1, 1, 1, 1], [2, 2, 2, 2], [3, 3, 3, 3]],
}
SCALAR_INPUTS = {k: v[0] for k, v in BATCH_INPUTS.items()}

#: 20 rows — wide enough to split three ways, with zero divisors
#: scattered across shards so fallback rows survive the merge offsets.
WIDE_INPUTS = {
    "x": [[1 + 0.5 * i, 2, 3 + i % 3, 4] for i in range(20)],
    "y": [[0 if i % 7 == 5 else 1, 1 + 0.25 * i, 2, 2] for i in range(20)],
    "f": [[1, 1, 1 + i % 5, 1] for i in range(20)],
}


def cli_json(argv):
    """Run the CLI in-process, capturing stdout."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


@contextlib.contextmanager
def fleet(n):
    """``n`` audit servers on ephemeral ports."""
    handles = []
    try:
        for _ in range(n):
            handles.append(serve(AuditServer(port=0)))
        yield handles
    finally:
        for handle in handles:
            try:
                handle.stop()
            except Exception:
                pass


def nodes_of(handles):
    return ",".join(f"{h.host}:{h.port}" for h in handles)


@pytest.fixture()
def remote_engine(monkeypatch):
    """The ``remote`` engine with clean config before and after."""
    monkeypatch.delenv("REPRO_NODES", raising=False)
    engine = repro_api.get_engine("remote")
    engine.configure(reset=True)
    yield engine
    engine.configure(reset=True)


# --------------------------------------------------------------------------
# Client failure taxonomy (raw-socket peers standing in for sick servers)
# --------------------------------------------------------------------------


@contextlib.contextmanager
def one_shot_server(handler):
    """A listening socket whose first connection is fed to ``handler``."""
    lsock = socket.socket()
    lsock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    lsock.bind(("127.0.0.1", 0))
    lsock.listen(1)
    port = lsock.getsockname()[1]

    def run():
        try:
            conn, _ = lsock.accept()
        except OSError:
            return
        with conn:
            try:
                handler(conn)
            except OSError:
                pass

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    try:
        yield port
    finally:
        lsock.close()
        thread.join(timeout=10)


class TestClientFailureTaxonomy:
    def test_connection_refused(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(ClientConnectionError, match="cannot reach"):
            service_client.request(
                "127.0.0.1", port, "GET", "/healthz", timeout=2
            )

    def test_deadline_is_wall_clock_under_drip_feed(self):
        # One byte every 0.1s: a per-socket-operation timeout of 0.5s
        # would never fire; the wall-clock deadline must.
        def drip(conn):
            conn.recv(65536)
            while True:
                conn.sendall(b"H")
                time.sleep(0.1)

        with one_shot_server(drip) as port:
            start = time.monotonic()
            with pytest.raises(ClientDeadlineError, match="deadline of"):
                service_client.request(
                    "127.0.0.1", port, "GET", "/healthz", timeout=0.5
                )
            elapsed = time.monotonic() - start
        assert 0.4 <= elapsed < 5

    def test_deadline_against_silent_server(self):
        def silent(conn):
            conn.recv(65536)
            time.sleep(3)

        with one_shot_server(silent) as port:
            with pytest.raises(ClientDeadlineError):
                service_client.request(
                    "127.0.0.1", port, "GET", "/healthz", timeout=0.3
                )

    def test_missing_content_length_on_2xx_is_truncation(self):
        # Our server always sends Content-Length; a 2xx without one
        # means the response was cut — reading to EOF and accepting
        # whatever arrived would silently truncate the payload.
        def no_length(conn):
            conn.recv(65536)
            conn.sendall(b"HTTP/1.1 200 OK\r\n\r\n{\"sound\": true}")

        with one_shot_server(no_length) as port:
            with pytest.raises(ClientTruncationError, match="Content-Length"):
                service_client.request(
                    "127.0.0.1", port, "GET", "/healthz", timeout=5
                )

    def test_non_2xx_without_content_length_still_parses(self):
        def terse_error(conn):
            conn.recv(65536)
            conn.sendall(b"HTTP/1.1 422 Unprocessable\r\n\r\n{\"error\": \"no\"}")

        with one_shot_server(terse_error) as port:
            status, body = service_client.request(
                "127.0.0.1", port, "GET", "/healthz", timeout=5
            )
        assert status == 422
        assert body == b"{\"error\": \"no\"}"

    def test_short_body_is_truncation(self):
        def short_body(conn):
            conn.recv(65536)
            conn.sendall(
                b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nshort"
            )

        with one_shot_server(short_body) as port:
            with pytest.raises(
                ClientTruncationError, match="got 5 of 100 bytes"
            ):
                service_client.request(
                    "127.0.0.1", port, "GET", "/healthz", timeout=5
                )

    def test_cut_header_block_is_truncation(self):
        def cut_headers(conn):
            conn.recv(65536)
            conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Le")

        with one_shot_server(cut_headers) as port:
            with pytest.raises(
                ClientTruncationError, match="header terminator"
            ):
                service_client.request(
                    "127.0.0.1", port, "GET", "/healthz", timeout=5
                )

    def test_server_killed_mid_request_is_connection_error(self):
        # Regression: the server dies (RST) while the client is still
        # sending a large body.  The resulting BrokenPipeError /
        # ConnectionResetError after a *partial* send must surface as
        # the retryable ClientConnectionError, not a generic OSError.
        def kill_mid_request(conn):
            conn.recv(1024)
            conn.setsockopt(
                socket.SOL_SOCKET,
                socket.SO_LINGER,
                struct.pack("ii", 1, 0),  # RST on close
            )
            conn.close()

        body = b"x" * (32 * 1024 * 1024)  # far beyond the socket buffers
        with one_shot_server(kill_mid_request) as port:
            with pytest.raises(ClientConnectionError, match="died mid-"):
                service_client.request(
                    "127.0.0.1", port, "POST", "/audit", body, timeout=30
                )


# --------------------------------------------------------------------------
# Consistent hashing
# --------------------------------------------------------------------------


def _nodes(n):
    return [Node("10.0.0.%d" % i, 9000) for i in range(1, n + 1)]


KEYS = ["program-%d" % i for i in range(2000)]


class TestHashRing:
    def test_placement_is_insertion_order_independent(self):
        nodes = _nodes(4)
        forward = HashRing(nodes)
        backward = HashRing(reversed(nodes))
        for key in KEYS[:200]:
            assert forward.node_for(key) == backward.node_for(key)

    def test_every_node_owns_a_fair_share(self):
        ring = HashRing(_nodes(4))
        counts = {node: 0 for node in ring.nodes}
        for key in KEYS:
            counts[ring.node_for(key)] += 1
        for count in counts.values():
            assert count > len(KEYS) * 0.05

    def test_adding_a_node_moves_about_one_over_n(self):
        ring = HashRing(_nodes(4))
        before = {key: ring.node_for(key) for key in KEYS}
        newcomer = Node("10.0.0.99", 9000)
        ring.add(newcomer)
        moved = [key for key in KEYS if ring.node_for(key) != before[key]]
        # Expected 1/5 of the keys; allow generous slack either side.
        assert 0.05 < len(moved) / len(KEYS) < 0.45
        # Consistency: a key that moved can only have moved TO the
        # newcomer — no survivor's warm cache is invalidated.
        assert all(ring.node_for(key) == newcomer for key in moved)

    def test_removing_a_node_strands_only_its_keys(self):
        ring = HashRing(_nodes(4))
        before = {key: ring.node_for(key) for key in KEYS}
        victim = ring.nodes[0]
        ring.remove(victim)
        for key in KEYS:
            if before[key] != victim:
                assert ring.node_for(key) == before[key]

    def test_preference_tail_is_the_failover_order(self):
        ring = HashRing(_nodes(4))
        for key in KEYS[:50]:
            order = ring.preference(key)
            assert order[0] == ring.node_for(key)
            shrunk = HashRing(_nodes(4))
            shrunk.remove(order[0])
            assert shrunk.node_for(key) == order[1]

    def test_empty_ring_raises(self):
        with pytest.raises(FleetError, match="empty"):
            HashRing().node_for("anything")


class TestParseNodes:
    def test_commas_and_whitespace(self):
        assert parse_nodes("a:1,b:2 c:3") == (
            Node("a", 1), Node("b", 2), Node("c", 3),
        )

    def test_duplicates_collapse_order_preserved(self):
        assert parse_nodes(["a:1", "b:2", Node("a", 1)]) == (
            Node("a", 1), Node("b", 2),
        )

    @pytest.mark.parametrize(
        "bad", ["justahost", "a:notaport", "a:0", "a:70000", ""]
    )
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(FleetError):
            parse_nodes(bad)


# --------------------------------------------------------------------------
# The merge
# --------------------------------------------------------------------------


def _witness_payload(inputs):
    code, out = cli_json(
        ["witness", SAFEDIV, "--inputs", json.dumps(inputs), "--json",
         "--batch"]
    )
    assert code == 0
    return json.loads(out), out


def _sliced(inputs, lo, hi):
    return {name: rows[lo:hi] for name, rows in inputs.items()}


class TestMergeBatchPayloads:
    def test_merge_replicates_single_node_bytes(self):
        _, full_out = _witness_payload(WIDE_INPUTS)
        bounds = shard_bounds(20, 3)
        parts = [
            _witness_payload(_sliced(WIDE_INPUTS, lo, hi))[0]
            for lo, hi in zip(bounds, bounds[1:])
        ]
        merged = merge_batch_payloads(parts)
        assert render_payload(merged) + "\n" == full_out

    def test_merge_keeps_inline_fallbacks(self, monkeypatch):
        # A split used to drop the payload's inline_fallbacks section.
        # Its natural source, the P16 call pyramid of tests/test_compose.py,
        # costs ~5 s per batch audit, so every batch payload here gets
        # one section through the engine's own payload path instead.
        fallbacks = [{"callee": "P15", "reason": "size-cap", "sites": 2}]
        monkeypatch.setattr(
            repro_api.builtin, "_execution_fallbacks",
            lambda definition, program: fallbacks,
        )
        full, full_out = _witness_payload(WIDE_INPUTS)
        assert full["inline_fallbacks"] == fallbacks
        bounds = shard_bounds(20, 2)
        parts = [
            _witness_payload(_sliced(WIDE_INPUTS, lo, hi))[0]
            for lo, hi in zip(bounds, bounds[1:])
        ]
        assert render_payload(merge_batch_payloads(parts)) + "\n" == full_out

    def test_header_mismatch_is_loud(self):
        part, _ = _witness_payload(BATCH_INPUTS)
        other = dict(part)
        other["u"] = "2^-24"
        with pytest.raises(FleetError, match="'u' differs"):
            merge_batch_payloads([part, other])

    def test_bound_mismatch_is_loud(self):
        part, _ = _witness_payload(BATCH_INPUTS)
        other = json.loads(json.dumps(part))
        name = next(iter(other["params"]))
        other["params"][name]["bound"] = "9999"
        with pytest.raises(FleetError, match="bound for"):
            merge_batch_payloads([part, other])

    def test_non_batch_payload_is_rejected(self):
        code, out = cli_json(
            ["witness", SAFEDIV, "--inputs", json.dumps(SCALAR_INPUTS),
             "--json"]
        )
        assert code == 0
        with pytest.raises(FleetError, match="non-batch"):
            merge_batch_payloads([json.loads(out)])

    def test_nothing_to_merge(self):
        with pytest.raises(FleetError, match="nothing to merge"):
            merge_batch_payloads([])


# --------------------------------------------------------------------------
# Fleet dispatch against live nodes
# --------------------------------------------------------------------------


class TestFleetDispatch:
    def test_split_audit_byte_identical_to_single_node(self):
        _, golden = _witness_payload(WIDE_INPUTS)
        with fleet(3) as handles:
            dispatcher = FleetDispatcher(
                nodes_of(handles), min_rows_per_shard=4, spill_depth=None
            )
            body = dispatcher.audit_spec(
                {
                    "source": SAFEDIV_SOURCE,
                    "inputs": WIDE_INPUTS,
                    "engine": "batch",
                }
            )
        assert body == golden
        assert dispatcher.stats["split_audits"] == 1
        assert dispatcher.stats["sub_requests"] == 3

    def test_split_parses_each_sub_body_once(self, monkeypatch):
        # The schema check's parse is the merge's input: no sub-body is
        # parsed a second time.
        bodies = []
        parses = []
        audit, loads = service_client.audit, json.loads

        def recording_audit(*args, **kwargs):
            status, text = audit(*args, **kwargs)
            bodies.append(text)
            return status, text

        def counting_loads(text, *args, **kwargs):
            if any(text is body for body in bodies):
                parses.append(text)
            return loads(text, *args, **kwargs)

        monkeypatch.setattr(service_client, "audit", recording_audit)
        monkeypatch.setattr(json, "loads", counting_loads)
        _, golden = _witness_payload(WIDE_INPUTS)
        with fleet(3) as handles:
            dispatcher = FleetDispatcher(
                nodes_of(handles), min_rows_per_shard=4, spill_depth=None
            )
            body = dispatcher.audit_spec(
                {
                    "source": SAFEDIV_SOURCE,
                    "inputs": WIDE_INPUTS,
                    "engine": "batch",
                }
            )
        assert body == golden
        assert len(bodies) == 3
        for sub_body in bodies:
            assert sum(text is sub_body for text in parses) == 1

    def test_unsplit_small_batch_byte_identical(self):
        _, golden = _witness_payload(BATCH_INPUTS)
        with fleet(2) as handles:
            dispatcher = FleetDispatcher(
                nodes_of(handles), spill_depth=None
            )  # 3 rows < 2 * min_rows_per_shard: dispatch unsplit
            body = dispatcher.audit_spec(
                {
                    "source": SAFEDIV_SOURCE,
                    "inputs": BATCH_INPUTS,
                    "engine": "batch",
                }
            )
        assert body == golden
        assert dispatcher.stats["split_audits"] == 0
        assert dispatcher.stats["sub_requests"] == 1

    def test_same_program_lands_on_the_same_node(self):
        # Cache locality: repeated audits of one program hit one node's
        # prepared-program table, not a random node per request.
        with fleet(3) as handles:
            dispatcher = FleetDispatcher(
                nodes_of(handles), spill_depth=None
            )
            spec = {"source": SAFEDIV_SOURCE, "inputs": SCALAR_INPUTS}
            for _ in range(3):
                dispatcher.audit_spec(spec)
            audits = sorted(
                handle.server.stats["audits"] for handle in handles
            )
        assert audits == [0, 0, 3]

    def test_node_death_mid_batch_redispatches_bitwise_equal(self):
        _, golden = _witness_payload(WIDE_INPUTS)
        with fleet(3) as handles:
            dispatcher = FleetDispatcher(
                nodes_of(handles),
                min_rows_per_shard=4,
                retries=1,
                eject_after=1,
                spill_depth=None,
                sleep=lambda _s: None,
            )
            dispatcher.ensure_probed()  # all three healthy...
            dead = Node(handles[1].host, handles[1].port)
            handles[1].stop()  # ...then one dies mid-run
            body = dispatcher.audit_spec(
                {
                    "source": SAFEDIV_SOURCE,
                    "inputs": WIDE_INPUTS,
                    "engine": "batch",
                }
            )
        assert body == golden
        assert dead in dispatcher.ejected
        assert dispatcher.stats["failovers"] >= 1
        assert len(dispatcher.nodes) == 2

    def test_probe_ejects_unreachable_pool_up_front(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        dispatcher = FleetDispatcher(f"127.0.0.1:{port}", spill_depth=None)
        with pytest.raises(FleetError, match="no healthy nodes"):
            dispatcher.audit_spec(
                {"source": SAFEDIV_SOURCE, "inputs": SCALAR_INPUTS}
            )
        assert dispatcher.ejected

    def test_4xx_rejection_is_loud_not_retried(self):
        with fleet(2) as handles:
            dispatcher = FleetDispatcher(
                nodes_of(handles), spill_depth=None
            )
            with pytest.raises(FleetError, match="rejected the audit"):
                dispatcher.audit_spec(
                    {"source": "this is not bean", "inputs": {}}
                )
        # Deterministic rejection: no retry, no failover to the peer.
        assert dispatcher.stats["sub_requests"] == 1
        assert dispatcher.stats["failovers"] == 0

    def test_mixed_version_node_rejected_loudly(self):
        foreign = json.dumps(
            {"schema_version": 99, "definition": "SafeDiv4", "sound": True}
        ).encode("utf-8")
        head = (
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + str(len(foreign)).encode() + b"\r\n"
            b"Connection: close\r\n\r\n"
        )
        lsock = socket.socket()
        lsock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        lsock.bind(("127.0.0.1", 0))
        lsock.listen(5)
        port = lsock.getsockname()[1]
        stop = threading.Event()

        def run():
            while not stop.is_set():
                try:
                    conn, _ = lsock.accept()
                except OSError:
                    return
                with conn:
                    try:
                        conn.recv(65536)
                        conn.sendall(head + foreign)
                    except OSError:
                        pass

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        try:
            dispatcher = FleetDispatcher(
                f"127.0.0.1:{port}", spill_depth=None
            )
            with pytest.raises(FleetError, match="mixed-version fleet"):
                dispatcher.audit_spec(
                    {"source": SAFEDIV_SOURCE, "inputs": SCALAR_INPUTS}
                )
            assert Node("127.0.0.1", port) in dispatcher.ejected
        finally:
            stop.set()
            lsock.close()
            thread.join(timeout=10)

    @pytest.mark.parametrize("streamed", [False, True])
    def test_only_a_complete_answer_resets_node_health(
        self, monkeypatch, streamed
    ):
        # One rule for buffered and streamed sub-requests: a 5xx answer
        # neither counts as a connection failure nor clears the count;
        # a complete answer (validated body, drained stream) clears it.
        payload = repro_api.Session().audit(
            SAFEDIV_SOURCE, inputs=BATCH_INPUTS, engine="batch", rows=True
        ).payload
        body = render_payload(payload) + "\n"
        lines = [stream_header_of_payload(payload), *payload["rows"],
                 stream_trailer_of_payload(payload)]
        script = []

        def answer():
            step = script.pop(0)
            if step == "dead":
                raise ClientConnectionError("connection refused")
            if step == "busy":
                raise ClientStatusError(503, '{"error": "busy"}')

        def fake_audit(host, port, spec, timeout):
            try:
                answer()
            except ClientStatusError as exc:
                return exc.status, exc.body
            return 200, body

        def fake_stream(host, port, spec, timeout):
            answer()
            yield from lines

        monkeypatch.setattr(service_client, "audit", fake_audit)
        monkeypatch.setattr(service_client, "audit_stream", fake_stream)
        dispatcher = FleetDispatcher(
            "a:1", probe=False, retries=2, eject_after=2, spill_depth=None,
            sleep=lambda _s: None,
        )
        spec = {"source": SAFEDIV_SOURCE, "inputs": BATCH_INPUTS,
                "engine": "batch", "rows": True}

        def run():
            if streamed:
                stream = repro_api.RowStream(
                    dispatcher.audit_stream_spec(spec, split=False)
                )
                return stream.text + "\n"
            return dispatcher.audit_spec(spec, split=False)

        script[:] = ["dead", "ok"]
        assert run() == body
        script[:] = ["dead", "ok"]
        assert run() == body  # the answer cleared the first failure
        assert not dispatcher.ejected
        script[:] = ["dead", "busy", "dead"]
        with pytest.raises(FleetError, match="failed on every healthy"):
            run()
        assert Node("a", 1) in dispatcher.ejected
        assert dispatcher.stats["sub_requests"] == 7

    def test_spill_reroutes_a_backlogged_owner(self, monkeypatch):
        dispatcher = FleetDispatcher(
            "a:1,b:2", probe=False, spill_depth=4
        )
        baseline = dispatcher._route_order("some-program")
        owner, peer = baseline[0], baseline[1]
        depths = {owner: 9, peer: 0}
        monkeypatch.setattr(
            dispatcher, "_queue_depth", lambda node: depths[node]
        )
        assert dispatcher._route_order("some-program")[0] == peer
        assert dispatcher.stats["spills"] == 1
        depths[owner] = 3  # below spill_depth: locality wins again
        assert dispatcher._route_order("some-program")[0] == owner


# --------------------------------------------------------------------------
# The ``remote`` engine and its CLI surfaces
# --------------------------------------------------------------------------


class TestRemoteEngine:
    def test_session_audit_via_env_pool(self, remote_engine, monkeypatch):
        _, golden = _witness_payload(WIDE_INPUTS)
        with fleet(2) as handles:
            monkeypatch.setenv("REPRO_NODES", nodes_of(handles))
            result = repro_api.Session().audit(
                SAFEDIV_SOURCE, inputs=WIDE_INPUTS, engine="remote"
            )
            assert result.to_json() + "\n" == golden
            assert "fleet audit" in result.report.describe()
            assert nodes_of(handles).split(",")[0] in result.report.describe()

    def test_client_cli_byte_identical(self, remote_engine):
        _, golden = _witness_payload(WIDE_INPUTS)
        with fleet(2) as handles:
            code, out = cli_json(
                [
                    "client", SAFEDIV, "--engine", "remote",
                    "--nodes", nodes_of(handles),
                    "--inputs", json.dumps(WIDE_INPUTS),
                ]
            )
        assert out == golden
        assert code == 0

    def test_witness_cli_byte_identical(self, remote_engine):
        _, golden = _witness_payload(WIDE_INPUTS)
        with fleet(2) as handles:
            code, out = cli_json(
                [
                    "witness", SAFEDIV, "--engine", "remote",
                    "--nodes", nodes_of(handles),
                    "--inputs", json.dumps(WIDE_INPUTS), "--json",
                ]
            )
        assert out == golden
        assert code == 0

    def test_witness_cli_human_report(self, remote_engine):
        with fleet(1) as handles:
            code, out = cli_json(
                [
                    "witness", SAFEDIV, "--engine", "remote",
                    "--nodes", nodes_of(handles),
                    "--inputs", json.dumps(BATCH_INPUTS),
                ]
            )
        assert code == 0
        assert "fleet audit" in out
        assert "nodes" in out

    def test_unconfigured_remote_engine_fails_loudly(self, remote_engine):
        with pytest.raises(ValueError, match="node pool"):
            repro_api.Session().audit(
                SAFEDIV_SOURCE, inputs=SCALAR_INPUTS, engine="remote"
            )

    def test_client_cli_without_nodes_is_an_error(self, remote_engine, capsys):
        code, _out = cli_json(
            [
                "client", SAFEDIV, "--engine", "remote",
                "--inputs", json.dumps(SCALAR_INPUTS),
            ]
        )
        assert code == 1
        assert "needs a node pool" in capsys.readouterr().err


# --------------------------------------------------------------------------
# Nightly soak (opt-in: REPRO_SOAK=1)
# --------------------------------------------------------------------------


@pytest.mark.skipif(
    not os.environ.get("REPRO_SOAK"),
    reason="fleet soak is opt-in: set REPRO_SOAK=1",
)
class TestFleetSoak:
    def test_two_node_fleet_soak(self):
        clients = 4
        requests_each = 25
        _, golden_wide = _witness_payload(WIDE_INPUTS)
        _, golden_small = _witness_payload(BATCH_INPUTS)
        goldens = [
            (WIDE_INPUTS, golden_wide),
            (BATCH_INPUTS, golden_small),
        ]
        source = SAFEDIV_SOURCE
        failures = []
        with fleet(2) as handles:
            dispatcher = FleetDispatcher(
                nodes_of(handles), min_rows_per_shard=4, spill_depth=None
            )

            def worker(worker_id):
                for i in range(requests_each):
                    inputs, golden = goldens[(worker_id + i) % len(goldens)]
                    try:
                        body = dispatcher.audit_spec(
                            {
                                "source": source,
                                "inputs": inputs,
                                "engine": "batch",
                            }
                        )
                    except FleetError as exc:
                        failures.append((worker_id, i, str(exc)))
                        continue
                    if body != golden:
                        failures.append((worker_id, i, "byte mismatch"))

            threads = [
                threading.Thread(target=worker, args=(w,))
                for w in range(clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not failures
        assert dispatcher.stats["audits"] == clients * requests_each
        assert not dispatcher.ejected
