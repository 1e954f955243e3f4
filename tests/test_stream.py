"""Schema v4 streaming: rows on the wire, chunked NDJSON, fleet row merge.

Five contracts under test:

* **schema v4 strictness** — ``rows`` payloads stamp version 4,
  section-free payloads still stamp (and render) exactly as before, and
  ``from_json`` refuses every mislabelled version/section combination;
* **stream primitives** — chunk bounds, the associative trailer merge,
  the slice fold every row split merges through (folded slices render
  the whole audit; mismatched headers and bounds are refused), line
  classification, and :class:`~repro.api.stream.RowStream`
  protocol enforcement (no rows before the header, no duplicate
  trailer, no silent reassembly of a truncated stream);
* **parity** — a drained stream reassembles byte-identical to the
  buffered v4 payload: locally per engine, over HTTP, through the
  remote engine, and through a 4-node fleet split;
* **failure discipline** — a stream cut mid-chunk is
  :class:`~repro.service.client.ClientTruncationError` (never silently
  complete), a post-head server failure is an in-band ``stream_error``
  line, a sick node's already-delivered rows are skipped (not
  duplicated) on failover, and a mixed-version header is rejected with
  a permanent ejection;
* **pool healing** — an ejected node re-joins after its TTL once
  ``/healthz`` answers again, and a failed recheck re-arms the TTL.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import socket
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro import api as repro_api
from repro.api import Session
from repro.api.result import (
    BASE_SCHEMA_VERSION,
    SCHEMA_VERSION,
    STATIC_SCHEMA_VERSION,
    AuditResult,
    render_payload,
    render_stream_line,
    stream_header_of_payload,
    stream_trailer_of_payload,
)
from repro.api.stream import (
    RowStream,
    SliceFold,
    StreamProtocolError,
    chunk_bounds,
    events_of_lines,
    fold_slices,
    merge_stream_trailers,
    payload_events,
    ramp_chunk_bounds,
    stream_audit_events,
)
from repro.cli import _parse_precision_bits, main
from repro.service import client as service_client
from repro.service.client import ClientStatusError, ClientTruncationError
from repro.semantics.shard import shard_bounds
from repro.service.fleet import (
    FleetDispatcher,
    FleetError,
    HashRing,
    merge_batch_payloads,
    parse_nodes,
)
from repro.service.protocol import http_chunk, http_last_chunk, http_stream_head
from repro.service.server import AuditServer, serve

SOURCE = """DotProd2 (x : vec(2)) (y : vec(2)) : num :=
  let (x0, x1) = x in
  let (y0, y1) = y in
  let v = mul x0 y0 in
  let w = mul x1 y1 in
  add v w
"""


def dot_inputs(n):
    """``n`` deterministic DotProd2 rows with some variety per row."""
    return {
        "x": [[1.0 + 0.5 * i, 2.0 + i % 3] for i in range(n)],
        "y": [[3.0 - 0.25 * i, 4.0 + (i % 5) * 0.125] for i in range(n)],
    }


def buffered(inputs, engine="batch", **kwargs):
    return Session().audit(
        SOURCE, inputs=inputs, engine=engine, rows=True, **kwargs
    )


def cli_json(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


@contextlib.contextmanager
def fleet(n, **server_kwargs):
    """``n`` audit servers on ephemeral ports."""
    handles = []
    try:
        for _ in range(n):
            handles.append(serve(AuditServer(port=0, **server_kwargs)))
        yield handles
    finally:
        for handle in handles:
            try:
                handle.stop()
            except Exception:
                pass


def nodes_of(handles):
    return ",".join(f"{h.host}:{h.port}" for h in handles)


def stream_of(host, port, spec, **kwargs):
    return RowStream(
        events_of_lines(service_client.audit_stream(host, port, spec, **kwargs))
    )


@pytest.fixture()
def remote_engine(monkeypatch):
    monkeypatch.delenv("REPRO_NODES", raising=False)
    engine = repro_api.get_engine("remote")
    engine.configure(reset=True)
    yield engine
    engine.configure(reset=True)


@contextlib.contextmanager
def raw_server(handler, accepts=1):
    """A raw socket server feeding its first ``accepts`` connections to
    ``handler``; the listener closes right after, so later connection
    attempts are refused (not hung)."""
    lsock = socket.socket()
    lsock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    lsock.bind(("127.0.0.1", 0))
    lsock.listen(accepts)
    port = lsock.getsockname()[1]

    def run():
        for _ in range(accepts):
            try:
                conn, _ = lsock.accept()
            except OSError:
                return
            with conn:
                try:
                    handler(conn)
                except OSError:
                    pass
        lsock.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    try:
        yield port
    finally:
        try:
            lsock.close()
        except OSError:
            pass
        thread.join(timeout=10)


def drain_request(conn):
    """Read the client's request up to its JSON body (best effort)."""
    data = b""
    while b"\r\n\r\n" not in data:
        part = conn.recv(65536)
        if not part:
            return data
        data += part
    return data


# --------------------------------------------------------------------------
# Schema v4 strictness
# --------------------------------------------------------------------------


class TestSchemaV4:
    def test_rows_payload_stamps_v4_and_roundtrips(self):
        result = buffered(dot_inputs(4))
        payload = result.payload
        assert payload["schema_version"] == SCHEMA_VERSION
        assert len(payload["rows"]) == 4
        for index, row in enumerate(payload["rows"]):
            assert row["row"] == index
            assert set(row["distances"]) == set(payload["params"])
        again = AuditResult.from_json(result.to_json())
        assert again.to_json() == result.to_json()

    def test_section_free_payload_still_stamps_v2(self):
        result = Session().audit(
            SOURCE, inputs=dot_inputs(3), engine="batch"
        )
        assert result.payload["schema_version"] == BASE_SCHEMA_VERSION
        assert "rows" not in result.payload

    def test_from_json_rejects_v2_stamp_with_rows(self):
        payload = buffered(dot_inputs(2)).payload
        mislabelled = dict(payload, schema_version=BASE_SCHEMA_VERSION)
        with pytest.raises(ValueError, match="mislabelled"):
            AuditResult.from_json(json.dumps(mislabelled))

    def test_from_json_rejects_v3_stamp_with_rows(self):
        payload = buffered(dot_inputs(2)).payload
        mislabelled = dict(payload, schema_version=STATIC_SCHEMA_VERSION)
        with pytest.raises(ValueError, match="mislabelled"):
            AuditResult.from_json(json.dumps(mislabelled))

    def test_from_json_rejects_v4_stamp_without_rows(self):
        payload = dict(buffered(dot_inputs(2)).payload)
        del payload["rows"]
        with pytest.raises(ValueError, match="no 'rows' section"):
            AuditResult.from_json(json.dumps(payload))

    def test_from_json_rejects_unknown_version(self):
        payload = dict(buffered(dot_inputs(2)).payload, schema_version=9)
        with pytest.raises(ValueError, match="unsupported"):
            AuditResult.from_json(json.dumps(payload))

    def test_rows_require_a_capable_engine(self):
        with pytest.raises(ValueError, match="per-row witnesses"):
            Session().audit(
                SOURCE,
                inputs={"x": [1.0, 2.0], "y": [3.0, 4.0]},
                engine="interval",
                rows=True,
            )


# --------------------------------------------------------------------------
# Stream primitives
# --------------------------------------------------------------------------


class TestStreamPrimitives:
    def test_chunk_bounds(self):
        assert chunk_bounds(10, 4) == [0, 4, 8, 10]
        assert chunk_bounds(8, 4) == [0, 4, 8]
        assert chunk_bounds(3, 100) == [0, 3]
        assert chunk_bounds(0, 4) == [0, 0]
        with pytest.raises(ValueError):
            chunk_bounds(10, 0)

    def test_ramp_chunk_bounds_opens_small(self):
        assert ramp_chunk_bounds(10_000, 4096, 256) == [0, 256, 4352, 8448, 10_000]
        assert ramp_chunk_bounds(10, 4, 256) == [0, 4, 8, 10]  # small chunks keep
        assert ramp_chunk_bounds(100, 4096, 256) == [0, 100]
        assert ramp_chunk_bounds(0, 4096) == [0, 0]
        with pytest.raises(ValueError):
            ramp_chunk_bounds(10, 4, 0)

    def test_trailer_merge_is_associative_and_strict(self):
        payloads = [
            buffered(
                {k: v[lo:hi] for k, v in dot_inputs(9).items()}
            ).payload
            for lo, hi in ((0, 3), (3, 6), (6, 9))
        ]
        trailers = [stream_trailer_of_payload(p) for p in payloads]
        left = merge_stream_trailers(
            merge_stream_trailers(trailers[0], trailers[1]), trailers[2]
        )
        right = merge_stream_trailers(
            trailers[0], merge_stream_trailers(trailers[1], trailers[2])
        )
        assert left == right
        assert left == stream_trailer_of_payload(
            buffered(dot_inputs(9)).payload
        )
        bad = json.loads(json.dumps(trailers[0]))
        for entry in bad["params"].values():
            entry["bound"] = "1"
        with pytest.raises(StreamProtocolError, match="bound"):
            merge_stream_trailers(trailers[1], bad)

    def test_events_of_lines_requires_header_first(self):
        with pytest.raises(StreamProtocolError, match="header"):
            list(events_of_lines([{"row": 0, "sound": True}]))

    def test_events_of_lines_raises_on_stream_error_line(self):
        payload = buffered(dot_inputs(2)).payload
        lines = [
            stream_header_of_payload(payload),
            {"stream_error": "the pool caught fire"},
        ]
        with pytest.raises(StreamProtocolError, match="caught fire"):
            list(events_of_lines(lines))

    def test_rowstream_rejects_duplicate_trailer(self):
        payload = buffered(dot_inputs(2)).payload
        trailer = stream_trailer_of_payload(payload)
        events = [
            ("header", stream_header_of_payload(payload)),
            ("trailer", trailer),
            ("trailer", trailer),
        ]
        with pytest.raises(StreamProtocolError, match="duplicate"):
            for _ in RowStream(events).events():
                pass

    def test_rowstream_refuses_truncated_reassembly(self):
        payload = buffered(dot_inputs(2)).payload
        events = [
            ("header", stream_header_of_payload(payload)),
            ("row", payload["rows"][0]),
        ]
        stream = RowStream(events)
        with pytest.raises(StreamProtocolError, match="without a complete"):
            stream.payload()


# --------------------------------------------------------------------------
# The slice fold: every row split merges through one reducer
# --------------------------------------------------------------------------

#: Rows of the slice-fold property: every drawn audit is a prefix.
FOLD_ROWS = 12


@functools.lru_cache(maxsize=None)
def _slice_payload(lo, hi):
    """The buffered rows-on payload of rows ``[lo, hi)`` (cached: the
    property draws the same slices again and again)."""
    inputs = {k: v[lo:hi] for k, v in dot_inputs(FOLD_ROWS).items()}
    return buffered(inputs).payload


def _split_bounds():
    n_rows = st.integers(0, FOLD_ROWS)
    sizes = st.integers(1, FOLD_ROWS + 1)
    return st.one_of(
        st.builds(chunk_bounds, n_rows, sizes),
        st.builds(ramp_chunk_bounds, n_rows, sizes, sizes),
        st.builds(shard_bounds, n_rows, st.integers(1, 5)),
    )


class TestSliceFold:
    @settings(max_examples=25)
    @given(bounds=_split_bounds())
    def test_folded_slices_render_the_whole_audit(self, bounds):
        want = render_payload(_slice_payload(0, bounds[-1]))
        pairs = list(zip(bounds, bounds[1:]))
        merged = merge_batch_payloads(
            [_slice_payload(lo, hi) for lo, hi in pairs]
        )
        assert render_payload(merged) == want
        chunks = stream_audit_events(_slice_payload, bounds)
        stream = RowStream(event for events in chunks for event in events)
        assert stream.text == want

    def test_chunks_open_with_the_header_and_close_with_the_trailer(self):
        chunks = list(stream_audit_events(_slice_payload, [0, 4, 9]))
        assert [kind for kind, _ in chunks[0]] == ["header"] + ["row"] * 4
        assert [kind for kind, _ in chunks[1]] == ["row"] * 5 + ["trailer"]
        assert chunks[0][0][1]["n_rows"] == 9
        assert [obj["row"] for _, obj in chunks[1][:-1]] == list(range(4, 9))

    def test_mismatched_headers_are_refused(self):
        first, second = _slice_payload(0, 3), _slice_payload(3, 6)
        with pytest.raises(StreamProtocolError, match="'u' differs"):
            list(fold_slices(
                [0, 3, 6],
                [payload_events(first), payload_events(dict(second, u=0.5))],
            ))
        fallbacks = [{"callee": "F", "reason": "size-cap", "sites": 1}]
        with pytest.raises(
            StreamProtocolError, match="'inline_fallbacks' differs"
        ):
            list(fold_slices(
                [0, 3, 6],
                [
                    payload_events(first),
                    payload_events(dict(second, inline_fallbacks=fallbacks)),
                ],
            ))

    def test_mismatched_bounds_are_refused(self):
        slices = [_slice_payload(0, 3), _slice_payload(3, 6)]
        with pytest.raises(StreamProtocolError, match=r"bounds \[0, 2\)"):
            list(fold_slices([0, 2, 6], map(payload_events, slices)))
        with pytest.raises(StreamProtocolError, match="2 of 3 slice"):
            list(fold_slices([0, 3, 6, 9], map(payload_events, slices)))
        with pytest.raises(StreamProtocolError, match="more slices"):
            list(fold_slices([0, 3], map(payload_events, slices)))
        with pytest.raises(StreamProtocolError, match="rise from 0"):
            SliceFold([1, 3])
        with pytest.raises(StreamProtocolError, match="rise from 0"):
            SliceFold([0, 3, 2])


# --------------------------------------------------------------------------
# Local streamed == buffered parity
# --------------------------------------------------------------------------


class TestLocalStreamParity:
    @pytest.mark.parametrize("engine", ["batch", "sharded"])
    def test_streamed_reassembles_byte_identical(self, engine):
        inputs = dot_inputs(11)
        want = buffered(inputs, engine=engine).to_json()
        stream = Session().audit(
            SOURCE,
            inputs=inputs,
            engine=engine,
            stream=True,
            stream_chunk_rows=3,
        )
        assert isinstance(stream, RowStream)
        assert stream.text == want

    def test_rows_arrive_before_the_stream_drains(self):
        inputs = dot_inputs(6)
        stream = Session().audit(
            SOURCE,
            inputs=inputs,
            engine="batch",
            stream=True,
            stream_chunk_rows=1,
        )
        rows = stream.rows()
        first = next(rows)
        assert first["row"] == 0
        assert stream.trailer == {}  # far from drained
        assert stream.text == buffered(inputs).to_json()


# --------------------------------------------------------------------------
# Serving: chunked NDJSON over HTTP
# --------------------------------------------------------------------------


class TestServeStream:
    def test_http_stream_parity_and_framing(self):
        inputs = dot_inputs(13)
        want = buffered(inputs).to_json() + "\n"
        with fleet(1, stream_chunk_rows=4) as handles:
            lines = list(
                service_client.audit_stream(
                    handles[0].host,
                    handles[0].port,
                    {"source": SOURCE, "inputs": inputs, "engine": "batch",
                     "stream": True},
                )
            )
            assert lines[0]["n_rows"] == 13
            assert lines[0]["schema_version"] == SCHEMA_VERSION
            assert [obj["row"] for obj in lines[1:-1]] == list(range(13))
            assert "all_sound" in lines[-1]
            stream = RowStream(events_of_lines(iter(lines)))
            assert stream.text + "\n" == want

    def test_buffered_rows_over_http_match_local(self):
        inputs = dot_inputs(5)
        want = buffered(inputs).to_json() + "\n"
        with fleet(1) as handles:
            status, body = service_client.audit(
                handles[0].host,
                handles[0].port,
                {"source": SOURCE, "inputs": inputs, "engine": "batch",
                 "rows": True},
            )
        assert status == 200
        assert body == want

    def test_stream_refusals_are_normal_http_errors(self):
        with fleet(1) as handles:
            host, port = handles[0].host, handles[0].port

            def refusal(spec):
                with pytest.raises(ClientStatusError) as err:
                    list(service_client.audit_stream(host, port, spec))
                return err.value

            err = refusal(
                {"source": SOURCE, "inputs": dot_inputs(2),
                 "engine": "zap", "stream": True}
            )
            assert err.status == 400
            err = refusal(
                {"source": SOURCE, "inputs": {"x": 5, "y": [[1.0, 2.0]]},
                 "engine": "batch", "stream": True}
            )
            assert err.status == 400
            err = refusal(
                {"source": SOURCE,
                 "inputs": {"x": dot_inputs(3)["x"], "y": dot_inputs(2)["y"]},
                 "engine": "batch", "stream": True}
            )
            assert err.status == 400
            err = refusal(
                {"source": SOURCE, "inputs": dot_inputs(2),
                 "engine": "interval", "stream": True}
            )
            assert err.status == 422

    def test_zero_row_stream_is_header_plus_trailer(self):
        with fleet(1) as handles:
            lines = list(
                service_client.audit_stream(
                    handles[0].host,
                    handles[0].port,
                    {"source": SOURCE, "inputs": {"x": [], "y": []},
                     "engine": "batch", "stream": True},
                )
            )
        assert len(lines) == 2
        assert lines[0]["n_rows"] == 0
        assert lines[1]["all_sound"] is True
        assert lines[1]["sound_rows"] == 0

    def test_both_handlers_count_inline_fallbacks(self, monkeypatch):
        # Every batch payload gets one fallback section.  A real source
        # of it, the P16 call pyramid of tests/test_compose.py, costs
        # seconds per audit.
        fallbacks = [{"callee": "F", "reason": "size-cap", "sites": 3}]
        monkeypatch.setattr(
            repro_api.builtin, "_execution_fallbacks",
            lambda definition, program: fallbacks,
        )
        spec = {"source": SOURCE, "inputs": dot_inputs(5), "engine": "batch"}
        with fleet(1, stream_chunk_rows=2) as handles:
            host, port = handles[0].host, handles[0].port
            status, body = service_client.audit(host, port, spec)
            assert status == 200
            assert json.loads(body)["inline_fallbacks"] == fallbacks
            assert service_client.stats(host, port)["server"][
                "inline_fallback_sites"
            ] == 3
            lines = list(
                service_client.audit_stream(
                    host, port, dict(spec, stream=True)
                )
            )
            assert lines[0]["inline_fallbacks"] == fallbacks
            server = service_client.stats(host, port)["server"]
        assert server["inline_fallback_sites"] == 6
        assert server["audits"] == 2
        assert server["audits_streamed"] == 1

    def test_post_head_failure_is_a_stream_error_line(self):
        inputs = dot_inputs(10)
        inputs["x"][6] = [1.0]  # ragged row in a later chunk
        with fleet(1, stream_chunk_rows=2) as handles:
            stream = stream_of(
                handles[0].host,
                handles[0].port,
                {"source": SOURCE, "inputs": inputs, "engine": "batch",
                 "stream": True},
            )
            rows = stream.rows()
            assert next(rows)["row"] == 0  # the head and chunk 1 landed
            with pytest.raises(StreamProtocolError, match="aborted"):
                for _ in rows:
                    pass

    def test_sweep_bits_over_the_wire(self):
        inputs = dot_inputs(3)
        with fleet(1) as handles:
            host, port = handles[0].host, handles[0].port
            status, body = service_client.audit(
                host, port,
                {"source": SOURCE, "inputs": inputs, "engine": "sweep",
                 "sweep_bits": [8, 24]},
            )
            assert status == 200
            assert sorted(json.loads(body)["per_precision"]) == ["24", "8"]
            status, body = service_client.audit(
                host, port,
                {"source": SOURCE, "inputs": inputs, "engine": "sweep",
                 "sweep_bits": ["wide"]},
            )
            assert status == 400
            status, body = service_client.audit(
                host, port,
                {"source": SOURCE, "inputs": inputs, "engine": "sweep",
                 "sweep_bits": [24, 8]},
            )
            assert status == 422
            assert "strictly increasing" in json.loads(body)["error"]

    def test_bad_interval_hypothesis_is_422(self):
        with fleet(1) as handles:
            status, body = service_client.audit(
                handles[0].host,
                handles[0].port,
                {"source": SOURCE, "engine": "interval",
                 "inputs": {"x": "(1, 1]", "y": "[0, 1]"}},
            )
        assert status == 422
        assert "open end needs lo < hi" in json.loads(body)["error"]

    def test_truncated_chunk_raises_truncation_error(self):
        payload = buffered(dot_inputs(4)).payload
        head = http_stream_head()
        header_line = render_stream_line(stream_header_of_payload(payload))
        row_line = render_stream_line(payload["rows"][0])

        def handler(conn):
            drain_request(conn)
            conn.sendall(head)
            conn.sendall(http_chunk(header_line.encode("utf-8")))
            # A chunk frame that promises more bytes than it delivers.
            frame = http_chunk(row_line.encode("utf-8"))
            conn.sendall(frame[: len(frame) - 4])

        with raw_server(handler) as port:
            with pytest.raises(ClientTruncationError, match="truncated"):
                list(
                    service_client.audit_stream(
                        "127.0.0.1", port,
                        {"source": SOURCE, "inputs": dot_inputs(4),
                         "engine": "batch", "stream": True},
                        timeout=10.0,
                    )
                )

    def test_eof_without_terminal_chunk_raises_truncation_error(self):
        payload = buffered(dot_inputs(4)).payload

        def handler(conn):
            drain_request(conn)
            conn.sendall(http_stream_head())
            conn.sendall(
                http_chunk(
                    render_stream_line(
                        stream_header_of_payload(payload)
                    ).encode("utf-8")
                )
            )
            # Close without the 0-length terminal chunk.

        with raw_server(handler) as port:
            with pytest.raises(ClientTruncationError):
                list(
                    service_client.audit_stream(
                        "127.0.0.1", port,
                        {"source": SOURCE, "inputs": dot_inputs(4),
                         "engine": "batch", "stream": True},
                        timeout=10.0,
                    )
                )


# --------------------------------------------------------------------------
# Fleet: split streams, retry-with-skip, version policing
# --------------------------------------------------------------------------


class TestFleetStream:
    def test_split_stream_is_byte_identical_to_single_node(self):
        inputs = dot_inputs(22)
        want = buffered(inputs).to_json()
        with fleet(4, stream_chunk_rows=3) as handles:
            dispatcher = FleetDispatcher(
                nodes_of(handles), min_rows_per_shard=4, sleep=lambda s: None
            )
            stream = RowStream(
                dispatcher.audit_stream_spec(
                    {"source": SOURCE, "inputs": inputs, "engine": "batch"},
                    split=True,
                )
            )
            assert stream.text == want
            assert [row["row"] for row in stream.payload()["rows"]] == list(
                range(22)
            )
            assert dispatcher.stats["stream_audits"] == 1
            assert dispatcher.stats["sub_requests"] >= 4

    def test_unsplit_stream_is_byte_identical(self):
        inputs = dot_inputs(7)
        want = buffered(inputs).to_json()
        with fleet(2, stream_chunk_rows=2) as handles:
            dispatcher = FleetDispatcher(
                nodes_of(handles), sleep=lambda s: None
            )
            stream = RowStream(
                dispatcher.audit_stream_spec(
                    {"source": SOURCE, "inputs": inputs, "engine": "batch"},
                    split=False,
                )
            )
            assert stream.text == want

    def test_dead_node_fails_over_and_stream_stays_identical(self):
        inputs = dot_inputs(18)
        want = buffered(inputs).to_json()
        with fleet(3, stream_chunk_rows=4) as handles:
            dispatcher = FleetDispatcher(
                nodes_of(handles),
                min_rows_per_shard=4,
                eject_after=1,
                sleep=lambda s: None,
            )
            dispatcher.ensure_probed()
            handles[0].stop()
            stream = RowStream(
                dispatcher.audit_stream_spec(
                    {"source": SOURCE, "inputs": inputs, "engine": "batch"},
                    split=True,
                )
            )
            assert stream.text == want

    def test_failover_skips_rows_the_sick_node_delivered(self):
        inputs = dot_inputs(6)
        payload = buffered(inputs).payload
        want = render_payload(payload)
        partial = (
            http_stream_head()
            + http_chunk(
                render_stream_line(
                    stream_header_of_payload(payload)
                ).encode("utf-8")
            )
            + http_chunk(
                "".join(
                    render_stream_line(row) for row in payload["rows"][:2]
                ).encode("utf-8")
            )
        )

        def handler(conn):
            drain_request(conn)
            conn.sendall(partial)
            # Drop the connection mid-stream: no trailer, no terminal chunk.

        with fleet(1, stream_chunk_rows=2) as handles:
            with raw_server(handler) as sick_port:
                nodes = parse_nodes(
                    f"127.0.0.1:{sick_port},{nodes_of(handles)}"
                )
                sick = nodes[0]
                ring = HashRing(nodes)
                fingerprint = next(
                    f"key{i}"
                    for i in range(512)
                    if ring.preference(f"key{i}")[0] == sick
                )
                dispatcher = FleetDispatcher(
                    nodes,
                    probe=False,
                    retries=0,
                    eject_after=1,
                    sleep=lambda s: None,
                )
                stream = RowStream(
                    dispatcher.audit_stream_spec(
                        {"source": SOURCE, "inputs": inputs,
                         "engine": "batch"},
                        fingerprint=fingerprint,
                        split=False,
                    )
                )
                assert stream.text == want
                rows = stream.payload()["rows"]
                assert [row["row"] for row in rows] == list(range(6))
                assert dispatcher.stats["failovers"] >= 1

    def test_mixed_version_header_is_rejected_permanently(self):
        payload = buffered(dot_inputs(2)).payload
        header = dict(stream_header_of_payload(payload), schema_version=3)
        body = (
            http_stream_head()
            + http_chunk(render_stream_line(header).encode("utf-8"))
            + http_chunk(
                "".join(
                    render_stream_line(row) for row in payload["rows"]
                ).encode("utf-8")
            )
            + http_chunk(
                render_stream_line(
                    stream_trailer_of_payload(payload)
                ).encode("utf-8")
            )
            + http_last_chunk()
        )

        def handler(conn):
            drain_request(conn)
            conn.sendall(body)

        with raw_server(handler) as port:
            dispatcher = FleetDispatcher(
                f"127.0.0.1:{port}",
                probe=False,
                retries=0,
                rejoin_after_s=0.0,
                sleep=lambda s: None,
            )
            with pytest.raises(FleetError, match="schema"):
                for _ in dispatcher.audit_stream_spec(
                    {"source": SOURCE, "inputs": dot_inputs(2),
                     "engine": "batch"},
                    split=False,
                ):
                    pass
            assert len(dispatcher.ejected) == 1
            # Permanent: even a zero TTL never re-admits this build.
            with pytest.raises(FleetError):
                dispatcher.audit_spec(
                    {"source": SOURCE, "inputs": dot_inputs(2),
                     "engine": "batch"}
                )
            assert dispatcher.stats["rejoins"] == 0

    def test_remote_engine_streams_and_matches_buffered(self, remote_engine):
        inputs = dot_inputs(9)
        with fleet(2, stream_chunk_rows=2) as handles:
            remote_engine.configure(
                nodes_of(handles), sleep=lambda s: None
            )
            session = Session()
            want = session.audit(
                SOURCE, inputs=inputs, engine="remote", rows=True
            ).to_json()
            stream = session.audit(
                SOURCE, inputs=inputs, engine="remote", stream=True
            )
            assert isinstance(stream, RowStream)
            assert stream.text == want
            assert stream.text == buffered(inputs).to_json()


# --------------------------------------------------------------------------
# Pool healing: ejected nodes re-join after their TTL
# --------------------------------------------------------------------------


class TestRejoin:
    def test_node_rejoins_after_healthz_recovers(self):
        inputs = dot_inputs(16)
        want = buffered(inputs).to_json() + "\n"
        spec = {"source": SOURCE, "inputs": inputs, "engine": "batch",
                "rows": True}
        with fleet(2) as handles:
            dispatcher = FleetDispatcher(
                nodes_of(handles),
                min_rows_per_shard=4,
                eject_after=1,
                rejoin_after_s=0.0,
                sleep=lambda s: None,
            )
            assert dispatcher.audit_spec(spec, split=True) == want
            dead_port = handles[0].port
            handles[0].stop()
            assert dispatcher.audit_spec(spec, split=True) == want
            assert len(dispatcher.ejected) == 1

            # Still down: the recheck fails and the node stays ejected.
            assert dispatcher.audit_spec(spec, split=True) == want
            assert len(dispatcher.ejected) == 1
            assert dispatcher.stats["rejoins"] == 0

            revived = serve(AuditServer(port=dead_port))
            try:
                assert dispatcher.audit_spec(spec, split=True) == want
                assert dispatcher.stats["rejoins"] == 1
                assert dispatcher.ejected == {}
            finally:
                revived.stop()


# --------------------------------------------------------------------------
# CLI: --stream, --rows, --precision-bits
# --------------------------------------------------------------------------


class TestCli:
    def test_parse_precision_bits(self):
        assert _parse_precision_bits("53") == (53, None)
        assert _parse_precision_bits("8,16,24,53") == (None, [8, 16, 24, 53])
        assert _parse_precision_bits("8,") == (None, [8])  # lenient comma
        for bad in ("", "x", "8;16", "8,x"):
            with pytest.raises(ValueError, match="--precision-bits"):
                _parse_precision_bits(bad)

    def test_witness_rows_and_precision_list(self, tmp_path):
        path = tmp_path / "dot.bean"
        path.write_text(SOURCE)
        inputs = json.dumps(dot_inputs(3))
        code, out = cli_json(
            ["witness", str(path), "--batch", "--inputs", inputs,
             "--rows", "--json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert len(payload["rows"]) == 3
        code, out = cli_json(
            ["witness", str(path), "--engine", "sweep", "--inputs", inputs,
             "--precision-bits", "8,24", "--json"]
        )
        assert code == 0
        assert sorted(json.loads(out)["per_precision"]) == ["24", "8"]

    def test_witness_rejects_bad_precision_list(self, tmp_path, capsys):
        path = tmp_path / "dot.bean"
        path.write_text(SOURCE)
        code = main(
            ["witness", str(path), "--engine", "sweep",
             "--inputs", json.dumps(dot_inputs(2)),
             "--precision-bits", "24,8"]
        )
        assert code == 1
        assert "strictly increasing" in capsys.readouterr().err

    def test_client_stream_prints_ndjson(self, tmp_path, capsys):
        path = tmp_path / "dot.bean"
        path.write_text(SOURCE)
        inputs = dot_inputs(5)
        with fleet(1, stream_chunk_rows=2) as handles:
            code = main(
                ["client", str(path),
                 "--host", handles[0].host,
                 "--port", str(handles[0].port),
                 "--inputs", json.dumps(inputs),
                 "--engine", "batch", "--stream"]
            )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5 + 2
        header = json.loads(lines[0])
        assert header["n_rows"] == 5
        assert json.loads(lines[-1])["all_sound"] is True
        reassembled = RowStream(
            events_of_lines(json.loads(line) for line in lines)
        )
        assert reassembled.text == buffered(inputs).to_json()


# --------------------------------------------------------------------------
# Interval hypotheses (satellite: per-leaf and open/half-open bounds)
# --------------------------------------------------------------------------


class TestIntervalHypotheses:
    def test_hypotheses_echoed_in_static_bounds(self):
        result = Session().audit(
            SOURCE,
            inputs={"x": "(0, 1000]", "y": ["[1, 2]", "(0.5, 5)"]},
            engine="interval",
        )
        bounds = result.payload["static_bounds"]
        assert bounds["input_hypotheses"] == {
            "x": "(0.0, 1000.0]",
            "y": ["[1.0, 2.0]", "(0.5, 5.0)"],
        }
        assert bounds["input_ranges"]["x"] == [0.0, 1000.0]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("(1, 1]", "open end needs lo < hi"),
            ("[2, 1]", "lo > hi"),
            ("zap]", "expected brackets"),
            ("(0, inf)", "finite"),
        ],
    )
    def test_bad_hypotheses_raise_value_error(self, text, message):
        with pytest.raises(ValueError, match=message):
            Session().audit(
                SOURCE, inputs={"x": text, "y": "[0, 1]"}, engine="interval"
            )

    def test_per_leaf_count_must_match_the_type(self):
        with pytest.raises(ValueError, match="2 numeric leaf"):
            Session().audit(
                SOURCE,
                inputs={"x": ["[1, 2]"], "y": "[0, 1]"},
                engine="interval",
            )
