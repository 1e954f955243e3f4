"""Row-stream plumbing: chunked producers and the ``RowStream`` consumer.

The v5 ``rows`` section (:mod:`repro.api.result`) defines *what* a
per-row witness looks like; this module defines *how* a sequence of
them flows.  A stream is an ordered series of events — one
``("header", {...})``, then ``("row", {...})`` per environment, then
one ``("trailer", {...})`` — matching the three NDJSON line kinds of
the serving layer one-to-one.

:func:`stream_audit_events` is the producer side: it slices a batch
audit into row-contiguous chunks, audits each chunk through a caller
-supplied closure, and emits events as chunks finish — holding only the
running trailer aggregates, never the full row set, which is what keeps
the server's memory bounded on 100k-row audits.  The aggregate merge
replicates the fleet/shard discipline byte for byte
(:func:`merge_stream_trailers`), so a fully drained stream reassembles
into the exact buffered payload via
:func:`~repro.api.result.assemble_stream_payload`.

:class:`RowStream` is the consumer side: iterate it for rows as they
arrive (the point of streaming — the first verdict lands long before
the audit finishes), then ask ``result()`` / ``text`` for the
reassembled :class:`~repro.api.result.AuditResult`, byte-identical to
the buffered audit of the same request.
"""

from __future__ import annotations

from decimal import Decimal
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from .result import (
    AuditResult,
    assemble_stream_payload,
    render_payload,
    render_stream_line,
    stream_header_of_payload,
    stream_trailer_of_payload,
)

__all__ = [
    "DEFAULT_CHUNK_ROWS",
    "RowStream",
    "StreamProtocolError",
    "batch_row_count",
    "chunk_bounds",
    "events_of_lines",
    "merge_stream_trailers",
    "stream_audit_events",
    "stream_lines",
]

#: Rows per chunk of a streamed audit: small enough that the first
#: verdicts arrive early on large batches, large enough that the
#: per-chunk engine setup amortizes.
DEFAULT_CHUNK_ROWS = 4096

#: Rows in the *opening* chunk of a ramped schedule: the first verdict
#: should cost one small audit, not a full :data:`DEFAULT_CHUNK_ROWS`
#: slice — per-chunk setup is paid once either way, so a short opener
#: trims first-row latency without hurting throughput on the tail.
DEFAULT_FIRST_CHUNK_ROWS = 256

_DEC_ZERO = Decimal(0)

#: One stream event: ``("header" | "row" | "trailer", line_object)``.
StreamEvent = Tuple[str, Dict[str, Any]]


class StreamProtocolError(ValueError):
    """A row stream violated the header/rows/trailer protocol (missing
    header, server-side abort line, trailing garbage).  Subclasses
    ``ValueError`` so every surface's existing error rendering (CLI
    ``error:`` line, HTTP 422) applies unchanged."""


def batch_row_count(inputs: Mapping[str, Any]) -> int:
    """The common row count of batch-shaped inputs (one row sequence
    per parameter); ``ValueError`` when there is none."""
    n_rows: Optional[int] = None
    for name, value in inputs.items():
        try:
            if isinstance(value, (str, bytes, Mapping)):
                raise TypeError(value)
            length = len(value)
        except TypeError:
            raise ValueError(
                "streaming needs batch-shaped inputs (one row list per "
                f"parameter); {name!r} has no row count"
            ) from None
        if n_rows is None:
            n_rows = length
        elif length != n_rows:
            raise ValueError(
                f"input rows disagree: {name!r} has {length} row(s), "
                f"other inputs have {n_rows}"
            )
    if n_rows is None:
        raise ValueError("streaming needs at least one input column")
    return n_rows


def chunk_bounds(n_rows: int, chunk_rows: int) -> List[int]:
    """Contiguous chunk boundaries: increasing offsets, every chunk
    ``chunk_rows`` long except a shorter last one.  Zero rows still
    produce one empty chunk, so the stream always has a header and a
    trailer."""
    if chunk_rows < 1:
        raise ValueError("chunk_rows must be >= 1")
    if n_rows < 0:
        raise ValueError("n_rows must be >= 0")
    if n_rows == 0:
        return [0, 0]
    bounds = list(range(0, n_rows, chunk_rows))
    bounds.append(n_rows)
    return bounds


def ramp_chunk_bounds(
    n_rows: int,
    chunk_rows: int,
    first_rows: int = DEFAULT_FIRST_CHUNK_ROWS,
) -> List[int]:
    """:func:`chunk_bounds` with a shorter opening chunk.

    The first chunk is ``min(chunk_rows, first_rows)`` rows, the rest
    are ``chunk_rows`` — so a large streamed audit emits its first
    verdicts after a small audit rather than a full-size one.  The
    chunk-by-chunk trailer merge is associative, so the schedule never
    changes the reassembled payload.
    """
    if first_rows < 1:
        raise ValueError("first_rows must be >= 1")
    first = min(chunk_rows, first_rows)
    if n_rows <= first:
        return chunk_bounds(n_rows, chunk_rows)
    return [0] + [first + b for b in chunk_bounds(n_rows - first, chunk_rows)]


def merge_stream_trailers(
    a: Dict[str, Any], b: Dict[str, Any]
) -> Dict[str, Any]:
    """Fold two trailer aggregates into one, fleet-merge style.

    Verdict counters add, ``all_sound`` conjoins, and each parameter's
    max distance starts at ``Decimal(0)`` and advances only on
    strictly-greater comparison — the first operand attaining the
    maximum supplies the rendered string, exactly as the first *row*
    attaining it does in a buffered run.  Associative, which is what
    makes incremental chunk-by-chunk merging equal to the one-shot
    merge (and to the buffered aggregates).
    """
    params: Dict[str, Any] = {}
    if set(a["params"]) != set(b["params"]):
        raise StreamProtocolError(
            "cannot merge stream trailers: parameter sets differ"
        )
    for name, entry_a in a["params"].items():
        entry_b = b["params"][name]
        bound_text = entry_a["bound"]
        if entry_b["bound"] != bound_text:
            raise StreamProtocolError(
                f"cannot merge stream trailers: bound for {name!r} differs "
                f"({bound_text!r} vs {entry_b['bound']!r})"
            )
        best = _DEC_ZERO
        best_text = str(_DEC_ZERO)
        for entry in (entry_a, entry_b):
            distance = Decimal(entry["max_distance"])
            if distance > best:
                best = distance
                best_text = entry["max_distance"]
        params[name] = {
            "max_distance": best_text,
            "bound": bound_text,
            "within_bound": best <= Decimal(bound_text),
        }
    return {
        "all_sound": bool(a["all_sound"] and b["all_sound"]),
        "sound_rows": a["sound_rows"] + b["sound_rows"],
        "fallback_rows": a["fallback_rows"] + b["fallback_rows"],
        "params": params,
    }


def stream_audit_events(
    audit_chunk: Callable[[int, int], Dict[str, Any]],
    n_rows: int,
    *,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> Iterator[StreamEvent]:
    """Stream one batch audit as chunked header/row/trailer events.

    ``audit_chunk(lo, hi)`` must return the complete buffered **v5**
    payload of rows ``[lo, hi)`` (the caller slices its inputs; the
    payload must carry a ``rows`` section).  The header goes out as
    soon as the first chunk finishes — with ``n_rows`` overridden to
    the full request's row count — each chunk's rows follow re-anchored
    at their global indices, and the trailer is the running aggregate
    merge over every chunk.  Memory held between chunks is O(params),
    not O(rows).
    """
    bounds = chunk_bounds(n_rows, chunk_rows)
    aggregate: Dict[str, Any] = {}
    for chunk_index, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        payload = audit_chunk(lo, hi)
        if payload.get("rows") is None:
            raise StreamProtocolError(
                "audit_chunk returned a payload without a rows section"
            )
        if chunk_index == 0:
            header = dict(stream_header_of_payload(payload))
            header["n_rows"] = n_rows
            yield ("header", header)
            aggregate = stream_trailer_of_payload(payload)
        else:
            aggregate = merge_stream_trailers(
                aggregate, stream_trailer_of_payload(payload)
            )
        for row in payload["rows"]:
            # Re-anchor the chunk-local index at the chunk offset; the
            # dict splat keeps "row" in its leading key position.
            yield ("row", {**row, "row": row["row"] + lo})
    yield ("trailer", aggregate)


def stream_lines(events: Iterable[StreamEvent]) -> Iterator[str]:
    """Render a stream of events as canonical NDJSON lines."""
    for _, obj in events:
        yield render_stream_line(obj)


def events_of_lines(
    lines: Iterable[Dict[str, Any]],
) -> Iterator[StreamEvent]:
    """Classify parsed NDJSON stream lines back into events.

    The first line must be the header (it carries ``schema_version``);
    lines with an explicit ``row`` index are rows; any other line is
    the trailer.  A ``stream_error`` line — the server aborting
    mid-stream — raises :class:`StreamProtocolError` with the server's
    message.
    """
    seen_header = False
    for obj in lines:
        if not isinstance(obj, dict):
            raise StreamProtocolError(
                f"stream line is not a JSON object: {obj!r}"
            )
        if "stream_error" in obj:
            raise StreamProtocolError(
                f"server aborted the stream: {obj['stream_error']}"
            )
        if not seen_header:
            if "schema_version" not in obj or "n_rows" not in obj:
                raise StreamProtocolError(
                    "stream did not begin with a header line"
                )
            seen_header = True
            yield ("header", obj)
        elif "row" in obj:
            yield ("row", obj)
        else:
            yield ("trailer", obj)


class RowStream:
    """An incrementally consumable row audit.

    Iterate it (or call :meth:`rows`) to receive per-row witness dicts
    as the producer emits them; the header and trailer are captured on
    the way through (``header`` / ``trailer`` attributes).  After the
    stream drains, :meth:`result` reassembles the canonical buffered
    :class:`~repro.api.result.AuditResult` — ``text`` is its rendering,
    byte-identical to the non-streamed audit of the same request.
    Calling :meth:`result` first simply drains the rest of the stream.

    A stream that ends without a complete header/trailer (a node died
    mid-stream and retries ran out) raises
    :class:`StreamProtocolError` at reassembly — truncation never
    reassembles silently.
    """

    def __init__(self, events: Iterable[StreamEvent]) -> None:
        self._events = iter(events)
        self.header: Dict[str, Any] = {}
        self.trailer: Dict[str, Any] = {}
        self._rows: List[Dict[str, Any]] = []
        self._payload: Dict[str, Any] = {}

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return self.rows()

    def events(self) -> Iterator[StreamEvent]:
        """Consume and relay raw events, recording header/rows/trailer.

        Each call resumes the one underlying producer, so partial
        iteration followed by :meth:`result` picks up where it left
        off.
        """
        for kind, obj in self._events:
            if kind == "header":
                if self.header:
                    raise StreamProtocolError("duplicate stream header")
                self.header = obj
            elif kind == "row":
                if not self.header:
                    raise StreamProtocolError("row before the stream header")
                if self.trailer:
                    raise StreamProtocolError("row after the stream trailer")
                self._rows.append(obj)
            elif kind == "trailer":
                if self.trailer:
                    raise StreamProtocolError("duplicate stream trailer")
                self.trailer = obj
            else:
                raise StreamProtocolError(
                    f"unknown stream event kind {kind!r}"
                )
            yield kind, obj

    def rows(self) -> Iterator[Dict[str, Any]]:
        """Yield per-row witnesses as they arrive."""
        for kind, obj in self.events():
            if kind == "row":
                yield obj

    def lines(self) -> Iterator[str]:
        """Yield the stream as canonical NDJSON lines (CLI ``--stream``)."""
        for event in self.events():
            yield render_stream_line(event[1])

    def payload(self) -> Dict[str, Any]:
        """Drain the stream and reassemble the buffered v5 payload."""
        if not self._payload:
            for _ in self.events():
                pass
            if not self.header or not self.trailer:
                raise StreamProtocolError(
                    "stream ended without a complete header and trailer"
                )
            self._payload = assemble_stream_payload(
                self.header, self._rows, self.trailer
            )
        return self._payload

    def result(self) -> AuditResult:
        """Drain and reassemble into the canonical :class:`AuditResult`."""
        payload = self.payload()
        return AuditResult(
            report=None,
            payload=payload,
            sound=bool(payload["all_sound"]),
            batch=True,
        )

    @property
    def text(self) -> str:
        """The drained stream's buffered rendering (no trailing newline)."""
        return render_payload(self.payload())
