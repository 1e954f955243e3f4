"""Row-stream plumbing: the slice fold, chunked producers and ``RowStream``.

The v5 ``rows`` section (:mod:`repro.api.result`) defines *what* a
per-row witness looks like; this module defines *how* a sequence of
them flows.  A stream is an ordered series of events — one
``("header", {...})``, then ``("row", {...})`` per environment, then
one ``("trailer", {...})`` — matching the three NDJSON line kinds of
the serving layer one-to-one.

:class:`SliceFold` is the one merge of row slices.  A batch audit cut
into row-contiguous slices — a local stream's chunks, a served
stream's chunks, a fleet's split sub-requests, buffered or streamed —
comes back together through it: one header with the whole request's
``n_rows`` (later headers must match it), rows re-anchored at their
slice's offset, and trailers folded by :func:`merge_stream_trailers`,
whose strictly-greater maximum picks the same rendered distance a
buffered run does.  :func:`fold_slices` runs it over a whole sequence
of slices; :func:`payload_events` turns a buffered payload into one.

:func:`stream_audit_events` is the producer side: it audits a batch
chunk by chunk through a caller-supplied closure and the caller's
chunk schedule, yielding each chunk's events as it finishes — holding
only the running trailer aggregates, never the full row set, which is
what keeps the server's memory bounded on 100k-row audits.  A fully
drained stream reassembles into the exact buffered payload via
:func:`~repro.api.result.assemble_stream_payload`.

:class:`RowStream` is the consumer side: iterate it for rows as they
arrive (the point of streaming — the first verdict lands long before
the audit finishes), then ask ``result()`` / ``text`` for the
reassembled :class:`~repro.api.result.AuditResult`, byte-identical to
the buffered audit of the same request.
"""

from __future__ import annotations

from decimal import Decimal
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

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
    "SliceFold",
    "StreamProtocolError",
    "batch_row_count",
    "chunk_bounds",
    "events_of_lines",
    "fold_slices",
    "merge_stream_trailers",
    "payload_events",
    "ramp_chunk_bounds",
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
_MISSING = object()

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
    """Fold two trailer aggregates into one.

    Verdict counters add, ``all_sound`` conjoins, and each parameter's
    max distance starts at ``Decimal(0)`` and advances only on
    strictly-greater comparison — the first operand attaining the
    maximum supplies the rendered string, exactly as the first *row*
    attaining it does in a buffered run.  Associative, which is what
    makes incremental slice-by-slice merging equal to the one-shot
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


def payload_events(payload: Dict[str, Any]) -> Iterator[StreamEvent]:
    """A buffered batch payload as one slice's stream events: its
    header, its rows (none when it carries no ``rows`` section) and its
    trailer."""
    yield ("header", stream_header_of_payload(payload))
    for row in payload.get("rows") or ():
        yield ("row", row)
    yield ("trailer", stream_trailer_of_payload(payload))


class SliceFold:
    """The one merge of row slices into the whole audit's stream.

    ``bounds`` are the slices' row offsets (``[0, ..., n_rows]``, as
    :func:`chunk_bounds`, :func:`ramp_chunk_bounds` or
    :func:`~repro.semantics.shard.shard_bounds` give them).  Feed the
    slices in row order to :meth:`slice`, each as its header, rows and
    trailer events.  The first header goes out with ``n_rows`` set to
    the whole request's count; every later header must equal it,
    ``n_rows`` aside; each slice's header must count exactly the rows
    its bounds hold.  Rows are re-anchored at their slice's offset, and
    :meth:`trailer` is the :func:`merge_stream_trailers` fold of every
    slice's trailer.  Any mismatch raises :class:`StreamProtocolError`.
    """

    __slots__ = ("_bounds", "_next", "_head", "_trailer")

    def __init__(self, bounds: Sequence[int]) -> None:
        if (
            len(bounds) < 2
            or bounds[0] != 0
            or any(hi < lo for lo, hi in zip(bounds, bounds[1:]))
        ):
            raise StreamProtocolError(
                f"row-slice bounds must rise from 0: {list(bounds)!r}"
            )
        self._bounds = bounds
        self._next = 0
        self._head: Optional[Dict[str, Any]] = None
        self._trailer: Optional[Dict[str, Any]] = None

    def slice(self, events: Iterable[StreamEvent]) -> Iterator[StreamEvent]:
        """Fold the next slice; yield the events it adds to the whole
        stream (the header, first slice only, then its rows)."""
        index = self._next
        if index + 1 >= len(self._bounds):
            raise StreamProtocolError(
                "cannot merge row slices: more slices than the bounds hold"
            )
        self._next += 1
        lo, hi = self._bounds[index], self._bounds[index + 1]
        trailer: Optional[Dict[str, Any]] = None
        for kind, obj in events:
            if kind == "row":
                # The dict splat keeps "row" in its leading key position.
                yield ("row", {**obj, "row": obj["row"] + lo})
            elif kind == "header":
                if obj.get("n_rows") != hi - lo:
                    raise StreamProtocolError(
                        f"cannot merge row slices: slice {index} has "
                        f"{obj.get('n_rows')!r} row(s), its bounds "
                        f"[{lo}, {hi}) hold {hi - lo}"
                    )
                if self._head is None:
                    self._head = obj
                    yield ("header", {**obj, "n_rows": self._bounds[-1]})
                else:
                    _check_same_header(self._head, obj)
            else:
                trailer = obj
        if trailer is None:
            raise StreamProtocolError(
                f"cannot merge row slices: slice {index} has no trailer"
            )
        self._trailer = (
            trailer
            if self._trailer is None
            else merge_stream_trailers(self._trailer, trailer)
        )

    def trailer(self) -> StreamEvent:
        """The merged trailer event, once every slice is folded."""
        slices = len(self._bounds) - 1
        if self._trailer is None or self._next != slices:
            raise StreamProtocolError(
                f"cannot merge row slices: {self._next} of {slices} "
                "slice(s) arrived"
            )
        return ("trailer", self._trailer)


def _check_same_header(first: Dict[str, Any], other: Dict[str, Any]) -> None:
    for key in {**first, **other}:
        if key != "n_rows" and first.get(key, _MISSING) != other.get(
            key, _MISSING
        ):
            raise StreamProtocolError(
                f"cannot merge row slices: {key!r} differs "
                f"({first.get(key)!r} vs {other.get(key)!r})"
            )


def fold_slices(
    bounds: Sequence[int], slices: Iterable[Iterable[StreamEvent]]
) -> Iterator[StreamEvent]:
    """The whole stream of ``slices`` folded through one
    :class:`SliceFold`: header, re-anchored rows, merged trailer."""
    fold = SliceFold(bounds)
    for events in slices:
        yield from fold.slice(events)
    yield fold.trailer()


def stream_audit_events(
    audit_chunk: Callable[[int, int], Dict[str, Any]],
    bounds: Sequence[int],
) -> Iterator[List[StreamEvent]]:
    """Stream one batch audit chunk by chunk, one event list per chunk.

    ``audit_chunk(lo, hi)`` must return the complete buffered **v5**
    payload of rows ``[lo, hi)`` (the caller slices its inputs; the
    payload must carry a ``rows`` section).  ``bounds`` is the chunk
    schedule (:func:`chunk_bounds`, :func:`ramp_chunk_bounds`).  Each
    chunk folds through one :class:`SliceFold`, so the first list opens
    with the header and the last one ends with the merged trailer.
    Memory held between chunks is O(params), not O(rows).
    """
    fold = SliceFold(bounds)
    last = len(bounds) - 2
    for index, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        payload = audit_chunk(lo, hi)
        if payload.get("rows") is None:
            raise StreamProtocolError(
                "audit_chunk returned a payload without a rows section"
            )
        events = list(fold.slice(payload_events(payload)))
        if index == last:
            events.append(fold.trailer())
        yield events


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
