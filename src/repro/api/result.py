"""The versioned audit result and its canonical JSON schema.

This module *owns* the audit payload: the exact key set, the exact
string renderings (Decimal distances, value ``repr``\\ s, captured error
messages), and the ``schema_version`` stamp.  Everything that ever
serializes an audit — ``repro witness --json``, the ``repro serve``
response body, the parity harness — goes through the payload builders
and :func:`render_payload`, which is why the CLI and the served path
are byte-identical by construction.

Schema history:

* **1** — the implicit, unversioned payload of the original serving
  layer (no ``schema_version`` key).
* **2** — identical keys plus the leading ``schema_version`` field;
  introduced with the :mod:`repro.api` Session redesign.
* **3** — adds the optional ``static_bounds`` (static-analysis
  engines) and ``per_precision`` (the reduced-precision sweep engine)
  sections.  Payloads that carry neither section keep emitting
  version **2** byte-for-byte — existing readers and the legacy shims
  see no change — so the version 3 stamp appears exactly when a
  payload contains something a version-2 reader would misread, and
  old readers reject those loudly via their strict version check.
* **4** — adds the optional ``rows`` section: per-row witnesses
  (verdict, per-parameter backward distance, captured error) for the
  batch engines, materialized on request and streamable as NDJSON by
  the serving layer.  The same discipline as v2→v3 applies: the
  version 4 stamp appears exactly when ``rows`` is present, payloads
  without it keep their v2/v3 bytes, and :meth:`AuditResult.from_json`
  rejects every mislabel.
* **5** — the ``rows`` section's per-row distances render at
  :data:`~repro.semantics.spaces.ROW_DISTANCE_DIGITS` (8) significant
  digits through :func:`~repro.semantics.spaces.render_row_distance`
  (``"2.5786797e-16"``; ``"0"`` and ``"Infinity"`` as is) instead of
  the exact 60-digit string — the precision the batch engine's
  distance screen certifies, so per-row witnesses run on its fast
  path.  Nothing else changed: aggregate ``max_distance`` keeps
  its exact bytes, payloads without ``rows`` keep their v2/v3 bytes,
  and the version 5 stamp appears exactly when ``rows`` is present.
  :meth:`AuditResult.from_json` still reads version-4 payloads.

The streaming wire format is three kinds of NDJSON line, all built and
reassembled here so the byte-parity contract has one owner: a *header*
(the payload fields up to and including ``n_rows``), one compact *row*
object per line (each carrying its explicit ``row`` index), and a
*trailer* (the aggregate fields ``all_sound``/``sound_rows``/
``fallback_rows``/``params``).  :func:`assemble_stream_payload` folds a
fully drained stream back into the exact buffered v5 payload —
``sound``, ``exact`` and ``errors`` are derived from the rows — which
is what makes "streamed then reassembled" byte-identical to buffered.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Union

from ..core import ast_nodes as A

if TYPE_CHECKING:  # heavy (NumPy) imports stay lazy for light CLI paths
    from ..semantics.batch import BatchWitnessReport
    from ..semantics.witness import WitnessReport

__all__ = [
    "BASE_SCHEMA_VERSION",
    "SCHEMA_VERSION",
    "STATIC_SCHEMA_VERSION",
    "AuditResult",
    "assemble_stream_payload",
    "batch_report_payload",
    "render_payload",
    "render_stream_line",
    "scalar_report_payload",
    "static_report_payload",
    "stream_header_of_payload",
    "stream_trailer_of_payload",
    "sweep_report_payload",
    "witness_row",
]

#: Newest schema version this build reads and writes (the ``rows``
#: section of the batch engines, distances at 8 significant digits).
SCHEMA_VERSION = 5

#: The previous ``rows`` version (exact 60-digit per-row distances):
#: still read, never written.
_V4_ROWS_SCHEMA_VERSION = 4

#: Version stamped on payloads carrying a version-3 section
#: (``static_bounds`` / ``per_precision``) but no ``rows``.
STATIC_SCHEMA_VERSION = 3

#: Version stamped on payloads without any versioned section (the four
#: executed witness engines; preserved so their bytes never changed).
BASE_SCHEMA_VERSION = 2

#: The sections whose presence requires (and justifies) the v3 stamp.
_V3_SECTIONS = ("static_bounds", "per_precision")

#: The section whose presence requires (and justifies) the v5 stamp.
_ROWS_SECTION = "rows"

#: Header-line fields of the row stream, in canonical payload order
#: (``workers`` is present only when the payload carries it).
_STREAM_HEAD_KEYS = (
    "schema_version",
    "definition",
    "engine",
    "u",
    "precision_bits",
    "exact_backend",
    "inline_fallbacks",
    "workers",
    "n_rows",
)

#: Trailer-line fields of the row stream, in canonical payload order.
_STREAM_TRAILER_KEYS = ("all_sound", "sound_rows", "fallback_rows", "params")


@dataclass(frozen=True)
class AuditResult:
    """A finished audit: the raw report plus its canonical JSON payload.

    ``report`` is the live in-process object (a ``WitnessReport``, a
    ``BatchWitnessReport``, or a static/sweep report) — or ``None``
    when the result was rebuilt from JSON with :meth:`from_json`, where
    only the payload crossed the wire.  ``payload`` is the canonical
    dict; :meth:`to_json` renders it to the exact string every surface
    emits.
    """

    report: Optional[Any]
    payload: Dict[str, Any]
    sound: bool
    batch: bool

    @property
    def schema_version(self) -> int:
        return int(self.payload["schema_version"])

    @property
    def engine(self) -> str:
        return str(self.payload["engine"])

    @property
    def definition(self) -> str:
        return str(self.payload["definition"])

    @property
    def static(self) -> bool:
        """Was this a static analysis (no executed witness)?"""
        return "static_bounds" in self.payload

    @property
    def static_bounds(self) -> Optional[Dict[str, Any]]:
        """The ``static_bounds`` section of a v3 static payload, if any."""
        return self.payload.get("static_bounds")

    @property
    def per_precision(self) -> Optional[Dict[str, Any]]:
        """The ``per_precision`` section of a v3 sweep payload, if any."""
        return self.payload.get("per_precision")

    @property
    def rows(self) -> Optional[List[Dict[str, Any]]]:
        """The ``rows`` section of a v4/v5 payload, if any: one dict per
        audited environment (``row`` index, ``sound``/``exact`` verdicts,
        per-parameter ``distances``, and the captured ``error`` when the
        row raised)."""
        return self.payload.get(_ROWS_SECTION)

    def iter_rows(self) -> Iterator[Dict[str, Any]]:
        """Iterate the per-row witnesses of a v4/v5 payload in row order.

        Raises ``ValueError`` when the payload carries no ``rows``
        section (ask for one with ``rows=True`` / ``stream=True``).
        """
        rows = self.rows
        if rows is None:
            raise ValueError(
                "payload carries no rows section; audit with rows=True"
            )
        return iter(rows)

    def to_json(self) -> str:
        """The canonical rendering (no trailing newline), byte-stable."""
        return render_payload(self.payload)

    @classmethod
    def from_json(cls, text: Union[str, bytes]) -> "AuditResult":
        """Rebuild a result from a payload this schema version emitted.

        Raises ``ValueError`` on non-object JSON, a missing/foreign
        ``schema_version``, or a version/section mismatch — a client
        talking to a newer (or corrupted) server should fail loudly
        rather than misread fields.  Versions 2 through 5 are all read:
        a version-2 payload must carry no versioned section, a
        version-3 payload must carry a version-3 section and no
        ``rows``, and a version-4 or -5 payload must carry ``rows``
        (this build stamps each payload with the lowest version that
        reads it correctly, and writes ``rows`` as version 5 only).
        """
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("audit payload must be a JSON object")
        version = payload.get("schema_version")
        present = [s for s in _V3_SECTIONS if s in payload]
        has_rows = _ROWS_SECTION in payload
        if version == BASE_SCHEMA_VERSION:
            if present or has_rows:
                sections = present + ([_ROWS_SECTION] if has_rows else [])
                raise ValueError(
                    f"schema_version {BASE_SCHEMA_VERSION} payload carries "
                    f"newer-version section(s) {sections} "
                    "(refusing to misread a mislabelled payload)"
                )
        elif version == STATIC_SCHEMA_VERSION:
            if has_rows:
                raise ValueError(
                    f"schema_version {STATIC_SCHEMA_VERSION} payload "
                    f"carries the version-{SCHEMA_VERSION} section "
                    f"{_ROWS_SECTION!r} (refusing to misread a mislabelled "
                    "payload)"
                )
            if not present:
                raise ValueError(
                    f"schema_version {STATIC_SCHEMA_VERSION} payload "
                    f"carries none of {list(_V3_SECTIONS)} (this build "
                    f"emits such payloads as version {BASE_SCHEMA_VERSION})"
                )
        elif version in (_V4_ROWS_SCHEMA_VERSION, SCHEMA_VERSION):
            if not has_rows:
                raise ValueError(
                    f"schema_version {version} payload carries no "
                    f"{_ROWS_SECTION!r} section (this build emits row-free "
                    "payloads as version "
                    f"{STATIC_SCHEMA_VERSION if present else BASE_SCHEMA_VERSION})"
                )
        else:
            raise ValueError(
                f"unsupported audit schema_version {version!r} "
                f"(this build reads versions {BASE_SCHEMA_VERSION} "
                f"through {SCHEMA_VERSION})"
            )
        batch = "all_sound" in payload
        sound = bool(payload["all_sound"] if batch else payload["sound"])
        return cls(report=None, payload=payload, sound=sound, batch=batch)


def scalar_report_payload(
    report: "WitnessReport",
    *,
    definition: A.Definition,
    engine: str,
    u: float,
    precision_bits: int,
) -> Dict[str, Any]:
    """The canonical JSON payload of one scalar witness run."""
    params: Dict[str, Any] = {}
    for name, w in report.params.items():
        params[name] = {
            "grade": str(w.grade),
            "distance": str(w.distance),
            "bound": str(w.bound),
            "within_bound": w.within_bound,
            "original": w.original_repr,
            "perturbed": w.perturbed_repr,
        }
    return {
        "schema_version": BASE_SCHEMA_VERSION,
        "definition": definition.name,
        "engine": engine,
        "u": u,
        "precision_bits": precision_bits,
        "sound": report.sound,
        "exact_match": report.exact_match,
        "approx_value": report.approx_value_repr,
        "ideal_on_perturbed": report.ideal_on_perturbed_repr,
        "params": params,
    }


def batch_report_payload(
    report: "BatchWitnessReport",
    *,
    engine: str,
    u: float,
    precision_bits: int,
    workers: Optional[int] = None,
    inline_fallbacks: Optional[List[Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """The canonical JSON payload of a batch/sharded witness run.

    ``exact_backend`` is the constant ``"eft"``: the field once named
    which of two bit-identical exact-arithmetic backends ran the
    backward/ideal sweeps, and stays so that payload bytes do not move.

    ``inline_fallbacks`` surfaces the call sites the inliner left in
    place and why (:func:`repro.ir.inline.inline_fallback_info`:
    ``cycle`` / ``arity-mismatch`` / ``free-variables`` / ``size-cap``);
    the section appears only when at least one site fell back, so the
    payload bytes of every fully-inlined audit are unchanged.  It is a
    property of the execution IR — known before any row runs — so it
    lives among the header fields and streams on the header line.

    When the report materialized per-row witnesses (``collect_rows``),
    they are appended as the trailing ``rows`` section and the payload
    is stamped schema version 5; every preceding field keeps its v2
    bytes.  The report's row tuples already carry rendered distance
    strings (:func:`~repro.semantics.spaces.render_row_distance`), so
    every engine, shard and stream chunk emits the same row bytes.
    """
    payload: Dict[str, Any] = {
        "schema_version": (
            BASE_SCHEMA_VERSION if report.rows is None else SCHEMA_VERSION
        ),
        "definition": report.definition.name,
        "engine": engine,
        "u": u,
        "precision_bits": precision_bits,
        "exact_backend": "eft",
    }
    if inline_fallbacks:
        payload["inline_fallbacks"] = inline_fallbacks
    if workers is not None:
        payload["workers"] = workers
    payload.update(
        {
            "n_rows": report.n_rows,
            "all_sound": report.all_sound,
            "sound_rows": report.sound_count,
            "fallback_rows": report.fallback_rows,
            "sound": [bool(x) for x in report.sound],
            "exact": [bool(x) for x in report.exact],
            "errors": {
                str(i): {
                    "type": type(exc).__name__,
                    "message": str(exc),
                }
                for i, exc in sorted(report.errors.items())
            },
            "params": {
                name: {
                    "max_distance": str(dist),
                    "bound": str(report.param_bound[name]),
                    "within_bound": dist <= report.param_bound[name],
                }
                for name, dist in report.param_max_distance.items()
            },
        }
    )
    if report.rows is not None:
        payload["rows"] = [
            witness_row(
                i,
                sound=s,
                exact=e,
                distances=dists,
                error=(
                    None
                    if exc is None
                    else {"type": type(exc).__name__, "message": str(exc)}
                ),
            )
            for (i, s, e, dists, exc) in report.rows
        ]
    return payload


def witness_row(
    index: int,
    *,
    sound: bool,
    exact: bool,
    distances: Dict[str, str],
    error: Optional[Dict[str, str]] = None,
) -> Dict[str, Any]:
    """One entry of the v5 ``rows`` section, in canonical key order.

    ``distances`` maps each parameter to its per-row backward distance
    as rendered by :func:`~repro.semantics.spaces.render_row_distance`:
    8 significant digits, rounded half-even from the exact distance
    (the aggregate ``params.*.max_distance`` keeps the exact 60-digit
    string); ``error`` mirrors one entry of the payload ``errors``
    table for rows whose witness run raised.
    """
    row: Dict[str, Any] = {
        "row": index,
        "sound": sound,
        "exact": exact,
        "distances": distances,
    }
    if error is not None:
        row["error"] = error
    return row


def static_report_payload(
    *,
    definition: A.Definition,
    engine: str,
    u: float,
    precision_bits: int,
    sound: bool,
    static_bounds: Dict[str, Any],
) -> Dict[str, Any]:
    """The canonical JSON payload of one static-analysis audit.

    ``static_bounds`` is the engine's analysis section (forward bound,
    input hypotheses, backward grades); its presence is what stamps the
    payload ``schema_version`` 3.  ``sound`` records whether the
    analysis derived a *finite* bound — the static counterpart of the
    witness engines' soundness verdict.
    """
    return {
        "schema_version": STATIC_SCHEMA_VERSION,
        "definition": definition.name,
        "engine": engine,
        "u": u,
        "precision_bits": precision_bits,
        "sound": sound,
        "static_bounds": static_bounds,
    }


def sweep_report_payload(
    *,
    definition: A.Definition,
    engine: str,
    u: float,
    precision_bits: int,
    n_rows: int,
    tightest_sound_bits: List[Optional[int]],
    per_precision: Dict[str, Dict[str, Any]],
) -> Dict[str, Any]:
    """The canonical JSON payload of a reduced-precision sweep audit.

    ``per_precision`` maps each swept significand width (as a string
    key, JSON-style) to the **complete** batch-engine payload of that
    single-precision audit — byte-identical to what
    ``engine="batch", precision_bits=<width>`` returns on its own, which
    is the sweep engine's bit-for-bit contract.  ``tightest_sound_bits``
    holds, per row, the fewest significand bits at which the soundness
    theorem still held (``None`` when no swept precision was sound).
    """
    sound_rows = [bits is not None for bits in tightest_sound_bits]
    return {
        "schema_version": STATIC_SCHEMA_VERSION,
        "definition": definition.name,
        "engine": engine,
        "u": u,
        "precision_bits": precision_bits,
        "n_rows": n_rows,
        "all_sound": all(sound_rows),
        "sound_rows": sum(sound_rows),
        "sound": sound_rows,
        "tightest_sound_bits": tightest_sound_bits,
        "per_precision": per_precision,
    }


def render_payload(payload: Dict[str, Any]) -> str:
    """The one rendering every surface emits, byte for byte."""
    return json.dumps(payload, indent=2)


def stream_header_of_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The stream header line of a v5 batch payload.

    Carries every payload field up to and including ``n_rows`` — the
    fields known before any row finishes.  A chunked producer overrides
    ``n_rows`` with the full request's row count.
    """
    return {k: payload[k] for k in _STREAM_HEAD_KEYS if k in payload}


def stream_trailer_of_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The stream trailer line of a v5 batch payload.

    Carries the aggregate fields only; the per-row arrays ``sound``,
    ``exact`` and ``errors`` are derived from the streamed rows at
    reassembly time.
    """
    return {k: payload[k] for k in _STREAM_TRAILER_KEYS}


#: ``json.dumps(..., separators=(",", ":"))`` builds this encoder on
#: every call; a row stream renders one line per row, so share one.
_COMPACT = json.JSONEncoder(separators=(",", ":"))


def render_stream_line(obj: Dict[str, Any]) -> str:
    """One NDJSON line of the row stream (compact, newline-terminated)."""
    return _COMPACT.encode(obj) + "\n"


def assemble_stream_payload(
    header: Dict[str, Any],
    rows: List[Dict[str, Any]],
    trailer: Dict[str, Any],
) -> Dict[str, Any]:
    """Fold a fully drained row stream back into the buffered payload.

    Accepts rows in any arrival order (a fleet merge may interleave
    sub-streams); sorts them by their explicit ``row`` index and
    rebuilds the canonical v5 payload, byte-identical under
    :func:`render_payload` to the buffered result of the same audit.
    Raises ``ValueError`` when the drained rows do not cover exactly
    ``0..n_rows-1`` — a truncated or duplicated stream must not
    reassemble silently.
    """
    n_rows = header.get("n_rows")
    ordered = sorted(rows, key=lambda r: r["row"])
    if [r["row"] for r in ordered] != list(range(n_rows or 0)):
        raise ValueError(
            f"row stream does not cover 0..{(n_rows or 0) - 1}: got "
            f"{len(ordered)} row(s)"
        )
    payload: Dict[str, Any] = {
        k: header[k] for k in _STREAM_HEAD_KEYS if k in header
    }
    payload["all_sound"] = trailer["all_sound"]
    payload["sound_rows"] = trailer["sound_rows"]
    payload["fallback_rows"] = trailer["fallback_rows"]
    payload["sound"] = [bool(r["sound"]) for r in ordered]
    payload["exact"] = [bool(r["exact"]) for r in ordered]
    payload["errors"] = {
        str(r["row"]): r["error"] for r in ordered if "error" in r
    }
    payload["params"] = trailer["params"]
    payload["rows"] = ordered
    return payload
