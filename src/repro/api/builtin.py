"""The built-in engines, as registry adapters.

Each adapter wraps one pre-existing implementation — the scalar witness
runner through the slot-executor lens, the vectorized NumPy batch
engine, the multiprocess sharded runner, the static analyzers in
:mod:`repro.analysis`, and the reduced-precision sweep over the batch
engine — behind the uniform :class:`~repro.api.registry.Engine`
protocol.  The heavy imports (NumPy, the process-pool machinery, the
analyzers) stay inside ``audit`` so that importing :mod:`repro.api`
costs no more than the CLI's start-up budget allows.

:class:`ScalarLensEngine` (the ``ir`` engine) is exported as a
convenience base for plugins and tests: subclass it and register the
subclass under a new name to get a fully wired engine whose payloads
carry that name.

The ``caps.static`` engines (``interval``, ``forward``) never execute
the program: an audit returns sound *bounds* in the versioned
``static_bounds`` payload section (schema version 3) instead of a
per-row witness, and their ``inputs`` are hypotheses — for ``interval``
each input contributes the hull of its numeric leaves as that
parameter's interval (a scalar is a point interval, a vector its
min/max hull, a two-element ``[lo, hi]`` exactly that range), with the
paper's ``[0.1, 1000]`` for parameters not mentioned; an interval
*string* like ``"(0, 1000]"`` states an open/half-open hypothesis
(analyzed on its closed hull, which is sound), and a list of interval
strings gives one interval per numeric leaf of the parameter.
``forward`` ignores inputs entirely (its only hypothesis is
positivity).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..core import ast_nodes as A
from .registry import AuditRequest, register_engine
from .result import (
    AuditResult,
    batch_report_payload,
    scalar_report_payload,
    static_report_payload,
    sweep_report_payload,
)

__all__ = ["SWEEP_PRECISIONS", "RemoteEngine", "ScalarLensEngine"]


def _composed_lens(request: AuditRequest) -> Tuple[Any, Any]:
    """A lens whose grades come from composed per-definition summaries.

    Returns ``(lens, composed)``: the judgment handed to the lens is the
    round-trip of the definition's cached (or freshly built) summary —
    bit-identical to the whole-program check — so the witness run and
    its payload match the non-composed audit exactly.
    """
    from ..compose.engine import composed_judgments
    from ..semantics.interp import lens_of_definition

    composed = composed_judgments(request.program)
    lens = lens_of_definition(
        request.definition,
        composed.judgments[request.definition.name],
        request.program,
    )
    return lens, composed


def _compose_provenance(
    request: AuditRequest, composed: Any, execution: str
) -> Any:
    """The :class:`~repro.compose.engine.ComposeProvenance` of one audit."""
    from ..compose.engine import ComposeProvenance, composition_plan

    return ComposeProvenance(
        definition=request.definition.name,
        definitions=len(composed.judgments),
        summaries_reused=len(composed.reused),
        summaries_built=len(composed.built),
        sites=composition_plan(request.definition, composed.summaries),
        execution=execution,
    )


def _execution_fallbacks(
    definition: A.Definition,
    program: Optional[A.Program],
    ir: Optional[Any] = None,
) -> List[Dict[str, Any]]:
    """The inline-fallback section of a batch audit's execution IR.

    ``ir`` is the already-resolved execution IR when the caller has one
    (the composed path); otherwise the resolution mirrors
    :class:`~repro.semantics.batch.BatchWitnessEngine`'s — both lookups
    hit the per-process IR cache, so this costs two dict probes.
    """
    from ..ir.cache import inlined_definition_ir, semantic_definition_ir
    from ..ir.inline import inline_fallback_info

    if ir is None:
        ir = semantic_definition_ir(definition)
        if ir.has_calls and program is not None:
            ir = inlined_definition_ir(definition, program)
    return inline_fallback_info(ir)


@register_engine(
    "ir",
    compose=True,
    description="unboxed slot executor over the flat IR (the default)",
)
class ScalarLensEngine:
    """One-environment witness runs through the scalar lens
    (:func:`repro.semantics.interp.lens_of_program`)."""

    #: stamped by ``register_engine`` at registration time
    name: str

    def audit(self, request: AuditRequest) -> AuditResult:
        from ..semantics.interp import lens_of_program
        from ..semantics.witness import run_witness

        provenance = None
        if request.compose:
            lens, composed = _composed_lens(request)
            provenance = _compose_provenance(request, composed, "scalar")
        else:
            lens = lens_of_program(request.program, request.definition.name)
        lens.precision_bits = request.precision_bits
        report = run_witness(
            request.definition,
            request.inputs,
            program=request.program,
            lens=lens,
            u=request.u,
        )
        payload = scalar_report_payload(
            report,
            definition=request.definition,
            engine=self.name,
            u=request.u,
            precision_bits=request.precision_bits,
        )
        return AuditResult(report, payload, report.sound, False, provenance)


@register_engine(
    "batch",
    batched=True,
    needs_numpy=True,
    rows=True,
    compose=True,
    description="vectorized NumPy witness over environment rows",
)
class BatchEngine:
    name: str

    def audit(self, request: AuditRequest) -> AuditResult:
        from ..semantics.batch import run_witness_batch
        from ..semantics.interp import lens_of_program

        provenance = None
        engine_options: Dict[str, Any] = {}
        ir = None
        if request.compose:
            from ..compose.engine import compose_execution_ir

            lens, composed = _composed_lens(request)
            ir, execution = compose_execution_ir(
                request.definition, request.program, composed.summaries
            )
            engine_options["inlined_ir"] = ir
            provenance = _compose_provenance(request, composed, execution)
        else:
            lens = lens_of_program(request.program, request.definition.name)
        lens.precision_bits = request.precision_bits
        report = run_witness_batch(
            request.definition,
            request.inputs,
            program=request.program,
            u=request.u,
            lens=lens,
            exact_backend=request.exact_backend,
            collect_rows=request.collect_rows,
            **engine_options,
        )
        payload = batch_report_payload(
            report,
            engine=self.name,
            u=request.u,
            precision_bits=request.precision_bits,
            inline_fallbacks=_execution_fallbacks(
                request.definition, request.program, ir
            ),
        )
        return AuditResult(report, payload, report.all_sound, True, provenance)


@register_engine(
    "sharded",
    batched=True,
    multiprocess=True,
    needs_numpy=True,
    rows=True,
    compose=True,
    description="batch rows fanned out over worker processes",
)
class ShardedEngine:
    name: str

    def audit(self, request: AuditRequest) -> AuditResult:
        from ..semantics.shard import run_witness_sharded

        provenance = None
        ir = None
        if request.compose:
            from ..compose.engine import compose_execution_ir, composed_judgments

            # Plan (and record) the composed execution here; the
            # sharded runner re-plans the same IR — deterministically —
            # in the parent engine and every worker rather than
            # shipping it across process pipes.  No composed lens is
            # needed: composed judgments are bit-identical to the
            # whole-program check the workers' own lenses run on.
            composed = composed_judgments(request.program)
            ir, execution = compose_execution_ir(
                request.definition, request.program, composed.summaries
            )
            provenance = _compose_provenance(request, composed, execution)
        report = run_witness_sharded(
            request.definition,
            request.inputs,
            program=request.program,
            u=request.u,
            workers=request.workers,
            precision_bits=request.precision_bits,
            mp_context=request.mp_context,
            pool=request.pool,
            compose=request.compose,
            exact_backend=request.exact_backend,
            collect_rows=request.collect_rows,
        )
        payload = batch_report_payload(
            report,
            engine=self.name,
            u=request.u,
            precision_bits=request.precision_bits,
            workers=request.workers,
            inline_fallbacks=_execution_fallbacks(
                request.definition, request.program, ir
            ),
        )
        return AuditResult(report, payload, report.all_sound, True, provenance)


# --------------------------------------------------------------------------
# Static analysis engines (schema-v3 ``static_bounds`` payloads)
# --------------------------------------------------------------------------


class StaticAnalysisReport:
    """The in-process face of a static audit (CLI ``describe()``)."""

    __slots__ = ("payload",)

    def __init__(self, payload: Dict[str, Any]) -> None:
        self.payload = payload

    def describe(self) -> str:
        bounds = self.payload["static_bounds"]
        lines = [
            f"static analysis      : {bounds['analysis']}",
            f"definition           : {self.payload['definition']}",
        ]
        ranges = bounds.get("input_ranges")
        if ranges is not None:
            hypotheses = bounds.get("input_hypotheses") or {}
            for name, (lo, hi) in ranges.items():
                given = hypotheses.get(name)
                if isinstance(given, list):
                    given = ", ".join(given)
                suffix = f"  (hypothesis {given})" if given else ""
                lines.append(
                    f"  {name}: exact value in [{lo}, {hi}]{suffix}"
                )
        forward = bounds["forward_bound"]
        if forward is None:
            lines.append("forward RP bound     : unbounded")
        else:
            lines.append(f"forward RP bound     : {forward:.3e}")
        grade = bounds.get("forward_grade")
        if grade is not None:
            lines.append(f"forward grade        : {grade}")
        backward = bounds.get("backward") or {}
        for name, entry in backward.items():
            lines.append(
                f"  backward {name}: {entry['grade']} = {entry['bound']:.3e}"
            )
        return "\n".join(lines)


def _backward_section(
    program: A.Program, definition: A.Definition, u: float
) -> Dict[str, Any]:
    """The inferred backward grades — the other half of the same
    graded semantics, reported next to every static forward bound."""
    from ..core import check_program
    from ..core.types import is_discrete

    judgment = check_program(program)[definition.name]
    section: Dict[str, Any] = {}
    for p in definition.params:
        if is_discrete(p.ty):
            continue
        grade = judgment.grade_of(p.name)
        section[p.name] = {"grade": str(grade), "bound": grade.evaluate(u)}
    return section


def _hull_range(name: str, value: Any) -> Tuple[float, float]:
    """An input value's interval hypothesis: the hull of its leaves."""
    import math

    leaves: List[float] = []
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            if isinstance(v, (list, tuple)):
                stack.extend(v)
                continue
            raise ValueError(
                f"interval hypothesis for {name!r} must be a number, an "
                f"[lo, hi] pair, or a vector of numbers, got {v!r}"
            )
        x = float(v)
        # Non-finite endpoints admit no hypothesis — and would render
        # as non-RFC-8259 JSON ('Infinity') in the payload's ranges.
        if not math.isfinite(x):
            raise ValueError(
                f"interval hypothesis for {name!r} must be finite, got {x!r}"
            )
        leaves.append(x)
    if not leaves:
        raise ValueError(f"interval hypothesis for {name!r} is empty")
    return (min(leaves), max(leaves))


def _reject_unknown_params(
    definition: A.Definition, inputs: Mapping[str, Any]
) -> None:
    """A typo in a hypothesis name must fail loudly, never drop silently."""
    unknown = set(inputs) - {p.name for p in definition.params}
    if unknown:
        raise ValueError(
            f"unknown parameter(s) in static hypotheses: {sorted(unknown)}"
        )


def _interval_hypothesis(
    name: str, value: Any
) -> Tuple[Tuple[float, float], Optional[List[Tuple[float, float]]], Any]:
    """Resolve one interval hypothesis input.

    Returns ``(hull, per_leaf, rendered)``: the closed hull the payload's
    ``input_ranges`` reports, the per-leaf range list when the hypothesis
    was per-leaf (``None`` otherwise), and the canonical rendering for
    the ``input_hypotheses`` section when the new string syntax was used
    (``None`` for the numeric forms, whose payload bytes predate it).

    String syntax: one interval string (``"[0.1, 1000]"``,
    ``"(0, 1000]"`` — open/half-open brackets allowed) applies to every
    numeric leaf of the parameter; a list of interval strings gives one
    interval per leaf, in the type's left-to-right leaf order.  Open
    endpoints are hypotheses on the *exact* value; the analysis runs on
    the closed hull, which contains every open variant, so the derived
    bound stays sound.
    """
    from ..analysis.intervals import parse_interval, render_interval

    if isinstance(value, str):
        try:
            lo, hi, lo_open, hi_open = parse_interval(value)
        except ValueError as exc:
            raise ValueError(
                f"interval hypothesis for {name!r}: {exc}"
            ) from None
        return (lo, hi), None, render_interval(lo, hi, lo_open, hi_open)
    if (
        isinstance(value, (list, tuple))
        and value
        and all(isinstance(v, str) for v in value)
    ):
        parsed = []
        for v in value:
            try:
                parsed.append(parse_interval(v))
            except ValueError as exc:
                raise ValueError(
                    f"interval hypothesis for {name!r}: {exc}"
                ) from None
        hull = (
            min(lo for lo, _, _, _ in parsed),
            max(hi for _, hi, _, _ in parsed),
        )
        per_leaf = [(lo, hi) for lo, hi, _, _ in parsed]
        rendered = [render_interval(*p) for p in parsed]
        return hull, per_leaf, rendered
    return _hull_range(name, value), None, None


@register_engine(
    "interval",
    static=True,
    description="Gappa-like interval analysis: sound static forward bounds",
)
class IntervalEngine:
    name: str

    def audit(self, request: AuditRequest) -> AuditResult:
        from ..analysis.intervals import DEFAULT_RANGE, interval_forward_bound

        _reject_unknown_params(request.definition, request.inputs)
        ranges: Dict[str, Tuple[float, float]] = {}
        leaf_ranges: Dict[str, List[Tuple[float, float]]] = {}
        hypotheses: Dict[str, Any] = {}
        for name, value in request.inputs.items():
            hull, per_leaf, rendered = _interval_hypothesis(name, value)
            ranges[name] = hull
            if per_leaf is not None:
                leaf_ranges[name] = per_leaf
            if rendered is not None:
                hypotheses[name] = rendered
        resolved = {
            p.name: ranges.get(p.name, DEFAULT_RANGE)
            for p in request.definition.params
        }
        bound = interval_forward_bound(
            request.definition,
            request.program,
            ranges=resolved,
            leaf_ranges=leaf_ranges or None,
            u=request.u,
        )
        finite = bound == bound and bound != float("inf")
        static_bounds: Dict[str, Any] = {
            "analysis": "interval",
            "input_ranges": {
                name: [lo, hi] for name, (lo, hi) in resolved.items()
            },
        }
        if hypotheses:
            # Present only when the bracket syntax was used, so every
            # pre-existing payload keeps its exact bytes.
            static_bounds["input_hypotheses"] = hypotheses
        static_bounds["forward_bound"] = bound if finite else None
        static_bounds["backward"] = _backward_section(
            request.program, request.definition, request.u
        )
        payload = static_report_payload(
            definition=request.definition,
            engine=self.name,
            u=request.u,
            precision_bits=request.precision_bits,
            sound=finite,
            static_bounds=static_bounds,
        )
        return AuditResult(StaticAnalysisReport(payload), payload, finite, False)


@register_engine(
    "forward",
    static=True,
    description="NumFuzz-like forward analysis: exact ε bounds, positive data",
)
class ForwardEngine:
    name: str

    def audit(self, request: AuditRequest) -> AuditResult:
        from ..analysis.forward import forward_error_bound

        # Inputs are otherwise ignored (the only hypothesis is
        # positivity), but unknown names still fail like interval's.
        _reject_unknown_params(request.definition, request.inputs)
        grade = forward_error_bound(request.definition, request.program)
        static_bounds: Dict[str, Any] = {
            "analysis": "forward",
            "forward_grade": None if grade is None else str(grade),
            "forward_coefficient": (
                None
                if grade is None
                else [grade.coeff.numerator, grade.coeff.denominator]
            ),
            "forward_bound": (
                None if grade is None else grade.evaluate(request.u)
            ),
            "backward": _backward_section(
                request.program, request.definition, request.u
            ),
        }
        sound = grade is not None
        payload = static_report_payload(
            definition=request.definition,
            engine=self.name,
            u=request.u,
            precision_bits=request.precision_bits,
            sound=sound,
            static_bounds=static_bounds,
        )
        return AuditResult(StaticAnalysisReport(payload), payload, sound, False)


# --------------------------------------------------------------------------
# The reduced-precision sweep engine (schema-v3 ``per_precision`` payloads)
# --------------------------------------------------------------------------

#: Significand widths the sweep engine audits, narrowest first
#: (binary16 / binary32 / binary64).
SWEEP_PRECISIONS: Tuple[int, ...] = (11, 24, 53)


class PrecisionSweepReport:
    """One audit fanned across precisions (CLI ``describe()`` face)."""

    __slots__ = ("reports", "tightest_sound_bits")

    def __init__(
        self,
        reports: "Mapping[int, Any]",
        tightest_sound_bits: List[Optional[int]],
    ) -> None:
        self.reports = dict(reports)
        self.tightest_sound_bits = tightest_sound_bits

    def describe(self) -> str:
        n_rows = len(self.tightest_sound_bits)
        lines = [
            f"precision sweep over {sorted(self.reports)} significand bits "
            f"({n_rows} row(s))"
        ]
        for bits in sorted(self.reports):
            report = self.reports[bits]
            lines.append(
                f"  {bits:>2} bits: {report.sound_count}/{n_rows} rows sound"
            )
        counts: Dict[Optional[int], int] = {}
        for bits in self.tightest_sound_bits:
            counts[bits] = counts.get(bits, 0) + 1
        for bits in sorted(counts, key=lambda b: (b is None, b)):
            label = "no swept precision" if bits is None else f"{bits} bits"
            lines.append(f"  tightest sound at {label}: {counts[bits]} row(s)")
        return "\n".join(lines)


@register_engine(
    "sweep",
    batched=True,
    needs_numpy=True,
    description="one audit fanned across precisions; tightest sound bits per row",
)
class SweepEngine:
    name: str

    def audit(self, request: AuditRequest) -> AuditResult:
        from ..semantics.batch import run_witness_batch
        from ..semantics.interp import lens_of_program

        sweep_bits = request.sweep_bits or SWEEP_PRECISIONS
        reports: Dict[int, Any] = {}
        per_precision: Dict[str, Dict[str, Any]] = {}
        fallbacks = _execution_fallbacks(request.definition, request.program)
        for bits in sweep_bits:
            u_bits = 2.0**-bits
            lens = lens_of_program(request.program, request.definition.name)
            lens.precision_bits = bits
            report = run_witness_batch(
                request.definition,
                request.inputs,
                program=request.program,
                u=u_bits,
                lens=lens,
                exact_backend=request.exact_backend,
            )
            reports[bits] = report
            # Each entry is the complete batch-engine payload for this
            # precision — bit-identical to an independent
            # engine="batch", precision_bits=bits audit.
            per_precision[str(bits)] = batch_report_payload(
                report,
                engine="batch",
                u=u_bits,
                precision_bits=bits,
                inline_fallbacks=fallbacks,
            )
        n_rows = reports[sweep_bits[0]].n_rows
        tightest: List[Optional[int]] = []
        for i in range(n_rows):
            sound_bits = [
                bits for bits in sweep_bits if bool(reports[bits].sound[i])
            ]
            tightest.append(min(sound_bits) if sound_bits else None)
        payload = sweep_report_payload(
            definition=request.definition,
            engine=self.name,
            u=request.u,
            precision_bits=request.precision_bits,
            n_rows=n_rows,
            tightest_sound_bits=tightest,
            per_precision=per_precision,
        )
        all_sound = all(bits is not None for bits in tightest)
        return AuditResult(
            PrecisionSweepReport(reports, tightest), payload, all_sound, True
        )


# --------------------------------------------------------------------------
# The remote engine (fleet dispatch over `repro serve` nodes)
# --------------------------------------------------------------------------


@register_engine(
    "remote",
    batched=True,
    remote=True,
    rows=True,
    compose=True,
    description="fleet dispatch: consistent-hash fan-out over serve nodes",
)
class RemoteEngine:
    """Fleet dispatch behind the uniform engine protocol.

    Instead of executing locally, ``audit`` ships the program (via the
    round-tripping pretty-printer) and inputs to a pool of
    ``repro serve`` nodes through a
    :class:`~repro.service.fleet.FleetDispatcher`: consistent-hash
    routing on the alpha-invariant program fingerprint, row-splitting
    of large batches, health-aware retry/ejection.  The merged payload
    is byte-identical to the single-node (and one-shot CLI) audit of
    the same request with the *inner* engine — ``batch`` by default,
    ``sharded`` to also fan out across processes per node; the
    ``engine`` field of the payload names the inner engine, preserving
    the byte-parity contract.

    The node pool is engine-instance state (an :class:`AuditRequest`
    carries audit semantics, not transport): wire it with
    ``configure(nodes=...)``, the CLI's ``--nodes``, or ``$REPRO_NODES``.
    An unconfigured remote audit raises ``ValueError`` — the CLI renders
    it as an ``error:`` line and the server as HTTP 422.  Sub-requests
    always name a non-remote inner engine, so a front-door server whose
    environment sets ``$REPRO_NODES`` cannot recurse.
    """

    name: str

    def __init__(self) -> None:
        self._nodes: Optional[Any] = None
        self._inner_engine: str = "batch"
        self._options: Dict[str, Any] = {}
        self._dispatcher: Optional[Any] = None
        self._dispatcher_source: Optional[Any] = None

    def configure(
        self,
        nodes: Optional[Any] = None,
        *,
        inner_engine: Optional[str] = None,
        reset: bool = False,
        **options: Any,
    ) -> "RemoteEngine":
        """Set the node pool, inner engine, and dispatcher options.

        ``options`` pass through to
        :class:`~repro.service.fleet.FleetDispatcher` (``timeout``,
        ``retries``, ``eject_after``, ...).  ``reset=True`` drops all
        prior configuration first (tests).  Returns ``self``.
        """
        if reset:
            self._nodes = None
            self._inner_engine = "batch"
            self._options = {}
        if nodes is not None:
            self._nodes = nodes
        if inner_engine is not None:
            self._inner_engine = inner_engine
        self._options.update(options)
        self._dispatcher = None
        self._dispatcher_source = None
        return self

    @property
    def dispatcher(self) -> Any:
        """The live dispatcher (resolving the node pool on first use)."""
        return self._resolve_dispatcher()

    def _resolve_dispatcher(self) -> Any:
        import os

        from ..service.fleet import FleetDispatcher

        source = (
            self._nodes
            if self._nodes is not None
            else os.environ.get("REPRO_NODES")
        )
        if not source:
            raise ValueError(
                "engine 'remote' needs a node pool: pass --nodes "
                "host:port,host:port, call "
                "get_engine('remote').configure(nodes=...), or set "
                "$REPRO_NODES"
            )
        if self._dispatcher is None or self._dispatcher_source != source:
            self._dispatcher = FleetDispatcher(source, **self._options)
            self._dispatcher_source = source
        return self._dispatcher

    def _spec_of_request(self, request: AuditRequest) -> Dict[str, Any]:
        from ..core import pretty_program
        from .options import to_spec

        return to_spec(
            pretty_program(request.program),
            _wire_inputs(request.inputs),
            request.definition.name,
            engine=self._inner_engine,
            workers=request.workers if self._inner_engine == "sharded" else None,
            precision_bits=request.precision_bits,
            u=request.u,
            exact_backend=request.exact_backend,
            rows=request.collect_rows,
            sweep_bits=request.sweep_bits,
            compose=request.compose,
        )

    def _route_fingerprint(self, request: AuditRequest) -> Optional[str]:
        from ..service.fingerprint import (
            UnfingerprintableError,
            fingerprint_program,
        )

        try:
            return fingerprint_program(request.program, kind="fleet-route")
        except UnfingerprintableError:
            return None  # route by source text instead

    def audit(self, request: AuditRequest) -> AuditResult:
        from ..service.fleet import RemoteFleetReport

        dispatcher = self._resolve_dispatcher()
        body = dispatcher.audit_spec(
            self._spec_of_request(request),
            fingerprint=self._route_fingerprint(request),
        )
        parsed = AuditResult.from_json(body)
        report = RemoteFleetReport(parsed.payload, dispatcher.describe_nodes())
        return AuditResult(report, parsed.payload, parsed.sound, parsed.batch)

    def audit_stream(self, request: AuditRequest) -> Any:
        """The streaming counterpart of ``audit``: an iterator of
        header/row/trailer events, rows in strict global row order,
        merged across split sub-streams by the dispatcher."""
        dispatcher = self._resolve_dispatcher()
        spec = self._spec_of_request(request)
        spec["rows"] = True
        return dispatcher.audit_stream_spec(
            spec, fingerprint=self._route_fingerprint(request)
        )


def _wire_inputs(inputs: Mapping[str, Any]) -> Dict[str, Any]:
    """JSON-serializable inputs (NumPy arrays/scalars go via tolist/item)."""
    wire: Dict[str, Any] = {}
    for name, value in inputs.items():
        if hasattr(value, "tolist"):
            wire[name] = value.tolist()
        elif hasattr(value, "item") and not isinstance(value, (int, float)):
            wire[name] = value.item()
        else:
            wire[name] = value
    return wire
