"""Layer spans recorded by wrapping the program's public functions.

The program has no spans of its own yet, so the traced run replaces a
fixed list of public functions (``LAYERS``) with timing wrappers from
the outside.  A wrapper records one span per call (one per resume for a
generator): name, start, end, parent span and request id.  A
span's self time is its duration minus its children's, so the self
times of one request's spans add up to the time its root call took.

Nothing here is installed in an untraced run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

EFT_FUNCTIONS = (
    "dd_add", "dd_sub", "dd_mul", "dd_div", "dd_sqrt", "two_sum", "two_prod",
)
# (layer, module, attribute) of every wrapped call.  The attribute may
# name a class method as ``Class.method``.
LAYERS: List[Tuple[str, str, str]] = [
    ("core.parser", "repro.core.parser", "parse_program"),
    ("core.checker", "repro.core.checker", "check_program"),
    ("ir.lower", "repro.ir.lower", "lower_definition"),
    ("ir.cache", "repro.ir.cache", "semantic_definition_ir"),
    ("ir.infer", "repro.ir.infer", "infer_definition_ir"),
    ("semantics.interp", "repro.semantics.interp", "lens_of_program"),
    ("semantics.batch", "repro.semantics.batch", "BatchWitnessEngine.run"),
    ("semantics.witness", "repro.semantics.witness", "run_witness"),
    ("api.result", "repro.api.result", "batch_report_payload"),
    ("api.result", "repro.api.result", "scalar_report_payload"),
    ("api.result", "repro.api.result", "AuditResult.to_json"),
    ("api.result", "repro.api.result", "render_payload"),
    ("api.result", "repro.api.result", "render_stream_line"),
    ("api.stream", "repro.api.stream", "stream_audit_events"),
    ("api.session", "repro.api.session", "Session.audit"),
    ("service.client", "repro.service.client", "audit"),
    ("service.client", "repro.service.client", "audit_stream"),
] + [("semantics.eft", "repro.semantics.eft", fn) for fn in EFT_FUNCTIONS]

#: Functions whose string result is rendered output (``api.result.bytes``).
RENDERERS = {"render_payload", "render_stream_line"}

# Span record fields (a list per span keeps recording cheap).
NAME, START, END, PARENT, REQUEST, CHILD_S, AMOUNT = range(7)


class Tracer:
    """In-memory span store with a per-thread span stack."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- per-thread state ---------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_request(self, request_id: str) -> None:
        self._local.request = request_id

    def end_request(self) -> None:
        self._local.request = None

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        stack = self._stack()
        span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                getattr(self._local, "request", None), 0.0, 0]
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def _close(self, index: int, amount: int = 0) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter()
        span[AMOUNT] = amount
        self._stack().pop()
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD_S] += span[END] - span[START]

    def wrap(self, name: str, fn: Callable,
             amount: Optional[Callable[[tuple, Any], int]] = None) -> Callable:
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator(*args: Any, **kwargs: Any) -> Any:
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                if name == "api.stream:stream_audit_events":
                    args = (tracer.wrap("api.stream:chunk", args[0]),) + args[1:]
                return tracer._resumes(name, fn(*args, **kwargs))

            return generator

        @functools.wraps(fn)
        def call(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = tracer._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(index, amount(args, result) if amount and result is not None else 0)

        return call

    def _resumes(self, name: str, gen: Any) -> Any:
        """Relay ``gen``, one span per resume; the first resume of a call
        is marked (amount 1) so the time to its first item is known."""
        first = 1
        while True:
            index = self._open(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(index, first)
            first = 0
            yield item

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Replace every ``LAYERS`` function, wherever a ``repro`` module
        holds a reference to it (``from x import f`` copies included)."""
        amounts: Dict[str, Callable[[tuple, Any], int]] = {
            "parse_program": lambda args, _r: len(args[0]),
            "BatchWitnessEngine.run": lambda _a, report: int(report.n_rows),
            "render_payload": lambda _a, text: len(text),
            "render_stream_line": lambda _a, text: len(text),
        }
        for layer, module_name, attr in LAYERS:
            module = importlib.import_module(module_name)
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                wrapped = self.wrap(f"{layer}:{method}", original, amounts.get(attr))
                self._restore.append((owner, method, original))
                setattr(owner, method, wrapped)
                continue
            original = getattr(module, method)
            wrapped = self.wrap(f"{layer}:{method}", original, amounts.get(attr))
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "")
                if mod_name != "repro" and not mod_name.startswith("repro."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results --------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span as one JSON array line; the first line names
        the fields.  ``parent`` is the parent span's index (its line
        number minus 2), or -1 for a root span."""
        with open(path, "w", encoding="utf-8") as out:
            out.write('["name","start","end","parent","request"]\n')
            for span in self.spans:
                out.write(json.dumps(
                    [span[NAME], round(span[START], 7), round(span[END], 7),
                     span[PARENT], span[REQUEST]], separators=(",", ":")
                ) + "\n")

    def layer_metrics(self, requests: int, wall_s: float) -> Dict[str, float]:
        """Per-layer metrics, normalised per traced request.

        ``wall_s`` is the summed wall time of the traced requests; the
        share of it that span self times cover is ``trace.coverage_frac``.
        """
        n = max(requests, 1)
        self_s: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        amount: Dict[str, int] = {}
        spans = self.spans
        for span in spans:
            name = span[NAME]
            self_s[name] = self_s.get(name, 0.0) + (span[END] - span[START] - span[CHILD_S])
            calls[name] = calls.get(name, 0) + 1
            amount[name] = amount.get(name, 0) + span[AMOUNT]

        def total(prefix: str, table: Dict[str, float]) -> float:
            return sum(v for k, v in table.items() if k.startswith(prefix))

        m: Dict[str, float] = {}
        parse_s = self_s.get("core.parser:parse_program", 0.0)
        m["core.parser.calls"] = calls.get("core.parser:parse_program", 0) / n
        m["core.parser.self_s"] = parse_s / n
        m["core.parser.bytes_per_s"] = (
            amount.get("core.parser:parse_program", 0) / parse_s if parse_s else 0.0
        )
        m["core.checker.calls"] = calls.get("core.checker:check_program", 0) / n
        m["core.checker.self_s"] = self_s.get("core.checker:check_program", 0.0) / n
        lowers = calls.get("ir.lower:lower_definition", 0)
        m["ir.lower.calls"] = lowers / n
        m["ir.lower.self_s"] = (
            self_s.get("ir.lower:lower_definition", 0.0)
            + self_s.get("ir.cache:semantic_definition_ir", 0.0)
        ) / n
        lookups = [i for i, s in enumerate(spans) if s[NAME] == "ir.cache:semantic_definition_ir"]
        built = {s[PARENT] for s in spans if s[NAME] == "ir.lower:lower_definition"}
        misses = sum(1 for i in lookups if i in built)
        m["ir.cache.hit_ratio"] = 1.0 - misses / len(lookups) if lookups else 0.0
        m["ir.infer.calls"] = calls.get("ir.infer:infer_definition_ir", 0) / n
        m["ir.infer.self_s"] = self_s.get("ir.infer:infer_definition_ir", 0.0) / n
        m["semantics.interp.calls"] = calls.get("semantics.interp:lens_of_program", 0) / n
        m["semantics.interp.self_s"] = self_s.get("semantics.interp:lens_of_program", 0.0) / n
        batch_rows = amount.get("semantics.batch:run", 0)
        m["semantics.batch.calls"] = calls.get("semantics.batch:run", 0) / n
        m["semantics.batch.rows"] = batch_rows / n
        m["semantics.batch.self_s"] = self_s.get("semantics.batch:run", 0.0) / n
        for fn in EFT_FUNCTIONS:
            m[f"semantics.eft.{fn}.calls"] = calls.get(f"semantics.eft:{fn}", 0) / n
            m[f"semantics.eft.{fn}.self_s"] = self_s.get(f"semantics.eft:{fn}", 0.0) / n
        witness = [s for s in spans if s[NAME] == "semantics.witness:run_witness"]
        from_batch = sum(1 for s in witness if self._under(s, "semantics.batch:run"))
        m["semantics.witness.rows"] = len(witness) / n
        m["semantics.witness.self_s"] = self_s.get("semantics.witness:run_witness", 0.0) / n
        m["semantics.batch.screen_decided_frac"] = (
            1.0 - from_batch / batch_rows if batch_rows else 0.0
        )
        m["api.result.payload_self_s"] = (
            self_s.get("api.result:batch_report_payload", 0.0)
            + self_s.get("api.result:scalar_report_payload", 0.0)
        ) / n
        m["api.result.render_self_s"] = (
            total("api.result:render", self_s) + self_s.get("api.result:to_json", 0.0)
        ) / n
        m["api.result.bytes"] = sum(amount.get(f"api.result:{f}", 0) for f in RENDERERS) / n
        m["api.stream.chunks"] = calls.get("api.stream:chunk", 0) / n
        firsts = sorted(
            s[END] - s[START] for s in spans
            if s[NAME] == "api.stream:stream_audit_events" and s[AMOUNT] == 1
        )
        m["api.stream.first_chunk_s"] = firsts[len(firsts) // 2] if firsts else 0.0
        m["api.session.self_s"] = self_s.get("api.session:audit", 0.0) / n
        client = ("service.client:audit", "service.client:audit_stream")
        m["service.client.calls"] = sum(
            1 for s in spans
            if s[NAME] == client[0] or (s[NAME] == client[1] and s[AMOUNT] == 1)
        ) / n
        m["service.client.busy_s"] = sum(
            s[END] - s[START] for s in spans if s[NAME] in client
        ) / n
        m["trace.coverage_frac"] = sum(self_s.values()) / wall_s if wall_s else 0.0
        return m

    def _under(self, span: list, name: str) -> bool:
        parent = span[PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] == name:
                return True
            parent = self.spans[parent][PARENT]
        return False
