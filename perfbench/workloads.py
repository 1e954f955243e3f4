"""The four audit workloads.

Each workload generates its programs and inputs from the seed in
``setup`` (nothing there is timed by the run) and builds a fixed list of
distinct requests.  The runner sends them in rounds: ``next_round``
gives every request once, in a seeded order, so each round has the same
mix whatever the seed; the runner only stops between rounds.

``execute`` is the timed part of a request.  ``check`` compares its
output with a known answer and runs outside the timed window.
"""

from __future__ import annotations

import json
import os
import resource
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

import programs as P

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / ".out"


@dataclass
class Request:
    program: str  # e.g. "Horner60"
    key: str  # the distinct request, e.g. "Horner60x120"
    data: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Outcome:
    rows: int
    first_row_at: Optional[float] = None  # perf_counter of the first row
    value: Any = None  # what ``check`` inspects
    bytes_in: int = 0
    bytes_out: int = 0


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def known_grades(family: str, n: int) -> Dict[str, str]:
    """Every parameter's expected grade: the Higham bound on the linear
    input, 0 on discrete ones; SafeDiv's fallback vector f only passes
    through the n-1 additions (recursive summation, §4.2)."""
    grade = P.HIGHAM_GRADE[family](n)
    if family == "SafeDiv":
        return {"x": P.grade_text(grade), "y": P.grade_text(grade),
                "f": P.grade_text(Fraction(n - 1))}
    out = {P.LINEAR_PARAM[family]: P.grade_text(grade)}
    if family != "Sum":
        out["y" if family == "DotProd" else "z"] = "0"
    return out


def _all_rows_sound(payload: Dict[str, Any], rows: int) -> Optional[str]:
    if payload.get("n_rows") != rows:
        return f"n_rows {payload.get('n_rows')} != {rows}"
    if payload.get("all_sound") is not True or payload.get("sound_rows") != rows:
        return f"only {payload.get('sound_rows')}/{rows} rows sound"
    if "rows" in payload and not all(r["sound"] for r in payload["rows"]):
        return "a per-row witness is not sound"
    return None


class Workload:
    name = ""
    round = -1  # the round last handed out by ``next_round``

    def setup(self, seed: int) -> None:
        """Generate everything from ``seed``; set ``seed`` and ``_requests``."""
        raise NotImplementedError

    def requests(self) -> List[Request]:
        return self._requests

    def next_round(self) -> List[Request]:
        """Every request once, in the next round's seeded order."""
        self.round += 1
        self.start_round()
        order = _rng(self.seed, 1000, self.round).permutation(len(self._requests))
        return [self._requests[k] for k in order]

    def start_round(self) -> None:
        """Per-round preparation of the requests (untimed)."""

    def execute(self, request: Request) -> Outcome:
        raise NotImplementedError

    def check(self, request: Request, outcome: Outcome) -> Optional[str]:
        """``None`` when the output is right, else what is wrong."""
        raise NotImplementedError

    def finish(self) -> Optional[str]:
        """Checks that need the whole run (after the timed window)."""
        return None

    def peak_rss_mb(self) -> float:
        return _self_peak_rss_mb()

    def layer_counters(self) -> Dict[str, float]:
        """Per-layer metrics the workload reads from outside the spans."""
        return {"service.server.prep_hit_ratio": 0.0,
                "service.server.audit_failures": 0.0,
                "service.server.http_errors": 0.0}

    def meta(self) -> Dict[str, Any]:
        return {"callers": 1, "distinct_requests": len(self._requests)}

    def teardown(self) -> Optional[str]:
        return None


# --------------------------------------------------------------------------
# In-process warm Session: audit-batch and audit-rows
# --------------------------------------------------------------------------

#: The warm workloads' programs (family, size).
WARM_PROGRAMS = [("Horner", 60), ("DotProd", 100), ("MatVecMul", 10),
                 ("Sum", 100), ("SafeDiv", 40)]

#: Row counts, as shares of a workload's mean ``rows``: each program is
#: three distinct requests, so latencies spread over 15 levels instead
#: of five clusters whose gaps p50 and p90 could straddle.
ROW_LADDER = (0.6, 1.0, 1.4)


class _WarmSession(Workload):
    rows = 0  # mean rows per request
    zero_divisor_rows = 0
    audit_options: Dict[str, Any] = {}

    def setup(self, seed: int) -> None:
        from repro.api import Session

        self.seed = seed
        self.session = Session()
        self.programs: Dict[str, Any] = {}
        self._requests = []
        most = int(self.rows * max(ROW_LADDER))
        fewest = int(self.rows * min(ROW_LADDER))
        for k, (family, n) in enumerate(WARM_PROGRAMS):
            key = f"{family}{n}"
            program = self.session.parse(P.source(family, n))
            self.session.check(program)
            self.programs[key] = program
            env = P.inputs(family, n, most, _rng(seed, k), self.zero_divisor_rows, fewest)
            for share in ROW_LADDER:
                rows = int(self.rows * share)
                self._requests.append(Request(key, f"{key}x{rows}",
                                              {"rows": rows, "inputs": env}))
            # Warm the identity caches (lowering, inlining, lens) and
            # the lazily imported engine modules.
            warm = {name: col[:8] for name, col in env.items()}
            self._drain(self.session.audit(program, inputs=warm, engine="batch",
                                           **self.audit_options))

    def _drain(self, result: Any) -> Any:
        return result

    def start_round(self) -> None:
        # Fresh array views each round: no request repeats an input object.
        for request in self._requests:
            rows = request.data["rows"]
            request.data["env"] = {name: col[:rows]
                                   for name, col in request.data["inputs"].items()}


class AuditBatch(_WarmSession):
    """Buffered batch audits of 1,500-3,500 fresh rows on a warm Session."""

    name = "audit-batch"
    rows = 2500
    zero_divisor_rows = 2  # 0.08% of the mean 2,500 SafeDiv rows

    def execute(self, request: Request) -> Outcome:
        result = self.session.audit(self.programs[request.program],
                                    inputs=request.data["env"], engine="batch")
        return Outcome(rows=request.data["rows"], value=result)

    def check(self, request: Request, outcome: Outcome) -> Optional[str]:
        return _all_rows_sound(outcome.value.payload, request.data["rows"])


class AuditRows(_WarmSession):
    """Local row streams (schema-v4 per-row witnesses) on a warm Session."""

    name = "audit-rows"
    rows = 200
    audit_options = {"stream": True}

    def setup(self, seed: int) -> None:
        super().setup(seed)
        self.compared: set = set()

    def _drain(self, result: Any) -> Any:
        for _ in result.lines():
            pass
        return result

    def execute(self, request: Request) -> Outcome:
        stream = self.session.audit(self.programs[request.program],
                                    inputs=request.data["env"], engine="batch",
                                    stream=True)
        first = None
        for line in stream.lines():  # the NDJSON a streaming caller emits
            if first is None and line.startswith('{"row"'):
                first = time.perf_counter()
        return Outcome(rows=request.data["rows"], first_row_at=first, value=stream)

    def check(self, request: Request, outcome: Outcome) -> Optional[str]:
        stream = outcome.value
        wrong = _all_rows_sound(stream.payload(), request.data["rows"])
        if wrong or request.program in self.compared:
            return wrong
        # The first stream of each program must reassemble into the
        # exact bytes of the buffered audit of the same rows.
        self.compared.add(request.program)
        buffered = self.session.audit(self.programs[request.program],
                                      inputs=request.data["env"], engine="batch",
                                      rows=True)
        if stream.text != buffered.to_json():
            return "reassembled stream differs from the buffered payload"
        return None


# --------------------------------------------------------------------------
# audit-cold: new Session, parse, check and ir audit per request
# --------------------------------------------------------------------------

COLD_PROGRAMS = [(f, n) for f, sizes in P.TABLE1_SIZES.items() for n in sizes] + [
    ("SafeDiv", 20), ("SafeDiv", 50), ("SafeDiv", 100)
]
TAG = "\x00"  # placeholder for the per-request binder suffix


class AuditCold(Workload):
    """One environment per request through the whole front end."""

    name = "audit-cold"

    def setup(self, seed: int) -> None:
        from repro.api import Session

        self.seed = seed
        self.session_type = Session
        self.templates: Dict[str, str] = {}
        self.envs: Dict[str, Dict[str, Any]] = {}
        self.expected: Dict[str, Dict[str, str]] = {}
        self._requests = []
        for k, (family, n) in enumerate(COLD_PROGRAMS):
            key = f"{family}{n}"
            self.templates[key] = P.source(family, n, TAG)
            self.envs[key] = P.one_row(P.inputs(family, n, 1, _rng(seed, k)))
            self.expected[key] = known_grades(family, n)
            self._requests.append(Request(key, key))
        # Import what the first audit would import lazily.
        warm = Session()
        warm.audit(warm.parse(P.source("SafeDiv", 2)),
                   inputs={"x": [1.0, 2.0], "y": [3.0, 4.0], "f": [5.0, 6.0]})

    def start_round(self) -> None:
        # Fresh text each round: every binder gets the round's suffix.
        for request in self._requests:
            request.data["text"] = self.templates[request.key].replace(TAG, f"_{self.round}")

    def execute(self, request: Request) -> Outcome:
        session = self.session_type()
        program = session.parse(request.data["text"])
        session.check(program)
        result = session.audit(program, inputs=self.envs[request.program])
        return Outcome(rows=1, value=result)

    def check(self, request: Request, outcome: Outcome) -> Optional[str]:
        result = outcome.value
        if not result.sound:
            return "witness not sound"
        grades = {k: v["grade"] for k, v in result.payload["params"].items()}
        if grades != self.expected[request.program]:
            return f"grades {grades} != closed forms {self.expected[request.program]}"
        return None


# --------------------------------------------------------------------------
# serve-mixed: a `repro serve` subprocess and a one-connection client
# --------------------------------------------------------------------------

SERVE_SAFEDIV_SIZES = list(range(8, 24))  # 16 distinct programs
SERVE_SAFEDIV_ROWS = 200
SERVE_STREAM_ROWS = 500
SERVE_STREAMS = 4  # Horner60 streams per round beside 16 SafeDiv audits: 20%
SERVE_HEAVY_THREADS = 2
SERVER_START_TIMEOUT_S = 60.0
SERVER_STOP_TIMEOUT_S = 10.0


class ServeMixed(Workload):
    """80% buffered SafeDiv batch audits, 20% streamed Horner60 rows."""

    name = "serve-mixed"
    host = "127.0.0.1"

    def setup(self, seed: int) -> None:
        from repro.service import client

        self.client = client
        self.seed = seed
        self.specs: Dict[str, Dict[str, Any]] = {}
        self.spec_bytes: Dict[str, int] = {}
        self._requests = []
        for k, n in enumerate(SERVE_SAFEDIV_SIZES):
            env = P.inputs("SafeDiv", n, SERVE_SAFEDIV_ROWS, _rng(seed, k))
            self._add_spec(Request(f"SafeDiv{n}", f"SafeDiv{n}"), {
                "source": P.source("SafeDiv", n),
                "inputs": {name: col.tolist() for name, col in env.items()},
                "engine": "batch",
            })
        for j in range(SERVE_STREAMS):
            env = P.inputs("Horner", 60, SERVE_STREAM_ROWS, _rng(seed, 99 + j))
            self._add_spec(Request("Horner60", f"Horner60#{j}"), {
                "source": P.source("Horner", 60),
                "inputs": {name: col.tolist() for name, col in env.items()},
                "engine": "batch",
                "stream": True,
            })
        self.first_stream: Optional[str] = None  # key of the first checked stream
        self.proc: Optional[subprocess.Popen] = None
        self._start_server()
        # Import the engines' lazy modules on the server before timing,
        # with programs outside the measured set.
        status, _ = client.audit(self.host, self.port, {
            "source": P.source("SafeDiv", 2), "engine": "batch",
            "inputs": {"x": [[1.0, 2.0]], "y": [[3.0, 4.0]], "f": [[5.0, 6.0]]},
        })
        if status != 200:
            raise RuntimeError(f"warm-up audit answered HTTP {status}")
        for _ in client.audit_stream(self.host, self.port, {
            "source": P.source("Horner", 2), "engine": "batch", "stream": True,
            "inputs": {"a": [[1.0, 2.0, 3.0]], "z": [0.5]},
        }):
            pass
        self.stats_before = client.stats(self.host, self.port)

    def _add_spec(self, request: Request, spec: Dict[str, Any]) -> None:
        self._requests.append(request)
        self.specs[request.key] = spec
        self.spec_bytes[request.key] = len(json.dumps(spec).encode("utf-8"))

    def _start_server(self) -> None:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        self.log = open(OUT_DIR / "server.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--host", self.host,
             "--port", "0", "--heavy-threads", str(SERVE_HEAVY_THREADS)],
            cwd=str(ROOT), env=env, stdout=subprocess.PIPE, stderr=self.log,
        )
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        line = b""
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while not line.endswith(b"\n"):
                left = deadline - time.monotonic()
                if left <= 0 or not sel.select(left):
                    raise RuntimeError("server did not report its port in time")
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise RuntimeError("server exited before listening")
                line += chunk
        # "repro serve: listening on HOST:PORT (...)"
        address = line.decode().split("listening on ", 1)[1].split()[0]
        self.port = int(address.rsplit(":", 1)[1])
        while True:
            try:
                if self.client.healthz(self.host, self.port, timeout=5.0):
                    return
            except self.client.ClientError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server failed its health check")
            time.sleep(0.02)

    def execute(self, request: Request) -> Outcome:
        spec = self.specs[request.key]
        sent = self.spec_bytes[request.key]
        if not spec.get("stream"):
            status, body = self.client.audit(self.host, self.port, spec)
            return Outcome(rows=SERVE_SAFEDIV_ROWS, value=(status, body),
                           bytes_in=len(body), bytes_out=sent)
        first = None
        lines = []
        for obj in self.client.audit_stream(self.host, self.port, spec):
            if first is None and "row" in obj:
                first = time.perf_counter()
            lines.append(obj)
        return Outcome(rows=SERVE_STREAM_ROWS, first_row_at=first, value=lines,
                       bytes_out=sent)

    def check(self, request: Request, outcome: Outcome) -> Optional[str]:
        if request.program != "Horner60":
            status, body = outcome.value
            if status != 200:
                return f"HTTP {status}: {body[:200]}"
            return _all_rows_sound(json.loads(body), SERVE_SAFEDIV_ROWS)
        lines = outcome.value
        outcome.bytes_in = sum(
            len(json.dumps(obj, separators=(",", ":"))) + 1 for obj in lines
        )
        from repro.api.stream import RowStream, events_of_lines

        stream = RowStream(events_of_lines(lines))
        wrong = _all_rows_sound(stream.payload(), SERVE_STREAM_ROWS)
        if wrong is None and self.first_stream is None:
            self.first_stream = request.key
            self.first_text = stream.text
        return wrong

    def finish(self) -> Optional[str]:
        client = self.client
        self.stats_after = client.stats(self.host, self.port)
        if self.first_stream is None:
            return None
        # The first stream must reassemble into the buffered body.
        spec = dict(self.specs[self.first_stream])
        del spec["stream"]
        spec["rows"] = True
        status, body = client.audit(self.host, self.port, spec)
        if status != 200:
            return f"buffered rows audit answered HTTP {status}"
        if self.first_text + "\n" != body:
            return "reassembled stream differs from the buffered body"
        return None

    def peak_rss_mb(self) -> float:
        # The server's high-water mark, read before it stops.
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in the server's /proc status")

    def layer_counters(self) -> Dict[str, float]:
        before, after = self.stats_before["server"], self.stats_after["server"]

        def delta(key: str) -> int:
            return int(after[key]) - int(before[key])

        lookups = delta("prep_hits") + delta("prep_misses")
        return {
            "service.server.prep_hit_ratio": delta("prep_hits") / lookups if lookups else 0.0,
            "service.server.audit_failures": float(delta("audit_failures")),
            "service.server.http_errors": float(delta("http_errors")),
        }

    def meta(self) -> Dict[str, Any]:
        return {**super().meta(), "server_heavy_threads": SERVE_HEAVY_THREADS}

    def teardown(self) -> Optional[str]:
        proc = self.proc
        if proc is None:
            return None
        self.proc = None
        problem = None
        if proc.poll() is not None:
            problem = f"server exited early with code {proc.returncode}"
        else:
            proc.terminate()
            try:
                proc.wait(SERVER_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(SERVER_STOP_TIMEOUT_S)
                problem = "server did not stop on SIGTERM"
        proc.stdout.close()
        self.log.close()
        return problem


WORKLOADS = {w.name: w for w in (AuditBatch, AuditRows, AuditCold, ServeMixed)}
