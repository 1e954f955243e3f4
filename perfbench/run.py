"""The repository benchmark: four audit workloads, end to end and by layer.

    python3 perfbench/run.py --workload audit-batch --seed 1 --seconds 25 --trace 0

runs one workload and prints every end-to-end metric with its unit,
then, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 1`` instead reports the
per-layer metrics of BENCHMARK.json: it measures half the time
untraced, then wraps the layers' public functions (``spans.py``) and
measures the same request sequence again.  The spans go to
``perfbench/.out/trace-<workload>.jsonl``.

    python3 perfbench/run.py --steadiness --runs 5 [--workloads a,b]

runs each workload with ``--runs`` different seeds and prints, per
end-to-end metric, the median, quartiles and their spread against the
bound in BENCHMARK.json.

A workload is a fixed set of distinct requests.  The run is a closed
loop of *rounds* (one caller, each request sent when the previous one
has answered): every round sends each distinct request once, in a
seeded order, and no new round starts once ``--seconds`` of request
time have passed.

Times are reported at a fixed host speed.  On a shared VM the speed of
the same code moves by up to 1.5x, in stretches that last from seconds
to minutes, so a run may fall wholly in a slow stretch.  The runner
therefore times a fixed pure-Python loop (``reference_loop``) after
every request, outside the request's timing; each request's latency
is scaled by ``REFERENCE_S`` over the median of the loop timings around
it, and the end-to-end metrics are taken over the scaled latencies of
all requests of the run.  Set-up time is the median over ``SETUP_PROBES`` fresh processes, each
timed from spawn to ready and scaled by the loop timed around it.  The
metric lines printed above the result also give the unscaled values.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120.0
#: What ``reference_loop`` takes on a 2-vCPU Intel Xeon VM at its faster
#: speed: reported times are what that host would have measured.
REFERENCE_S = 1.2e-3
#: Loop timings on each side of a request that set its host speed.
REFERENCE_SPAN = 3


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop takes now: the host's speed."""
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i % 7
    return time.perf_counter() - start


def quantile(values: List[float], q: float) -> float:
    """Linear-interpolation quantile of ``values`` (0 <= q <= 1)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Sample:
    __slots__ = ("request", "start", "end", "first_row", "rows", "error",
                 "bytes_in", "bytes_out", "scale")

    def __init__(self, request: Any, start: float, end: float) -> None:
        self.request = request
        self.start = start
        self.end = end
        self.first_row: Optional[float] = None
        self.rows = 0
        self.error: Optional[str] = None
        self.bytes_in = 0
        self.bytes_out = 0
        self.scale = 1.0  # REFERENCE_S over the host's loop time around it

    @property
    def latency(self) -> float:
        return self.end - self.start


def run_window(workload: Any, seconds: float, tracer: Any = None) -> List[Sample]:
    """Whole rounds of the workload's requests for ``seconds`` of request time."""
    requests = workload.requests()
    samples: List[Sample] = []
    loops = [reference_loop()]  # loops[i] and loops[i + 1] bracket samples[i]
    busy = 0.0
    while busy < seconds:
        for request in workload.next_round():
            if tracer is not None:
                tracer.begin_request(f"{request.key}#{workload.round}")
            start = time.perf_counter()
            try:
                outcome = workload.execute(request)
                error = None
            except Exception as exc:  # a failed request is counted, not fatal
                outcome, error = None, f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
            if tracer is not None:
                tracer.end_request()
            loops.append(reference_loop())
            busy += end - start
            sample = Sample(request, start, end)
            sample.error = error
            if outcome is not None:
                sample.rows = outcome.rows
                sample.first_row = outcome.first_row_at
                try:
                    sample.error = workload.check(request, outcome)
                except Exception as exc:
                    sample.error = f"check raised {type(exc).__name__}: {exc}"
                sample.bytes_in, sample.bytes_out = outcome.bytes_in, outcome.bytes_out
            samples.append(sample)
    if len(samples) < len(requests):
        raise RuntimeError("the window ended inside its first round")
    for i, sample in enumerate(samples):
        around = loops[max(0, i + 1 - REFERENCE_SPAN): i + 1 + REFERENCE_SPAN]
        sample.scale = REFERENCE_S / statistics.median(around)
    return samples


def end_to_end(workload: Any, samples: List[Sample], setup_s: float,
               scaled: bool = True) -> Dict[str, float]:
    good = [s for s in samples if s.error is None]
    if not good:
        raise RuntimeError("no request succeeded")
    scales = [s.scale if scaled else 1.0 for s in good]
    latencies = [s.latency * k * 1e3 for s, k in zip(good, scales)]
    elapsed = sum(latencies) / 1e3
    firsts = [(s.first_row - s.start) * k * 1e3
              for s, k in zip(good, scales) if s.first_row is not None]
    if not firsts:
        # A buffered answer delivers its first row with the whole response.
        firsts = latencies
    return {
        "setup_s": setup_s,
        "requests_per_s": len(good) / elapsed,
        "latency_p50_ms": quantile(latencies, 0.5),
        "latency_p90_ms": quantile(latencies, 0.9),
        "rows_per_s": sum(s.rows for s in good) / elapsed,
        "first_row_p50_ms": quantile(firsts, 0.5),
        "peak_rss_mb": workload.peak_rss_mb(),
    }


def probe_setup(workload: str, seed: int) -> Tuple[float, float]:
    """Seconds from spawning a fresh process to the workload being ready,
    unscaled and scaled.  The process times the reference loop around
    its set-up and reports what the loops took."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=str(ROOT), stdout=subprocess.PIPE,
    )
    try:
        buffered = b""
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while not buffered.endswith(b"\n"):
                left = start + PROBE_TIMEOUT_S - time.perf_counter()
                if left <= 0 or not sel.select(left):
                    raise RuntimeError("set-up probe timed out")
                chunk = os.read(proc.stdout.fileno(), 4096)
                if not chunk:
                    raise RuntimeError("set-up probe exited before ready")
                buffered += chunk
        ready = time.perf_counter() - start
        proc.stdout.read()
        if proc.wait(PROBE_TIMEOUT_S) != 0:
            raise RuntimeError("set-up probe failed")
        word, host, spent = buffered.split()
        if word != b"ready":
            raise RuntimeError(f"set-up probe said {buffered!r}")
        ready -= float(spent)
        return ready, ready * REFERENCE_S / float(host)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def source_loc() -> int:
    total = 0
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        with open(path, encoding="utf-8") as handle:
            total += sum(1 for line in handle if line.strip())
    return total


def meta(workload: Any) -> Dict[str, Any]:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_repro_loc": source_loc(),
        **workload.meta(),
    }


def run_once(args: argparse.Namespace) -> int:
    from spans import Tracer
    from workloads import OUT_DIR, WORKLOADS

    workload = WORKLOADS[args.workload]()
    if args.setup_probe:
        loops = [reference_loop() for _ in range(REFERENCE_SPAN)]
        workload.setup(args.seed)
        loops += [reference_loop() for _ in range(REFERENCE_SPAN)]
        # The host's loop time, and the loops' share of the set-up time.
        print(f"ready {statistics.median(loops)!r} {sum(loops)!r}", flush=True)
        problem = workload.teardown()
        return 1 if problem else 0

    setup_s = raw_setup_s = 0.0
    if not args.trace:
        probes = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        raw_setup_s = statistics.median(raw for raw, _ in probes)
        setup_s = statistics.median(scaled for _, scaled in probes)
    problems: List[str] = []
    samples: List[Sample] = []
    metrics: Dict[str, float] = {}
    unscaled: Dict[str, float] = {}
    try:
        workload.setup(args.seed)
        if not args.trace:
            samples = run_window(workload, args.seconds)
        else:
            untraced = run_window(workload, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            tracer.enabled = True
            traced = run_window(workload, args.seconds / 2, tracer)
            tracer.enabled = False
            tracer.uninstall()
            samples = untraced + traced
        problem = workload.finish()
        if problem:
            problems.append(problem)
        if not args.trace:
            metrics = end_to_end(workload, samples, setup_s)
            unscaled = end_to_end(workload, samples, raw_setup_s, scaled=False)
            del unscaled["peak_rss_mb"]
        else:
            metrics = layer_metrics(workload, tracer, untraced, traced)
            OUT_DIR.mkdir(parents=True, exist_ok=True)
            tracer.dump(str(OUT_DIR / f"trace-{args.workload}.jsonl"))
    finally:
        problem = workload.teardown()
        if problem:
            problems.append(problem)

    failed = sum(1 for s in samples if s.error is not None)
    for s in samples:
        if s.error is not None:
            print(f"failed: {s.request.program}: {s.error}", file=sys.stderr)
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"workload {args.workload}: seed {args.seed}, {len(samples)} requests "
          f"({len(samples) // len(workload.requests())} rounds), {failed} failed (fail_frac {failed / max(len(samples), 1):.4f})")
    bench = benchmark()
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    report = {}
    for name, value in metrics.items():
        unit = units[name]
        report[name] = {"value": value, "unit": unit}
        raw = f"  (unscaled {unscaled[name]:.6g})" if name in unscaled else ""
        print(f"  {name:<40} {value:>14.6g} {unit}{raw}")
    print("meta " + json.dumps(meta(workload), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(samples),
        "failed": failed,
        "metrics": report,
    }))
    return 0


def layer_metrics(workload: Any, tracer: Any, untraced: List[Sample],
                  traced: List[Sample]) -> Dict[str, float]:
    n = len(traced)
    metrics = tracer.layer_metrics(n, sum(s.latency for s in traced))
    metrics["service.client.bytes_in"] = sum(s.bytes_in for s in traced) / max(n, 1)
    metrics["service.client.bytes_out"] = sum(s.bytes_out for s in traced) / max(n, 1)
    metrics.update(workload.layer_counters())
    # Overhead: both windows send whole rounds of the same requests, so
    # their mean scaled latencies compare like with like.
    def mean_scaled(samples: List[Sample]) -> float:
        return sum(s.latency * s.scale for s in samples) / len(samples)

    metrics["trace.overhead_frac"] = mean_scaled(traced) / mean_scaled(untraced) - 1.0
    return metrics


def benchmark() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def steadiness(args: argparse.Namespace) -> int:
    """Run each workload ``--runs`` times and print the metric spreads."""
    bench = benchmark()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]
    ]
    seconds = args.seconds or bench["run_seconds"]
    worst = 0.0
    for name in names:
        values: Dict[str, List[float]] = {}
        for i in range(args.runs):
            seed = args.seed + i
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=str(ROOT), capture_output=True, text=True, timeout=600,
            )
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: incorrect run\n{out.stderr}", file=sys.stderr)
                return 1
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
            ), flush=True)
        print(f"\n{name}: {args.runs} runs")
        print(f"  {'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}  spread/bound")
        for metric, series in values.items():
            q1, med, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / med
            share = spread / bounds[metric]
            if metric != "setup_s":
                worst = max(worst, share)
            print(f"  {metric:<18}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                  f"{spread:>9.3f}{bounds[metric]:>8.2f}  {share:.2f}")
        print(flush=True)
    print(f"largest spread/bound (setup_s excluded): {worst:.2f}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--workloads", default=None)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no Bean sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    if args.steadiness:
        return steadiness(args)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = benchmark()["run_seconds"]
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
