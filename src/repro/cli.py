"""Command-line interface: the Bean bound-inference tool (Section 5.1).

Usage examples::

    repro-bean check examples/bean/dotprod2.bean
    repro-bean check program.bean --u 2^-24 --json
    repro-bean examples
    repro-bean table1 --fast
    repro-bean table2
    repro-bean table3
    repro-bean witness examples/bean/dotprod2.bean \\
        --inputs '{"x": [1.5, 2.25], "y": [3.1, -0.7]}'
    repro-bean witness program.bean --batch \\
        --inputs '{"x": [[1.0], [2.0], [3.0]]}'
    repro-bean witness program.bean --batch --workers 4 --inputs '...'
    repro-bean bench --batch --family Sum --size 100 --envs 1000
    repro-bean bench --batch --workers 4 --family SafeDiv
    repro-bean serve --port 8765
    repro-bean client program.bean --port 8765 --batch --inputs '...'

``check`` mirrors the paper's OCaml prototype: given a program with no
grade annotations it reports, per definition, the inferred type and the
tightest backward error bound of every linear input, both symbolically
(in units of ε = u/(1−u)) and numerically for the chosen unit roundoff.
``serve`` keeps all per-program work (parse, typecheck, lower, inline,
infer) warm across audit requests; ``client`` sends one audit to a
running server and prints the response — byte-identical to what
``witness --json`` prints for the same audit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

from .core import BeanError, check_program, count_flops, parse_program
from .core.types import is_discrete

__all__ = ["main", "build_parser"]


def _parse_precision_bits(text: str) -> tuple:
    """Parse ``--precision-bits``: one width, or a comma list for sweeps.

    Returns ``(precision_bits, sweep_bits)`` — exactly one is non-None.
    ``"53"`` is a plain simulated width; ``"8,16,24,53"`` is a sweep
    precision list (engine=sweep audits every width; other engines
    ignore it, like an unused ``--workers``).  Only the syntax is
    checked here; the widths face the audit option table.
    """
    parts = str(text).split(",")
    try:
        widths = [int(part) for part in parts if part.strip()]
    except ValueError:
        widths = []
    if not widths:
        raise ValueError(
            "--precision-bits must be an integer or a comma-separated "
            f"integer list, got {str(text).strip()!r}"
        )
    return (widths[0], None) if len(parts) == 1 else (None, widths)


def _engine_arg(name: str) -> str:
    """An ``--engine`` value, resolved against the engine registry.

    Engines registered by plugins or tests before :func:`main` runs are
    selectable without CLI changes.  An unregistered name is a usage
    error carrying the registry's unknown-engine message, the same text
    the Python API raises and ``repro serve`` answers with a 400.
    """
    from .api import UnknownEngineError, get_engine

    try:
        get_engine(name)
    except UnknownEngineError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return name


#: CLI-only syntax on top of the shared audit flags.
_FLAG_OVERRIDES = {
    "engine": {"type": _engine_arg},
    "precision_bits": {
        "help": (
            "simulated significand width of the run (53=binary64, "
            "24=binary32, 11=binary16); a comma list like '8,16,24,53' "
            "sets the sweep precision ladder for --engine sweep"
        ),
    },
}


def _add_audit_flags(command: argparse.ArgumentParser, *skip: str) -> None:
    """One flag per audit option that has one (see repro.api.options)."""
    from .api.options import OPTIONS

    for option in OPTIONS:
        if option.flag is None or option.name in skip:
            continue
        keywords = {"help": option.doc, **option.flag}
        keywords.update(_FLAG_OVERRIDES.get(option.name, {}))
        command.add_argument(
            "--" + option.name.replace("_", "-"), **keywords
        )


def _audit_values(args: argparse.Namespace) -> dict:
    """The audit options a witness/client command line sets."""
    from .api.options import OPTIONS

    values = {
        option.name: getattr(args, option.name)
        for option in OPTIONS
        if hasattr(args, option.name)
    }
    values["engine"] = _engine_name(args.batch, args.workers, args.engine)
    values["precision_bits"], values["sweep_bits"] = _parse_precision_bits(
        args.precision_bits
    )
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bean",
        description="Bean: static backward error analysis for numerical programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="infer backward error bounds for a .bean file")
    check.add_argument("file", help="path to a Bean source file")
    check.add_argument(
        "--u",
        default="2^-53",
        help="unit roundoff (default 2^-53, IEEE binary64 round-to-nearest)",
    )
    check.add_argument("--json", action="store_true", help="machine-readable output")

    sub.add_parser("examples", help="check the paper's Section 2/4 examples")

    t1 = sub.add_parser("table1", help="regenerate Table 1 (bounds vs. literature)")
    t1.add_argument(
        "--fast", action="store_true", help="restrict to the smaller input sizes"
    )
    sub.add_parser("table2", help="regenerate Table 2 (sin/cos vs. Fu et al.)")
    sub.add_parser("table3", help="regenerate Table 3 (forward bounds vs. baselines)")

    report = sub.add_parser(
        "report", help="full analysis report: backward + forward bounds"
    )
    report.add_argument("file", help="path to a Bean source file")
    report.add_argument("--u", default="2^-53", help="unit roundoff")
    report.add_argument(
        "--kappa",
        type=float,
        default=None,
        help="relative condition number for forward-from-backward conversion",
    )
    report.add_argument("--json", action="store_true", help="machine-readable output")

    explain = sub.add_parser(
        "explain", help="trace where a variable's backward error bound accrues"
    )
    explain.add_argument("file", help="path to a Bean source file")
    explain.add_argument(
        "--name", default=None, help="definition to explain (default: the last one)"
    )
    explain.add_argument(
        "--var",
        default=None,
        help="linear parameter to trace (default: every linear parameter)",
    )

    fmt = sub.add_parser("fmt", help="re-print a program in kernel syntax")
    fmt.add_argument("file", help="path to a Bean source file")

    erase = sub.add_parser(
        "erase", help="show the Λ_S projection (grades and modalities erased)"
    )
    erase.add_argument("file", help="path to a Bean source file")

    witness = sub.add_parser(
        "witness", help="run the backward error soundness theorem on concrete inputs"
    )
    witness.add_argument("file", help="path to a Bean source file")
    witness.add_argument(
        "--name", default=None, help="definition to run (default: the last one)"
    )
    witness.add_argument(
        "--inputs",
        required=True,
        help='JSON object mapping parameters to scalars or vectors, e.g. \'{"x": [1, 2]}\'',
    )
    witness.add_argument(
        "--batch",
        action="store_true",
        help=(
            "treat each input as a whole batch (one row per environment: "
            "a list of scalars for scalar parameters, a list of vectors "
            "for vec parameters) and run the vectorized witness engine, "
            "sharded when --workers is above 1 (overrides --engine)"
        ),
    )
    _add_audit_flags(witness, "stream")
    witness.add_argument(
        "--json",
        action="store_true",
        help=(
            "emit the canonical audit payload — the same bytes a "
            "`repro serve` response body carries for this audit"
        ),
    )
    witness.add_argument(
        "--nodes",
        default=os.environ.get("REPRO_NODES") or None,
        help=(
            "with --engine remote: comma-separated host:port pool of "
            "`repro serve` nodes to dispatch the audit to "
            "(default: $REPRO_NODES)"
        ),
    )

    serve = sub.add_parser(
        "serve",
        help="run the concurrent audit server",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8765, help="TCP port (0 = ephemeral)"
    )
    serve.add_argument(
        "--threads",
        type=int,
        default=None,
        help="audit thread pool size (default: Python's executor default)",
    )
    serve.add_argument(
        "--heavy-threads",
        type=int,
        default=None,
        help=(
            "bounded pool for batched/multiprocess engine audits, so "
            "cheap scalar and static audits never queue behind long "
            "sharded runs (default: 2)"
        ),
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="default process count for engine=sharded requests",
    )
    serve.add_argument(
        "--max-request-workers",
        type=int,
        default=None,
        help=(
            "reject audit requests asking for more shard workers than "
            "this (default: max(cpu count, 8))"
        ),
    )
    serve.add_argument(
        "--max-prepared",
        type=int,
        default=None,
        help=(
            "prepared programs kept in memory before FIFO eviction "
            "(default: 128; fleet benchmarks shrink it to model "
            "per-node cache capacity)"
        ),
    )
    serve.add_argument(
        "--stream-chunk-rows",
        type=int,
        default=None,
        help=(
            "rows audited per chunk of a streamed (NDJSON) audit "
            "response (default: 4096); smaller chunks surface first "
            "verdicts sooner at more per-chunk overhead"
        ),
    )

    client = sub.add_parser(
        "client",
        help="send one audit to a running server and print the response",
    )
    client.add_argument("file", help="path to a Bean source file")
    client.add_argument("--host", default="127.0.0.1", help="server address")
    client.add_argument("--port", type=int, default=8765, help="server port")
    client.add_argument(
        "--name", default=None, help="definition to run (default: the last one)"
    )
    client.add_argument(
        "--inputs",
        required=True,
        help="JSON object mapping parameters to scalars/vectors (or batches)",
    )
    client.add_argument(
        "--batch",
        action="store_true",
        help="audit with the batch engine, sharded when --workers is above 1",
    )
    _add_audit_flags(client)
    client.add_argument(
        "--timeout", type=float, default=300.0, help="request timeout (s)"
    )
    client.add_argument(
        "--nodes",
        default=os.environ.get("REPRO_NODES") or None,
        help=(
            "with --engine remote: comma-separated host:port pool of "
            "`repro serve` nodes; the audit is fleet-dispatched from "
            "this client instead of sent to --host/--port "
            "(default: $REPRO_NODES)"
        ),
    )

    watch = sub.add_parser(
        "watch",
        help=(
            "re-audit a .bean file on every save: first pass summarizes "
            "every definition, later passes re-derive only the edited "
            "definitions and their dependents (milliseconds per save)"
        ),
    )
    watch.add_argument("file", help="path to a Bean source file")
    watch.add_argument(
        "--u",
        default=None,
        help="unit roundoff for the bound check (default: 2^-precision_bits)",
    )
    watch.add_argument(
        "--precision-bits",
        type=int,
        default=53,
        help="simulated significand width of the witness runs",
    )
    watch.add_argument(
        "--interval",
        type=float,
        default=0.5,
        help="seconds between modification-time polls (default: 0.5)",
    )
    watch.add_argument(
        "--once",
        action="store_true",
        help="audit the file once and exit (no polling loop)",
    )

    bench = sub.add_parser(
        "bench",
        help="time flat-IR checking/evaluation and batched vs. looped witnesses",
    )
    bench.add_argument(
        "--family",
        action="append",
        default=None,
        help="benchmark family to run (repeatable; default: a standard mix)",
    )
    bench.add_argument(
        "--size", type=int, default=100, help="input size for --family cells"
    )
    bench.add_argument(
        "--envs",
        type=int,
        default=1000,
        help="number of witness environments per cell",
    )
    bench.add_argument(
        "--batch",
        action="store_true",
        help="include batched vs. looped witness throughput (the slow part)",
    )
    bench.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "with --batch: also time the sharded multiprocess witness "
            "engine with this many workers"
        ),
    )
    return parser


def _cmd_check(args: argparse.Namespace) -> int:
    from .api import parse_roundoff

    u = parse_roundoff(args.u)
    with open(args.file, encoding="utf-8") as handle:
        source = handle.read()
    start = time.perf_counter()
    program = parse_program(source)
    judgments = check_program(program)
    elapsed = time.perf_counter() - start
    if args.json:
        payload = []
        for definition in program:
            judgment = judgments[definition.name]
            bounds = {}
            for p in definition.params:
                if is_discrete(p.ty):
                    continue
                grade = judgment.grade_of(p.name)
                bounds[p.name] = {
                    "grade": str(grade),
                    "coefficient": [
                        grade.coeff.numerator,
                        grade.coeff.denominator,
                    ],
                    "bound": grade.evaluate(u),
                }
            payload.append(
                {
                    "name": definition.name,
                    "type": str(judgment.result),
                    "flops": count_flops(definition.body, program),
                    "bounds": bounds,
                }
            )
        print(json.dumps({"u": u, "seconds": elapsed, "definitions": payload}, indent=2))
        return 0
    for definition in program:
        judgment = judgments[definition.name]
        print(judgment.format(u=u))
    print(f"-- checked {len(program.definitions)} definition(s) in {elapsed:.3f}s (u = {u:.3e})")
    return 0


def _cmd_examples(_: argparse.Namespace) -> int:
    from .programs.examples import example_judgments, example_program

    program = example_program()
    judgments = example_judgments()
    for definition in program:
        print(judgments[definition.name].format())
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from .bench.table1 import format_table1, run_table1
    from .programs.generators import TABLE1_SIZES

    sizes = None
    if args.fast:
        sizes = {family: options[:2] for family, options in TABLE1_SIZES.items()}
    rows = run_table1(sizes=sizes)
    print(format_table1(rows))
    return 0


def _cmd_table2(_: argparse.Namespace) -> int:
    from .bench.table2 import format_table2, run_table2

    print(format_table2(run_table2()))
    return 0


def _cmd_table3(_: argparse.Namespace) -> int:
    from .bench.table3 import format_table3, run_table3

    print(format_table3(run_table3()))
    return 0


def _engine_name(batch: bool, workers: int, scalar_engine: str) -> str:
    """Map CLI flags to an audit engine name (shared by witness/client)."""
    if batch:
        return "sharded" if workers > 1 else "batch"
    return scalar_engine


def _configure_remote(
    nodes: Optional[str], workers: int, timeout: Optional[float] = None
) -> None:
    """Wire the remote engine's fleet for this invocation.

    The node pool is engine-instance state (an audit request carries
    semantics, not transport); ``--workers > 1`` selects the sharded
    inner engine so each node also fans rows across processes.  With
    ``nodes`` None the engine falls back to ``$REPRO_NODES`` and raises
    the usual ``error:`` line when that is unset too.
    """
    from .api import get_engine

    options = {} if timeout is None else {"timeout": timeout}
    get_engine("remote").configure(
        nodes=nodes,
        inner_engine="sharded" if workers > 1 else "batch",
        **options,
    )


def _inputs(args: argparse.Namespace) -> object:
    try:
        return json.loads(args.inputs)
    except json.JSONDecodeError as exc:
        raise ValueError(f"--inputs is not valid JSON: {exc}") from None


def _audit_here(args: argparse.Namespace, values: dict) -> object:
    """Audit ``args.file`` in this process (``witness``, and ``client
    --engine remote``); an int return is the exit code of a failure."""
    from .api import Session

    with open(args.file, encoding="utf-8") as handle:
        program = parse_program(handle.read())
    if args.name and args.name not in program:
        print(
            f"error: no definition named {args.name!r} in {args.file}",
            file=sys.stderr,
        )
        return 1
    # Flags and input data are user-supplied: render bad-option/shape/
    # JSON/missing-parameter problems as CLI errors, not tracebacks.
    try:
        if values["engine"] == "remote":
            _configure_remote(
                args.nodes, args.workers, getattr(args, "timeout", None)
            )
        with Session() as session:
            return session.audit(
                program, args.name, inputs=_inputs(args), **values
            )
    except (ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


def _cmd_witness(args: argparse.Namespace) -> int:
    try:
        values = _audit_values(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = _audit_here(args, values)
    if isinstance(result, int):
        return result
    if result.provenance is not None:
        # Provenance never joins the payload (byte parity with the
        # non-composed audit); stderr keeps --json output clean.
        print(result.provenance.describe(), file=sys.stderr)
    if args.json:
        print(result.to_json())
        return 0 if result.sound else 2
    print(result.report.describe())
    if result.static:
        print(f"finite static bound derived: {result.sound}")
    elif result.per_precision is not None:
        print(
            "soundness theorem holds on all rows at some swept "
            f"precision: {result.sound}"
        )
    elif result.batch:
        print(f"soundness theorem holds on all rows: {result.sound}")
    else:
        print(f"soundness theorem holds on this run: {result.sound}")
    return 0 if result.sound else 2


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .service.server import AuditServer

    # Pool sizes are operator input: render bad values as CLI errors,
    # not ThreadPoolExecutor tracebacks.
    try:
        server = AuditServer(
            host=args.host,
            port=args.port,
            threads=args.threads,
            heavy_threads=args.heavy_threads,
            default_workers=args.workers,
            max_request_workers=args.max_request_workers,
            max_prepared=args.max_prepared,
            stream_chunk_rows=args.stream_chunk_rows,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    async def _run() -> None:
        await server.start()
        print(
            f"repro serve: listening on {server.host}:{server.port}",
            flush=True,
        )
        await server.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_client_remote(args: argparse.Namespace, values: dict) -> int:
    """``client --engine remote``: fleet-dispatch from this process.

    The response printed is byte-identical to the single-node body (and
    to ``witness --json`` with the inner engine), including after node
    deaths mid-run — that is the dispatcher's merge contract.
    """
    result = _audit_here(args, values)
    if isinstance(result, int):
        return result
    if not values["stream"]:
        sys.stdout.write(result.to_json() + "\n")
        return 0 if result.sound else 2
    try:
        for line in result.lines():
            sys.stdout.write(line)
            sys.stdout.flush()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if result.trailer.get("all_sound") else 2


def _client_stream(args: argparse.Namespace, spec: dict) -> int:
    """``client --stream``: print the NDJSON row stream as it arrives.

    Lines are re-rendered canonically (the wire bytes are already
    canonical, so this is an equality-preserving round trip) and the
    exit code comes from the trailer's ``all_sound`` — the same 0/2
    discipline as the buffered paths.
    """
    from .api.stream import RowStream, events_of_lines
    from .service.client import ClientError, ClientStatusError, audit_stream

    try:
        stream = RowStream(
            events_of_lines(
                audit_stream(args.host, args.port, spec, timeout=args.timeout)
            )
        )
        for line in stream.lines():
            sys.stdout.write(line)
            sys.stdout.flush()
    except ClientStatusError as exc:
        try:
            message = json.loads(exc.body).get("error", exc.body)
        except json.JSONDecodeError:
            message = exc.body
        print(f"error: {message}", file=sys.stderr)
        return 1
    except (ClientError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if stream.trailer.get("all_sound") else 2


def _cmd_client(args: argparse.Namespace) -> int:
    from .api.options import to_spec
    from .service.client import ClientError, audit

    try:
        values = _audit_values(args)
        if values["engine"] == "remote":
            return _cmd_client_remote(args, values)
        with open(args.file, encoding="utf-8") as handle:
            spec = to_spec(handle.read(), _inputs(args), args.name, **values)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if values["stream"]:
        return _client_stream(args, spec)
    try:
        status, body = audit(
            args.host, args.port, spec, timeout=args.timeout
        )
    except ClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if status != 200:
        try:
            message = json.loads(body).get("error", body)
        except json.JSONDecodeError:
            message = body
        print(f"error: {message}", file=sys.stderr)
        return 1
    # The body is exactly what `witness --json` prints (incl. trailing
    # newline); write it verbatim so outputs stay byte-comparable.
    sys.stdout.write(body)
    try:
        payload = json.loads(body)
        sound = payload.get(
            "all_sound", payload.get("sound", False)
        )
    except json.JSONDecodeError:
        return 1
    return 0 if sound else 2


def _cmd_watch(args: argparse.Namespace) -> int:
    from .api import check_precision_bits, parse_roundoff
    from .compose import watch_file

    u = parse_roundoff(args.u) if args.u is not None else None
    check_precision_bits(args.precision_bits)
    if args.interval <= 0:
        print("error: --interval must be positive", file=sys.stderr)
        return 1
    try:
        return watch_file(
            args.file,
            precision_bits=args.precision_bits,
            u=u,
            interval=args.interval,
            once=args.once,
        )
    except KeyboardInterrupt:
        return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench.irbench import DEFAULT_SPECS, format_ir_bench, run_ir_bench

    if args.envs < 1:
        print("error: --envs must be at least 1", file=sys.stderr)
        return 1
    if args.family:
        from .programs.generators import BENCHMARK_FAMILIES

        for family in args.family:
            if family not in BENCHMARK_FAMILIES:
                known = ", ".join(sorted(BENCHMARK_FAMILIES))
                print(
                    f"error: unknown benchmark family {family!r} "
                    f"(choose from {known})",
                    file=sys.stderr,
                )
                return 1
        specs = [(family, args.size, args.envs) for family in args.family]
    else:
        specs = list(DEFAULT_SPECS)
    rows = run_ir_bench(
        specs,
        include_batch=args.batch,
        workers=args.workers if args.workers > 1 else None,
    )
    print(format_ir_bench(rows))
    if args.batch and not all(r.verdicts_agree for r in rows):
        print("error: batch and looped witness verdicts disagree", file=sys.stderr)
        return 2
    if args.batch and not all(r.shard_agree in (None, True) for r in rows):
        print("error: sharded and batch witness verdicts disagree", file=sys.stderr)
        return 2
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .api import parse_roundoff
    from .report import analyze

    u = parse_roundoff(args.u)
    with open(args.file, encoding="utf-8") as handle:
        source = handle.read()
    result = analyze(source, u=u, condition_number=args.kappa)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(result.describe())
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from .core.explain import explain_variable, format_trace

    with open(args.file, encoding="utf-8") as handle:
        program = parse_program(handle.read())
    judgments = check_program(program)
    if args.name and args.name not in program:
        print(
            f"error: no definition named {args.name!r} in {args.file}",
            file=sys.stderr,
        )
        return 1
    definition = program[args.name] if args.name else program.main
    judgment = judgments[definition.name]
    names = (
        [args.var]
        if args.var
        else [p.name for p in definition.params if not is_discrete(p.ty)]
    )
    for name in names:
        trace = explain_variable(judgment, definition, name, program=program)
        print(format_trace(trace))
        print()
    return 0


def _cmd_fmt(args: argparse.Namespace) -> int:
    from .core import pretty_program

    with open(args.file, encoding="utf-8") as handle:
        program = parse_program(handle.read())
    check_program(program)  # only well-typed programs are formatted
    print(pretty_program(program))
    return 0


def _cmd_erase(args: argparse.Namespace) -> int:
    from .core import Program, pretty_program
    from .lam_s import erase_definition

    with open(args.file, encoding="utf-8") as handle:
        program = parse_program(handle.read())
    check_program(program)
    erased = Program([erase_definition(d) for d in program])
    print(pretty_program(erased))
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "report": _cmd_report,
    "explain": _cmd_explain,
    "fmt": _cmd_fmt,
    "erase": _cmd_erase,
    "examples": _cmd_examples,
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "table3": _cmd_table3,
    "witness": _cmd_witness,
    "watch": _cmd_watch,
    "bench": _cmd_bench,
    "serve": _cmd_serve,
    "client": _cmd_client,
}


def main(argv: Optional[List[str]] = None) -> int:
    from .api import OptionError
    from .lam_s.eval import EvalError
    from .semantics.lens import LensDomainError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (BeanError, OptionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (EvalError, LensDomainError) as exc:
        # Runtime failures of a witness/eval run (ill-shaped inputs,
        # backward map outside its domain).
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout closed early (e.g. piped into `head`): exit quietly.
        try:
            sys.stdout.close()
        except Exception:  # noqa: BLE001 - best effort on teardown
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
