"""One audit-option table, read by every surface.

``repro.api.options.OPTIONS`` declares each audit option once.  These
tests hold the Python API, ``POST /audit`` and ``repro witness`` to it:
for the same option values they accept with byte-identical payloads or
reject with the identical message.  They also pin the table against the
``Session.audit`` signature and the README, and the one row-count
helper the Session, the server and the fleet share.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import pathlib

import pytest
from hypothesis import event, given, strategies as st

from repro import api
from repro.api import OptionError, Session, UnknownEngineError
from repro.api.options import OPTION, OPTIONS, U_ERROR, format_option_table, resolve, to_spec
from repro.api.stream import RowStream, batch_row_count, events_of_lines
from repro.cli import main
from repro.core import BeanError
from repro.lam_s.eval import EvalError
from repro.semantics.lens import LensDomainError
from repro.service import client as service_client
from repro.service.client import ClientStatusError
from repro.service.fleet import FleetDispatcher
from repro.service.server import AuditServer, serve

SOURCE = "F (x : num) (y : num) := mul x y"
SCALAR_INPUTS = {"x": 0.1, "y": 0.3}
BATCH_INPUTS = {"x": [0.1, 2.5, -1.25], "y": [0.3, 0.7, 3.0]}
#: Engines whose audits are cheap and need no worker processes.
ENGINES = ("ir", "batch", "interval", "forward", "sweep")
BATCHED = ("batch", "sweep")


@pytest.fixture(scope="module")
def served():
    handle = serve(AuditServer(port=0))
    try:
        yield handle
    finally:
        handle.stop()


@pytest.fixture(scope="module")
def session():
    with Session() as shared:
        yield shared


def inputs_for(engine):
    return BATCH_INPUTS if engine in BATCHED else SCALAR_INPUTS


def message_of(exc):
    return str(exc.args[0]) if exc.args else str(exc)


def session_outcome(session, options):
    """``("ok", text)`` or ``("error", message)`` of a Session audit."""
    kwargs = {k: v for k, v in options.items() if k != "inputs"}
    try:
        result = session.audit(SOURCE, inputs=options["inputs"], **kwargs)
        if isinstance(result, RowStream):
            return "ok", "".join(result.lines())
        return "ok", result.to_json() + "\n"
    except (ValueError, KeyError, BeanError, EvalError, LensDomainError) as exc:
        return "error", message_of(exc)


def http_outcome(handle, options):
    spec = {"source": SOURCE, **options}
    if options.get("stream") is True:
        try:
            stream = RowStream(
                events_of_lines(
                    service_client.audit_stream(handle.host, handle.port, spec)
                )
            )
            return "ok", "".join(stream.lines())
        except ClientStatusError as exc:
            return "error", json.loads(exc.body)["error"]
    status, body = service_client.audit(handle.host, handle.port, spec)
    if status == 200:
        return "ok", body
    assert status in (400, 422), (status, body)
    return "error", json.loads(body)["error"]


def cli_outcome(tmp_path, argv):
    path = tmp_path / "f.bean"
    path.write_text(SOURCE)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["witness", str(path), *argv, "--json"])
    if code == 1:
        assert err.getvalue().startswith("error: "), err.getvalue()
        return "error", err.getvalue()[len("error: "):].rstrip("\n")
    assert code in (0, 2)
    return "ok", out.getvalue()


# --------------------------------------------------------------------------
# The table against the surfaces that declare options by hand
# --------------------------------------------------------------------------


class TestTable:
    def test_session_audit_signature_matches_the_table(self):
        params = inspect.signature(Session.audit).parameters
        keywords = [
            p for p in params.values()
            if p.kind is p.KEYWORD_ONLY
            and p.name not in ("inputs", "stream_chunk_rows")
        ]
        assert [p.name for p in keywords] == [o.name for o in OPTIONS]
        assert {p.name: p.default for p in keywords} == {
            o.name: o.default for o in OPTIONS
        }

    def test_readme_option_table_in_sync(self):
        readme = (
            pathlib.Path(__file__).parent.parent / "README.md"
        ).read_text(encoding="utf-8")
        assert format_option_table() in readme

    def test_option_table_lists_every_option(self):
        table = format_option_table()
        for option in OPTIONS:
            assert f"| `{option.name}` |" in table

    def test_none_means_the_default(self):
        resolved = resolve({})
        assert resolved == {o.name: o.default for o in OPTIONS}
        assert resolve({o.name: None for o in OPTIONS}) == resolved

    def test_stream_implies_rows(self):
        assert resolve({"engine": "batch", "stream": True})["rows"] is True

    def test_engine_conflicts_are_422(self):
        for values in ({"rows": True}, {"stream": True}, {"engine": "sweep", "rows": True}):
            with pytest.raises(OptionError) as info:
                resolve(values)
            assert info.value.status == 422

    def test_to_spec_leaves_unset_options_to_the_server(self):
        spec = to_spec(
            SOURCE, SCALAR_INPUTS, "F", engine="batch", workers=None,
            rows=False, sweep_bits=(8, 24), u=2.0**-24,
        )
        assert spec == {
            "source": SOURCE, "name": "F", "inputs": SCALAR_INPUTS,
            "engine": "batch", "u": 2.0**-24, "sweep_bits": [8, 24],
        }

    def test_remote_spec_is_built_by_to_spec(self):
        engine = api.RemoteEngine()
        engine.configure(inner_engine="sharded")
        program = api.Session().parse(SOURCE)
        request = api.AuditRequest(
            program=program, definition=program.main, inputs=BATCH_INPUTS,
            u=2.0**-53, precision_bits=53, workers=3, mp_context=None,
            collect_rows=True, sweep_bits=None, pool=None,
        )
        spec = engine._spec_of_request(request)
        assert spec == {
            "source": spec["source"], "name": "F", "inputs": BATCH_INPUTS,
            "engine": "sharded", "workers": 3, "precision_bits": 53,
            "u": 2.0**-53, "rows": True,
        }


# --------------------------------------------------------------------------
# u: only a finite 0 < u < 1, on every surface
# --------------------------------------------------------------------------

BAD_ROUNDOFFS = ["inf", "nan", "-inf", "1", "-1", "0", "2", "2^99999", "2^-99999", "huge"]


class TestRoundoffEverywhere:
    @pytest.mark.parametrize("u", BAD_ROUNDOFFS + [1, 1.0, -1, 0, True])
    def test_session(self, u):
        with pytest.raises(OptionError) as info:
            Session(u=u)
        assert str(info.value) == U_ERROR
        with pytest.raises(OptionError) as info:
            Session().audit(SOURCE, inputs=SCALAR_INPUTS, u=u)
        assert str(info.value) == U_ERROR

    @pytest.mark.parametrize("u", BAD_ROUNDOFFS + [1, -1, 0, [1]])
    def test_http(self, served, u):
        status, body = service_client.audit(
            served.host, served.port,
            {"source": SOURCE, "inputs": SCALAR_INPUTS, "u": u},
        )
        assert status == 400
        assert json.loads(body)["error"] == U_ERROR

    @pytest.mark.parametrize("command", ["witness", "check", "report", "watch"])
    @pytest.mark.parametrize("u", ["inf", "1", "-1", "nan"])
    def test_cli(self, tmp_path, capsys, command, u):
        path = tmp_path / "f.bean"
        path.write_text(SOURCE)
        extra = {
            "witness": ["--inputs", json.dumps(SCALAR_INPUTS)],
            "watch": ["--once"],
        }.get(command, [])
        assert main([command, str(path), f"--u={u}", *extra]) == 1
        assert capsys.readouterr().err == f"error: {U_ERROR}\n"

    @pytest.mark.parametrize("u", ["inf", "1"])
    def test_client(self, served, tmp_path, capsys, u):
        path = tmp_path / "f.bean"
        path.write_text(SOURCE)
        code = main([
            "client", str(path), "--host", served.host,
            "--port", str(served.port),
            "--inputs", json.dumps(SCALAR_INPUTS), f"--u={u}",
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: {U_ERROR}\n"

    def test_valid_roundoffs_still_audit(self, served):
        for u in ("2^-24", "2**-30", 1e-8, 0.25):
            result = Session().audit(SOURCE, inputs=SCALAR_INPUTS, u=u)
            status, body = service_client.audit(
                served.host, served.port,
                {"source": SOURCE, "inputs": SCALAR_INPUTS, "u": u},
            )
            assert status == 200
            assert body == result.to_json() + "\n"


# --------------------------------------------------------------------------
# workers: bools and non-integers are refused on the Python API too
# --------------------------------------------------------------------------


class TestWorkers:
    @pytest.mark.parametrize("workers", [True, False, "2", 2.0, 0, -3])
    def test_session_and_http_agree(self, served, workers):
        with pytest.raises(OptionError) as info:
            Session().audit(
                SOURCE, inputs=BATCH_INPUTS, engine="sharded", workers=workers
            )
        status, body = service_client.audit(
            served.host, served.port,
            {"source": SOURCE, "inputs": BATCH_INPUTS, "engine": "sharded",
             "workers": workers},
        )
        assert status == 400
        assert json.loads(body)["error"] == str(info.value)
        assert str(info.value) == OPTION["workers"].message

    def test_session_constructor_refuses_bools(self):
        with pytest.raises(OptionError, match="workers"):
            Session(workers=True)

    def test_session_constructor_needs_a_width(self):
        # None would defer to the session's own width: there is none.
        with pytest.raises(OptionError) as info:
            Session(precision_bits=None)
        assert str(info.value) == api.PRECISION_BITS_ERROR


# --------------------------------------------------------------------------
# The one row-count helper
# --------------------------------------------------------------------------


class TestRowCount:
    def test_counts_rows(self):
        assert batch_row_count(BATCH_INPUTS) == 3
        assert batch_row_count({"x": [], "y": []}) == 0

    @pytest.mark.parametrize(
        "inputs, message",
        [
            ({"x": 5, "y": [1.0]}, "'x' has no row count"),
            ({"x": "abc"}, "'x' has no row count"),
            ({"x": {"a": 1}}, "'x' has no row count"),
            ({"x": [1.0], "y": [1.0, 2.0]}, "input rows disagree"),
            ({}, "at least one input column"),
        ],
    )
    def test_refusals(self, inputs, message):
        with pytest.raises(ValueError, match=message):
            batch_row_count(inputs)

    def test_fleet_dispatches_unsplit_without_a_row_count(self):
        rows = FleetDispatcher._batch_rows
        assert rows({"inputs": BATCH_INPUTS}) == 3
        for spec in ({}, {"inputs": []}, {"inputs": {}},
                     {"inputs": {"x": 1.0}},
                     {"inputs": {"x": [1.0], "y": [1.0, 2.0]}}):
            assert rows(spec) is None

    def test_session_and_http_refuse_alike(self, served, session):
        options = {"engine": "batch", "stream": True,
                   "inputs": {"x": [0.1], "y": 0.3}}
        want = session_outcome(session, options)
        assert want[0] == "error"
        assert http_outcome(served, options) == want


# --------------------------------------------------------------------------
# The cross-surface property
# --------------------------------------------------------------------------

ROUNDOFFS = st.sampled_from(
    ["2^-53", "2**-24", "1e-8", 0.25, 2.0**-30, "inf", "-inf", "nan",
     "1", 1, 0, -1, "-1", "0.5", "huge", "2^99999", "2^-99999", True, [1]]
)
FLAGS = st.one_of(st.none(), st.booleans(), st.just(1), st.just("yes"))


@st.composite
def option_dicts(draw):
    engine = draw(st.one_of(
        st.none(), st.sampled_from(ENGINES), st.just("warp"), st.just(5)
    ))
    options = {
        "engine": engine,
        "workers": draw(st.one_of(
            st.none(), st.integers(-2, 4), st.booleans(), st.just("2"),
            st.just(2.0),
        )),
        "precision_bits": draw(st.one_of(
            st.none(), st.integers(-1, 60), st.booleans(), st.just("53"),
            st.just(24.0),
        )),
        "u": draw(st.one_of(st.none(), ROUNDOFFS)),
        "rows": draw(FLAGS),
        "stream": draw(FLAGS),
        "sweep_bits": draw(st.one_of(
            st.none(), st.lists(st.integers(0, 60), max_size=4),
            st.just("8,24"), st.just([True]), st.just([8.0]),
        )),
    }
    # Drop some keys entirely: a missing option must act like None.
    present = draw(st.sets(st.sampled_from(sorted(options))))
    options = {k: v for k, v in options.items() if k in present}
    options["inputs"] = inputs_for(options.get("engine"))
    return options


@given(options=option_dicts())
def test_session_and_http_agree(served, session, options):
    want = session_outcome(session, options)
    event(want[0])
    assert http_outcome(served, options) == want


#: Per flag: values a run can honor, then values it cannot.
WITNESS_VALUES = {
    "workers": ([1, 2, 3], [0, -1]),
    "u": ([None, "2^-53", "2**-24", "1e-8", "0.25"],
          ["inf", "nan", "1", "0", "-1", "huge"]),
    "precision_bits": ([53, 24, 11, 8, 1], [0, 54, -1]),
    "sweep_bits": ([[8, 24], [11, 24, 53], [1, 53]], [[24, 8], [8, 8], [8, 54]]),
}


@st.composite
def witness_options(draw):
    """The option dicts ``repro witness`` flags can express: every flag
    honorable except up to two drawn faults."""
    engine = draw(st.sampled_from(ENGINES))
    options = {
        "engine": engine,
        "rows": draw(st.booleans()) and engine == "batch",
    }
    ladder = draw(st.booleans())
    faults = draw(st.sets(st.sampled_from(sorted(WITNESS_VALUES)), max_size=2))
    for name, (good, bad) in WITNESS_VALUES.items():
        if name == ("precision_bits" if ladder else "sweep_bits"):
            continue
        options[name] = draw(st.sampled_from(bad if name in faults else good))
    if draw(st.integers(0, 9)) == 0:  # an engine conflict
        options["rows"] = True
    options["inputs"] = inputs_for(engine)
    return options


def witness_argv(options):
    argv = ["--inputs", json.dumps(options["inputs"]),
            f"--engine={options['engine']}",
            f"--workers={options['workers']}"]
    if "sweep_bits" in options:
        argv.append(
            "--precision-bits=" + ",".join(map(str, options["sweep_bits"]))
        )
    else:
        argv.append(f"--precision-bits={options['precision_bits']}")
    if options["u"] is not None:
        argv.append(f"--u={options['u']}")
    if options["rows"]:
        argv.append("--rows")
    return argv


@given(options=witness_options())
def test_witness_cli_agrees_with_session(session, tmp_path_factory, options):
    want = session_outcome(session, options)
    event(want[0])
    tmp_path = tmp_path_factory.mktemp("witness")
    assert cli_outcome(tmp_path, witness_argv(options)) == want


def test_unknown_engine_is_the_registry_message(served, session):
    options = {"engine": "warp", "inputs": SCALAR_INPUTS}
    kind, message = session_outcome(session, options)
    assert (kind, message) == (
        "error", str(UnknownEngineError("warp", api.engine_names()))
    )
    assert http_outcome(served, options) == (kind, message)


# --------------------------------------------------------------------------
# exact_backend: one exact path, no backend option on any surface
# --------------------------------------------------------------------------


class TestNoExactBackend:
    def test_environment_cannot_select_a_backend(
        self, served, session, monkeypatch
    ):
        # $REPRO_EXACT_BACKEND once picked the batch engine's exact
        # arithmetic outside the option table (and a bad value failed
        # batch audits only, with a 422).  It is read nowhere now.
        options = {"engine": "batch", "inputs": BATCH_INPUTS}
        want = session_outcome(session, options)
        assert want[0] == "ok"
        assert http_outcome(served, options) == want
        monkeypatch.setenv("REPRO_EXACT_BACKEND", "quad")
        assert session_outcome(session, options) == want
        assert http_outcome(served, options) == want

    @pytest.mark.parametrize("command", ["witness", "client"])
    def test_cli_flag_is_gone(self, served, tmp_path, capsys, command):
        path = tmp_path / "f.bean"
        path.write_text(SOURCE)
        argv = [command, str(path), "--batch",
                "--inputs", json.dumps(BATCH_INPUTS), "--exact-backend", "eft"]
        if command == "client":
            argv += ["--port", str(served.port)]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2  # argparse usage error
        assert "unrecognized arguments: --exact-backend" in capsys.readouterr().err

    def test_session_and_http_refuse_the_field(self, served, session):
        with pytest.raises(TypeError, match="exact_backend"):
            session.audit(SOURCE, inputs=BATCH_INPUTS, engine="batch",
                          exact_backend="eft")
        status, body = service_client.audit(served.host, served.port, {
            "source": SOURCE, "inputs": BATCH_INPUTS, "engine": "batch",
            "exact_backend": "eft",
        })
        assert status == 400
        assert json.loads(body)["error"] == (
            "unknown request field(s): ['exact_backend']"
        )
