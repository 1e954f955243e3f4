"""The public audit API: Session, engine registry, versioned results.

Three contracts under test:

* **registry** — the four built-in engines resolve by name with honest
  capability flags; unknown names raise the one
  :class:`~repro.api.UnknownEngineError` (listing the registered
  names) on every surface — Python, CLI stderr, HTTP 400; engines
  registered at runtime are first-class on *all* surfaces, including
  the served-vs-CLI byte-parity harness;
* **Session** — owns the cross-cutting state (precision, roundoff,
  cache dir, workers) and produces the same bits the CLI and server
  emit;
* **AuditResult** — stamps ``schema_version``, round-trips through
  ``to_json``/``from_json``, and rejects foreign versions.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json

import pytest

from repro import api
from repro.api import (
    AuditResult,
    ScalarLensEngine,
    Session,
    UnknownEngineError,
)

SOURCE = """
DotProd2 (x : vec(2)) (y : vec(2)) : num :=
  let (x0, x1) = x in
  let (y0, y1) = y in
  let v = mul x0 y0 in
  let w = mul x1 y1 in
  add v w
"""
SCALAR_INPUTS = {"x": [1.5, 2.25], "y": [3.1, -0.7]}
BATCH_INPUTS = {
    "x": [[1.5, 2.25], [2.0, 1.0], [0.5, -4.0]],
    "y": [[3.1, -0.7], [1.0, 1.0], [2.0, 8.0]],
}


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------


class TestRegistry:
    def test_builtins_registered_in_order(self):
        names = api.engine_names()
        assert names[0] == "ir"  # the default engine leads
        assert set(names) >= {"ir", "batch", "sharded"}

    def test_capability_flags(self):
        engines = api.engines()
        assert not engines["ir"].caps.batched
        assert engines["batch"].caps.batched
        assert engines["batch"].caps.needs_numpy
        assert engines["sharded"].caps.multiprocess
        assert engines["sharded"].caps.batched
        assert engines["interval"].caps.static
        assert engines["forward"].caps.static
        assert not engines["interval"].caps.batched
        assert engines["sweep"].caps.batched
        assert not engines["sweep"].caps.static
        assert engines["remote"].caps.remote
        assert engines["remote"].caps.batched
        assert not engines["remote"].caps.needs_numpy
        for name in ("ir", "batch", "sharded"):
            assert not engines[name].caps.static
            assert not engines[name].caps.remote

    def test_engines_returns_snapshot(self):
        snapshot = api.engines()
        snapshot["bogus"] = snapshot["ir"]
        assert "bogus" not in api.engine_names()

    def test_get_engine_unknown_lists_names(self):
        with pytest.raises(UnknownEngineError) as excinfo:
            api.get_engine("warp")
        message = str(excinfo.value)
        assert "unknown engine 'warp'" in message
        for name in api.engine_names():
            assert name in message
        assert excinfo.value.engine == "warp"
        assert excinfo.value.known == api.engine_names()
        # Pre-registry callers caught ValueError; that must keep working.
        assert isinstance(excinfo.value, ValueError)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @api.register_engine("ir")
            class Clash(ScalarLensEngine):
                pass

    def test_register_replace_and_unregister(self):
        original = api.get_engine("ir")

        @api.register_engine("ir", replace=True, description="swapped")
        class Replacement(ScalarLensEngine):
            pass

        try:
            assert api.get_engine("ir").caps.description == "swapped"
        finally:
            # Restore in place: replacing an existing name keeps its
            # registry position, so engine ordering survives this test.
            api.register_engine(
                "ir", replace=True, **dataclasses.asdict(original.caps)
            )(original)
        assert api.get_engine("ir") is original
        assert api.engine_names()[0] == "ir"

    def test_unregister_unknown_raises(self):
        with pytest.raises(UnknownEngineError):
            api.unregister_engine("warp")

    def test_engine_protocol(self):
        for engine in api.engines().values():
            assert isinstance(engine, api.Engine)

    def test_format_engine_table_lists_every_engine(self):
        table = api.format_engine_table()
        for name in api.engine_names():
            assert f"`{name}`" in table


# --------------------------------------------------------------------------
# Session
# --------------------------------------------------------------------------


class TestSession:
    def test_parse_check_audit_pipeline(self):
        session = Session()
        program = session.parse(SOURCE)
        judgments = session.check(program)
        assert str(judgments["DotProd2"].grade_of("x")) == "3ε/2"
        result = session.audit(program, inputs=SCALAR_INPUTS)
        assert result.sound and not result.batch
        assert result.engine == "ir"
        assert result.definition == "DotProd2"

    def test_audit_accepts_source_text(self):
        result = Session().audit(SOURCE, inputs=SCALAR_INPUTS)
        assert result.sound

    def test_every_registered_engine_audits(self, monkeypatch):
        monkeypatch.delenv("REPRO_NODES", raising=False)
        session = Session(workers=2)
        program = session.parse(SOURCE)
        for name, engine in session.engines().items():
            if engine.caps.remote:
                # Remote engines dispatch to external serve nodes; with
                # no pool configured the audit must fail loudly (the
                # CLI/server render ValueError as error:/422).
                api.get_engine(name).configure(reset=True)
                with pytest.raises(ValueError, match="node pool"):
                    session.audit(program, inputs=BATCH_INPUTS, engine=name)
                continue
            if engine.caps.static:
                # Static analyzers take hypotheses, and only positive
                # ones admit a finite bound (mixed signs may cancel).
                inputs = {"x": [0.5, 4.0], "y": [0.5, 4.0]}
            elif engine.caps.batched:
                inputs = BATCH_INPUTS
            else:
                inputs = SCALAR_INPUTS
            result = session.audit(program, inputs=inputs, engine=name)
            assert result.sound, name
            assert result.engine == name
            assert result.batch == engine.caps.batched

    def test_unknown_engine_raises(self):
        with pytest.raises(UnknownEngineError):
            Session().audit(SOURCE, inputs=SCALAR_INPUTS, engine="warp")

    def test_session_defaults_and_overrides(self):
        session = Session(precision_bits=24)
        assert session.roundoff == 2.0**-24
        result = session.audit(SOURCE, inputs=SCALAR_INPUTS)
        assert result.payload["precision_bits"] == 24
        assert result.payload["u"] == 2.0**-24
        # Per-call overrides never mutate the session.
        override = session.audit(
            SOURCE, inputs=SCALAR_INPUTS, precision_bits=53, u="2^-53"
        )
        assert override.payload["precision_bits"] == 53
        assert override.payload["u"] == 2.0**-53
        assert session.precision_bits == 24

    def test_roundoff_spellings(self):
        assert Session(u="2^-24").roundoff == 2.0**-24
        assert Session(u="2**-24").roundoff == 2.0**-24
        assert Session(u=1e-8).roundoff == 1e-8

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            Session(precision_bits=0)
        with pytest.raises(ValueError):
            Session(workers=0)

    def test_invalid_per_call_overrides_rejected(self):
        # The overrides face the same bounds as the constructor — a bad
        # value must fail at the API boundary, not audit with u=1.0 or
        # crash deep in the process pool.
        session = Session()
        with pytest.raises(ValueError, match="precision_bits"):
            session.audit(SOURCE, inputs=SCALAR_INPUTS, precision_bits=0)
        with pytest.raises(ValueError, match="workers"):
            session.audit(
                SOURCE, inputs=BATCH_INPUTS, engine="sharded", workers=0
            )

    def test_cli_renders_bad_flags_as_error_lines(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "prog.bean"
        path.write_text(SOURCE)
        for flags in (["--precision-bits", "0"], ["--workers", "0"]):
            code = main(
                [
                    "witness", str(path),
                    "--inputs", json.dumps(SCALAR_INPUTS), *flags,
                ]
            )
            assert code == 1
            assert capsys.readouterr().err.startswith("error:")

    def test_session_reuse_is_bitwise_stable(self):
        session = Session()
        program = session.parse(SOURCE)
        first = session.audit(program, inputs=SCALAR_INPUTS)
        second = session.audit(program, inputs=SCALAR_INPUTS)
        assert first.to_json() == second.to_json()


# --------------------------------------------------------------------------
# AuditResult: the versioned schema
# --------------------------------------------------------------------------


class TestAuditResult:
    def test_schema_version_stamped(self):
        # Witness payloads carry no v3 section, so they keep emitting
        # the base version byte-for-byte; static/sweep payloads carry
        # one and stamp the v3 version.
        result = Session().audit(SOURCE, inputs=SCALAR_INPUTS)
        assert result.schema_version == api.BASE_SCHEMA_VERSION
        assert list(result.payload)[0] == "schema_version"
        static = Session().audit(SOURCE, inputs={}, engine="forward")
        assert static.schema_version == api.STATIC_SCHEMA_VERSION
        assert list(static.payload)[0] == "schema_version"

    def test_to_json_from_json_roundtrip_scalar(self):
        result = Session().audit(SOURCE, inputs=SCALAR_INPUTS)
        rebuilt = AuditResult.from_json(result.to_json())
        assert rebuilt.payload == result.payload
        assert rebuilt.sound == result.sound
        assert rebuilt.batch == result.batch
        assert rebuilt.report is None
        assert rebuilt.to_json() == result.to_json()

    def test_to_json_from_json_roundtrip_batch(self):
        result = Session().audit(
            SOURCE, inputs=BATCH_INPUTS, engine="batch"
        )
        rebuilt = AuditResult.from_json(result.to_json())
        assert rebuilt.batch and rebuilt.sound == result.sound
        assert rebuilt.payload == result.payload

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            "{}",
            json.dumps({"schema_version": 1, "sound": True}),
            json.dumps({"schema_version": 999, "sound": True}),
            # A v2 stamp must not smuggle v3 sections past old readers…
            json.dumps(
                {"schema_version": 2, "sound": True, "static_bounds": {}}
            ),
            json.dumps(
                {"schema_version": 2, "all_sound": True, "per_precision": {}}
            ),
            # …and a v3 stamp without any v3 section is mislabelled
            # (this build emits section-free payloads as v2).
            json.dumps({"schema_version": 3, "sound": True}),
        ],
    )
    def test_from_json_rejects_foreign_payloads(self, text):
        with pytest.raises(ValueError):
            AuditResult.from_json(text)

    def test_rows_payloads_read_at_v4_and_v5(self):
        result = Session().audit(
            SOURCE, inputs=BATCH_INPUTS, engine="batch", rows=True
        )
        assert result.schema_version == api.SCHEMA_VERSION == 5
        # A v4 payload (exact 60-digit row distances) still reads.
        v4 = dict(result.payload, schema_version=4)
        rebuilt = AuditResult.from_json(json.dumps(v4))
        assert rebuilt.payload == v4 and rebuilt.rows == result.rows
        for version in (4, 5):
            rowless = dict(result.payload, schema_version=version)
            del rowless["rows"]
            with pytest.raises(ValueError, match="no 'rows' section"):
                AuditResult.from_json(json.dumps(rowless))

    def test_v3_roundtrips_static_and_sweep(self):
        session = Session()
        static = session.audit(
            SOURCE, inputs={"x": [0.5, 4.0], "y": [0.5, 4.0]},
            engine="interval",
        )
        rebuilt = AuditResult.from_json(static.to_json())
        assert rebuilt.payload == static.payload
        assert rebuilt.static and not rebuilt.batch
        assert rebuilt.static_bounds == static.static_bounds
        sweep = session.audit(SOURCE, inputs=BATCH_INPUTS, engine="sweep")
        rebuilt = AuditResult.from_json(sweep.to_json())
        assert rebuilt.payload == sweep.payload
        assert rebuilt.batch and not rebuilt.static
        assert rebuilt.per_precision == sweep.per_precision


# --------------------------------------------------------------------------
# Uniform unknown-engine failures on the CLI and HTTP surfaces
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def served():
    from repro.service.server import AuditServer, serve

    handle = serve(AuditServer(port=0))
    try:
        yield handle
    finally:
        handle.stop()


class TestUnknownEngineSurfaces:
    def test_http_maps_unknown_engine_to_400(self, served):
        from repro.service.client import audit

        status, body = audit(
            served.host,
            served.port,
            {"source": SOURCE, "inputs": SCALAR_INPUTS, "engine": "warp"},
        )
        assert status == 400
        message = json.loads(body)["error"]
        assert message == str(UnknownEngineError("warp", api.engine_names()))

    def test_http_400_lists_runtime_registered_engines(self, served):
        from repro.service.client import audit

        @api.register_engine("test-listed")
        class Listed(ScalarLensEngine):
            pass

        try:
            status, body = audit(
                served.host,
                served.port,
                {"source": SOURCE, "inputs": SCALAR_INPUTS, "engine": "warp"},
            )
        finally:
            api.unregister_engine("test-listed")
        assert status == 400
        assert "test-listed" in json.loads(body)["error"]

    @pytest.mark.parametrize("surface", ["session", "cli", "http"])
    def test_recursive_rejected_alike_on_every_surface(
        self, surface, served, tmp_path, capsys
    ):
        # The structural reference interpreters are test oracles, not an
        # engine: every surface rejects the name with the registry's
        # one unknown-engine message.
        expected = str(UnknownEngineError("recursive", api.engine_names()))
        if surface == "session":
            with pytest.raises(UnknownEngineError) as excinfo:
                Session().audit(SOURCE, inputs=SCALAR_INPUTS, engine="recursive")
            assert str(excinfo.value) == expected
        elif surface == "cli":
            from repro.cli import main

            path = tmp_path / "prog.bean"
            path.write_text(SOURCE)
            with pytest.raises(SystemExit) as excinfo:
                main(
                    [
                        "witness", str(path),
                        "--inputs", json.dumps(SCALAR_INPUTS),
                        "--engine", "recursive",
                    ]
                )
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert err.rstrip().endswith(f"argument --engine: {expected}")
        else:
            from repro.service.client import audit

            status, body = audit(
                served.host,
                served.port,
                {"source": SOURCE, "inputs": SCALAR_INPUTS, "engine": "recursive"},
            )
            assert status == 400
            assert json.loads(body)["error"] == expected

    def test_cli_renders_unknown_engine_as_error_line(self, tmp_path, capsys):
        # The --engine values are checked against the registry, so an
        # unknown name never reaches the audit; register a transient engine,
        # build the spec against it, then unregister to hit the
        # audit-time failure the CLI must render as `error:`, not a
        # traceback.
        from repro.cli import main

        path = tmp_path / "prog.bean"
        path.write_text(SOURCE)

        @api.register_engine("test-vanishing")
        class Vanishing(ScalarLensEngine):
            def audit(self, request):
                api.unregister_engine("test-vanishing")
                return api.get_engine("test-vanishing").audit(request)

        try:
            code = main(
                [
                    "witness", str(path),
                    "--inputs", json.dumps(SCALAR_INPUTS),
                    "--engine", "test-vanishing",
                ]
            )
        finally:
            with contextlib.suppress(UnknownEngineError):
                api.unregister_engine("test-vanishing")
        assert code == 1
        err = capsys.readouterr().err
        assert "error: unknown engine 'test-vanishing'" in err

    def test_cli_rejects_unregistered_engine_choice(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "prog.bean"
        path.write_text(SOURCE)
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "witness", str(path),
                    "--inputs", json.dumps(SCALAR_INPUTS),
                    "--engine", "warp",
                ]
            )
        assert excinfo.value.code == 2  # argparse usage error
        assert "--engine" in capsys.readouterr().err


# --------------------------------------------------------------------------
# A dummy engine registered only here is first-class on every surface
# --------------------------------------------------------------------------


class TestRuntimeRegisteredEngineParity:
    @pytest.fixture()
    def mirror_engine(self):
        @api.register_engine(
            "mirror", description="test-only scalar engine (IR lens)"
        )
        class Mirror(ScalarLensEngine):
            pass

        try:
            yield "mirror"
        finally:
            api.unregister_engine("mirror")

    def test_session_audits_dummy_engine(self, mirror_engine):
        result = Session().audit(
            SOURCE, inputs=SCALAR_INPUTS, engine=mirror_engine
        )
        assert result.sound
        assert result.engine == mirror_engine
        # Same lens, same bits — only the engine stamp differs.
        reference = Session().audit(SOURCE, inputs=SCALAR_INPUTS)
        patched = dict(result.payload, engine="ir")
        assert patched == reference.payload

    def test_served_equals_cli_for_dummy_engine(
        self, served, mirror_engine, tmp_path
    ):
        from repro.cli import main
        from repro.service.client import audit

        status, body = audit(
            served.host,
            served.port,
            {"source": SOURCE, "inputs": SCALAR_INPUTS, "engine": mirror_engine},
        )
        assert status == 200
        path = tmp_path / "prog.bean"
        path.write_text(SOURCE)
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(
                [
                    "witness", str(path),
                    "--inputs", json.dumps(SCALAR_INPUTS),
                    "--json", "--engine", mirror_engine,
                ]
            )
        assert code == 0
        assert body == buffer.getvalue()  # byte-for-byte, newline included
        assert json.loads(body)["engine"] == mirror_engine


# --------------------------------------------------------------------------
# Significand widths binary64 cannot simulate are rejected everywhere
# --------------------------------------------------------------------------

MUL_SOURCE = "F (x : num) (y : num) := mul x y"
MUL_INPUTS = {"x": 0.1, "y": 0.3}


class TestPrecisionBitsLimit:
    """Regression: ``precision_bits`` above 53 used to audit and return
    ``sound: false`` (``mul x y`` at 0.1, 0.3: distance 2.8e-17 against
    a 2^-60 bound) — binary64 arithmetic judged against a narrower
    format's bound.  Every surface now refuses it with one message."""

    @pytest.mark.parametrize("bits", [54, 60, 64, 80])
    def test_session_rejects_wide_significands(self, bits):
        session = Session()
        with pytest.raises(ValueError) as info:
            session.audit(MUL_SOURCE, inputs=MUL_INPUTS, precision_bits=bits)
        assert str(info.value) == api.PRECISION_BITS_ERROR
        with pytest.raises(ValueError, match=r"\[1, 53\]"):
            Session(precision_bits=bits)

    def test_native_width_still_audits(self):
        result = Session().audit(
            MUL_SOURCE, inputs=MUL_INPUTS, precision_bits=53
        )
        assert result.sound

    def test_sweep_widths_share_the_limit(self):
        session = Session()
        with pytest.raises(ValueError) as info:
            session.audit(MUL_SOURCE, inputs={"x": [0.1], "y": [0.3]},
                          engine="sweep", sweep_bits=[24, 60])
        assert str(info.value) == api.PRECISION_BITS_ERROR

    @pytest.mark.parametrize("flag", ["60", "24,80"])
    def test_cli_rejects_wide_significands(self, tmp_path, capsys, flag):
        from repro.cli import main

        path = tmp_path / "mul.bean"
        path.write_text(MUL_SOURCE)
        code = main(["witness", str(path), "--inputs",
                     json.dumps(MUL_INPUTS), "--precision-bits", flag])
        assert code == 1
        err = capsys.readouterr().err
        assert err.strip() == f"error: {api.PRECISION_BITS_ERROR}"
        code = main(["watch", str(path), "--once", "--precision-bits", "60"])
        assert code == 1
        assert api.PRECISION_BITS_ERROR in capsys.readouterr().err

    def test_server_rejects_wide_significands(self):
        from repro.service import client as service_client
        from repro.service.server import AuditServer, serve

        handle = serve(AuditServer(port=0))
        try:
            for extra in ({"precision_bits": 54}, {"precision_bits": 64},
                          {"engine": "sweep", "sweep_bits": [8, 64]}):
                spec = {"source": MUL_SOURCE, "inputs": MUL_INPUTS, **extra}
                status, body = service_client.audit(
                    handle.host, handle.port, spec
                )
                assert status == 400, extra
                assert json.loads(body)["error"] == api.PRECISION_BITS_ERROR
            status, _ = service_client.audit(
                handle.host, handle.port,
                {"source": MUL_SOURCE, "inputs": MUL_INPUTS,
                 "precision_bits": 53},
            )
            assert status == 200
        finally:
            handle.stop()


# --------------------------------------------------------------------------
# Package ergonomics: lazy names are discoverable
# --------------------------------------------------------------------------


class TestPackageSurface:
    def test_lazy_names_appear_in_dir(self):
        import repro

        listing = dir(repro)
        for name in (
            "BatchWitnessEngine",
            "BatchWitnessReport",
            "Session",
            "AuditResult",
        ):
            assert name in listing, name
        # The witness runners live in repro.semantics only.
        for name in ("run_witness", "run_witness_batch", "run_witness_sharded"):
            assert name not in listing, name
            assert not hasattr(repro, name), name

    def test_lazy_api_names_resolve(self):
        import repro

        assert repro.Session is Session
        assert repro.AuditResult is AuditResult
        assert repro.BatchWitnessEngine is not None

    def test_unknown_attribute_still_raises(self):
        import repro

        with pytest.raises(AttributeError):
            repro.no_such_name

    def test_readme_engine_table_in_sync(self):
        # The README's registry table is generated output — registering
        # an engine updates format_engine_table(), and this assertion
        # forces the README to follow.
        import pathlib

        readme = (
            pathlib.Path(__file__).parent.parent / "README.md"
        ).read_text(encoding="utf-8")
        assert api.format_engine_table() in readme

    def test_readme_quickstart_runs(self):
        # The Quickstart's two ``>>>`` blocks, run as one doctest: the
        # second reuses the first's session and program.
        import doctest
        import pathlib
        import re

        readme = (
            pathlib.Path(__file__).parent.parent / "README.md"
        ).read_text(encoding="utf-8")
        quickstart = readme[readme.index("## Quickstart"):
                            readme.index("## Python API")]
        blocks = re.findall(r"```python\n(.*?)```", quickstart, re.S)
        assert len(blocks) == 2
        test = doctest.DocTestParser().get_doctest(
            "".join(blocks), {}, "README Quickstart", "README.md", 0
        )
        assert len(test.examples) == 13
        report = io.StringIO()
        runner = doctest.DocTestRunner()
        try:
            runner.run(test, out=report.write, clear_globs=False)
        finally:
            # The sharded audit started the session's worker pool.
            test.globs["session"].close()
        assert runner.failures == 0, report.getvalue()
