"""Tests for the compositional audit subsystem (:mod:`repro.compose`).

The contract under test is bit-for-bit: composed judgments must equal
``check_program``'s exactly, and a ``compose=True`` audit's payload must
be byte-identical to the non-composed audit of the same request — the
hypothesis harness below drives both over the random-program generators.
Beyond parity, the beyond-cap call pyramid exercises the one capability
only composition has (flattening past ``MAX_INLINE_OPS``), and the
incremental/watch tests pin the O(diff) invalidation discipline.
"""

from __future__ import annotations

import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from strategies import random_batch_inputs, random_inputs, random_program
from repro.api import Session
from repro.compose import (
    COMPOSE_MAX_INLINE_OPS,
    DefinitionSummary,
    DependencyGraph,
    IncrementalAuditor,
    ParseCache,
    SummaryStore,
    compose_execution_ir,
    composed_judgments,
    composition_plan,
    deep_fingerprints,
    direct_callees,
    reset_default_store,
    split_definition_blocks,
    summary_to_judgment,
    watch_file,
)
from repro.core import check_program, is_discrete, parse_program
from repro.ir.cache import inlined_definition_ir, semantic_definition_ir
from repro.ir.inline import (
    FALLBACK_SIZE_CAP,
    MAX_INLINE_OPS,
    count_ops,
    inline_calls,
    inline_fallback_info,
    walk_ops,
)
from repro.ir.lower import CASE, IROp, Region

_BUDGET = settings().max_examples
_SMALL_BUDGET = max(_BUDGET // 4, 10)

CHAIN = """
Scale (a : num) (b : num) : num := mul a b
Twice (a : num) (b : num) (c : num) : num :=
  let s = Scale a b in add s c
Main (a : num) (b : num) (c : num) (d : num) : num :=
  let t = Twice a b c in add t d
"""

CHAIN_INPUTS = {"a": 1.5, "b": 2.25, "c": 0.5, "d": 3.0}


def pyramid_source(depth: int) -> str:
    """A strictly linear call pyramid: each level calls the previous
    twice (on distinct one-use variables), so the full inline expansion
    doubles per level while the source stays O(depth)."""
    lines = ["P0 (x : num) (c : !num) : num := dmul c x"]
    for k in range(1, depth + 1):
        lines.append(
            f"P{k} (x : num) (c : !num) : num := "
            f"let a = P{k - 1} x c in P{k - 1} a c"
        )
    return "\n".join(lines)


@pytest.fixture(autouse=True)
def fresh_store():
    """Each test composes from an empty process-global store."""
    reset_default_store()
    yield
    reset_default_store()


# --------------------------------------------------------------------------
# Summaries: round-trip and judgment equality
# --------------------------------------------------------------------------


class TestSummaries:
    def test_composed_judgments_match_checker(self):
        program = parse_program(CHAIN)
        reference = check_program(program)
        composed = composed_judgments(program)
        assert set(composed.judgments) == set(reference)
        for name, judgment in reference.items():
            got = composed.judgments[name]
            assert got.result == judgment.result, name
            for p in program[name].params:
                assert str(got.grade_of(p.name)) == str(
                    judgment.grade_of(p.name)
                ), (name, p.name)

    def test_summary_json_round_trip(self):
        program = parse_program(CHAIN)
        composed = composed_judgments(program)
        for name, summary in composed.summaries.items():
            data = json.loads(json.dumps(summary.to_json_dict()))
            rebuilt = DefinitionSummary.from_json_dict(data)
            assert rebuilt == summary, name
            judgment = summary_to_judgment(rebuilt)
            assert judgment.result == composed.judgments[name].result

    def test_summary_version_mismatch_is_loud(self):
        program = parse_program(CHAIN)
        composed = composed_judgments(program)
        data = next(iter(composed.summaries.values())).to_json_dict()
        data["version"] = 999
        with pytest.raises(ValueError, match="version"):
            DefinitionSummary.from_json_dict(data)

    def test_total_ops_predicts_full_expansion_cap(self):
        # The summary's op accounting is what makes lifting the inline
        # cap safe: inlining with max_ops=total_ops must never trip.
        program = parse_program(pyramid_source(6))
        composed = composed_judgments(program)
        top = program["P6"]
        predicted = composed.summaries["P6"].total_ops
        ir = inline_calls(
            semantic_definition_ir(top), program, max_ops=predicted
        )
        assert not ir.has_calls
        assert count_ops(ir.ops) <= predicted

    @given(
        seed=st.integers(0, 2**16),
        n_helpers=st.integers(1, 3),
        allow_div=st.booleans(),
    )
    @settings(max_examples=_SMALL_BUDGET, deadline=None)
    def test_random_program_judgments_compose_exactly(
        self, seed, n_helpers, allow_div
    ):
        spec = random_program(
            seed, n_linear=3, n_helpers=n_helpers, allow_div=allow_div
        )
        reference = check_program(spec.program)
        composed = composed_judgments(spec.program, store=SummaryStore())
        for name, judgment in reference.items():
            got = composed.judgments[name]
            assert got.result == judgment.result, name
            for p in spec.program[name].params:
                if is_discrete(p.ty):
                    continue  # discrete params carry no error grade
                assert str(got.grade_of(p.name)) == str(
                    judgment.grade_of(p.name)
                ), (name, p.name)


# --------------------------------------------------------------------------
# Deep fingerprints and the dependency graph
# --------------------------------------------------------------------------


class TestGraph:
    def test_direct_callees(self):
        program = parse_program(CHAIN)
        assert direct_callees(program["Scale"]) == ()
        assert direct_callees(program["Twice"]) == ("Scale",)
        assert direct_callees(program["Main"]) == ("Twice",)

    def test_deep_fingerprints_stable_across_reparses(self):
        a = deep_fingerprints(parse_program(CHAIN))
        b = deep_fingerprints(parse_program(CHAIN))
        assert a == b

    def test_deep_fingerprints_alpha_invariant(self):
        # Alpha-invariance covers *bound* binders (let/case names);
        # formal parameter names are free — they key the payload's
        # params/grades sections — so only internal renames must agree.
        renamed = CHAIN.replace("let s = Scale a b in add s c",
                                "let w = Scale a b in add w c")
        assert renamed != CHAIN
        assert deep_fingerprints(parse_program(CHAIN)) == deep_fingerprints(
            parse_program(renamed)
        )

    def test_editing_a_leaf_invalidates_exactly_its_dependents(self):
        before = deep_fingerprints(parse_program(CHAIN))
        edited = CHAIN.replace("mul a b", "add a b")
        after = deep_fingerprints(parse_program(edited))
        assert before["Scale"] != after["Scale"]
        assert before["Twice"] != after["Twice"]
        assert before["Main"] != after["Main"]

        # Editing only the top definition leaves the leaves' keys alone.
        edited = CHAIN.replace("add t d", "mul t d")
        after = deep_fingerprints(parse_program(edited))
        assert before["Scale"] == after["Scale"]
        assert before["Twice"] == after["Twice"]
        assert before["Main"] != after["Main"]

    def test_dependency_graph_transitive_dependents(self):
        graph = DependencyGraph(parse_program(CHAIN))
        assert graph.direct_dependents("Scale") == frozenset({"Twice"})
        assert graph.dependents_of("Scale") == frozenset({"Twice", "Main"})
        assert graph.dependents_of("Main") == frozenset()


# --------------------------------------------------------------------------
# Incremental parsing: per-definition block reuse
# --------------------------------------------------------------------------


class TestParseCache:
    def test_split_blocks(self):
        blocks = split_definition_blocks(CHAIN)
        assert len(blocks) == 3
        assert blocks[0].startswith("Scale")
        assert blocks[2].startswith("Main")

    def test_split_rejects_headerless_text(self):
        assert split_definition_blocks("  add x y") is None
        assert split_definition_blocks("") is None

    def test_parse_matches_parse_program(self):
        cached = ParseCache().parse(CHAIN)
        reference = parse_program(CHAIN)
        assert [d.name for d in cached] == [d.name for d in reference]
        assert deep_fingerprints(cached) == deep_fingerprints(reference)

    def test_unchanged_blocks_reuse_objects(self):
        cache = ParseCache()
        first = cache.parse(CHAIN)
        second = cache.parse(CHAIN)
        for a, b in zip(first, second):
            assert a is b

    def test_edit_reparses_only_the_edited_block(self):
        cache = ParseCache()
        first = cache.parse(CHAIN)
        edited = cache.parse(CHAIN.replace("add s c", "mul s c"))
        assert edited["Scale"] is first["Scale"]
        assert edited["Main"] is first["Main"]
        assert edited["Twice"] is not first["Twice"]

    def test_multiple_definitions_on_one_line_fall_back(self):
        source = (
            "A (x : num) : num := add x x "
            "B (y : num) : num := mul y y"
        )
        cached = ParseCache().parse(source)
        reference = parse_program(source)
        assert [d.name for d in cached] == [d.name for d in reference]
        assert deep_fingerprints(cached) == deep_fingerprints(reference)

    def test_syntax_errors_stay_loud(self):
        from repro.core.errors import BeanSyntaxError

        with pytest.raises(BeanSyntaxError):
            ParseCache().parse("Broken (x : num) : num := add x ;")

    def test_duplicate_names_stay_loud(self):
        source = "A (x : num) : num := add x x\nA (y : num) : num := mul y y"
        with pytest.raises(ValueError, match="duplicate"):
            ParseCache().parse(source)

    @given(
        seed=st.integers(0, 2**16),
        n_helpers=st.integers(1, 3),
    )
    @settings(max_examples=_SMALL_BUDGET, deadline=None)
    def test_random_programs_parse_identically(self, seed, n_helpers):
        from repro.core import pretty_program

        spec = random_program(seed, n_helpers=n_helpers)
        source = pretty_program(spec.program)
        assert deep_fingerprints(ParseCache().parse(source)) == (
            deep_fingerprints(parse_program(source))
        )


# --------------------------------------------------------------------------
# The summary store
# --------------------------------------------------------------------------


class TestStore:
    def test_memory_reuse_within_a_store(self):
        program = parse_program(CHAIN)
        store = SummaryStore()
        first = composed_judgments(program, store=store)
        assert first.built == ("Scale", "Twice", "Main")
        assert first.reused == ()
        second = composed_judgments(program, store=store)
        assert second.built == ()
        assert second.reused == ("Scale", "Twice", "Main")
        assert store.stats["memory_hits"] == 3

    def test_summaries_survive_only_by_content(self):
        # A different program never sees the first one's summaries: the
        # deep fingerprint is the whole key.
        store = SummaryStore()
        composed_judgments(parse_program(CHAIN), store=store)
        edited = CHAIN.replace("mul a b", "add a b")
        result = composed_judgments(parse_program(edited), store=store)
        assert result.built == ("Scale", "Twice", "Main")


# --------------------------------------------------------------------------
# Byte-for-byte parity: composed vs inlined-reference audits
# --------------------------------------------------------------------------


class TestComposedAuditParity:
    def test_scalar_parity_on_the_chain(self):
        session = Session()
        plain = session.audit(CHAIN, "Main", inputs=CHAIN_INPUTS)
        composed = session.audit(
            CHAIN, "Main", inputs=CHAIN_INPUTS, compose=True
        )
        assert composed.to_json() == plain.to_json()
        assert plain.provenance is None
        assert composed.provenance is not None
        assert composed.provenance.execution == "scalar"
        assert "compose" in composed.provenance.describe()

    def test_batch_parity_on_the_chain(self):
        pytest.importorskip("numpy")
        session = Session()
        inputs = {k: [v, v + 1.0] for k, v in CHAIN_INPUTS.items()}
        plain = session.audit(CHAIN, "Main", inputs=inputs, engine="batch")
        composed = session.audit(
            CHAIN, "Main", inputs=inputs, engine="batch", compose=True
        )
        assert composed.to_json() == plain.to_json()
        assert composed.provenance.execution == "shared-inlined"

    def test_rows_section_parity(self):
        pytest.importorskip("numpy")
        session = Session()
        inputs = {k: [v, v + 1.0] for k, v in CHAIN_INPUTS.items()}
        plain = session.audit(
            CHAIN, "Main", inputs=inputs, engine="batch", rows=True
        )
        composed = session.audit(
            CHAIN, "Main", inputs=inputs, engine="batch", rows=True,
            compose=True,
        )
        assert composed.to_json() == plain.to_json()

    def test_compose_rejected_for_incapable_engines(self):
        from repro.api import ScalarLensEngine, register_engine, unregister_engine

        # The ir engine's implementation, registered without ``compose``:
        # the flag, not the implementation, is what the session checks.
        @register_engine("test-no-compose")
        class NoCompose(ScalarLensEngine):
            pass

        try:
            assert not Session().engines()["test-no-compose"].caps.compose
            with pytest.raises(ValueError, match="cannot compose"):
                Session().audit(
                    CHAIN,
                    "Main",
                    inputs=CHAIN_INPUTS,
                    engine="test-no-compose",
                    compose=True,
                )
        finally:
            unregister_engine("test-no-compose")

    def test_session_level_compose_default(self):
        session = Session(compose=True)
        result = session.audit(CHAIN, "Main", inputs=CHAIN_INPUTS)
        assert result.provenance is not None
        # Per-call override wins over the session default.
        plain = session.audit(
            CHAIN, "Main", inputs=CHAIN_INPUTS, compose=False
        )
        assert plain.provenance is None

    @given(data=st.data())
    @settings(
        max_examples=_SMALL_BUDGET,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_programs_scalar_byte_parity(self, data):
        seed = data.draw(st.integers(0, 2**16), label="seed")
        spec = random_program(
            seed,
            n_helpers=data.draw(st.integers(1, 2), label="n_helpers"),
            allow_div=data.draw(st.booleans(), label="allow_div"),
        )
        inputs = random_inputs(spec, data.draw(st.integers(0, 2**20)))
        session = Session()
        plain = session.audit(
            spec.program, spec.definition.name, inputs=inputs
        )
        composed = session.audit(
            spec.program, spec.definition.name, inputs=inputs, compose=True
        )
        assert composed.to_json() == plain.to_json()

    @given(data=st.data())
    @settings(
        max_examples=_SMALL_BUDGET,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_programs_batch_byte_parity(self, data):
        pytest.importorskip("numpy")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        spec = random_program(
            seed,
            n_helpers=data.draw(st.integers(1, 2), label="n_helpers"),
            allow_div=data.draw(st.booleans(), label="allow_div"),
        )
        n_rows = data.draw(st.integers(2, 4), label="n_rows")
        columns = random_batch_inputs(
            spec, data.draw(st.integers(0, 2**20)), n_rows
        )
        session = Session()
        plain = session.audit(
            spec.program, spec.definition.name, inputs=columns,
            engine="batch",
        )
        composed = session.audit(
            spec.program, spec.definition.name, inputs=columns,
            engine="batch", compose=True,
        )
        assert composed.to_json() == plain.to_json()


# --------------------------------------------------------------------------
# Beyond the inline cap: the audit only composition can plan
# --------------------------------------------------------------------------


class TestBeyondCap:
    DEPTH = 18  # 2^18 call expansion: well past MAX_INLINE_OPS

    def test_reference_path_cannot_flatten(self):
        program = parse_program(pyramid_source(self.DEPTH))
        top = program[f"P{self.DEPTH}"]
        ir = inlined_definition_ir(top, program)
        assert ir.has_calls
        info = inline_fallback_info(ir)
        assert info, "the capped inliner must record why it stopped"
        assert all(e["reason"] == FALLBACK_SIZE_CAP for e in info)

    def test_composition_flattens_past_the_cap(self):
        program = parse_program(pyramid_source(self.DEPTH))
        top = program[f"P{self.DEPTH}"]
        composed = composed_judgments(program)
        predicted = composed.summaries[top.name].total_ops
        assert MAX_INLINE_OPS < predicted <= COMPOSE_MAX_INLINE_OPS
        ir, execution = compose_execution_ir(top, program, composed.summaries)
        assert execution == "lifted-cap"
        assert not ir.has_calls
        assert count_ops(ir.ops) > MAX_INLINE_OPS
        assert inline_fallback_info(ir) == []
        # Grades still compose exactly at this scale: 2^depth ε on x.
        grade = composed.judgments[top.name].grade_of("x")
        assert grade.coeff == 2**self.DEPTH

    def test_composed_grades_match_checker_past_the_cap(self):
        program = parse_program(pyramid_source(self.DEPTH))
        reference = check_program(program)
        composed = composed_judgments(program)
        name = f"P{self.DEPTH}"
        assert str(composed.judgments[name].grade_of("x")) == str(
            reference[name].grade_of("x")
        )

    def test_fallback_section_in_reference_batch_payload(self):
        pytest.importorskip("numpy")
        # A shallow pyramid audits fast; cap the expansion artificially
        # by auditing the deep one only through the payload builder via
        # the engine adapter's fallback probe.
        from repro.api.builtin import _execution_fallbacks

        program = parse_program(pyramid_source(self.DEPTH))
        top = program[f"P{self.DEPTH}"]
        info = _execution_fallbacks(top, program)
        assert info and info[0]["reason"] == FALLBACK_SIZE_CAP

    @pytest.mark.skipif(
        "not config.getoption('--run-soak', default=False) "
        "and not __import__('os').environ.get('REPRO_SOAK')",
        reason="multi-minute beyond-cap end-to-end audit (nightly soak)",
    )
    def test_beyond_cap_pyramid_audits_end_to_end(self):
        pytest.importorskip("numpy")
        session = Session()
        result = session.audit(
            pyramid_source(self.DEPTH),
            f"P{self.DEPTH}",
            inputs={"x": [1.5, 2.0], "c": [1.0, 1.0]},
            engine="batch",
            compose=True,
        )
        assert result.sound
        assert result.provenance.execution == "lifted-cap"
        assert "inline_fallbacks" not in result.payload

    def test_composition_plan_modes(self):
        program = parse_program(CHAIN)
        composed = composed_judgments(program)
        plan = composition_plan(program["Main"], composed.summaries)
        assert [s.callee for s in plan] == ["Twice"]
        assert plan[0].mode == "composed-halves"
        unknown = composition_plan(program["Main"], {})
        assert unknown[0].mode == "unknown-callee"


# --------------------------------------------------------------------------
# The incremental driver and `repro watch`
# --------------------------------------------------------------------------


class TestIncremental:
    def test_first_pass_audits_everything(self):
        auditor = IncrementalAuditor()
        run = auditor.audit_program(CHAIN)
        assert run.audited == ("Scale", "Twice", "Main")
        assert run.reused == ()
        assert run.all_sound

    def test_second_pass_reuses_everything(self):
        auditor = IncrementalAuditor()
        auditor.audit_program(CHAIN)
        run = auditor.audit_program(CHAIN)
        assert run.audited == ()
        assert run.reused == ("Scale", "Twice", "Main")

    def test_edit_invalidates_exactly_downstream(self):
        auditor = IncrementalAuditor()
        auditor.audit_program(CHAIN)
        edited = CHAIN.replace("add s c", "mul s c")  # edits Twice only
        run = auditor.audit_program(edited)
        assert run.audited == ("Twice", "Main")
        assert run.reused == ("Scale",)

    def test_precision_is_part_of_the_result_key(self):
        auditor53 = IncrementalAuditor(precision_bits=53)
        auditor53.audit_program(CHAIN)
        auditor24 = IncrementalAuditor(
            precision_bits=24, store=auditor53.store
        )
        run = auditor24.audit_program(CHAIN)
        # Summaries are precision-independent (shared store reuses
        # them); witness verdicts are not (nothing reused).
        assert run.audited == ("Scale", "Twice", "Main")

    def test_watch_once(self, tmp_path):
        path = tmp_path / "prog.bean"
        path.write_text(CHAIN, encoding="utf-8")
        out = io.StringIO()
        code = watch_file(str(path), once=True, out=out)
        assert code == 0
        line = out.getvalue()
        assert "3 definition(s)" in line
        assert "3 audited" in line
        assert "sound" in line

    def test_watch_error_file(self, tmp_path):
        path = tmp_path / "broken.bean"
        path.write_text("Nope (x : num) : num := add x", encoding="utf-8")
        out = io.StringIO()
        code = watch_file(str(path), once=True, out=out)
        assert code == 1
        assert out.getvalue().startswith("error:")

    def test_watch_missing_file(self, tmp_path):
        out = io.StringIO()
        code = watch_file(str(tmp_path / "missing.bean"), once=True, out=out)
        assert code == 1

    def test_watch_reaudits_on_change(self, tmp_path):
        import os

        path = tmp_path / "prog.bean"
        path.write_text(CHAIN, encoding="utf-8")
        out = io.StringIO()
        watch_file(str(path), once=True, out=out)
        # Same auditor discipline as the loop: a second process-level
        # pass over an edited file re-derives only downstream.
        auditor = IncrementalAuditor()
        auditor.audit_program(path.read_text(encoding="utf-8"))
        path.write_text(
            CHAIN.replace("add t d", "mul t d"), encoding="utf-8"
        )
        os.utime(path)
        run = auditor.audit_program(path.read_text(encoding="utf-8"))
        assert run.audited == ("Main",)
        assert run.reused == ("Scale", "Twice")


# --------------------------------------------------------------------------
# CLI and server surfaces
# --------------------------------------------------------------------------


class TestSurfaces:
    def test_cli_witness_compose_byte_parity(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "prog.bean"
        path.write_text(CHAIN, encoding="utf-8")
        inputs = json.dumps(CHAIN_INPUTS)
        assert main(
            ["witness", str(path), "--name", "Main", "--inputs", inputs,
             "--json"]
        ) == 0
        plain = capsys.readouterr()
        assert main(
            ["witness", str(path), "--name", "Main", "--inputs", inputs,
             "--json", "--compose"]
        ) == 0
        composed = capsys.readouterr()
        assert composed.out == plain.out
        assert "compose:" in composed.err  # provenance goes to stderr
        assert "compose:" not in plain.err

    def test_cli_watch_once(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "prog.bean"
        path.write_text(CHAIN, encoding="utf-8")
        assert main(["watch", str(path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "3 definition(s)" in out

    def test_cli_watch_rejects_bad_interval(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "prog.bean"
        path.write_text(CHAIN, encoding="utf-8")
        assert main(["watch", str(path), "--once", "--interval", "0"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_served_compose_byte_parity_and_stats(self):
        from urllib.request import urlopen

        from repro.service.client import audit
        from repro.service.server import AuditServer, serve

        handle = serve(AuditServer(host="127.0.0.1", port=0))
        try:
            spec = {
                "source": CHAIN,
                "name": "Main",
                "inputs": CHAIN_INPUTS,
                "engine": "ir",
            }
            status, plain = audit(handle.host, handle.port, spec)
            assert status == 200
            status, composed = audit(
                handle.host, handle.port, dict(spec, compose=True)
            )
            assert status == 200
            assert composed == plain
            status, body = audit(
                handle.host, handle.port, dict(spec, compose="yes")
            )
            assert status == 400
            with urlopen(
                f"http://{handle.host}:{handle.port}/stats"
            ) as response:
                stats = json.load(response)
            assert stats["server"]["audits_composed"] == 1
            assert stats["summaries"]["stores"] >= 3
        finally:
            handle.stop()


# --------------------------------------------------------------------------
# Satellite: the iterative IR walkers
# --------------------------------------------------------------------------


class TestIterativeWalkers:
    def test_walk_ops_handles_pathological_nesting(self):
        # 5000 nested case regions: the old recursive walker would
        # exhaust the interpreter stack well before this.
        depth = 5000
        ops = [IROp(0, 0)]
        for _ in range(depth):
            ops = [
                IROp(
                    CASE, 0, 0,
                    aux=(Region(ops, 0, 0), Region([IROp(0, 1)], 0, 0)),
                )
            ]
        assert count_ops(ops) == 2 * depth + 1

    def test_walk_ops_preserves_preorder(self):
        program = parse_program(
            """
            SafeInv (x : num) (y : num) (f : num) : num :=
              let q = div x y in
              case q of inl a => add a f | inr b => add b f
            """
        )
        ir = semantic_definition_ir(program["SafeInv"])
        codes = [op.code for op in walk_ops(ir.ops)]
        assert len(codes) == count_ops(ir.ops)
        assert CASE in codes

    def test_clean_program_has_no_fallbacks(self):
        program = parse_program(CHAIN)
        ir = inlined_definition_ir(program["Main"], program)
        assert inline_fallback_info(ir) == []
