"""Tests for the judgment cache behind ``repro watch`` and ``repro report``
(:mod:`repro.compose`).

The contract under test is exact: composed judgments must equal
``check_program``'s, whether the store served them or the checker
derived them — the hypothesis harness below drives that over the
random-program generators.  The incremental/watch tests pin the O(diff)
invalidation discipline, and ``TestNoCompose`` pins that audits have
one path: no surface takes a ``compose`` option, and the plain bytes
of a call chain and of a call pyramid past ``MAX_INLINE_OPS`` stay as
they were.
"""

from __future__ import annotations

import hashlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from strategies import random_program
from repro.api import Session
from repro.compose import (
    DependencyGraph,
    IncrementalAuditor,
    ParseCache,
    SummaryStore,
    composed_judgments,
    deep_fingerprints,
    direct_callees,
    reset_default_store,
    split_definition_blocks,
    watch_file,
)
from repro.core import check_program, is_discrete, parse_program
from repro.ir.cache import inlined_definition_ir, semantic_definition_ir
from repro.ir.inline import (
    FALLBACK_SIZE_CAP,
    MAX_INLINE_OPS,
    count_ops,
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
# Judgment equality
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
# The judgment store
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
        assert len(first.reused) + len(second.reused) == 3  # memory hits

    def test_summaries_survive_only_by_content(self):
        # A different program never sees the first one's summaries: the
        # deep fingerprint is the whole key.
        store = SummaryStore()
        composed_judgments(parse_program(CHAIN), store=store)
        edited = CHAIN.replace("mul a b", "add a b")
        result = composed_judgments(parse_program(edited), store=store)
        assert result.built == ("Scale", "Twice", "Main")


# --------------------------------------------------------------------------
# Beyond the inline cap: the capped inliner records why calls stay
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


# --------------------------------------------------------------------------
# One audit path: no surface takes ``compose``
# --------------------------------------------------------------------------

#: sha256 of the plain payloads, pinned when the ``compose`` option was
#: removed: its removal must not move a byte.
CHAIN_IR_SHA256 = (
    "3ba6d3b94d55294d99fe74896d94dd076520141d1d402876e6fb42e360cd7389"
)
CHAIN_BATCH_SHA256 = (
    "0049c609ba3b84b61b8595fef7be2a2150f2e1748516dd12b151ec14a5e63c1e"
)
CHAIN_ROWS_SHA256 = (
    "715212234f4776af7b4db04ee876ddb532f9405bb1cc706cc4e0cd05467cee7b"
)
#: P16's, pinned when the inliner began charging a splice its net
#: growth (P15 then fit under the cap and P16 became the smallest
#: pyramid past it).
PYRAMID16_BATCH_SHA256 = (
    "94c28825722e66037338cd1969a367f447082d80e2f032f4417901c24d077d01"
)


def _sha256(result) -> str:
    return hashlib.sha256(result.to_json().encode("utf-8")).hexdigest()


class TestNoCompose:
    def test_session_rejects_compose(self):
        with pytest.raises(TypeError, match="compose"):
            Session(compose=True)
        for value in (True, False):
            with pytest.raises(TypeError, match="compose"):
                Session().audit(
                    CHAIN, "Main", inputs=CHAIN_INPUTS, compose=value
                )

    @pytest.mark.parametrize("command", ["witness", "client"])
    def test_cli_rejects_compose(self, tmp_path, capsys, command):
        from repro.cli import main

        path = tmp_path / "prog.bean"
        path.write_text(CHAIN, encoding="utf-8")
        with pytest.raises(SystemExit) as info:
            main([command, str(path), "--name", "Main", "--inputs",
                  json.dumps(CHAIN_INPUTS), "--compose"])
        assert info.value.code == 2
        assert "--compose" in capsys.readouterr().err

    def test_http_rejects_compose(self):
        from repro.service.client import audit
        from repro.service.server import AuditServer, serve

        handle = serve(AuditServer(host="127.0.0.1", port=0))
        try:
            spec = {"source": CHAIN, "name": "Main", "inputs": CHAIN_INPUTS}
            status, body = audit(handle.host, handle.port, spec)
            assert status == 200
            assert body == Session().audit(
                CHAIN, "Main", inputs=CHAIN_INPUTS
            ).to_json() + "\n"
            for value in (True, False):
                status, body = audit(
                    handle.host, handle.port, dict(spec, compose=value)
                )
                assert status == 400
                assert json.loads(body)["error"] == (
                    "unknown request field(s): ['compose']"
                )
        finally:
            handle.stop()

    def test_chain_plain_bytes(self):
        session = Session()
        result = session.audit(CHAIN, "Main", inputs=CHAIN_INPUTS)
        assert _sha256(result) == CHAIN_IR_SHA256
        pytest.importorskip("numpy")
        inputs = {k: [v, v + 1.0] for k, v in CHAIN_INPUTS.items()}
        batch = session.audit(CHAIN, "Main", inputs=inputs, engine="batch")
        assert _sha256(batch) == CHAIN_BATCH_SHA256
        rows = session.audit(
            CHAIN, "Main", inputs=inputs, engine="batch", rows=True
        )
        assert _sha256(rows) == CHAIN_ROWS_SHA256

    def test_pyramid_past_the_cap_plain_bytes(self):
        pytest.importorskip("numpy")
        # The smallest pyramid whose expansion trips MAX_INLINE_OPS: the
        # calls the cap refuses run the scalar path and are reported.
        result = Session().audit(
            pyramid_source(16), "P16", inputs={"x": [1.5], "c": [1.0]},
            engine="batch",
        )
        fallbacks = result.payload["inline_fallbacks"]
        assert fallbacks
        assert {e["reason"] for e in fallbacks} == {FALLBACK_SIZE_CAP}
        assert result.sound
        assert _sha256(result) == PYRAMID16_BATCH_SHA256

    def test_pyramid_under_the_cap_inlines_fully(self):
        # P15 flattens to 196,604 ops, under MAX_INLINE_OPS: a splice
        # replaces its call op, so it costs the callee's op count.
        program = parse_program(pyramid_source(15))
        ir = inlined_definition_ir(program["P15"], program)
        assert count_ops(ir.ops) == 196_604 <= MAX_INLINE_OPS
        assert not ir.has_calls
        assert inline_fallback_info(ir) == []


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
