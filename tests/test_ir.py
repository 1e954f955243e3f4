"""The flat IR subsystem: lowering, iterative sweeps, and engine parity.

Two families of properties:

* **Deep programs without the deepstack hack** — Sum 10000 and
  PolyVal 1000 must check, evaluate, and round-trip the backward lens
  with the *default* recursion limit in force (the IR pipeline's only
  recursion is over case/call nesting, never program length).
* **Engine parity** — the IR checker, evaluator, and backward sweep
  agree with the recursive reference engines in ``tests/oracles/``
  result-for-result (grades, types, values, perturbed environments,
  raised errors) on randomized programs covering
  let/pair/case/div/dlet/bang/rnd/call.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from oracles.checker_ref import check_definition_ref
from oracles.eval_ref import evaluate_ref
from oracles.interp_ref import reference_lens, run_witness_ref
from oracles.intervals_ref import interval_forward_bound_ref
from strategies import random_definition, random_inputs
from repro.core import check_definition, parse_program, pretty_program
from repro.core.checker import check_program
from repro.ir import lower_definition, semantic_definition_ir
from repro.lam_s.eval import evaluate
from repro.programs.generators import poly_val, vec_sum
from repro.semantics.interp import lens_of_definition
from repro.semantics.witness import env_from_pythons, run_witness
from repro.analysis.forward import forward_error_bound
from repro.analysis.intervals import interval_forward_bound


@pytest.fixture
def default_recursion_limit():
    """Pin the stock CPython limit so deep-stack crutches would crash."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


@pytest.fixture(scope="module")
def sum_10000():
    return vec_sum(10000)


@pytest.fixture(scope="module")
def polyval_1000():
    return poly_val(1000)


class TestDeepPrograms:
    def test_sum_10000_checks_iteratively(self, default_recursion_limit, sum_10000):
        judgment = check_definition(sum_10000)
        assert judgment.grade_of("x").coeff == 9999

    def test_sum_10000_witness_round_trip(self, default_recursion_limit, sum_10000):
        xs = [0.5 + (i % 17) * 0.25 for i in range(10000)]
        report = run_witness(sum_10000, {"x": xs})
        assert report.sound

    def test_sum_10000_analyzers(self, default_recursion_limit, sum_10000):
        bound = forward_error_bound(sum_10000)
        assert bound is not None and bound.coeff == 9999
        interval = interval_forward_bound(sum_10000, input_range=(0.1, 10.0))
        assert interval > 0

    def test_polyval_1000_checks_iteratively(
        self, default_recursion_limit, polyval_1000
    ):
        judgment = check_definition(polyval_1000)
        # Standard bound for naive polynomial evaluation: (n+1)·ε.
        assert judgment.grade_of("a").coeff == 1001

    def test_polyval_1000_eval_and_lens(self, default_recursion_limit, polyval_1000):
        coeffs = [0.5 + (i % 7) * 0.125 for i in range(1001)]
        lens = lens_of_definition(polyval_1000)
        env = env_from_pythons(polyval_1000, {"a": coeffs, "z": 1.0078125})
        approx = lens.approx(env)
        perturbed = lens.backward(env, approx)
        # Property 2 end-to-end: the ideal run on the perturbed inputs
        # reproduces the approximate result.
        from repro.lam_s.values import values_close

        assert values_close(lens.ideal(perturbed), approx)


class TestLoweringShape:
    def test_let_chain_is_flat(self):
        definition = vec_sum(500)
        ir = semantic_definition_ir(definition)
        assert not ir.has_cases and not ir.has_calls
        assert ir.vectorizable
        # n-1 adds plus the projection ops; no op for any let binder.
        assert len(ir.ops) == 499 + 2 * 499

    def test_case_programs_are_vectorizable(self):
        program = parse_program(
            """
            F (x : num) (y : num) (z : num) :=
              let q = div x y in
              case q of inl v => v | inr e => z
            """
        )
        # Data-dependent control flow (div + case) runs with branch
        # masks and per-row screening — inside the vectorizable
        # fragment since the full-language batch engine.
        ir = lower_definition(program["F"])
        assert ir.has_cases and ir.vectorizable

    def test_calls_are_not_vectorizable_until_inlined(self):
        program = parse_program(
            """
            Double (x : num) := add x x

            F (a : num) (b : num) := mul (Double a) (Double b)
            """
        )
        from repro.ir import inline_calls, semantic_definition_ir

        ir = semantic_definition_ir(program["F"])
        assert ir.has_calls and not ir.vectorizable
        inlined = inline_calls(ir, program)
        assert not inlined.has_calls and inlined.vectorizable
        # Caller parameter and result slots survive the splice.
        assert [p.slot for p in inlined.params] == [p.slot for p in ir.params]
        assert inlined.result == ir.result

    def test_inline_guards_leave_calls_in_place(self):
        from repro.core import Definition, NUM, Param, Program
        from repro.core import builders as B
        from repro.ir import inline_calls, semantic_definition_ir

        # Arity mismatch must keep failing at run time, not inline time.
        callee = Definition("G", [Param("a", NUM), Param("b", NUM)],
                            B.add("a", "b"))
        caller = Definition("F", [Param("x", NUM)],
                            B.call("G", B.var("x")))
        program = Program([callee, caller])
        ir = inline_calls(semantic_definition_ir(caller), program)
        assert ir.has_calls and not ir.vectorizable
        # A size guard refusal also leaves the call in place.
        wide = inline_calls(
            semantic_definition_ir(caller), Program([callee, caller]),
            max_ops=0,
        )
        assert wide.has_calls

    def test_checked_lowering_rejects_what_checker_rejects(self):
        from repro.core import BeanTypeError, LinearityError

        bad = parse_program("F (x : num) := add x x").definitions[0]
        with pytest.raises(LinearityError):
            check_definition(bad)
        shadow = parse_program(
            "F (x : num) (y : num) := let x = rnd y in x"
        ).definitions[0]
        with pytest.raises(BeanTypeError, match="shadows"):
            check_definition(shadow)


class TestEngineParity:
    @pytest.mark.parametrize("seed", range(30))
    def test_checker_parity(self, seed):
        spec = random_definition(seed, n_linear=5, n_steps=5)
        d = spec.definition
        j_ir = check_definition(d)
        j_rec = check_definition_ref(d)
        assert j_ir.result == j_rec.result
        assert j_ir.linear.domain() == j_rec.linear.domain()
        for name, binding in j_rec.linear.items():
            assert j_ir.linear[name].grade == binding.grade
            assert j_ir.linear[name].ty == binding.ty

    @pytest.mark.parametrize("seed", range(20))
    def test_eval_parity(self, seed):
        spec = random_definition(seed)
        inputs = random_inputs(spec, seed + 1000)
        env = env_from_pythons(spec.definition, inputs)
        for mode in ("approx", "ideal"):
            v_ir = evaluate(spec.definition.body, env, mode=mode)
            v_rec = evaluate_ref(spec.definition.body, env, mode=mode)
            assert repr(v_ir) == repr(v_rec)

    @pytest.mark.parametrize("seed", range(20))
    def test_backward_parity(self, seed):
        # n_linear=6, n_steps=4 keeps the pool big enough that the
        # generator's div+case tail triggers regularly.
        spec = random_definition(seed, n_linear=6, n_steps=4)
        inputs = random_inputs(spec, seed + 2000)
        d = spec.definition
        env = env_from_pythons(d, inputs)
        lens_ir = lens_of_definition(d)
        lens_rec = reference_lens(d)
        target = lens_ir.approx(env)
        assert repr(target) == repr(lens_rec.approx(env))
        try:
            p_ir = lens_ir.backward(env, target)
            err_ir = None
        except Exception as exc:  # noqa: BLE001 - compared below
            p_ir, err_ir = None, repr(exc)
        try:
            p_rec = lens_rec.backward(env, target)
            err_rec = None
        except Exception as exc:  # noqa: BLE001
            p_rec, err_rec = None, repr(exc)
        assert err_ir == err_rec
        if p_ir is not None:
            assert set(p_ir) == set(p_rec)
            for name in p_ir:
                assert repr(p_ir[name]) == repr(p_rec[name])

    def test_case_with_unused_payloads_keeps_outer_grade(self):
        # Regression: the scrutinee absorbs the case's own downstream
        # grade even when neither branch uses its payload binder.
        program = parse_program(
            """
            F (s : num + num) (c1 : num) (c2 : num) :=
              let z = (case s of inl a => c1 | inr b => c2) in
              rnd z
            """
        )
        j_ir = check_program(program)["F"]
        j_rec = check_definition_ref(program["F"])
        assert j_ir.grade_of("s") == j_rec.grade_of("s")
        assert j_ir.grade_of("s").coeff == 1  # ε from the rnd

    def test_dead_let_binding_stays_strict(self):
        # Regression: `let y = z in x` must read z eagerly — both
        # engines raise for an unbound z even though y is never used.
        from repro.core import builders as B
        from repro.lam_s.eval import EvalError
        from repro.lam_s.values import VNum

        expr = B.let_("y", B.var("z"), B.var("x"))
        env = {"x": VNum(1.0)}
        with pytest.raises(EvalError, match="unbound variable 'z'"):
            evaluate_ref(expr, env)
        with pytest.raises(EvalError, match="unbound variable 'z'"):
            evaluate(expr, env)

    def test_call_parity(self):
        program = parse_program(
            """
            Scale (c : !num) (v : num) : num := dmul c v
            Main (x : num) (y : num) (c : !num) :=
              let a = Scale c x in
              let b = Scale c y in
              add a b
            """
        )
        judgments = check_program(program)
        assert judgments["Main"].grade_of("x").coeff == 2
        d = program["Main"]
        env = env_from_pythons(d, {"x": 1.5, "y": -2.25, "c": 3.25})
        lens_ir = lens_of_definition(d, program=program)
        lens_rec = reference_lens(d, program=program)
        target = lens_ir.approx(env)
        p_ir = lens_ir.backward(env, target)
        p_rec = lens_rec.backward(env, target)
        for name in p_ir:
            assert repr(p_ir[name]) == repr(p_rec[name])

    @pytest.mark.parametrize("seed", range(10))
    def test_analyzer_parity(self, seed):
        # The forward analyzer's recursive walker is gone (its rules are
        # pinned by closed forms in test_forward.py); the interval
        # analyzer's walker is a test oracle, compared bit for bit.
        spec = random_definition(seed, n_linear=5, n_steps=5)
        d = spec.definition
        via_ast = interval_forward_bound_ref(d)
        via_ir = interval_forward_bound(d)
        assert via_ast == via_ir

    def test_witness_on_ir_path_matches_recursive(self):
        d = vec_sum(50)
        xs = [0.5 + 0.125 * i for i in range(50)]
        rep_ir = run_witness(d, {"x": xs}, lens=lens_of_definition(d))
        rep_rec = run_witness_ref(d, {"x": xs}, lens=reference_lens(d))
        assert rep_ir.sound and rep_rec.sound
        assert str(rep_ir.params["x"].distance) == str(rep_rec.params["x"].distance)
        assert repr(rep_ir.params["x"].perturbed) == repr(
            rep_rec.params["x"].perturbed
        )


class TestProgramCache:
    def test_judgments_cached_by_identity(self):
        d = vec_sum(64)
        j1 = check_definition(d)
        j2 = check_definition(d)
        assert j1 is j2
        # A structurally equal but distinct definition gets its own entry.
        assert check_definition(vec_sum(64)) is not j1

    def test_program_check_cached(self):
        program = parse_program("F (x : num) := rnd x")
        assert check_program(program) is check_program(program)


# ---------------------------------------------------------------------------
# One lowering per checked definition, one approx sweep per witness
# ---------------------------------------------------------------------------


EXAMPLE_BEAN = Path(__file__).resolve().parent.parent / "examples" / "bean"


def _ops_signature(ops):
    """Op reprs, with each case's regions spelled out (reprs omit them)."""
    from repro.ir.lower import CASE

    out = []
    for op in ops:
        out.append(repr(op))
        if op.code == CASE:
            for region in op.aux:
                out.append((region.payload, region.result, _ops_signature(region.ops)))
    return out


def _ir_signature(ir):
    params = [(p.name, p.slot, p.discrete, repr(p.ty)) for p in ir.params]
    return (
        params, _ops_signature(ir.ops), ir.result, ir.n_slots,
        ir.has_calls, ir.has_cases, ir.vectorizable,
    )


def _assert_audited_ir_is_semantic(program):
    """After a check, each definition's cached IR is its checked IR and
    matches a fresh semantic lowering repr for repr."""
    check_program(program)
    for definition in program:
        audited = semantic_definition_ir(definition)
        assert audited.types is not None  # the checker's own lowering
        fresh = lower_definition(definition, checked=False)
        assert _ir_signature(audited) == _ir_signature(fresh)


def _flat_inputs(definition, salt: float):
    from repro.core.types import Discrete, Tensor

    def size(ty):
        if isinstance(ty, Discrete):
            return size(ty.inner)
        if isinstance(ty, Tensor):
            return size(ty.left) + size(ty.right)
        return 1

    inputs = {}
    for k, p in enumerate(definition.params):
        n = size(p.ty)
        values = [1.0 + salt + (k * 7 + i) / 13 for i in range(n)]
        inputs[p.name] = values[0] if n == 1 else values
    return inputs


def _count_passes(monkeypatch):
    """Record every lowering (its ``checked`` flag) and every approx and
    ideal sweep the process runs from here on."""
    from repro.ir import lower as L
    from repro.lam_s.executor import _SlotExecutor

    lowerings = []
    sweeps = []
    real_lower = L._Lowerer.lower
    real_approx = _SlotExecutor.approx
    real_ideal = _SlotExecutor.ideal

    def counting_lower(self, root):
        lowerings.append(self.checked)
        return real_lower(self, root)

    def counting_approx(self, frame):
        sweeps.append("approx")
        return real_approx(self, frame)

    def counting_ideal(self, ir, env):
        sweeps.append("ideal")
        return real_ideal(self, ir, env)

    monkeypatch.setattr(L._Lowerer, "lower", counting_lower)
    monkeypatch.setattr(_SlotExecutor, "approx", counting_approx)
    monkeypatch.setattr(_SlotExecutor, "ideal", counting_ideal)
    return lowerings, sweeps


class TestSinglePassColdAudit:
    @pytest.mark.parametrize(
        "family, n",
        [("dot_prod", 20), ("vec_sum", 50), ("horner", 20), ("poly_val", 10),
         ("mat_vec_mul", 5)],
    )
    def test_cold_session_lowers_once_and_sweeps_approx_once(
        self, family, n, monkeypatch
    ):
        from repro.api import Session
        from repro.core import Program, pretty_program
        from repro.programs import generators

        lowerings, sweeps = _count_passes(monkeypatch)
        text = pretty_program(Program([getattr(generators, family)(n)]))
        with Session() as session:
            program = session.parse(text)
            session.check(program)
            result = session.audit(program, inputs=_flat_inputs(program.main, 0.25))
        assert result.sound
        assert lowerings == [True]
        assert sweeps.count("approx") == 1
        assert sweeps.count("ideal") == 1

    def test_served_audit_lowers_once_and_sweeps_once(self, monkeypatch):
        import json

        from repro.core import Program
        from repro.programs.generators import horner
        from repro.service.client import audit
        from repro.service.server import AuditServer, serve

        program = Program([horner(20)])
        handle = serve(AuditServer(port=0))
        try:
            lowerings, sweeps = _count_passes(monkeypatch)
            status, body = audit(
                handle.host,
                handle.port,
                {
                    "source": pretty_program(program),
                    "inputs": _flat_inputs(program.main, 0.25),
                    "engine": "ir",
                },
            )
        finally:
            handle.stop()
        assert status == 200
        assert json.loads(body)["sound"]
        assert lowerings == [True]
        assert sweeps.count("approx") == 1
        assert sweeps.count("ideal") == 1

    @pytest.mark.parametrize("path", sorted(EXAMPLE_BEAN.glob("*.bean")), ids=lambda p: p.name)
    def test_example_files(self, path):
        _assert_audited_ir_is_semantic(parse_program(path.read_text()))

    def test_example_library(self):
        from repro.programs.examples import example_program

        _assert_audited_ir_is_semantic(parse_program(pretty_program(example_program())))

    @pytest.mark.parametrize("seed", range(25))
    def test_random_definitions(self, seed):
        from repro.core import Program

        spec = random_definition(seed, n_linear=4, n_steps=6, allow_div=True)
        _assert_audited_ir_is_semantic(Program([spec.definition]))

    @pytest.mark.parametrize("seed", range(15))
    def test_random_programs(self, seed):
        from strategies import random_program

        _assert_audited_ir_is_semantic(random_program(seed, allow_div=True).program)

    def test_parameter_alias_is_a_typed_bang_in_both_modes(self):
        from repro.ir.lower import BANG

        program = parse_program(
            "F (x : num) (z : num) (c : !num) := let y = x in let w = z in dmul c y"
        )
        judgment = check_program(program)["F"]
        # Aliasing x through y leaves its grade where dmul puts it; the
        # dead alias w of z still reads z (strictness), at grade 0.
        assert judgment.grade_of("x").coeff == 1
        assert judgment.grade_of("z").coeff == 0
        ir = semantic_definition_ir(program["F"])
        bangs = [op for op in ir.ops if op.code == BANG]
        assert [ir.types[op.dest] for op in bangs] == [p.ty for p in program["F"].params[:2]]
        _assert_audited_ir_is_semantic(program)
