"""Tests for Λ_S: erasure, simple typing (Fig. 5), inlining, hygiene."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import NUM, UNIT, Discrete, Sum, Tensor, parse_expression, parse_program
from repro.core import ast_nodes as A
from repro.core.checker import check_program
from repro.lam_s import (
    Const,
    check_erased_definition,
    erase_definition,
    erase_expr,
    erase_type,
    evaluate,
    inline_calls,
    type_of,
    values_close,
    VNum,
)
from strategies import random_definition, random_inputs


class TestTypeErasure:
    def test_strips_modalities(self):
        assert erase_type(Discrete(NUM)) == NUM
        assert erase_type(Discrete(Tensor(NUM, NUM))) == Tensor(NUM, NUM)

    def test_recursive(self):
        ty = Sum(Tensor(Discrete(NUM), NUM), UNIT)
        assert erase_type(ty) == Sum(Tensor(NUM, NUM), UNIT)

    def test_idempotent(self):
        ty = Tensor(Discrete(NUM), Discrete(UNIT))
        assert erase_type(erase_type(ty)) == erase_type(ty)


class TestTermErasure:
    def test_bang_disappears(self):
        assert erase_expr(parse_expression("!x")) == A.Var("x")

    def test_dmul_becomes_mul(self):
        erased = erase_expr(parse_expression("dmul z x"))
        assert erased == A.PrimOp(A.Op.MUL, A.Var("z"), A.Var("x"))

    def test_dlet_becomes_let(self):
        erased = erase_expr(parse_expression("dlet z = !x in z"))
        assert erased == A.Let("z", A.Var("x"), A.Var("z"))

    def test_dletpair_becomes_letpair(self):
        erased = erase_expr(parse_expression("dlet (a, b) = p in a"))
        assert isinstance(erased, A.LetPair)

    def test_case_preserved(self):
        erased = erase_expr(
            parse_expression("case s of inl (a) => a | inr (b) => b")
        )
        assert isinstance(erased, A.Case)

    def test_injection_annotations_erased(self):
        erased = erase_expr(A.Inl(A.Var("x"), Discrete(NUM)))
        assert erased.other == NUM


class TestLemmaD1:
    """Erasure preserves typing (Lemma D.1), checked per program."""

    def test_paper_examples(self, example_program):
        check_program(example_program)  # Bean-typeable
        signatures = {}
        for definition in example_program:
            erased = erase_definition(definition)
            signatures[definition.name] = check_erased_definition(
                erased, signatures
            )

    @given(st.integers(min_value=0, max_value=5000))
    def test_random_programs(self, seed):
        spec = random_definition(seed)
        erased = erase_definition(spec.definition)
        check_erased_definition(erased)  # must not raise


class TestSimpleTyping:
    def test_const(self):
        assert type_of(Const(3.5)) == NUM

    def test_dmul_rejected_in_lam_s(self):
        from repro.core import BeanTypeError

        with pytest.raises(BeanTypeError, match="dmul"):
            type_of(parse_expression("dmul x y"), {"x": NUM, "y": NUM})

    def test_unbound(self):
        from repro.core import UnboundVariableError

        with pytest.raises(UnboundVariableError):
            type_of(A.Var("ghost"))

    def test_div_type(self):
        ty = type_of(parse_expression("div x y"), {"x": NUM, "y": NUM})
        assert ty == Sum(NUM, UNIT)

    def test_branch_mismatch(self):
        from repro.core import BeanTypeError

        expr = parse_expression("case s of inl (a) => a | inr (b) => ()")
        with pytest.raises(BeanTypeError):
            type_of(expr, {"s": Sum(NUM, NUM)})


class TestInlining:
    SRC = """
    Square (z : !R) (x : num) := dmul z x
    Main (z : !R) (x : num) (y : num) := add (Square z x) y
    """

    def test_inlining_removes_calls(self):
        program = parse_program(self.SRC)
        inlined = inline_calls(program["Main"].body, program)
        assert not any(
            isinstance(e, A.Call) for e in A.subexpressions(inlined)
        )

    def test_inlining_preserves_semantics(self):
        program = parse_program(self.SRC)
        env = {"z": VNum(3.0), "x": VNum(4.0), "y": VNum(5.0)}
        direct = evaluate(program["Main"].body, env, mode="approx", program=program)
        inlined = evaluate(
            inline_calls(program["Main"].body, program), env, mode="approx"
        )
        assert values_close(direct, inlined)

    def test_hygiene_no_capture(self):
        # The callee binds 'tmp'; the caller passes a variable of the
        # same name — inlined bodies must rename their binders.
        program = parse_program(
            """
            Inner (a : num) (b : num) := let tmp = add a b in tmp
            Outer (tmp : num) (x : num) := Inner tmp x
            """
        )
        inlined = inline_calls(program["Outer"].body, program)
        env = {"tmp": VNum(1.5), "x": VNum(2.5)}
        result = evaluate(inlined, env, mode="approx")
        assert result.as_float() == 4.0

    def test_unknown_call_rejected(self):
        with pytest.raises(ValueError):
            inline_calls(A.Call("Ghost", [A.Var("x")]), None)

    @given(st.integers(min_value=0, max_value=2000))
    def test_erasure_and_eval_consistency(self, seed):
        """Direct eval with Bean constructs == eval of the erasure."""
        spec = random_definition(seed)
        inputs = random_inputs(spec, seed + 1)
        env = {k: VNum(v) for k, v in inputs.items()}
        direct = evaluate(spec.definition.body, env, mode="approx")
        erased = evaluate(erase_expr(spec.definition.body), env, mode="approx")
        assert values_close(direct, erased)


def _imported_modules(path, package):
    """Every module an ``import``/``from ... import`` in ``path`` names,
    at any nesting depth, with relative imports resolved against
    ``package``."""
    import ast

    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")
                base = ".".join(parts[: len(parts) - node.level + 1])
            else:
                base = ""
            module = ".".join(p for p in (base, node.module) if p)
            yield module
            for alias in node.names:
                yield f"{module}.{alias.name}"


class TestLayering:
    def test_lam_s_does_not_import_semantics(self):
        # Λ_S (⇓_id / ⇓_ap and their executor) sits below the lens
        # semantics built on it; no import may point back up.
        import pathlib

        import repro.lam_s

        root = pathlib.Path(repro.lam_s.__file__).parent
        modules = sorted(root.glob("*.py"))
        assert any(p.name == "eval.py" for p in modules)
        offenders = [
            f"{path.name}: {name}"
            for path in modules
            for name in _imported_modules(path, "repro.lam_s")
            if name == "repro.semantics" or name.startswith("repro.semantics.")
        ]
        assert offenders == []
