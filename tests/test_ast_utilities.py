"""Tests for AST utilities: traversal, free variables, flop counting,
Program bookkeeping, builders, and the deep-stack runner."""

import pytest

from repro.core import ast_nodes as A
from repro.core import builders as B
from repro.core import count_flops, free_variables, parse_expression, parse_program
from repro.core.deepstack import call_with_deep_stack
from repro.lam_s import VNum, evaluate, vector_value


class TestTraversal:
    def test_subexpressions_preorder(self):
        expr = parse_expression("add (mul x y) z")
        kinds = [type(e).__name__ for e in A.subexpressions(expr)]
        assert kinds == ["PrimOp", "PrimOp", "Var", "Var", "Var"]

    def test_subexpressions_includes_call_args(self):
        expr = parse_expression("Foo x (y, z)")
        names = [e.name for e in A.subexpressions(expr) if isinstance(e, A.Var)]
        assert names == ["x", "y", "z"]


class TestFreeVariables:
    def test_let_binds(self):
        expr = parse_expression("let v = add x y in mul v z")
        assert free_variables(expr) == {"x", "y", "z"}

    def test_pattern_binds_both(self):
        expr = parse_expression("let (a, b) = p in add a b")
        assert free_variables(expr) == {"p"}

    def test_case_binders(self):
        expr = parse_expression("case s of inl (a) => add a x | inr (b) => b")
        assert free_variables(expr) == {"s", "x"}

    def test_shadowless_bound_not_free(self):
        expr = parse_expression("dlet z = !x in dmul z y")
        assert free_variables(expr) == {"x", "y"}


class TestFlopCounting:
    def test_simple(self):
        assert count_flops(parse_expression("add x y")) == 1

    def test_nested(self):
        assert count_flops(parse_expression("add (mul x y) (div a b)")) == 3

    def test_through_calls(self):
        program = parse_program(
            """
            Dot (a : num) (b : num) (c : num) (d : num) := add (mul a b) (mul c d)
            Main (p : num) (q : num) (r : num) (s : num) := Dot p q r s
            """
        )
        assert count_flops(program["Main"].body, program) == 3

    def test_unknown_call_without_program(self):
        with pytest.raises(ValueError):
            count_flops(parse_expression("Foo x"))


class TestProgram:
    def test_lookup_and_contains(self):
        program = parse_program("F (x : num) := x\nG (y : num) := y")
        assert "F" in program and "H" not in program
        assert program["G"].name == "G"

    def test_main_is_last(self):
        program = parse_program("F (x : num) := x\nG (y : num) := y")
        assert program.main.name == "G"

    def test_empty_program_main(self):
        with pytest.raises(ValueError):
            A.Program([]).main

    def test_duplicate_names(self):
        d = parse_program("F (x : num) := x")["F"]
        with pytest.raises(ValueError):
            A.Program([d, d])


class TestBuilders:
    def test_expressions_from_strings(self):
        assert B.add("x", "y") == parse_expression("add x y")
        assert B.let_("v", B.mul("x", "y"), "v") == parse_expression(
            "let v = mul x y in v"
        )

    def test_tuple_balanced(self):
        assert B.tuple_("a", "b", "c") == parse_expression("(a, b, c)")

    def test_let_chain(self):
        expr = B.let_chain([("a", B.add("x", "y")), ("b", B.mul("a", "z"))], "b")
        assert expr == parse_expression("let a = add x y in let b = mul a z in b")

    def test_destructure_vector_matches_eval(self):
        # Destructuring a 5-vector must bind leaves left-to-right.
        body = B.destructure_vector(
            "v", [f"c{i}" for i in range(5)], B.var("c3")
        )
        env = {"v": vector_value([10.0, 11.0, 12.0, 13.0, 14.0])}
        result = evaluate(body, env, mode="approx")
        assert result.as_float() == 13.0

    def test_destructure_discrete(self):
        body = B.destructure_vector("v", ["a", "b"], B.dmul("a", "x"), discrete=True)
        env = {"v": vector_value([2.0, 3.0]), "x": VNum(5.0)}
        assert evaluate(body, env, mode="approx").as_float() == 10.0

    def test_destructure_empty(self):
        with pytest.raises(ValueError):
            B.destructure_vector("v", [], B.var("x"))

    def test_empty_tuple(self):
        with pytest.raises(ValueError):
            B.tuple_()


class TestDeepStack:
    def test_deep_recursion_succeeds(self):
        def count_down(n):
            if n == 0:
                return 0
            return 1 + count_down(n - 1)

        assert call_with_deep_stack(count_down, 50_000) == 50_000

    def test_exceptions_propagate(self):
        def boom():
            raise KeyError("inner")

        with pytest.raises(KeyError, match="inner"):
            call_with_deep_stack(boom)

    def test_return_value(self):
        assert call_with_deep_stack(lambda a, b: a + b, 2, b=3) == 5

    def test_concurrent_calls_restore_the_recursion_limit(self):
        # Regression: overlapping calls each saved and restored the
        # process-wide limit, so one could restore another's raised one.
        import sys
        import threading
        import time

        default = sys.getrecursionlimit()
        start = threading.Barrier(8, timeout=60)

        def worker():
            start.wait()
            for _ in range(20):
                call_with_deep_stack(time.sleep, 0.0005)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert sys.getrecursionlimit() == default

    def test_deep_bean_program(self):
        # A 2000-deep let chain checks fine through the deep-stack runner.
        from repro.core import check_definition
        from repro.programs.generators import vec_sum

        judgment = check_definition(vec_sum(2000))
        assert judgment.max_linear_grade().coeff == 1999
