"""Tests for the Bean parser and pattern desugaring."""

import pytest

from repro.core import ast_nodes as A
from repro.core.errors import BeanSyntaxError
from repro.core.parser import parse_expression, parse_program, parse_type
from repro.core.types import (
    NUM,
    UNIT,
    Discrete,
    Sum,
    Tensor,
    matrix,
    vector,
)


class TestTypes:
    @pytest.mark.parametrize(
        "source,expected",
        [
            ("num", NUM),
            ("R", NUM),
            ("unit", UNIT),
            ("!num", Discrete(NUM)),
            ("!R", Discrete(NUM)),
            ("num * num", Tensor(NUM, NUM)),
            ("num ⊗ num", Tensor(NUM, NUM)),
            ("num + unit", Sum(NUM, UNIT)),
            ("vec(2)", vector(2)),
            ("vec(5)", vector(5)),
            ("mat(2,2)", matrix(2, 2)),
            ("(num * num) + unit", Sum(Tensor(NUM, NUM), UNIT)),
            ("!(R * R)", Discrete(Tensor(NUM, NUM))),
        ],
    )
    def test_parse(self, source, expected):
        assert parse_type(source) == expected

    def test_tensor_right_associative(self):
        assert parse_type("num * num * num") == Tensor(NUM, Tensor(NUM, NUM))

    def test_trailing_input_rejected(self):
        with pytest.raises(BeanSyntaxError):
            parse_type("num num")

    def test_bad_type(self):
        with pytest.raises(BeanSyntaxError):
            parse_type("let")


class TestExpressions:
    def test_var(self):
        assert parse_expression("x") == A.Var("x")

    def test_unit(self):
        assert parse_expression("()") == A.UnitVal()

    def test_pair(self):
        assert parse_expression("(x, y)") == A.Pair(A.Var("x"), A.Var("y"))

    def test_triple_is_balanced(self):
        e = parse_expression("(a, b, c)")
        assert e == A.Pair(A.Var("a"), A.Pair(A.Var("b"), A.Var("c")))

    def test_quad_is_balanced(self):
        e = parse_expression("(a, b, c, d)")
        assert e == A.Pair(
            A.Pair(A.Var("a"), A.Var("b")), A.Pair(A.Var("c"), A.Var("d"))
        )

    def test_bang(self):
        assert parse_expression("!x") == A.Bang(A.Var("x"))

    @pytest.mark.parametrize(
        "kw,op", [("add", A.Op.ADD), ("sub", A.Op.SUB), ("mul", A.Op.MUL),
                   ("dmul", A.Op.DMUL), ("div", A.Op.DIV)]
    )
    def test_primops(self, kw, op):
        assert parse_expression(f"{kw} x y") == A.PrimOp(op, A.Var("x"), A.Var("y"))

    def test_primop_on_parenthesized(self):
        e = parse_expression("add (mul a b) c")
        assert isinstance(e.left, A.PrimOp)

    def test_let(self):
        e = parse_expression("let v = add x y in v")
        assert isinstance(e, A.Let)
        assert e.name == "v"

    def test_dlet(self):
        e = parse_expression("dlet z = !x in dmul z y")
        assert isinstance(e, A.DLet)

    def test_let_pair(self):
        e = parse_expression("let (a, b) = p in add a b")
        assert isinstance(e, A.LetPair)
        assert (e.left, e.right) == ("a", "b")

    def test_nested_pattern_desugars(self):
        e = parse_expression("let ((a, b), (c, d)) = p in add a d")
        assert isinstance(e, A.LetPair)
        # fresh intermediate names, then nested pair-lets
        assert isinstance(e.body, A.LetPair)

    def test_inl_default_unit(self):
        e = parse_expression("inl x")
        assert e == A.Inl(A.Var("x"), UNIT)

    def test_inl_with_annotation(self):
        e = parse_expression("inl{num * num} x")
        assert e.other == Tensor(NUM, NUM)

    def test_inr_with_annotation(self):
        e = parse_expression("inr{num} ()")
        assert e == A.Inr(A.UnitVal(), NUM)

    def test_case(self):
        e = parse_expression("case s of inl (a) => a | inr (b) => b")
        assert isinstance(e, A.Case)
        assert (e.left_name, e.right_name) == ("a", "b")

    def test_case_without_parens(self):
        e = parse_expression("case s of inl a => a | inr b => b")
        assert isinstance(e, A.Case)

    def test_call(self):
        e = parse_expression("Foo x y")
        assert e == A.Call("Foo", [A.Var("x"), A.Var("y")])

    def test_call_with_pair_argument(self):
        e = parse_expression("Foo (x, y) z")
        assert len(e.args) == 2

    def test_trailing_tokens_rejected(self):
        with pytest.raises(BeanSyntaxError):
            parse_expression("x )")

    def test_error_position(self):
        with pytest.raises(BeanSyntaxError) as exc:
            parse_expression("let = x in y")
        assert exc.value.line == 1


class TestDefinitions:
    def test_simple_definition(self):
        prog = parse_program("Id (x : num) : num := x")
        d = prog["Id"]
        assert d.params[0] == A.Param("x", NUM)
        assert d.declared_result == NUM
        assert d.body == A.Var("x")

    def test_without_result_annotation(self):
        prog = parse_program("Id (x : num) := x")
        assert prog["Id"].declared_result is None

    def test_discrete_parameter(self):
        prog = parse_program("F (z : !R) (x : num) := dmul z x")
        assert prog["F"].params[0].ty == Discrete(NUM)

    def test_pattern_parameter_desugars(self):
        prog = parse_program("F ((a, b) : vec(2)) := add a b")
        d = prog["F"]
        assert len(d.params) == 1
        assert isinstance(d.body, A.LetPair)

    def test_discrete_pattern_parameter_uses_dlet(self):
        prog = parse_program("F ((a, b) : !(R * R)) (x : num) := dmul a x")
        assert isinstance(prog["F"].body, A.DLetPair)

    def test_two_definitions_with_call(self):
        prog = parse_program(
            """
            Double (x : num) := add x x
            Main (x : num) (y : num) := Double x
            """
        )
        assert isinstance(prog["Main"].body, A.Call)

    def test_call_boundary_before_next_definition(self):
        # The classic ambiguity: a trailing call must not swallow the
        # next definition's name.
        prog = parse_program(
            """
            F (x : num) := x
            G (x : num) := F x
            H (x : num) := G x
            """
        )
        assert len(prog.definitions) == 3
        assert prog["G"].body == A.Call("F", [A.Var("x")])

    def test_empty_program_rejected(self):
        with pytest.raises(BeanSyntaxError):
            parse_program("   // nothing here\n")

    def test_duplicate_definitions_rejected(self):
        with pytest.raises(ValueError):
            parse_program("F (x : num) := x\nF (y : num) := y")


class TestDesugaredBinderNames:
    """Names the parser invents depend on the source text alone."""

    TUPLE_PARAM = "F ((a, b) : num * num) := let _arg0 = a in add _arg0 b"

    def test_accepted_on_every_parse(self):
        # The user's ``_arg0`` once collided with the generated parameter
        # name of the first parse in a process, rejected as shadowing.
        import os
        import subprocess
        import sys

        import repro
        from repro.core.checker import check_program

        code = (
            "from repro.core import check_program, parse_program\n"
            f"check_program(parse_program({self.TUPLE_PARAM!r}))\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", code], check=True, env=env)
        for _ in range(3):
            program = parse_program(self.TUPLE_PARAM)
            check_program(program)
            assert program["F"].params[0].name == "__arg0"

    def test_parameter_key_is_stable_across_parses(self):
        from repro.api import Session

        session = Session()
        keys = []
        for _ in range(2):
            program = session.parse(self.TUPLE_PARAM)
            parse_program("G ((c, d, e) : vec(3)) := let (x, y) = (c, d) in e")
            result = session.audit(program, inputs={"__arg0": [1.5, 2.5]})
            assert result.sound
            keys.append(list(result.payload["params"]))
        assert keys == [["__arg0"], ["__arg0"]]

    def test_fingerprint_is_stable_across_parses(self):
        from repro.service.fingerprint import fingerprint_program

        first = fingerprint_program(parse_program(self.TUPLE_PARAM))
        parse_program("G ((c, (d, e)) : num * (num * num)) := add c d")
        assert fingerprint_program(parse_program(self.TUPLE_PARAM)) == first

    def test_source_identifiers_are_skipped(self):
        program = parse_program(
            "F ((a, b) : num * num) ((c, d) : num * num) :=\n"
            "  let __arg0 = add a c in let __arg2 = add b d in add __arg0 __arg2"
        )
        assert [p.name for p in program["F"].params] == ["__arg1", "__arg3"]

    def test_each_definition_counts_from_zero(self):
        program = parse_program(
            "F ((a, b) : num * num) := add a b\n"
            "G ((a, (b, c)) : num * (num * num)) := let (x, (y, z)) = (a, (b, c)) in x"
        )
        assert program["F"].params[0].name == "__arg0"
        assert program["G"].params[0].name == "__arg0"

    def test_global_supply_never_spells_a_parser_name(self):
        for hint in ("arg", "_arg", "__l"):
            assert not A.fresh_name(hint).startswith("__")
