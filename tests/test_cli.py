"""Tests for the repro-bean command-line interface."""

import json

import pytest

from repro.api import parse_roundoff
from repro.cli import main

DOTPROD = """
DotProd2 (x : vec(2)) (y : vec(2)) : num :=
  let (x0, x1) = x in
  let (y0, y1) = y in
  let v = mul x0 y0 in
  let w = mul x1 y1 in
  add v w
"""


@pytest.fixture()
def bean_file(tmp_path):
    path = tmp_path / "prog.bean"
    path.write_text(DOTPROD)
    return str(path)


class TestRoundoffParsing:
    def test_caret(self):
        assert parse_roundoff("2^-53") == 2.0**-53

    def test_double_star(self):
        assert parse_roundoff("2**-24") == 2.0**-24

    def test_literal(self):
        assert parse_roundoff("1e-8") == 1e-8


class TestCheck:
    def test_check_prints_judgment(self, bean_file, capsys):
        assert main(["check", bean_file]) == 0
        out = capsys.readouterr().out
        assert "DotProd2" in out
        assert "3ε/2" in out

    def test_check_json(self, bean_file, capsys):
        assert main(["check", bean_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        bounds = payload["definitions"][0]["bounds"]
        assert bounds["x"]["grade"] == "3ε/2"
        assert bounds["x"]["coefficient"] == [3, 2]
        assert payload["definitions"][0]["flops"] == 3

    def test_check_custom_roundoff(self, bean_file, capsys):
        assert main(["check", bean_file, "--u", "2^-24", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        u = 2.0**-24
        expected = 1.5 * u / (1 - u)
        assert payload["definitions"][0]["bounds"]["x"]["bound"] == pytest.approx(
            expected
        )

    def test_syntax_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.bean"
        bad.write_text("F (x : num := x")
        assert main(["check", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_type_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.bean"
        bad.write_text("F (x : num) := add x x")
        assert main(["check", str(bad)]) == 1
        assert "two subexpressions" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent.bean"]) == 1


class TestWitness:
    def test_witness_sound_run(self, bean_file, capsys):
        code = main(
            [
                "witness",
                bean_file,
                "--inputs",
                '{"x": [1.5, 2.25], "y": [3.1, -0.7]}',
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "soundness theorem holds on this run: True" in out

    def test_witness_named_definition(self, bean_file):
        code = main(
            [
                "witness",
                bean_file,
                "--name",
                "DotProd2",
                "--inputs",
                '{"x": [1.0, 2.0], "y": [3.0, 4.0]}',
            ]
        )
        assert code == 0

    BATCH_INPUTS = '{"x": [[1.5, 2.25], [0.5, 4.0]], "y": [[3.1, -0.7], [2.0, 1.25]]}'

    def test_decimal_is_a_backend_not_an_engine(self, bean_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "witness",
                    bean_file,
                    "--engine",
                    "decimal",
                    "--inputs",
                    self.BATCH_INPUTS,
                ]
            )
        assert excinfo.value.code == 2  # argparse usage error
        assert "argument --engine: unknown engine 'decimal'" in capsys.readouterr().err

    def test_witness_non_ascii_numeral_is_an_error_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.bean"
        bad.write_text("F (x : vec(²)) := x", encoding="utf-8")
        code = main(["witness", str(bad), "--inputs", '{"x": [1.0]}'])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "1:12: unexpected character '²'" in err
        assert "Traceback" not in err



class TestExamples:
    def test_examples_lists_all(self, capsys):
        assert main(["examples"]) == 0
        out = capsys.readouterr().out
        for name in ("DotProd2", "LinSolve", "SMatVecMul", "HornerAlt"):
            assert name in out


class TestTables:
    def test_table1_fast(self, capsys):
        assert main(["table1", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "2.22e-15" in out

    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "1.11e-13" in out


class TestFmtAndErase:
    def test_fmt_roundtrips(self, bean_file, capsys):
        assert main(["fmt", bean_file]) == 0
        printed = capsys.readouterr().out
        from repro.core import check_program, parse_program

        judgments = check_program(parse_program(printed))
        assert str(judgments["DotProd2"].grade_of("x")) == "3ε/2"

    def test_erase_drops_modalities(self, tmp_path, capsys):
        src = tmp_path / "h.bean"
        src.write_text(
            "Horner (a : vec(3)) (z : !R) : num :=\n"
            "  let (a0, a1, a2) = a in\n"
            "  let y1 = dmul z a2 in\n"
            "  let y2 = add a1 y1 in\n"
            "  let y3 = dmul z y2 in\n"
            "  add a0 y3\n"
        )
        assert main(["erase", str(src)]) == 0
        printed = capsys.readouterr().out
        assert "dmul" not in printed  # erased to mul
        assert "!" not in printed  # modalities gone
        assert "mul z" in printed

    def test_fmt_rejects_ill_typed(self, tmp_path, capsys):
        bad = tmp_path / "bad.bean"
        bad.write_text("F (x : num) := add x x")
        assert main(["fmt", str(bad)]) == 1
