"""The let-spine lowering: same checked IR, same errors, no recursion.

``repro.ir.lower`` lowers a chain of lets in place while each bound is a
variable or a primop on two variables, and sends every other node
through its general work stack.  These tests pin what that must not
change:

* the checked IR of every Table-1 family (at the paper's sizes), the
  SafeDiv kernel and the example programs, as digests recorded from the
  lowering that pushed four work items per ``let`` and per primop;
* the checked-mode error on a let-spine with one fault, which must be
  the rule-by-rule checker's (``tests/oracles/checker_ref.py``) word for
  word; with two faults both checkers reject, possibly naming different
  faults;
* Sum 10000, parsed from paper-style text, checks under the default
  recursion limit.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from oracles.checker_ref import check_definition_ref
from repro.core import Program, check_definition, parse_program, pretty_program
from repro.core.checker import check_program
from repro.core.errors import BeanError
from repro.ir import lower
from repro.ir.lower import lower_definition
from repro.programs.generators import BENCHMARK_FAMILIES, TABLE1_SIZES

EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "bean"


def _ops_digest(ops):
    out = []
    for op in ops:
        if op.code == lower.CASE:
            aux = [[r.payload, r.result, _ops_digest(r.ops)] for r in op.aux]
        elif op.code == lower.DVAR:
            aux = None  # a binder name, which the parser may spell freely
        elif op.code == lower.CALL:
            aux = [op.aux[0], list(op.aux[1])]
        else:
            aux = None if op.aux is None else str(op.aux)
        out.append([op.code, op.dest, op.a, op.b, aux])
    return out


def ir_digest(ir) -> str:
    """A digest of a checked IR: ops, operands, slot types, used params."""
    record = {
        "params": [[p.name, p.slot, p.discrete, str(p.ty)] for p in ir.params],
        "ops": _ops_digest(ir.ops),
        "result": ir.result,
        "n_slots": ir.n_slots,
        "types": [str(t) for t in ir.types],
        "used_params": sorted(ir.used_params),
    }
    blob = json.dumps(record, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _sources():
    sizes = dict(TABLE1_SIZES, SafeDiv=[20, 50, 100])
    for family, ns in sizes.items():
        for n in ns:
            definition = BENCHMARK_FAMILIES[family](n)
            yield f"{family}{n}", pretty_program(Program([definition]))
    for path in sorted(EXAMPLES.glob("*.bean")):
        yield path.stem, path.read_text()


def program_digests(key: str, source: str):
    program = parse_program(source)
    judgments = check_program(program)
    return {
        f"{key}:{d.name}": ir_digest(lower_definition(d, checked=True, judgments=judgments))
        for d in program
    }


#: Recorded from the lowering that pushed four work items per let.
GOLDEN = {
    "DotProd20:DotProd20": "c5e418189f78481a",
    "DotProd50:DotProd50": "6d941bd8a50ad27c",
    "DotProd100:DotProd100": "08c0b6b4a7f39b33",
    "DotProd500:DotProd500": "ed09b405e349acff",
    "Horner20:Horner20": "2b0db216a223d49e",
    "Horner50:Horner50": "e940b08ec0c498b2",
    "Horner100:Horner100": "9173e3396e3b0daa",
    "Horner500:Horner500": "e39f67ccbccb3514",
    "PolyVal10:PolyVal10": "2371fc4cd3841c55",
    "PolyVal20:PolyVal20": "a41f080df2a46d0d",
    "PolyVal50:PolyVal50": "887053760502fdcc",
    "PolyVal100:PolyVal100": "be23a6c5c385c88c",
    "MatVecMul5:MatVecMul5": "30e9af832611604b",
    "MatVecMul10:MatVecMul10": "916499180c60bf69",
    "MatVecMul20:MatVecMul20": "3e08cc0022b5459c",
    "MatVecMul50:MatVecMul50": "ab30a50d42666a90",
    "Sum50:Sum50": "75d1db8cd385bc3f",
    "Sum100:Sum100": "596374fa7098ea61",
    "Sum500:Sum500": "af01dca2762db2da",
    "Sum1000:Sum1000": "a73a6ec989df293f",
    "SafeDiv20:SafeDiv20": "71b9f300f7a5f95c",
    "SafeDiv50:SafeDiv50": "46e05279f5895baf",
    "SafeDiv100:SafeDiv100": "7aed45ec26c98f8e",
    "dotprod2:DotProd2": "6d2fb1e4c03dbccc",
    "safediv4:SafeDiv4": "07e2f64521b8b510",
}


@pytest.mark.parametrize("key, source", list(_sources()), ids=lambda v: v[:16])
def test_checked_ir_matches_the_recorded_digests(key, source):
    for name, digest in program_digests(key, source).items():
        assert (name, digest) == (name, GOLDEN[name])


def test_every_recorded_program_is_checked():
    names = set()
    for key, source in _sources():
        names.update(f"{key}:{d.name}" for d in parse_program(source))
    assert names == set(GOLDEN)


SPINE_ERRORS = [
    # A linear variable reused as a later primop's right operand.
    "F (x : num) (y : num) := let a = add x y in let b = mul a x in b",
    # dmul whose left operand is not discrete.
    "F (x : num) (y : num) := let a = dmul x y in a",
    # A binder that shadows one already in scope.
    "F (x : num) (y : num) := let a = add x y in let b = a in let a = b in a",
    # An unbound variable in a bound.
    "F (x : num) := let a = add x z in a",
    # A let aliasing a parameter (lowered to a BANG op), used twice.
    "F (x : num) (y : num) := let a = x in let b = x in add a b",
    # dlet of a linear bound.
    "F (x : num) (z : !num) := dlet a = x in dmul a z",
    # The first link checks, the error sits deep in the spine.
    "F ((a, b, c) : vec(3)) (z : !num) :=\n"
    "  let s = add a b in let t = dmul z s in let u = dmul t c in u",
]


@pytest.mark.parametrize("source", SPINE_ERRORS)
def test_spine_errors_match_the_rule_by_rule_checker(source):
    definition = parse_program(source).main
    with pytest.raises(BeanError) as ours:
        check_definition(definition)
    with pytest.raises(BeanError) as ref:
        check_definition_ref(definition)
    assert type(ours.value) is type(ref.value)
    assert str(ours.value) == str(ref.value)


#: Two faults: ``s`` is used twice (linearity) and ``dmul``'s first
#: operand ``s`` is not discrete (typing).  The lowering meets the reuse
#: first; the rule-by-rule checker types the body before it merges
#: contexts, so it meets the ``dmul`` first.
TWO_FAULTS = (
    "F ((a, b, c) : vec(3)) (z : !num) :=\n"
    "  let s = add a b in let t = dmul z s in let u = dmul s c in u"
)


def test_two_fault_spine_is_rejected_by_both_checkers():
    definition = parse_program(TWO_FAULTS).main
    with pytest.raises(BeanError):
        check_definition(definition)
    with pytest.raises(BeanError):
        check_definition_ref(definition)


def test_parameter_alias_emits_bang():
    definition = parse_program("F (x : num) (y : num) := let a = x in add a y").main
    ir = lower_definition(definition, checked=True, judgments={})
    assert [op.code for op in ir.ops] == [lower.BANG, lower.ADD]
    assert ir.used_params == {"x", "y"}


def test_sum_10000_text_checks_under_the_default_recursion_limit():
    n = 10000
    xs = [f"x{i}" for i in range(n)]
    lines = [f"Sum{n} (x : vec({n})) :=", f"let ({', '.join(xs)}) = x in"]
    acc = xs[0]
    for i in range(1, n - 1):
        lines.append(f"let s{i} = add {acc} {xs[i]} in")
        acc = f"s{i}"
    lines.append(f"add {acc} {xs[-1]}")
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        judgment = check_program(parse_program("\n".join(lines)))[f"Sum{n}"]
    finally:
        sys.setrecursionlimit(old)
    assert judgment.grade_of("x").coeff == n - 1
