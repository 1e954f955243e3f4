"""The unboxed slot executor against the structural reference lens.

Four contracts:

* **differential parity** — for generated programs (``case``/``div``,
  defined-function ``call``s, promotion, ``rnd``) under nearest,
  seeded stochastic and ``precision_bits`` 11/24 rounding, the slot
  executor and the recursive reference interpreters
  (:mod:`oracles.interp_ref`) give the same approximate value,
  perturbed inputs, ideal value and distance strings — or the same
  error, type and message;
* **the one-``ln`` distance** — :func:`rp_max_distance` prints exactly
  what the per-leaf :func:`type_distance` prints, on inputs built at
  its boundaries (ratios of exactly 1, zeros, sign flips, subnormals,
  ratios 1 ± 1 ulp, equal-size extremes on both sides of 1);
* **dmul's sign test** — the executor's ``dmul`` witness decides on
  the signs of its binary64 factors exactly as on their product;
* **non-finite witnesses** — an input or binary64 forward value that is
  not finite is a :class:`LensDomainError` naming the parameter or the
  overflowing op on every surface: Python, CLI, HTTP and batch rows.
"""

from __future__ import annotations

import contextlib
import decimal
import io
import json
import math
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from oracles.interp_ref import reference_lens, run_witness_ref
from strategies import DefinitionSpec, random_definition, random_inputs, random_program
from repro.core.types import NUM, vector
from repro.lam_s.values import VNum, vector_value
from repro.programs import generators
from repro.semantics.interp import lens_of_definition
from repro.semantics.lens import LensDomainError
from repro.semantics.primitives import BACKWARD_PRECISION, dmul_backward, dmul_witness
from repro.semantics.spaces import rp_max_distance, type_distance
from repro.semantics.witness import run_witness

_BUDGET = settings().max_examples

#: The product lens and witness runner, and the reference oracles.
_ENGINES = {
    "ir": (lens_of_definition, run_witness),
    "recursive": (reference_lens, run_witness_ref),
}


def _outcome(spec, inputs, options, engine):
    make_lens, witness = _ENGINES[engine]
    lens = make_lens(spec.definition, program=spec.program, **options)
    try:
        report = witness(spec.definition, inputs, program=spec.program, lens=lens)
    except Exception as exc:  # noqa: BLE001 - compared type+message below
        return ("error", type(exc), str(exc))
    return (
        "report",
        repr(report.approx_value),
        repr(report.ideal_on_perturbed),
        report.exact_match,
        {
            name: (repr(w.perturbed), str(w.distance), str(w.bound))
            for name, w in report.params.items()
        },
    )


@st.composite
def executor_cases(draw):
    kind = draw(st.sampled_from(["flat", "case", "div", "call"]))
    seed = draw(st.integers(0, 2**16))
    n_linear = draw(st.integers(1, 4))
    n_steps = draw(st.integers(1, 6))
    n_discrete = draw(st.integers(0, 2))
    if kind == "call":
        spec = random_program(
            seed,
            n_linear=max(2, n_linear),
            n_discrete=max(1, n_discrete),
            n_steps=n_steps,
            n_helpers=draw(st.integers(1, 2)),
            allow_div=draw(st.booleans()),
        )
    else:
        spec = random_definition(
            seed,
            n_linear=n_linear + (2 if kind == "div" else 0),
            n_discrete=n_discrete,
            n_steps=n_steps,
            allow_case=kind in ("case", "div"),
            allow_div=kind == "div",
        )
    mode = draw(st.sampled_from(["nearest", "stochastic", 11, 24]))
    if mode == "stochastic":
        options = {"rounding": "stochastic", "seed": draw(st.integers(0, 99))}
    elif mode == "nearest":
        options = {}
    else:
        options = {"precision_bits": mode}
    inputs = random_inputs(spec, draw(st.integers(0, 2**20)))
    poison = draw(st.sampled_from([None, 0.0, -0.0, math.inf, math.nan, 1e308]))
    if poison is not None:
        inputs[draw(st.sampled_from(sorted(inputs)))] = poison
    return spec, options, inputs


class TestDifferential:
    @given(case=executor_cases())
    @settings(max_examples=_BUDGET, deadline=None)
    def test_executor_matches_recursive_reference(self, case):
        spec, options, inputs = case
        fast = _outcome(spec, inputs, options, "ir")
        reference = _outcome(spec, inputs, options, "recursive")
        assert fast == reference

    @given(case=executor_cases())
    @settings(max_examples=_BUDGET // 2, deadline=None)
    def test_public_lens_maps_match(self, case):
        # The boxed edges: approx, ideal on the original inputs, and the
        # backward map's complete perturbed environment.
        from repro.semantics.witness import env_from_pythons

        spec, options, inputs = case
        env = env_from_pythons(spec.definition, inputs)
        results = []
        for make_lens in (lens_of_definition, reference_lens):
            lens = make_lens(spec.definition, program=spec.program, **options)
            try:
                approx = lens.approx(env)
                out = (
                    repr(approx),
                    repr(lens.ideal(env)),
                    repr(lens.backward(env, approx)),
                )
            except Exception as exc:  # noqa: BLE001
                out = (type(exc), str(exc))
            results.append(out)
        assert results[0] == results[1]

    @pytest.mark.parametrize(
        "family, n",
        [("dot_prod", 5), ("vec_sum", 7), ("horner", 4), ("poly_val", 3),
         ("mat_vec_mul", 2), ("safe_div_sum", 3)],
    )
    @pytest.mark.parametrize("options", [{}, {"precision_bits": 11},
                                         {"rounding": "stochastic", "seed": 5}])
    def test_vector_families(self, family, n, options):
        import random

        definition = getattr(generators, family)(n)
        spec = DefinitionSpec(definition, [], [])
        rng = random.Random(n)
        for trial in range(4):
            inputs = {}
            for p in definition.params:
                count = _leaf_count(p.ty)
                values = [rng.uniform(0.5, 4.0) * rng.choice((-1, 1)) for _ in range(count)]
                if trial == 3:
                    values[0] = 0.0  # an exact zero: degenerate witnesses
                inputs[p.name] = values[0] if count == 1 else values
            assert _outcome(spec, inputs, options, "ir") == _outcome(
                spec, inputs, options, "recursive"
            )


def _leaf_count(ty):
    from repro.core.types import Discrete, Tensor

    if isinstance(ty, Discrete):
        return _leaf_count(ty.inner)
    if isinstance(ty, Tensor):
        return _leaf_count(ty.left) + _leaf_count(ty.right)
    return 1


# ---------------------------------------------------------------------------
# The one-ln distance at its boundaries
# ---------------------------------------------------------------------------

_SUBNORMAL = 5e-324


@st.composite
def leaf_pairs(draw):
    """One (original, perturbed) leaf pair drawn from a boundary class."""
    kind = draw(st.sampled_from(
        ["equal", "both_zero", "one_zero", "sign_flip", "subnormal",
         "ulp_up", "ulp_down", "decimal", "generic"]
    ))
    x = draw(st.floats(min_value=1e-300, max_value=1e300)) * draw(
        st.sampled_from([1.0, -1.0])
    )
    if kind == "equal":
        return x, x
    if kind == "both_zero":
        return draw(st.sampled_from([(0.0, 0.0), (-0.0, 0.0), (0.0, Decimal(0))]))
    if kind == "one_zero":
        return draw(st.sampled_from([(x, 0.0), (0.0, x), (x, Decimal("-0"))]))
    if kind == "sign_flip":
        return x, -x
    if kind == "subnormal":
        k = draw(st.integers(1, 2**20))
        return _SUBNORMAL * k, _SUBNORMAL * draw(st.integers(1, 2**20))
    if kind == "ulp_up":
        return x, math.nextafter(x, math.inf)
    if kind == "ulp_down":
        return x, math.nextafter(x, -math.inf)
    if kind == "decimal":
        # A backward-map style target: the input scaled at 50 digits.
        delta = Decimal(draw(st.integers(-(10**6), 10**6))).scaleb(-22)
        return x, Decimal(x) * (1 + delta)
    return x, draw(st.floats(min_value=1e-300, max_value=1e300)) * (1 if x > 0 else -1)


@st.composite
def leaf_vectors(draw):
    pairs = draw(st.lists(leaf_pairs(), min_size=1, max_size=9))
    if draw(st.booleans()):
        # Equal-size extremes on both sides of 1: x/y = t and x'/y' = 1/t.
        t = draw(st.sampled_from([2.0, 3.0, 0.5, 1.25, 2.0**-30]))
        pairs.insert(draw(st.integers(0, len(pairs))), (t, 1.0))
        pairs.insert(draw(st.integers(0, len(pairs))), (1.0, t))
    return pairs


def _reference(pairs):
    n = len(pairs)
    ty = NUM if n == 1 else vector(n)
    if n == 1:
        a, b = VNum(pairs[0][0]), VNum(pairs[0][1])
    else:
        a = vector_value([x for x, _ in pairs])
        b = vector_value([y for _, y in pairs])
    return type_distance(ty, a, b)


class TestOneLnDistance:
    @given(pairs=leaf_vectors())
    @settings(max_examples=max(_BUDGET * 5, 200), deadline=None)
    def test_matches_per_leaf_type_distance(self, pairs):
        assert str(rp_max_distance(pairs)) == str(_reference(pairs))

    @pytest.mark.parametrize(
        "pairs, expected",
        [
            ([(1.5, 1.5)], "0"),
            ([(0.0, 0.0), (2.0, 2.0)], "0"),
            ([(1.0, 0.0), (2.0, 3.0)], "Infinity"),
            ([(1.0, -1.0)], "Infinity"),
            ([(2.0, 1.0), (1.0, 2.0)], None),
            ([(_SUBNORMAL, 2 * _SUBNORMAL), (3.0, 3.0)], None),
        ],
    )
    def test_fixed_boundaries(self, pairs, expected):
        got = str(rp_max_distance(pairs))
        assert got == str(_reference(pairs))
        if expected is not None:
            assert got == expected


# ---------------------------------------------------------------------------
# dmul's factor sign test
# ---------------------------------------------------------------------------

_BINARY64 = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, _SUBNORMAL, -_SUBNORMAL, 1.7976931348623157e308]),
)


class TestDmulWitness:
    @given(x1=_BINARY64, x2=_BINARY64, x3=_BINARY64)
    @settings(max_examples=max(_BUDGET * 5, 200), deadline=None)
    def test_factor_signs_decide_like_the_product(self, x1, x2, x3):
        # The executor calls dmul_witness on binary64 factors without
        # forming x1·x2; the product's sign must give the same decision.
        d1, d3 = Decimal(x1), Decimal(x3)
        with decimal.localcontext() as ctx:
            ctx.prec = BACKWARD_PRECISION
            p = d1 * Decimal(x2)
            same = (p > 0 and d3 > 0) or (p < 0 and d3 < 0)
            witness = dmul_witness(d1, x2, d3)
        assert (witness is not None) == same
        if same:
            assert witness == dmul_backward(d1, Decimal(x2), d3)


# ---------------------------------------------------------------------------
# Non-finite witnesses on every surface
# ---------------------------------------------------------------------------

SUM3 = """
Sum3 (x : vec(3)) : num :=
  let (x0, r) = x in
  let (x1, x2) = r in
  let s = add x0 x1 in
  add s x2
"""

OVERFLOW = (
    {"x": [1e308, 1e308, 1.0]},
    "add of 1e+308 and 1e+308 overflows binary64 to inf: "
    "the error model assumes no overflow",
)
NAN_INPUT = (
    {"x": [math.nan, 1.0, 2.0]},
    "parameter 'x' is not finite (nan): the error model assumes finite inputs",
)
INF_INPUT = (
    {"x": [1.0, math.inf, 2.0]},
    "parameter 'x' is not finite (inf): the error model assumes finite inputs",
)
NON_FINITE = [OVERFLOW, NAN_INPUT, INF_INPUT]


def _sum3():
    from repro.core import parse_program

    program = parse_program(SUM3)
    return program, program.main


class TestNonFinite:
    @pytest.mark.parametrize("inputs, message", NON_FINITE)
    @pytest.mark.parametrize("engine", ["ir", "recursive"])
    def test_python_raises_lens_domain_error(self, inputs, message, engine):
        program, definition = _sum3()
        make_lens, witness = _ENGINES[engine]
        lens = make_lens(definition, program=program)
        with pytest.raises(LensDomainError) as caught:
            witness(definition, inputs, program=program, lens=lens)
        assert str(caught.value) == message

    def test_overflow_inside_a_call_names_the_callee_op(self):
        from repro.core import parse_program

        program = parse_program(
            "Twice (a : num) (b : num) : num := mul a b\n"
            "Main (x : num) (y : num) (z : num) : num :=\n"
            "  let p = Twice x y in add p z\n"
        )
        with pytest.raises(LensDomainError) as caught:
            run_witness(program.main, {"x": 1e300, "y": 1e300, "z": 1.0},
                        program=program)
        assert str(caught.value).startswith("mul of 1e+300 and 1e+300 overflows")

    @pytest.mark.parametrize("inputs, message", NON_FINITE)
    def test_cli_prints_error_and_exits_1(self, inputs, message, tmp_path):
        from repro.cli import main

        path = tmp_path / "sum3.bean"
        path.write_text(SUM3)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["witness", str(path), "--inputs", json.dumps(inputs)])
        assert code == 1
        assert err.getvalue().strip() == f"error: {message}"

    @pytest.mark.parametrize("inputs, message", NON_FINITE)
    def test_batch_fallback_row_records_the_error(self, inputs, message):
        np = pytest.importorskip("numpy")
        from repro.semantics.batch import BatchWitnessEngine

        program, definition = _sum3()
        engine = BatchWitnessEngine(definition, program)
        columns = {"x": np.array([[1.0, 2.0, 3.0], inputs["x"]], dtype=np.float64)}
        report = engine.run(columns)
        assert 0 not in report.errors
        error = report.errors[1]
        assert type(error) is LensDomainError
        assert str(error) == message

    def test_http_answers_422(self):
        from repro.service import client as service_client
        from repro.service.server import AuditServer, serve

        handle = serve(AuditServer(port=0))
        try:
            for inputs, message in NON_FINITE:
                status, body = service_client.audit(
                    handle.host, handle.port, {"source": SUM3, "inputs": inputs}
                )
                assert status == 422
                assert json.loads(body)["error"] == message
        finally:
            handle.stop()
