"""The scalar witness keeps values raw from input lists to payload text.

:func:`repro.semantics.witness.run_witness` builds its slot environment
straight from plain floats and lists, its reports box a ``Value`` field
only when it is read, and :func:`repro.api.scalar_report_payload`
renders values with :func:`repro.lam_s.executor.raw_repr`.  These tests
pin that the raw route is invisible:

* ``raw_repr(raw) == repr(_box(raw))`` on raw trees with edge-case
  leaves (signed zeros, nan, infinities, subnormals, huge floats and
  50-digit Decimals), pairs, both injections and unit;
* ``run_witness`` on list inputs, on ``env_from_pythons`` Values and the
  boxed reference (``tests/oracles/interp_ref.py``) give equal report
  fields, ``describe()`` text and payload bytes, and the same error for
  a non-finite input.
"""

from __future__ import annotations

import pickle
from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles.interp_ref import run_witness_ref
from repro.api import render_payload, scalar_report_payload
from repro.core import parse_program
from repro.lam_s.executor import _box, _Inj, raw_repr
from repro.lam_s.values import UNIT_VALUE, VNum, vector_value
from repro.semantics.lens import LensDomainError
from repro.semantics.witness import (
    ParamWitness,
    WitnessReport,
    env_from_pythons,
    run_witness,
)

EDGE_FLOATS = [
    0.0, -0.0, float("nan"), float("inf"), float("-inf"),
    5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
]

#: 50 significant digits in exponent form, as the ideal sweep leaves them.
DECIMALS = st.builds(
    lambda digits, exp, sign: Decimal(f"{sign}{digits[0]}.{digits[1:]}E{exp}"),
    st.text("0123456789", min_size=50, max_size=50).filter(lambda d: d[0] != "0"),
    st.integers(-400, 400),
    st.sampled_from(["", "-"]),
)

LEAVES = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=True, allow_infinity=True),
    DECIMALS,
    st.just(UNIT_VALUE),
)

RAW_TREES = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.builds(_Inj, st.booleans(), inner),
    ),
    max_leaves=24,
)


@given(RAW_TREES)
def test_raw_repr_equals_the_boxed_repr(raw):
    assert raw_repr(raw) == repr(_box(raw))


def test_raw_repr_of_a_deep_spine_needs_no_recursion():
    raw = 1.0
    for i in range(5000):
        raw = (float(i), raw) if i % 2 else _Inj(i % 3 == 0, raw)
    text = raw_repr(raw)
    assert text.startswith("(VNum(4999.0), inl ")
    assert text.count("VNum(") == 2501


PROGRAMS = {
    "dot": (
        "DotProd3 (x : vec(3)) (y : !vec(3)) :=\n"
        "  dlet (y0, y1, y2) = y in let (x0, x1, x2) = x in\n"
        "  let p0 = dmul y0 x0 in let p1 = dmul y1 x1 in let p2 = dmul y2 x2 in\n"
        "  let s = add p0 p1 in add s p2",
        {"x": [1.5, -2.25, 3.0], "y": [0.1, 0.2, 0.3]},
        "x",
    ),
    "safediv": (
        "SafeDiv (x : num) (y : num) (z : num) :=\n"
        "  let q = div x y in case q of inl v => v | inr e => z",
        {"x": 1.0, "y": 3.0, "z": 7.0},
        "x",
    ),
    "quotient": (
        "Quot (x : vec(2)) := let (a, b) = x in div a b",
        {"x": [2.0, 0.0]},
        "x",
    ),
    "pair": (
        "Pair (x : vec(5)) (z : !num) :=\n"
        "  let (a, b, c, d, e) = x in let p = mul a b in let q = dmul z c in\n"
        "  let r = add d e in (p, (q, r))",
        {"x": [1e-300, 3.0, -0.0, 1e300, 2.5], "z": 5e-324},
        "x",
    ),
}


def _routes(definition, inputs):
    return {
        "lists": run_witness(definition, inputs),
        "values": run_witness(definition, env_from_pythons(definition, inputs)),
        "reference": run_witness_ref(definition, inputs),
    }


def _public(report: WitnessReport):
    return (
        report.approx_value,
        report.ideal_on_perturbed,
        report.exact_match,
        report.sound,
        {
            name: (w.name, w.original, w.perturbed, str(w.distance),
                   str(w.bound), w.grade, w.within_bound)
            for name, w in report.params.items()
        },
    )


def _payload_bytes(report, definition) -> str:
    return render_payload(scalar_report_payload(
        report, definition=definition, engine="ir", u=2.0**-53,
        precision_bits=53,
    ))


@pytest.mark.parametrize("key", list(PROGRAMS))
def test_three_routes_agree(key):
    source, inputs, _ = PROGRAMS[key]
    definition = parse_program(source).main
    reports = _routes(definition, inputs)
    # Render before any field is read: the payload must not need boxing.
    texts = {route: _payload_bytes(r, definition) for route, r in reports.items()}
    describes = {route: r.describe() for route, r in reports.items()}
    fields = {route: _public(r) for route, r in reports.items()}
    assert len(set(texts.values())) == 1, texts
    assert len(set(describes.values())) == 1, describes
    assert fields["lists"] == fields["values"] == fields["reference"]
    # Reading the boxed fields changes no text.
    for route, report in reports.items():
        assert _payload_bytes(report, definition) == texts[route]
        assert report.describe() == describes[route]


@pytest.mark.parametrize("key", list(PROGRAMS))
def test_non_finite_input_raises_the_same_error_on_every_route(key):
    source, inputs, param = PROGRAMS[key]
    definition = parse_program(source).main
    bad = dict(inputs)
    value = bad[param]
    bad[param] = [float("inf")] + value[1:] if isinstance(value, list) else float("nan")
    messages = set()
    for route in (
        lambda: run_witness(definition, bad),
        lambda: run_witness(definition, env_from_pythons(definition, bad)),
        lambda: run_witness_ref(definition, bad),
    ):
        with pytest.raises(LensDomainError) as info:
            route()
        messages.add(str(info.value))
    assert len(messages) == 1, messages


def test_list_inputs_split_as_vector_value_splits():
    definition = parse_program(PROGRAMS["pair"][0]).main
    inputs = PROGRAMS["pair"][1]
    report = run_witness(definition, inputs)
    assert report.params["x"].original == vector_value(inputs["x"])
    assert report.params["z"].original == VNum(inputs["z"])


def test_given_values_are_reported_as_themselves():
    definition = parse_program(PROGRAMS["dot"][0]).main
    env = env_from_pythons(definition, PROGRAMS["dot"][1])
    report = run_witness(definition, env)
    assert report.params["x"].original is env["x"]
    assert report.params["y"].original is env["y"]
    assert report.params["y"].perturbed is env["y"]  # discrete: unperturbed


def test_reports_stay_frozen_and_pickle_with_boxed_fields():
    definition = parse_program(PROGRAMS["safediv"][0]).main
    report = run_witness(definition, PROGRAMS["safediv"][1])
    with pytest.raises(AttributeError):
        report.exact_match = False
    with pytest.raises(AttributeError):
        report.params["x"].distance = Decimal(0)
    clone = pickle.loads(pickle.dumps(report))
    assert _public(clone) == _public(report)
    assert clone == report
    assert repr(clone.params["x"]) == repr(report.params["x"])
    witness = ParamWitness("x", VNum(1.0), VNum(2.0), Decimal(1), Decimal(2), None)
    assert witness.perturbed_repr == "VNum(2.0)"
