"""Per-row distances in the ``rows`` section: one renderer, one screen.

Schema-v5 ``rows`` entries carry each parameter's backward distance at
8 significant digits (:func:`repro.semantics.spaces.render_row_distance`).
The batch engine produces most of those strings from its
perturbation-form distance screen without ever computing the exact
Decimal distance; this module pins the three things that make that
sound and fast:

* the renderer — half-even, context-free, and identical to Python's
  ``format(x, ".7e")`` on binary64 values (the screen relies on it);
* the screen helper — at rounding midpoints, decade edges, the noise
  floor and zero it either defers the row or returns exactly the
  rendering of *every* distance inside its error band;
* no silent fallback — on paper-sized kernels, ``rows=True`` audits run
  the EFT path end to end, recheck few rows, and emit the Decimal
  reference's bytes.
"""

from __future__ import annotations

import decimal
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles.batch_decimal_ref import DecimalBatchEngine
from repro.api import Session, render_payload
from repro.core import Program
from repro.programs.generators import BENCHMARK_FAMILIES
from repro.semantics import batch as batch_module
from repro.semantics.batch import _screen_row_distances
from repro.semantics.spaces import render_row_distance


# --------------------------------------------------------------------------
# The renderer
# --------------------------------------------------------------------------


class TestRenderRowDistance:
    @pytest.mark.parametrize(
        "value, text",
        [
            ("2.578679650e-16", "2.5786796e-16"),  # tie: to even
            ("2.578679750e-16", "2.5786798e-16"),  # tie: to even
            ("2.5786796500000000001e-16", "2.5786797e-16"),
            ("9.99999995e-17", "1.0000000e-16"),  # carries into the decade
            ("0.5", "5.0000000e-01"),  # short mantissas pad to 8 digits
            ("12345.678", "1.2345678e+04"),
            ("1E-300", "1.0000000e-300"),
            ("0", "0"),
            ("0E-60", "0"),
            ("Infinity", "Infinity"),
        ],
    )
    def test_examples(self, value, text):
        assert render_row_distance(Decimal(value)) == text

    def test_ignores_the_ambient_context(self):
        value = Decimal("2.57867965000000000000001e-16")
        expected = render_row_distance(value)
        with decimal.localcontext() as ctx:
            ctx.prec = 3
            ctx.rounding = decimal.ROUND_DOWN
            ctx.Emin = -10
            assert render_row_distance(value) == expected == "2.5786797e-16"

    @given(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    def test_matches_float_formatting(self, x):
        assert render_row_distance(Decimal(x)) == format(x, ".7e")


# --------------------------------------------------------------------------
# The screen helper at its boundaries
# --------------------------------------------------------------------------

#: The band's absolute term and the noise-floor cap of a binary64
#: program whose rounding chains are short (``_screen_bounds``).
SLACK = 1e-26
NOISE_CAP = 1e-27


def _shift_ulps(x: float, k: int) -> float:
    return max(x + k * float(np.spacing(x)), 0.0)


#: 8-digit rounding midpoints ``M.5·10^q``, integer part M of 8 digits.
_midpoints = st.builds(
    lambda m, q: float((Decimal(m) + Decimal("0.5")).scaleb(q)),
    st.integers(10**7, 10**8 - 1),
    st.integers(-40, -6),
)
#: Decade edges, where the rendered exponent steps.
_decade_edges = st.builds(
    lambda edge, q: float(Decimal(edge).scaleb(q)),
    st.sampled_from(["9.99999995", "9.999999949999", "1", "1.00000005"]),
    st.integers(-40, -6),
)
#: The noise floor the screens treat specially, and zero.
_floor = st.sampled_from([1e-27, 1e-28, 1.1e-28, 2e-27, 0.0])

_d_hat = st.builds(
    _shift_ulps,
    st.one_of(_midpoints, _decade_edges, _floor),
    # The band is ~4500 ulps wide: straddle both of its ends.
    st.integers(-6000, 6000),
) | st.floats(min_value=0.0, max_value=1e3)


class TestScreenRowDistances:
    @given(
        d_hat=_d_hat,
        noise=st.booleans(),
        t=st.integers(-10**6, 10**6),
    )
    def test_defers_or_renders_every_distance_in_the_band(self, d_hat,
                                                          noise, t):
        (got,) = _screen_row_distances(np.array([d_hat]), np.array([noise]),
                                        SLACK, NOISE_CAP)
        if d_hat == 0.0 and not noise:
            # No targeted leaf: the exact distance is zero.
            assert got == "0"
            return
        if noise and d_hat <= NOISE_CAP:
            # Noise-floor rows (a targeted leaf whose dd distance reads
            # 0 among them) only the Decimal reference can render.
            assert got is None
            return
        if got is None:
            return
        # Both band ends and one point between them.
        with decimal.localcontext() as ctx:
            ctx.prec = 100
            band = Decimal("1e-12") * Decimal(d_hat) + Decimal(SLACK)
            for step in (-10**6, t, 10**6):
                d = max(Decimal(d_hat) + band * step / 10**6, Decimal(0))
                assert got == render_row_distance(d), d

    def test_noise_floor_and_zero(self):
        d_hat = np.array([0.0, 0.0, 1e-28, 1e-27, 2.5e-16])
        noise = np.array([False, True, True, True, True])
        assert _screen_row_distances(d_hat, noise, SLACK, NOISE_CAP) == [
            "0", None, None, None, "2.5000000e-16"
        ]

    def test_renders_nearly_every_ordinary_row(self):
        rng = np.random.default_rng(5)
        d_hat = rng.uniform(1.0, 10.0, 20000) * 10.0 ** rng.integers(
            -17, -13, 20000
        )
        got = _screen_row_distances(d_hat, np.zeros(d_hat.size, dtype=bool),
                                    SLACK, NOISE_CAP)
        deferred = sum(text is None for text in got)
        assert deferred <= 0.01 * d_hat.size
        for x, text in zip(d_hat[:200].tolist(), got[:200]):
            assert text is None or text == format(x, ".7e")


# --------------------------------------------------------------------------
# No silent fallback to the Decimal sweep
# --------------------------------------------------------------------------

_ROWS = 2000


def _inputs(family: str, n: int, rng: np.random.Generator):
    def pos(*shape):
        return rng.uniform(0.1, 1.0, shape)

    if family == "Horner":
        return {"a": pos(_ROWS, n + 1), "z": rng.uniform(0.5, 1.0, _ROWS)}
    if family == "DotProd":
        signs = rng.choice((-1.0, 1.0), (2, _ROWS, n))
        return {"x": pos(_ROWS, n) * signs[0], "y": pos(_ROWS, n) * signs[1]}
    y = pos(_ROWS, n)
    y[[17, 1234], [3, 0]] = 0.0  # two rows take the scalar fallback
    return {"x": pos(_ROWS, n), "y": y, "f": pos(_ROWS, n)}


@pytest.mark.parametrize(
    "family, n", [("Horner", 60), ("DotProd", 100), ("SafeDiv", 40)]
)
def test_rows_run_on_the_eft_path(monkeypatch, family, n):
    program = Program([BENCHMARK_FAMILIES[family](n)])
    inputs = _inputs(family, n, np.random.default_rng(n))
    finished_decimal = []
    finish_decimal = DecimalBatchEngine._finish

    def spy(self, *args, **kwargs):
        finished_decimal.append(type(self).__name__)
        return finish_decimal(self, *args, **kwargs)

    monkeypatch.setattr(DecimalBatchEngine, "_finish", spy)
    with Session() as session:
        eft = session.audit(program, inputs=inputs, engine="batch",
                            rows=True)
        # The same audit with phases 2-4 on the Decimal reference.
        with monkeypatch.context() as patch:
            patch.setattr(batch_module, "BatchWitnessEngine",
                          DecimalBatchEngine)
            dec = session.audit(program, inputs=inputs, engine="batch",
                                rows=True)
    assert finished_decimal == ["DecimalBatchEngine"]
    assert eft.report.rechecked_rows <= 0.01 * _ROWS
    assert eft.payload["exact_backend"] == "eft"
    assert render_payload(eft.payload) == dec.to_json()
