"""Batch verdicts on a grade bound: one ulp of ``u`` either side.

The batch engine decides most rows with a double-double distance screen
and sends only the rows within a margin of their bound to the scalar
reference.  Random inputs almost never land there, so this test builds
rows that do.  It audits a DotProd20 batch, takes each row's exact
scalar distance ``d`` for ``x`` and its grade coefficient, and solves
``coeff · u/(1−u) = d`` for ``u* = d/(coeff+d)``.  At the binary64
neighbours of ``u*`` the row's bound sits just below and just above
``d``.  At each of the three roundoffs, every row's ``sound`` and
``exact`` verdict and the exact maximum distances must equal
:func:`~repro.semantics.witness.run_witness`, row by row.

A screen that stopped rechecking rows near their bound would call some
of these rows sound one ulp below ``u*``, where the reference says they
are not: the float screen cannot tell a distance from a bound that
differs from it in the 17th digit.
"""

from __future__ import annotations

import decimal
import math
import random
from decimal import Decimal

import pytest

np = pytest.importorskip("numpy")

from repro.programs.generators import dot_prod
from repro.semantics.batch import run_witness_batch
from repro.semantics.witness import run_witness

N = 20
ROWS = 6


def _inputs():
    rng = random.Random(2053)
    return {
        "x": [[rng.uniform(0.5, 2.0) for _ in range(N)] for _ in range(ROWS)],
        "y": [[rng.uniform(0.5, 2.0) for _ in range(N)] for _ in range(ROWS)],
    }


def _row(inputs, j):
    return {name: column[j] for name, column in inputs.items()}


def _scalar(definition, inputs, u):
    return [
        run_witness(definition, _row(inputs, j), u=u) for j in range(ROWS)
    ]


def _u_on_bound(distance: Decimal, coeff) -> float:
    """The binary64 ``u`` nearest to where ``coeff·u/(1−u)`` equals
    ``distance``."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        c = Decimal(coeff.numerator) / Decimal(coeff.denominator)
        return float(distance / (c + distance))


@pytest.fixture(scope="module")
def on_bound():
    """The program, its inputs and each row's ``u*`` for parameter x."""
    definition = dot_prod(N)
    inputs = _inputs()
    reports = _scalar(definition, inputs, 2.0**-53)
    u_stars = [
        _u_on_bound(r.params["x"].distance, r.params["x"].grade.coeff)
        for r in reports
    ]
    return definition, inputs, u_stars


@pytest.mark.parametrize("row", range(ROWS))
def test_the_row_straddles_its_bound(on_bound, row):
    definition, inputs, u_stars = on_bound
    below = run_witness(
        definition, _row(inputs, row), u=math.nextafter(u_stars[row], 0.0)
    )
    above = run_witness(
        definition, _row(inputs, row), u=math.nextafter(u_stars[row], 1.0)
    )
    assert not below.sound
    assert above.sound


@pytest.mark.parametrize("ulps", [-1, 0, 1])
@pytest.mark.parametrize("row", range(ROWS))
def test_batch_matches_scalar_reference_on_the_bound(on_bound, row, ulps):
    definition, inputs, u_stars = on_bound
    u = u_stars[row]
    if ulps:
        u = math.nextafter(u, 1.0 if ulps > 0 else 0.0)
    batch = run_witness_batch(definition, inputs, u=u)
    scalar = _scalar(definition, inputs, u)
    assert [bool(s) for s in batch.sound] == [r.sound for r in scalar]
    assert [bool(e) for e in batch.exact] == [r.exact_match for r in scalar]
    for name in ("x", "y"):
        assert batch.param_max_distance[name] == max(
            r.params[name].distance for r in scalar
        )
