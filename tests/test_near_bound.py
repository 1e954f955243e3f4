"""Batch verdicts on a grade bound: one ulp of ``u`` either side.

The batch engine decides most rows with a floating-point distance
screen and sends only the rows within a margin of their bound to the
scalar reference.  Random inputs almost never land there, so this test
builds rows that do.  It audits a batch, takes each row's exact scalar
distance ``d`` for one linear parameter and its grade coefficient, and
solves ``coeff · u/(1−u) = d`` for ``u* = d/(coeff+d)``.  At the
binary64 neighbours of ``u*`` the row's bound sits just below and just
above ``d``.  At each of the three roundoffs, every row's ``sound`` and
``exact`` verdict, the exact maximum distances and (for the Horner60,
mixed-sign Sum100 and SafeDiv8 batches) the rendered ``rows`` must
equal :func:`~repro.semantics.witness.run_witness`, row by row.  Those
three families also run at 24 and 11 bits.  There the screen's error
term ``E`` (``_screen_bounds``) is the whole band: ``slack = 2E`` is
70-1,100 times the relative error ``2u·L``.  These rows pin the
reduced-precision verdicts, but they cannot tell a band's relative term
from zero, nor a margin with the ``2E`` widening from one without it:
``tests/test_margins.py`` checks the widening against the contract and
argues why the relative term is redundant there.

A screen that stopped rechecking rows near their bound would call some
of these rows sound one ulp below ``u*``, where the reference says they
are not: the float screen cannot tell a distance from a bound that
differs from it in the 17th digit.

The noise-floor rows hold a leaf whose witness is exact in binary
(``dmul`` by 1.0): the screen reads its distance as 0, which only the
reference can confirm, so those rows must be rechecked whenever a
bound, a maximum or a rendered row could depend on them.  Then two rows
the screen ranks in the wrong order: the exact maximum distance must
still come from the right one, so the screen must recheck every row
within its error band of the screened maximum.  Last, rows so
ill-conditioned (two nested cancellations) that the 50-digit
reference's own rounding noise decides whether the lens looks exact:
their closeness gaps sit between the sure thresholds, and only rows
whose reference noise is provably below the tolerance may be decided
without the reference.  At 11 and 24 bits the screen's own error on
such rows passes the far threshold while the reference still finds
them close, so a gap may only be called far once it exceeds the
screen's error bound.
"""

from __future__ import annotations

import decimal
import math
import random
from decimal import Decimal

import pytest

np = pytest.importorskip("numpy")

from repro.api import Session
from repro.programs.generators import dot_prod, horner, safe_div_sum, vec_sum
from repro.semantics.batch import BatchWitnessEngine, run_witness_batch
from repro.semantics.interp import lens_of_definition
from repro.semantics.spaces import render_row_distance
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


# --------------------------------------------------------------------------
# More families, with their rendered rows
# --------------------------------------------------------------------------

FAMILY_ROWS = 4


def _family_inputs(family: str, n: int):
    rng = random.Random(n)

    def draw(signed: bool) -> float:
        v = rng.uniform(0.5, 2.0)
        return -v if signed and rng.random() < 0.5 else v

    def vec(k: int, signed: bool = False):
        return [[draw(signed) for _ in range(k)] for _ in range(FAMILY_ROWS)]

    if family == "Horner":
        return {"a": vec(n + 1), "z": [rng.uniform(0.5, 1.0)
                                       for _ in range(FAMILY_ROWS)]}
    if family == "Sum":
        return {"x": vec(n, signed=True)}
    return {"x": vec(n), "y": vec(n), "f": vec(n)}


#: (family, generator, size, the parameter whose distance sets ``u*``).
_FAMILIES = [
    ("Horner", horner, 60, "a"),
    ("Sum", vec_sum, 100, "x"),
    ("SafeDiv", safe_div_sum, 8, "x"),
]

#: Each family's forward precision: binary64, then 24 and 11 bits, where
#: distances are ~1e-7 to ~1e-3 and the screen's error term ``E`` sets
#: its margins (``_screen_bounds`` widens them to ``2E``).
_PRECISIONS = (53, 24, 11)


def _family_id(param) -> str:
    (family, _, n, _), bits = param
    return f"{family}{n}" if bits == 53 else f"{family}{n}@{bits}bits"


@pytest.fixture(scope="module",
                params=[(f, bits) for f in _FAMILIES for bits in _PRECISIONS],
                ids=_family_id)
def family_on_bound(request):
    (family, make, n, param), bits = request.param
    definition = make(n)
    lens = None if bits == 53 else lens_of_definition(definition, precision_bits=bits)
    inputs = _family_inputs(family, n)
    u_stars = [
        _u_on_bound(r.params[param].distance, r.params[param].grade.coeff)
        for r in (run_witness(definition, _row(inputs, j), u=2.0**-53, lens=lens)
                  for j in range(FAMILY_ROWS))
    ]
    return definition, inputs, u_stars, param, bits, lens


def _family_scalar(definition, inputs, u, lens):
    return [run_witness(definition, _row(inputs, j), u=u, lens=lens)
            for j in range(FAMILY_ROWS)]


@pytest.mark.parametrize("row", range(FAMILY_ROWS))
def test_family_row_straddles_its_bound(family_on_bound, row):
    definition, inputs, u_stars, param, _, lens = family_on_bound
    below, above = (
        run_witness(definition, _row(inputs, row), u=math.nextafter(
            u_stars[row], toward), lens=lens)
        for toward in (0.0, 1.0)
    )
    assert not below.params[param].within_bound
    assert above.params[param].within_bound


@pytest.mark.parametrize("ulps", [-1, 0, 1])
@pytest.mark.parametrize("row", range(FAMILY_ROWS))
def test_family_batch_and_rows_match_on_the_bound(family_on_bound, row, ulps):
    definition, inputs, u_stars, _, bits, lens = family_on_bound
    u = u_stars[row]
    if ulps:
        u = math.nextafter(u, 1.0 if ulps > 0 else 0.0)
    batch = run_witness_batch(definition, inputs, u=u, collect_rows=True,
                              precision_bits=bits)
    scalar = _family_scalar(definition, inputs, u, lens)
    assert [bool(s) for s in batch.sound] == [r.sound for r in scalar]
    assert [bool(e) for e in batch.exact] == [r.exact_match for r in scalar]
    for name in batch.param_max_distance:
        assert batch.param_max_distance[name] == max(
            r.params[name].distance for r in scalar
        )
    for (i, sound, exact, distances, error), ref in zip(batch.rows, scalar):
        assert error is None
        assert (sound, exact) == (ref.sound, ref.exact_match)
        assert distances == {
            name: render_row_distance(w.distance)
            for name, w in ref.params.items()
        }, i


# --------------------------------------------------------------------------
# Noise-floor rows
# --------------------------------------------------------------------------

#: ``dmul z x`` with ``z = 1.0`` is exact, so ``x``'s witness is ``x``
#: itself: the screen reads a distance of exactly 0 (a noise-floor
#: leaf), and only the reference knows it is 0 and not ~1e-50.
_NOISE_SOURCE = """Noise (z : !num) (x : num) (y : num) :=
  let p = dmul z x in
  let q = dmul z y in
  (p, q)"""


@pytest.mark.parametrize("u", [2.0**-53, 1e-30])
@pytest.mark.parametrize("collect_rows", [False, True])
def test_noise_floor_rows_settle_by_the_reference(u, collect_rows):
    program = Session().parse(_NOISE_SOURCE)
    rng = random.Random(5)
    n = 40
    z = [1.0 if j % 3 == 0 else rng.uniform(0.5, 3.0) for j in range(n)]
    inputs = {
        "z": z,
        "x": [rng.uniform(0.5, 2.0) for _ in range(n)],
        "y": [rng.uniform(0.5, 2.0) for _ in range(n)],
    }
    engine = BatchWitnessEngine(program.main, program, u=u,
                                collect_rows=collect_rows)
    seen = []
    # A row reaches the reference for its verdicts and distances, or
    # (a rendered row the screen has decided) for its distances alone.
    for method in ("_scalar_report", "_scalar_distances"):
        def spy(columns, i, reference=getattr(engine, method)):
            seen.append(i)
            return reference(columns, i)

        setattr(engine, method, spy)
    batch = engine.run(inputs)
    scalar = [run_witness(program.main, _row(inputs, j), program=program, u=u)
              for j in range(n)]
    assert [bool(s) for s in batch.sound] == [r.sound for r in scalar]
    assert [bool(e) for e in batch.exact] == [r.exact_match for r in scalar]
    for name in ("x", "y"):
        assert batch.param_max_distance[name] == max(
            r.params[name].distance for r in scalar
        )
    noise_rows = {j for j in range(n) if z[j] == 1.0}
    if collect_rows or u < 1e-27:
        # A rendered row, or a bound below the noise cap, needs the
        # exact distance of every noise-floor leaf.
        assert noise_rows <= set(seen)
    if collect_rows:
        for (i, _, _, distances, _), ref in zip(batch.rows, scalar):
            assert distances == {
                name: render_row_distance(w.distance)
                for name, w in ref.params.items()
            }, i


# --------------------------------------------------------------------------
# Rows the screen ranks in the wrong order
# --------------------------------------------------------------------------


def test_max_distance_is_exact_when_the_screen_misorders_rows(monkeypatch):
    """Two Sum8 rows a few ulps apart whose screened distances order
    them opposite to their exact ones: the reported maximum is the
    exact maximum, not the screened winner's exact distance."""
    from repro.semantics import batch as batch_module

    screened = []
    dist_screen = batch_module._dist_screen

    def spy(perturbed, m, recheck):
        d_max, noise = dist_screen(perturbed, m, recheck)
        screened.append(d_max.copy())
        return d_max, noise

    definition = vec_sum(8)
    rng = random.Random(2)  # 29 misordered pairs among these rows
    base = [rng.uniform(0.5, 2.0) for _ in range(8)]
    rows = []
    for k in range(400):
        x = list(base)
        x[k % 8] += (k // 8 - 25) * math.ulp(x[k % 8])
        rows.append(x)
    with monkeypatch.context() as patch:
        patch.setattr(batch_module, "_dist_screen", spy)
        run_witness_batch(definition, {"x": rows})
    (d_hat,) = screened
    exact = [run_witness(definition, {"x": x}).params["x"].distance
             for x in rows]
    a, b = next(
        (a, b) for a in range(len(rows)) for b in range(len(rows))
        if d_hat[a] > d_hat[b] and exact[a] < exact[b]
    )
    batch = run_witness_batch(definition, {"x": [rows[a], rows[b]]})
    assert batch.param_max_distance["x"] == exact[b]


# --------------------------------------------------------------------------
# Closeness gaps between the sure thresholds
# --------------------------------------------------------------------------

_NESTED_SOURCE = """Nested (a : num) (b : num) (c : num) (d : num) (g : num) :=
  let s = add a b in
  let t = mul s c in
  let w = add t d in
  add w g"""


def _nested_rows(first: int, second: int, n: int = 60):
    """``a + b`` cancels ``2^first``-fold and ``s·c + d`` another
    ``2^second``-fold; the last add rounds."""
    rng = random.Random(first * 100 + second)
    rows = {name: [] for name in "abcdg"}
    for _ in range(n):
        a = rng.uniform(1, 2) * 2.0**first
        b = -(a - rng.uniform(1, 2))
        c = rng.uniform(1, 2)
        t = (a + b) * c
        d = -(t * (1 - rng.uniform(1, 2) * 2.0**-second))
        g = (t + d) * rng.uniform(0.9, 2.1)
        for name, value in zip("abcdg", (a, b, c, d, g)):
            rows[name].append(value)
    return rows


@pytest.mark.parametrize("first, second", [(30, 20), (40, 30)])
def test_closeness_between_the_sure_thresholds(first, second):
    program = Session().parse(_NESTED_SOURCE)
    rows = _nested_rows(first, second)
    n = len(rows["a"])
    engine = BatchWitnessEngine(program.main, program)
    seen = []
    scalar_report = engine._scalar_report

    def spy(columns, i):
        seen.append(i)
        return scalar_report(columns, i)

    engine._scalar_report = spy
    batch = engine.run(rows)
    scalar = [run_witness(program.main, {k: v[j] for k, v in rows.items()},
                          program=program) for j in range(n)]
    assert [bool(e) for e in batch.exact] == [r.exact_match for r in scalar]
    assert [bool(s) for s in batch.sound] == [r.sound for r in scalar]
    if second == 20:
        # cond ~2^50: the reference's noise stays far below 1e-30, so
        # the condition certificate decides these rows itself.
        assert all(r.exact_match for r in scalar)
        assert len(set(seen)) <= 2
    else:
        # cond ~2^70: the reference's own noise breaks closeness on
        # most rows; every such row must come from the reference.
        assert sum(not r.exact_match for r in scalar) > n // 2
        assert set(seen) == set(range(n))


@pytest.mark.parametrize("bits, first, second", [(24, 40, 20), (11, 44, 20)])
def test_reduced_precision_gaps_are_far_only_past_the_screen_error(
        bits, first, second):
    # The reference's condition κ has a median of ~5e18 (24 bits) and
    # ~2e18 (11 bits) on these rows: its noise stays near 1e-31, so it
    # finds every row close, while the screen's own error (κ times
    # ~5e-22 at 24 bits, ~4e-18 at 11) puts their gaps past 1e-8.
    program = Session().parse(_NESTED_SOURCE)
    rows = _nested_rows(first, second, n=40)
    lens = lens_of_definition(program.main, program=program,
                              precision_bits=bits)
    batch = BatchWitnessEngine(program.main, program,
                               precision_bits=bits).run(rows)
    scalar = [run_witness(program.main, {k: v[j] for k, v in rows.items()},
                          program=program, lens=lens)
              for j in range(len(rows["a"]))]
    assert all(r.exact_match for r in scalar)
    assert [bool(e) for e in batch.exact] == [r.exact_match for r in scalar]
    assert [bool(s) for s in batch.sound] == [r.sound for r in scalar]
