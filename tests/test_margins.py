"""The batch screen's margins against the contract that justifies them.

Every margin the float64 screen compares against is an entry of one
table, ``repro.semantics.eft.MARGINS``; the reference's closeness
tolerance is ``repro.lam_s.values.CLOSE_TOLERANCE``.  This module pins
three things:

* **One declaration.**  The screen's comparison code
  (``BatchWitnessEngine._settle``, ``_close_screen``, ``_dist_screen``,
  ``_screen_row_distances``) and the reference's
  ``interp._values_close_raw`` hold no numeric literal besides ``0.0``
  and ``±1.0``, and ``_screen_bounds`` builds ``slack`` and
  ``noise_cap`` from table entries and ``eft.backward_error_bound``
  alone.
* **The widening.**  A screened leaf distance ``d̂`` is within
  ``E + 2u·d`` of the exact ``d`` (the soundness contract in
  :mod:`repro.semantics.eft`, ``u = 2^-53``), and every leaf distance is
  at most ``L = K·|ln(1 - η_max)|``.  So a program's ``slack`` must be at
  least ``E + 2u·L`` and its ``noise_cap`` at least ``noise_floor + E``.
  At 24 and 11 bits ``E`` is far above the table's absolute bases (about
  2e-20 for DotProd20 at 24 bits), so without the ``widening·E`` terms
  both checks fail on every reduced-precision program here.

Arguments for the margins no test can kill
------------------------------------------

*The bound margin's relative term.*  A row's verdict is settled by the
screen only where ``|d̂ - b̂| > margin``, with ``b̂`` the binary64 bound.
The exact comparison ``d <= B`` can differ only if
``|d̂ - d| + |b̂ - B| >= |d̂ - b̂|``, that is, if
``E + 2u·d + u·B >= margin``.  Only rows with ``d`` near ``B`` reach
that, and ``d <= L``.  Since ``e^L >= 1`` and ``e^L - 1 >= L``,
``E >= 8u·K·L``, so ``2u·d + u·B`` is at most ``3u·L <= 3E/(8K)`` (up to
``u·margin``).  ``slack >= 2E`` by construction, which covers
``E + 3E/(8K)`` for every ``K >= 1``.  So a zero relative term gives the
same verdicts: that mutant is equivalent.

*The max-candidate band's relative term.*  The band must keep the row
``b`` holding the exact maximum among the candidates when another row
``a`` holds the screened maximum, so it must cover both rows' errors:
``2E + 2u·(d_a + d_b) <= 2E + 4u·L``.  The slack alone gives ``2E``,
which leaves ``4u·L <= E/(2K)`` to the looseness of ``E`` itself.
``E`` charges each of the ``K`` backward steps the path's largest
``|δ'|``, ``e^L - 1``, while the ``k``-th step from the result sees
at most ``e^{kε} - 1 <= (k/K)·(e^L - 1)`` (convexity).  With
``e^L - 1 >= K·η_max`` the steps' sum is at most
``(K + 3)/(2K + 2)·E``, which leaves ``(K - 1)/(K + 1)·E`` of the
``2E`` spare, at least ``4u·L`` once ``K >= 2``.  For ``K = 1`` in
binary64, ``E ~ 16u²`` sits far below ``MARGINS.slack``, which then
covers both rows outright.  The one case this argument leaves open is
a single rounding op at a precision of 38 bits or fewer, where ``2E``
exceeds ``MARGINS.slack``.  No kill is claimed there either: no row
found so far tells the two apart.

*The noise floor.*  A leaf whose distance reads below
``MARGINS.noise_floor`` flags its row as noise.  Lowering the floor to
any positive value (say ``1e-32``) unflags only rows whose smallest leaf
reads in ``[1e-32, floor)``, so ``d̂ > 0`` there.  Each reader of the
flag then gives the same answer without it:

* the bound check (``bound <= noise_cap``): ``d̂ > 0``, so the bound
  margin rechecks the row whenever ``d̂`` is within ``slack`` of the
  bound, and otherwise the margin argument above holds;
* the max candidates (``best <= noise_cap``): the band is at least
  ``slack > noise_cap >= best``, so every row with ``d̂ > 0`` is a
  candidate anyway;
* the rendered rows (``d̂ <= noise_cap``): the band reaches below zero,
  so the row defers to the reference anyway.

Leaves that read exactly 0, the ones only the reference can settle,
stay flagged by any positive floor.  So the ``1e-28 -> 1e-32`` mutant
is equivalent at the verdict and rendered-row level.  Only
``tests/test_row_blocks.py``, which restates the literal, kills it.
A floor of 0 is killed (``test_near_bound``'s noise-floor rows).

*The absolute bases.*  ``slack = max(MARGINS.slack, 2E)`` and
``noise_cap = max(MARGINS.noise_cap, 2·(noise_floor + E))``: the
widened terms alone meet the contract (the first argument above needs
only ``slack >= 2E``, and ``2·(noise_floor + E) >= noise_floor + E``),
so the bases are a floor that only adds rechecks, and their mutants to
0 are equivalent.

*The far thresholds.*  ``far_sure`` and ``far_kappa`` call a gap far
only when it exceeds the screen's own error bound, and by Property 2
the exact gap is 0, so on a correct lens no row reaches them.  Only a
broken backward map would; their mutants survive and are recorded, not
argued equivalent.

The relative term has a third use, the row-render band, and there its
mutants are killed (``test_row_rendering``'s band check).
``scripts/mutants.py`` applies each mutant to a copy of the tree and
runs the screen suites.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import math
import re
from pathlib import Path

import pytest

np = pytest.importorskip("numpy")

from repro.lam_s import values
from repro.programs.generators import dot_prod, horner, safe_div_sum, vec_sum
from repro.semantics import batch, eft, interp
from repro.semantics.batch import BatchWitnessEngine

FIELDS = {f.name for f in dataclasses.fields(eft.ScreenMargins)}

#: Float literals a comparison may still hold: zero and the unit.
_ALLOWED_FLOATS = {0.0, 1.0}
#: A number written as a string (``Decimal("1e-30")``).
_NUMERIC_TEXT = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)[eE][-+]?\d+")


def _function(module, qualname: str) -> ast.FunctionDef:
    tree = ast.parse(inspect.getsource(module))
    path = qualname.split(".")
    body = tree.body
    for name in path:
        node = next(n for n in body
                    if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name)
        body = node.body
    assert isinstance(node, ast.FunctionDef)
    return node


def _literals(func: ast.FunctionDef):
    """The numeric literals in ``func``, its docstring aside."""
    docstring = func.body[0] if ast.get_docstring(func) is not None else None
    found = []
    for node in ast.walk(func):
        if node is docstring or not isinstance(node, ast.Constant):
            continue
        value = node.value
        if isinstance(value, float) and value not in _ALLOWED_FLOATS:
            found.append(value)
        elif isinstance(value, str) and _NUMERIC_TEXT.fullmatch(value):
            found.append(value)
    return found


@pytest.mark.parametrize("module, qualname", [
    (batch, "BatchWitnessEngine._settle"),
    (batch, "_close_screen"),
    (batch, "_dist_screen"),
    (batch, "_screen_row_distances"),
    (interp, "_values_close_raw"),
], ids=lambda x: x if isinstance(x, str) else x.__name__.rsplit(".", 1)[-1])
def test_screen_comparisons_hold_no_margin_literals(module, qualname):
    assert _literals(_function(module, qualname)) == []


def test_screen_bounds_build_slack_and_noise_cap_from_the_table():
    func = _function(batch, "BatchWitnessEngine._screen_bounds")
    table, errors = {"eft.MARGINS"}, set()
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            value = ast.unparse(node.value)
            if value == "eft.MARGINS":
                table.add(node.targets[0].id)
            elif value.startswith("eft.backward_error_bound("):
                errors.add(node.targets[0].id)
    assert errors, "E must come from eft.backward_error_bound"

    def check(expr: ast.expr) -> None:
        if isinstance(expr, ast.Call):
            assert ast.unparse(expr.func) == "max" and not expr.keywords
            for arg in expr.args:
                check(arg)
        elif isinstance(expr, ast.BinOp):
            check(expr.left)
            check(expr.right)
        elif isinstance(expr, ast.Attribute):
            assert ast.unparse(expr.value) in table, ast.unparse(expr)
            assert expr.attr in FIELDS, expr.attr
        else:
            assert isinstance(expr, ast.Name) and expr.id in errors, ast.unparse(expr)

    (call,) = [n for n in ast.walk(func) if isinstance(n, ast.Call)
               and ast.unparse(n.func) == "_ScreenBounds"]
    built = {k.arg: k.value for k in call.keywords}
    for name in ("slack", "noise_cap"):
        check(built[name])


def test_no_margin_value_is_written_outside_the_table():
    """The margin values and the reference tolerance appear in the
    semantics only as ``MARGINS`` entries and ``values.CLOSE_TOLERANCE``."""
    root = Path(batch.__file__).parents[1]
    pattern = re.compile(r"1e-(8|12|26|27|28|30)\b|1e(18|30)\b")
    declared = re.compile(rf"^    ({'|'.join(FIELDS)}): float = |^CLOSE_TOLERANCE = ")
    hits = [
        f"{path.name}:{n}: {line.strip()}"
        for path in [*(root / "semantics").glob("*.py"), *(root / "lam_s").glob("*.py")]
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line) and not declared.match(line)
    ]
    assert hits == []


def test_the_reference_reads_one_tolerance():
    assert interp.CLOSE_TOLERANCE is values.CLOSE_TOLERANCE
    default = inspect.signature(values.values_close).parameters["tolerance"].default
    assert default is values.CLOSE_TOLERANCE


def test_the_table_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        eft.MARGINS.slack = 0.0  # type: ignore[misc]


# --------------------------------------------------------------------------
# The widening against the contract
# --------------------------------------------------------------------------

_PROGRAMS = {
    "Horner60": lambda: horner(60),
    "DotProd20": lambda: dot_prod(20),
    "Sum100": lambda: vec_sum(100),
    "Sum1000": lambda: vec_sum(1000),
    "SafeDiv8": lambda: safe_div_sum(8),
}


def _eta_max(bits: int) -> float:
    """The forward rounding's relative error bound: binary64 rounding,
    then (below 53 bits) round half even to ``bits`` bits."""
    return eft.U if bits == 53 else 2.0**-bits + 2.0**-52


@pytest.mark.parametrize("bits", [53, 24, 11])
@pytest.mark.parametrize("name", sorted(_PROGRAMS))
def test_widened_margins_cover_the_contract(name, bits):
    engine = BatchWitnessEngine(_PROGRAMS[name](), precision_bits=bits)
    bounds = engine._screen_bounds()
    chain = batch._longest_chain(engine.ir.ops)
    eta_max = _eta_max(bits)
    err = eft.backward_error_bound(chain, eta_max)
    spread = chain * -math.log1p(-eta_max)  # L: the largest leaf distance
    assert bounds.slack >= err + 2.0 * eft.U * spread
    assert bounds.noise_cap >= eft.MARGINS.noise_floor + err
    if bits < 53:
        # The table's absolute bases alone fall short here: only the
        # widening covers E.
        assert err > eft.MARGINS.slack
