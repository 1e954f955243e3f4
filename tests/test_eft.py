"""Unit tests for the error-free-transformation kernels.

:mod:`repro.semantics.eft` is the exact-arithmetic layer under the
batch engine's default backward/ideal sweeps, so its contract is
checked here directly against the 60-digit ``Decimal`` semantics:

* TwoSum and TwoProd are **error-free**: ``hi + lo`` represents the
  real-number sum/product of two floats exactly.
* The composed double-double ops (add/sub/mul/div/sqrt) keep relative
  error well under ``2^-100`` — orders beyond the ``1e-26``/``1e-28``
  margins the batch screens rely on.
* The dd∘binary64 kernels (``dd_add_fp``, ``dd_mul_fp``,
  ``dd_div_fp``) and the one-correction ``dd_div`` stay inside the
  relative-error bounds their docstrings state, in units of
  ``u² = 2^-106``.
* ``rp_distance`` tracks the exact RP metric to 1e-15 relative at
  every scale, down to the screens' 1e-28 noise floor, and flags the
  rows it cannot decide.
* The helper predicates (``range_suspect``, ``where``) behave exactly
  as the screens assume.
"""

from __future__ import annotations

import decimal
from decimal import Decimal

import numpy as np
import pytest

from repro.semantics import eft


def _rand(seed: int, n: int = 256, scale: int = 40) -> np.ndarray:
    rng = np.random.default_rng(seed)
    mant = rng.uniform(-1.0, 1.0, n)
    expo = rng.integers(-scale, scale, n).astype(float)
    out = mant * np.exp2(expo)
    out[0] = 0.0  # always include an exact zero
    return out


def _dd_dec(x: eft.DD, i: int) -> Decimal:
    return Decimal(float(x.hi[i])) + Decimal(float(x.lo[i]))


def _rel_err(got: Decimal, want: Decimal) -> Decimal:
    if want == 0:
        return abs(got)
    return abs((got - want) / want)


#: dd ops carry at most ~14·2^-106 relative error; 2^-100 is a safely
#: testable ceiling far inside the batch screens' 1e-26 margins.
_TOL = Decimal(2) ** -100

#: ``u² = 2^-106``, the unit of the documented dd kernel bounds.
_U2 = Decimal(2) ** -106


def _rand_dd(seed: int, n: int = 512, scale: int = 30) -> eft.DD:
    """Normalized dd values with a full trailing component."""
    rng = np.random.default_rng(seed)
    hi = rng.uniform(1.0, 2.0, n) * np.exp2(rng.integers(-scale, scale, n))
    hi *= rng.choice((-1.0, 1.0), n)
    lo = hi * rng.uniform(-1.0, 1.0, n) * 2.0**-53
    s, e = eft.two_sum(hi, lo)
    return eft.DD(s, e)


def _rand_nonzero(seed: int, n: int = 512, scale: int = 30) -> np.ndarray:
    rng = np.random.default_rng(seed)
    out = rng.uniform(1.0, 2.0, n) * np.exp2(rng.integers(-scale, scale, n))
    return out * rng.choice((-1.0, 1.0), n)


def _max_rel_err_u2(got: eft.DD, want) -> Decimal:
    """Largest relative error of ``got`` against ``want(i)``, in u²."""
    worst = Decimal(0)
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        for i in range(got.hi.size):
            worst = max(worst, _rel_err(_dd_dec(got, i), want(i)) / _U2)
    return worst


def _old_range_suspect(x: eft.DD) -> np.ndarray:
    """The predicate as first written, four passes: the oracle."""
    a = np.abs(x.hi)
    bad = ~np.isfinite(x.hi) | ~np.isfinite(x.lo)
    bad |= a > eft.OVERFLOW_LIMIT
    bad |= (a > 0.0) & (a < eft.UNDERFLOW_LIMIT)
    return bad


class TestErrorFree:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_two_sum_exact(self, seed):
        a, b = _rand(seed), _rand(seed + 100)
        s, e = eft.two_sum(a, b)
        with decimal.localcontext() as ctx:
            ctx.prec = 80
            for i in range(a.size):
                want = Decimal(float(a[i])) + Decimal(float(b[i]))
                got = Decimal(float(s[i])) + Decimal(float(e[i]))
                assert got == want, i

    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_two_prod_exact(self, seed):
        a, b = _rand(seed, scale=30), _rand(seed + 100, scale=30)
        p, e = eft.two_prod(a, b)
        with decimal.localcontext() as ctx:
            ctx.prec = 80
            for i in range(a.size):
                want = Decimal(float(a[i])) * Decimal(float(b[i]))
                got = Decimal(float(p[i])) + Decimal(float(e[i]))
                assert got == want, i

    def test_from_float_is_exact(self):
        a = _rand(7)
        x = eft.from_float(a)
        assert np.array_equal(x.hi, a)
        assert not x.lo.any()


class TestDoubleDouble:
    @pytest.mark.parametrize("seed", [10, 11])
    def test_add_sub_mul_accuracy(self, seed):
        a, b = _rand(seed, scale=30), _rand(seed + 50, scale=30)
        x, y = eft.from_float(a), eft.from_float(b)
        cases = {
            "add": (eft.dd_add(x, y), lambda p, q: p + q),
            "sub": (eft.dd_sub(x, y), lambda p, q: p - q),
            "mul": (eft.dd_mul(x, y), lambda p, q: p * q),
        }
        with decimal.localcontext() as ctx:
            ctx.prec = 80
            for name, (got, op) in cases.items():
                for i in range(a.size):
                    want = op(Decimal(float(a[i])), Decimal(float(b[i])))
                    assert _rel_err(_dd_dec(got, i), want) <= _TOL, (name, i)

    def test_div_accuracy(self):
        a, b = _rand(12, scale=30), _rand(13, scale=30)
        b[b == 0.0] = 1.0  # the engine screens exact-zero divisors
        q = eft.dd_div(eft.from_float(a), eft.from_float(b))
        with decimal.localcontext() as ctx:
            ctx.prec = 80
            for i in range(a.size):
                want = Decimal(float(a[i])) / Decimal(float(b[i]))
                assert _rel_err(_dd_dec(q, i), want) <= _TOL, i

    def test_sqrt_accuracy_and_zero(self):
        a = np.abs(_rand(14, scale=30))
        r = eft.dd_sqrt(eft.from_float(a))
        assert r.hi[a == 0.0].tolist() == [0.0] * int((a == 0.0).sum())
        with decimal.localcontext() as ctx:
            ctx.prec = 80
            for i in range(a.size):
                if a[i] == 0.0:
                    continue
                want = Decimal(float(a[i])).sqrt()
                assert _rel_err(_dd_dec(r, i), want) <= _TOL, i

    def test_neg_abs(self):
        a = _rand(15)
        x = eft.from_float(a)
        n = eft.dd_neg(x)
        assert np.array_equal(n.hi, -a)
        m = eft.dd_abs(eft.dd_neg(eft.dd_abs(x)))
        assert np.array_equal(m.hi, np.abs(a))

    def test_double_double_beats_float(self):
        # The motivating case: a sum that cancels at float precision is
        # still held exactly by the dd pair.
        big = np.array([1.0])
        tiny = np.array([2.0**-70])
        s = eft.dd_add(eft.from_float(big), eft.from_float(tiny))
        back = eft.dd_add(s, eft.from_float(-big))
        assert _dd_dec(back, 0) == Decimal(2) ** -70


class TestPredicates:
    def test_range_suspect(self):
        x = eft.from_float(
            np.array([1.0, np.inf, np.nan, 1e301, 1e-301, 0.0])
        )
        assert eft.range_suspect(x).tolist() == [
            False, True, True, True, True, False
        ]

    def test_where_merges_componentwise(self):
        left = eft.DD(np.array([1.0, 2.0]), np.array([0.1, 0.2]))
        right = eft.DD(np.array([3.0, 4.0]), np.array([0.3, 0.4]))
        out = eft.where(np.array([True, False]), left, right)
        assert out.hi.tolist() == [1.0, 4.0]
        assert out.lo.tolist() == [0.1, 0.4]


class TestBinary64Operands:
    """dd∘binary64 kernels against 80-digit Decimal, at their bounds."""

    def test_add_fp_within_2u2(self):
        x, y = _rand_dd(20), _rand_nonzero(21)
        got = eft.dd_add_fp(x, y)
        worst = _max_rel_err_u2(
            got, lambda i: _dd_dec(x, i) + Decimal(float(y[i]))
        )
        assert worst <= 2, worst

    def test_add_fp_cancellation_is_exact(self):
        # x.hi + y cancels exactly: the result is x.lo, with no rounding.
        x = eft.DD(np.array([1.0, -3.0]), np.array([2.0**-60, -(2.0**-55)]))
        got = eft.dd_add_fp(x, np.array([-1.0, 3.0]))
        assert got.hi.tolist() == [2.0**-60, -(2.0**-55)]
        assert not got.lo.any()

    @pytest.mark.parametrize("seed", [22, 23])
    def test_mul_fp_within_3u2(self, seed):
        x, y = _rand_dd(seed), _rand_nonzero(seed + 50)
        got = eft.dd_mul_fp(x, y)
        worst = _max_rel_err_u2(
            got, lambda i: _dd_dec(x, i) * Decimal(float(y[i]))
        )
        assert worst <= 3, worst
        # A precomputed split of y changes nothing.
        again = eft.dd_mul_fp(x, y, eft.split(y))
        assert np.array_equal(again.hi, got.hi)
        assert np.array_equal(again.lo, got.lo)

    @pytest.mark.parametrize("seed", [24, 25])
    def test_div_fp_within_3u2(self, seed):
        x, y = _rand_dd(seed), _rand_nonzero(seed + 50)
        got = eft.dd_div_fp(x, y)
        worst = _max_rel_err_u2(
            got, lambda i: _dd_dec(x, i) / Decimal(float(y[i]))
        )
        assert worst <= 3, worst
        again = eft.dd_div_fp(x, y, eft.split(y))
        assert np.array_equal(again.hi, got.hi)
        assert np.array_equal(again.lo, got.lo)

    def test_div_fp_exact_quotients(self):
        # Quotients representable in binary64 come back exact.
        x = eft.from_float(np.array([6.0, -1.0, 0.0, 2.0**-40]))
        got = eft.dd_div_fp(x, np.array([3.0, 4.0, 7.0, 2.0**10]))
        assert got.hi.tolist() == [2.0, -0.25, 0.0, 2.0**-50]
        assert not got.lo.any()

    @pytest.mark.parametrize("seed", [26, 27])
    def test_dd_div_within_14u2(self, seed):
        x, y = _rand_dd(seed), _rand_dd(seed + 50)
        got = eft.dd_div(x, y)
        worst = _max_rel_err_u2(got, lambda i: _dd_dec(x, i) / _dd_dec(y, i))
        assert worst <= 14, worst

    def test_two_prod_with_split_is_exact(self):
        a, b = _rand(28, scale=30), _rand(29, scale=30)
        p, e = eft.two_prod(a, b, eft.split(b))
        with decimal.localcontext() as ctx:
            ctx.prec = 80
            for i in range(a.size):
                want = Decimal(float(a[i])) * Decimal(float(b[i]))
                assert Decimal(float(p[i])) + Decimal(float(e[i])) == want, i


def _exact_rp(o: float, n: eft.DD, i: int) -> Decimal:
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        return abs((Decimal(o) / _dd_dec(n, i)).ln())


class TestRpDistance:
    """The distance screen's metric: ``|ln(o/n)|`` from a Sterbenz gap."""

    def _check(self, o: np.ndarray, n: eft.DD) -> None:
        with np.errstate(all="ignore"):  # the engine's calling convention
            d, undecided = eft.rp_distance(o, n)
        assert not undecided.any()
        for i in range(o.size):
            want = _exact_rp(float(o[i]), n, i)
            assert want > 0, i
            rel = abs(Decimal(float(d[i])) - want) / want
            assert rel <= Decimal("1e-15"), (i, float(d[i]), want)

    @pytest.mark.parametrize("exponent", [-16, -14, -12])
    def test_witness_scale_gaps(self, exponent):
        # Backward witnesses sit ~1e-16..1e-13 relative from the original.
        rng = np.random.default_rng(30 - exponent)
        o = _rand_nonzero(31 - exponent, n=400)
        rel = rng.uniform(-1.0, 1.0, o.size) * 10.0**exponent
        tail = o * rel * rng.uniform(0.0, 2.0**-53, o.size)
        n = eft.DD(*eft.two_sum(o * (1.0 + rel), tail))
        self._check(o, n)

    @pytest.mark.parametrize("gap", [1e-26, 1.01e-28, 1e-28, 9.9e-29, 1e-30])
    def test_noise_floor_gaps(self, gap):
        # n.hi == o; the whole gap lives in n.lo, where a dd quotient
        # minus one would cancel all but a few of its bits.
        o = _rand_nonzero(32, n=200)
        rng = np.random.default_rng(33)
        lo = -o * gap * rng.uniform(0.5, 1.5, o.size)
        self._check(o, eft.DD(o.copy(), lo))

    def test_far_ratios(self):
        # |gap| > 1/2 takes the log branch; ratios up to 1e250.
        o = _rand_nonzero(34, n=300)
        rng = np.random.default_rng(35)
        factor = np.exp2(rng.uniform(-800.0, 800.0, o.size))
        factor[:10] = [0.75, 1.5, 0.5, 2.0, 0.4999, 1.5001, 3.0, 0.1, 10.0, 1e-3]
        n = eft.DD(*eft.two_sum(o * factor, o * factor * 2.0**-60))
        self._check(o, n)

    def test_zeros_and_sign_flips_are_undecided(self):
        o = np.array([0.0, 1.0, 1.0, -2.0, 0.0, 3.0, 5.0, -5.0])
        n = eft.DD(np.array([1.0, 0.0, -1.0, 2.0, 0.0, np.nan, np.inf, -5.0]),
                   np.zeros(8))
        with np.errstate(all="ignore"):
            _, undecided = eft.rp_distance(o, n)
        assert undecided.tolist() == [True] * 7 + [False]

    def test_out_of_range_ratios_are_undecided(self):
        o = np.array([1e300, 1e-300, 1e-150, 4.0])
        n = eft.from_float(np.array([1e-300, 1e300, 1e150, 4.0]))
        with np.errstate(all="ignore"):
            d, undecided = eft.rp_distance(o, n)
        # Ratios that over/underflow binary64 are left to the reference;
        # 1e-300 is still a finite distance of 690.8.
        assert undecided.tolist() == [True, True, False, False]
        assert abs(d[2] - 300 * np.log(10.0)) < 1e-12
        assert d[3] == 0.0


class TestRangeSuspectEdges:
    """The one-clamp ``range_suspect`` is the old four-pass predicate."""

    def test_matches_old_predicate_on_edges(self):
        edges = []
        for v in (eft.UNDERFLOW_LIMIT, eft.OVERFLOW_LIMIT):
            edges += [v, np.nextafter(v, 0.0), np.nextafter(v, np.inf)]
        magnitudes = [0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1.0,
                      1e300, np.finfo(float).max, np.inf, np.nan] + edges
        his = [s * m for m in magnitudes for s in (1.0, -1.0)]
        los = [0.0, -0.0, 5e-324, 1e-300, -1.0, np.inf, -np.inf, np.nan]
        hi = np.array([h for h in his for _ in los])
        lo = np.array([v for _ in his for v in los])
        x = eft.DD(hi, lo)
        with np.errstate(all="ignore"):
            assert np.array_equal(eft.range_suspect(x), _old_range_suspect(x))
        # Spot checks of the predicate itself.
        probe = eft.DD(
            np.array([0.0, -0.0, 1e-280, -1e280, 1e280 * 1.0000001,
                      5e-324, 1.0, 1.0]),
            np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, np.nan, -np.inf]),
        )
        with np.errstate(all="ignore"):  # lo·0 is nan on non-finite lo
            flags = eft.range_suspect(probe).tolist()
        assert flags == [False, False, False, False, True, True, True, True]

    def test_matches_old_predicate_on_random_kernel_output(self):
        with np.errstate(all="ignore"):
            x = eft.dd_mul(eft.from_float(_rand(36, scale=600)),
                           eft.from_float(_rand(37, scale=600)))
            assert np.array_equal(eft.range_suspect(x), _old_range_suspect(x))
