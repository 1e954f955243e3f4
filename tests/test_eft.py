"""Unit tests for the error-free-transformation and screen kernels.

:mod:`repro.semantics.eft` is the arithmetic under the batch engine's
backward/ideal screens, so its contract is checked here directly
against the 60-digit ``Decimal`` semantics:

* TwoSum and TwoProd are **error-free**: ``hi + lo`` represents the
  real-number sum/product of two floats exactly.
* The perturbation-form kernels (``eta_*``, ``back_*``, ``ideal_*``,
  ``grow``, ``log_distance``) stay inside the error bounds their
  docstrings state, relative to their own terms, and a chain of
  backward steps stays inside ``backward_error_bound``.
* The composed double-double ops (add/sub/mul/div/sqrt) keep relative
  error well under ``2^-100`` — orders beyond the ``1e-26``/``1e-28``
  margins the batch screens rely on.
* The dd∘binary64 kernels of the value-form oracle
  (``tests/oracles/batch_dd_ref.py``: ``dd_add_fp``, ``dd_mul_fp``,
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

from oracles import batch_dd_ref as dd_ref
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
        x = dd_ref.from_float(a)
        assert np.array_equal(x.hi, a)
        assert not x.lo.any()


class TestDoubleDouble:
    @pytest.mark.parametrize("seed", [10, 11])
    def test_add_sub_mul_accuracy(self, seed):
        a, b = _rand(seed, scale=30), _rand(seed + 50, scale=30)
        x, y = dd_ref.from_float(a), dd_ref.from_float(b)
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
        q = eft.dd_div(dd_ref.from_float(a), dd_ref.from_float(b))
        with decimal.localcontext() as ctx:
            ctx.prec = 80
            for i in range(a.size):
                want = Decimal(float(a[i])) / Decimal(float(b[i]))
                assert _rel_err(_dd_dec(q, i), want) <= _TOL, i

    def test_sqrt_accuracy_and_zero(self):
        a = np.abs(_rand(14, scale=30))
        r = eft.dd_sqrt(dd_ref.from_float(a))
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
        x = dd_ref.from_float(a)
        n = eft.dd_neg(x)
        assert np.array_equal(n.hi, -a)
        m = dd_ref.dd_abs(eft.dd_neg(dd_ref.dd_abs(x)))
        assert np.array_equal(m.hi, np.abs(a))

    def test_double_double_beats_float(self):
        # The motivating case: a sum that cancels at float precision is
        # still held exactly by the dd pair.
        big = np.array([1.0])
        tiny = np.array([2.0**-70])
        s = eft.dd_add(dd_ref.from_float(big), dd_ref.from_float(tiny))
        back = eft.dd_add(s, dd_ref.from_float(-big))
        assert _dd_dec(back, 0) == Decimal(2) ** -70


class TestPredicates:
    def test_range_suspect(self):
        x = dd_ref.from_float(
            np.array([1.0, np.inf, np.nan, 1e301, 1e-301, 0.0])
        )
        assert dd_ref.range_suspect(x).tolist() == [
            False, True, True, True, True, False
        ]

    def test_where_merges_componentwise(self):
        left = eft.DD(np.array([1.0, 2.0]), np.array([0.1, 0.2]))
        right = eft.DD(np.array([3.0, 4.0]), np.array([0.3, 0.4]))
        out = dd_ref.where(np.array([True, False]), left, right)
        assert out.hi.tolist() == [1.0, 4.0]
        assert out.lo.tolist() == [0.1, 0.4]


class TestBinary64Operands:
    """dd∘binary64 kernels against 80-digit Decimal, at their bounds."""

    def test_add_fp_within_2u2(self):
        x, y = _rand_dd(20), _rand_nonzero(21)
        got = dd_ref.dd_add_fp(x, y)
        worst = _max_rel_err_u2(
            got, lambda i: _dd_dec(x, i) + Decimal(float(y[i]))
        )
        assert worst <= 2, worst

    def test_add_fp_cancellation_is_exact(self):
        # x.hi + y cancels exactly: the result is x.lo, with no rounding.
        x = eft.DD(np.array([1.0, -3.0]), np.array([2.0**-60, -(2.0**-55)]))
        got = dd_ref.dd_add_fp(x, np.array([-1.0, 3.0]))
        assert got.hi.tolist() == [2.0**-60, -(2.0**-55)]
        assert not got.lo.any()

    @pytest.mark.parametrize("seed", [22, 23])
    def test_mul_fp_within_3u2(self, seed):
        x, y = _rand_dd(seed), _rand_nonzero(seed + 50)
        got = dd_ref.dd_mul_fp(x, y)
        worst = _max_rel_err_u2(
            got, lambda i: _dd_dec(x, i) * Decimal(float(y[i]))
        )
        assert worst <= 3, worst
        # A precomputed split of y changes nothing.
        again = dd_ref.dd_mul_fp(x, y, eft.split(y))
        assert np.array_equal(again.hi, got.hi)
        assert np.array_equal(again.lo, got.lo)

    @pytest.mark.parametrize("seed", [24, 25])
    def test_div_fp_within_3u2(self, seed):
        x, y = _rand_dd(seed), _rand_nonzero(seed + 50)
        got = dd_ref.dd_div_fp(x, y)
        worst = _max_rel_err_u2(
            got, lambda i: _dd_dec(x, i) / Decimal(float(y[i]))
        )
        assert worst <= 3, worst
        again = dd_ref.dd_div_fp(x, y, eft.split(y))
        assert np.array_equal(again.hi, got.hi)
        assert np.array_equal(again.lo, got.lo)

    def test_div_fp_exact_quotients(self):
        # Quotients representable in binary64 come back exact.
        x = dd_ref.from_float(np.array([6.0, -1.0, 0.0, 2.0**-40]))
        got = dd_ref.dd_div_fp(x, np.array([3.0, 4.0, 7.0, 2.0**10]))
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
            d, undecided = dd_ref.rp_distance(o, n)
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
            _, undecided = dd_ref.rp_distance(o, n)
        assert undecided.tolist() == [True] * 7 + [False]

    def test_out_of_range_ratios_are_undecided(self):
        o = np.array([1e300, 1e-300, 1e-150, 4.0])
        n = dd_ref.from_float(np.array([1e-300, 1e300, 1e150, 4.0]))
        with np.errstate(all="ignore"):
            d, undecided = dd_ref.rp_distance(o, n)
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
            assert np.array_equal(dd_ref.range_suspect(x), _old_range_suspect(x))
        # Spot checks of the predicate itself.
        probe = eft.DD(
            np.array([0.0, -0.0, 1e-280, -1e280, 1e280 * 1.0000001,
                      5e-324, 1.0, 1.0]),
            np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, np.nan, -np.inf]),
        )
        with np.errstate(all="ignore"):  # lo·0 is nan on non-finite lo
            flags = dd_ref.range_suspect(probe).tolist()
        assert flags == [False, False, False, False, True, True, True, True]

    def test_matches_old_predicate_on_random_kernel_output(self):
        with np.errstate(all="ignore"):
            x = eft.dd_mul(dd_ref.from_float(_rand(36, scale=600)),
                           dd_ref.from_float(_rand(37, scale=600)))
            assert np.array_equal(dd_ref.range_suspect(x), _old_range_suspect(x))


# --------------------------------------------------------------------------
# Perturbation form
# --------------------------------------------------------------------------

_U = Decimal(2) ** -53


def _dec(a: np.ndarray, i: int) -> Decimal:
    return Decimal(float(a[i]))


def _check_abs(got: np.ndarray, want, bound) -> None:
    """``|got[i] - want(i)| <= bound(i)`` for every row, at 80 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        for i in range(got.size):
            err = abs(_dec(got, i) - want(i))
            assert err <= bound(i), (i, err, bound(i))


def _deltas(seed: int, n: int = 400, scale: float = 1e-13) -> np.ndarray:
    """Witness-sized perturbations, both signs, a few at large scales."""
    rng = np.random.default_rng(seed)
    d = rng.uniform(-1.0, 1.0, n) * scale
    d[:8] = [0.0, 1e-30, -1e-30, 0.3, -0.3, 2.5, -0.75, 1e-17]
    return d


def _round_bits(x: np.ndarray, bits: int) -> np.ndarray:
    m, e = np.frexp(x)
    return np.ldexp(np.rint(m * float(1 << bits)), e - bits)


class TestPerturbationKernels:
    @pytest.mark.parametrize("bits", [53, 24, 11])
    def test_eta_of_each_op(self, bits):
        a, b = _rand_nonzero(7), _rand_nonzero(8)
        with np.errstate(all="ignore"):
            cases = [
                ("add", a + b, lambda x, y: x + y, eft.eta_add, 2),
                ("mul", a * b, lambda x, y: x * y, eft.eta_mul, 2),
                ("div", a / b, lambda x, y: x / y, None, 3),
            ]
            for name, fl, exact, kernel, c in cases:
                r = fl if bits == 53 else _round_bits(fl, bits)
                keep = r != 0.0
                if name == "div":
                    eta = eft.eta_div(a, b, r)
                else:
                    eta = kernel(a, b, None if bits == 53 else r)

                def want(i):
                    return exact(_dec(a, i), _dec(b, i)) / _dec(r, i) - 1

                def bound(i):
                    return c * _U * abs(want(i)) + Decimal(2) ** -1074

                rows = np.flatnonzero(keep)
                _check_abs(eta[rows], lambda j: want(rows[j]),
                           lambda j: bound(rows[j]))

    def test_eta_round(self):
        x = _rand_nonzero(9)
        r = _round_bits(x, 11)
        eta = eft.eta_round(x, r)
        _check_abs(eta, lambda i: _dec(x, i) / _dec(r, i) - 1,
                   lambda i: _U * abs(_dec(x, i) / _dec(r, i) - 1))

    def test_back_linear_and_root(self):
        d3, eta = _deltas(1), _deltas(2, scale=1e-16)
        eta[:8] = 1e-16  # |η| stays a rounding error
        lin = eft.back_linear(d3, eta)
        root = eft.back_root(lin)

        def ratio(i):
            return (1 + _dec(d3, i)) / (1 + _dec(eta, i))

        _check_abs(lin, lambda i: ratio(i) - 1,
                   lambda i: 3 * _U * abs(ratio(i) - 1) + Decimal(2) ** -1074)
        _check_abs(root, lambda i: _dec(lin, i).__add__(1).sqrt() - 1,
                   lambda i: 3 * _U * abs(_dec(lin, i).__add__(1).sqrt() - 1)
                   + Decimal(2) ** -1074)
        untargeted = eft.back_linear(None, eta)
        assert np.array_equal(untargeted, -eta / (1.0 + eta))

    def test_back_reciprocal(self):
        d = _deltas(3)
        got = eft.back_reciprocal(d)
        _check_abs(got, lambda i: 1 / (1 + _dec(d, i)) - 1,
                   lambda i: 2 * _U * abs(1 / (1 + _dec(d, i)) - 1)
                   + Decimal(2) ** -1074)

    def test_ideal_kernels(self):
        d1, d2, eta = _deltas(4), _deltas(5), _deltas(6, scale=1e-16)
        x1, x2 = _rand_nonzero(10, 400), _rand_nonzero(11, 400)
        with np.errstate(all="ignore"):
            r = x1 + x2
        summed = eft.ideal_sum(eta, x1, d1, x2, d2, r)

        def sum_want(i):
            return _dec(eta, i) + (_dec(x1, i) * _dec(d1, i)
                                   + _dec(x2, i) * _dec(d2, i)) / _dec(r, i)

        def sum_bound(i):
            terms = abs(_dec(x1, i) * _dec(d1, i)) + abs(_dec(x2, i) * _dec(d2, i))
            return (3 * _U * terms / abs(_dec(r, i)) + _U * abs(sum_want(i))
                    + Decimal(2) ** -1074)

        _check_abs(summed, sum_want, sum_bound)
        prod = eft.ideal_prod(d1, d2)
        _check_abs(prod, lambda i: (1 + _dec(d1, i)) * (1 + _dec(d2, i)) - 1,
                   lambda i: _U * (abs(_dec(d2, i)) + 2 * abs(_dec(d1, i) * _dec(d2, i))
                                   + abs(_dec(prod, i))) + Decimal(2) ** -1074)
        quot = eft.ideal_quot(d1, d2)
        _check_abs(quot, lambda i: (1 + _dec(d1, i)) / (1 + _dec(d2, i)) - 1,
                   lambda i: 3 * _U * abs(_dec(quot, i)) + Decimal(2) ** -1074)
        grown = eft.grow(eta, d1)
        _check_abs(grown, lambda i: (1 + _dec(eta, i)) * (1 + _dec(d1, i)) - 1,
                   lambda i: _U * (abs(_dec(d1, i)) + 2 * abs(_dec(eta, i) * _dec(d1, i))
                                   + abs(_dec(grown, i))) + Decimal(2) ** -1074)
        # Zero perturbations (None) drop their terms exactly.
        assert eft.ideal_prod(None, d2) is d2
        assert eft.ideal_quot(d1, None) is d1
        assert eft.grow(eta, None) is eta
        assert eft.ideal_sum(eta, x1, None, x2, None, r) is eta

    def test_log_distance(self):
        d = _deltas(12)
        got = eft.log_distance(d)
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            for i in range(d.size):
                want = abs((1 + _dec(d, i)).ln()) if d[i] != 0 else Decimal(0)
                assert abs(_dec(got, i) - want) <= 2 * _U * want, i
        with np.errstate(all="ignore"):
            undecided = eft.log_distance(np.array([-1.0, -2.0, np.nan, np.inf]))
        assert not np.isfinite(undecided).any()

    @pytest.mark.parametrize("bits", [53, 11])
    def test_backward_chain_within_bound(self, bits):
        """A chain of K add/mul/div backward steps stays within E."""
        rng = np.random.default_rng(bits)
        steps, n = 150, 300
        eta_max = float(_U) if bits == 53 else 2.0**-bits + 2.0**-52
        etas = rng.uniform(-eta_max, eta_max, (steps, n))
        kinds = rng.integers(0, 3, steps)
        d = None
        with decimal.localcontext() as ctx:
            ctx.prec = 70
            exact = [Decimal(0)] * n
            for k in range(steps):
                eta = etas[k]
                rho = eft.back_linear(d, eta)
                d = rho if kinds[k] == 0 else eft.back_root(rho)
                if kinds[k] == 2:
                    d = eft.back_reciprocal(d)
                for i in range(n):
                    e = Decimal(float(eta[i]))
                    v = (1 + exact[i]) / (1 + e)
                    if kinds[k]:
                        v = v.sqrt()
                    if kinds[k] == 2:
                        v = 1 / v
                    exact[i] = v - 1
            bound = Decimal(eft.backward_error_bound(steps, eta_max))
            for i in range(n):
                lam_got = Decimal(float(np.log1p(d[i])))
                lam_want = (1 + exact[i]).ln()
                assert abs(lam_got - lam_want) <= bound + 2 * _U * abs(lam_want), i
