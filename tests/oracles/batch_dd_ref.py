"""Reference batch phases 2-3 in value form: double-double arrays.

:class:`repro.semantics.batch.BatchWitnessEngine` screens its backward
and ideal sweeps in perturbation form: every value is its binary64
forward value times ``(1 + δ)``, with ``δ`` in float64.
:class:`DdBatchEngine` runs the same two sweeps the way the engine did
before, on the *values* themselves as double-double (dd) arrays — the
Appendix C witness formulas and the ideal semantics on
:mod:`repro.semantics.eft`'s ~106-bit kernels — and only then expresses
each perturbed input and the ideal result as ``δ`` trees over their
forward values, for the engine's phase-4 screens
(``BatchWitnessEngine._settle``).  The two sweeps share nothing but
phase 1 and phase 4, so the engine, this oracle and looping
:func:`repro.semantics.witness.run_witness` must agree on every
observable: verdicts, per-parameter maxima, per-row reports, captured
errors, ``fallback_rows`` and the rendered ``rows`` section.

``_backward`` takes its arithmetic as a parameter (``arith``, with
``cvt`` converting a slot's forward floats into that arithmetic's
representation), so :class:`oracles.batch_decimal_ref.DecimalBatchEngine`
runs the same value-form sweep on 50-digit ``Decimal`` arrays.
"""

from __future__ import annotations

from decimal import Decimal
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.ir import lower as L
from repro.ir.inline import walk_ops
from repro.semantics import eft
from repro.semantics.batch import (
    _BPair,
    _BPartial,
    _BSum,
    _BUNIT,
    _EXACT,
    BatchWitnessEngine,
    BatchWitnessReport,
    _mask_all,
    _tree_leaves,
    _Unvectorizable,
)
from repro.semantics.eft import DD

__all__ = ["DdBatchEngine"]

Array = np.ndarray


class DdBatchEngine(BatchWitnessEngine):
    """:class:`BatchWitnessEngine` with phases 2-3 on dd value arrays."""

    def _finish(self, columns, n_rows: int, clean: np.ndarray,
                fallback: np.ndarray, fsel,
                suspect: np.ndarray) -> BatchWitnessReport:
        """The dd backward and ideal sweeps, then the engine's screens.

        Rows where a dd kernel leaves its validated range, or meets an
        operand outside its domain, join ``suspect`` (see
        :class:`_EftArith`) and are settled by the scalar reference.
        """
        ir = self.ir
        m = int(clean.size)
        arith = _EftArith(m)
        arith.suspect |= suspect
        with np.errstate(all="ignore"):
            targets: List = [None] * ir.n_slots
            self._backward(ir.ops, fsel, fsel, targets, arith)
            perturbed: Dict[str, object] = {}
            ivals: List = [None] * ir.n_slots
            for p in ir.params:
                forward = fsel(p.slot)
                if p.discrete:
                    ivals[p.slot] = forward
                    continue
                value = _materialize_mixed(targets[p.slot], forward)
                ivals[p.slot] = value
                perturbed[p.name] = _delta_tree(value, forward)
            self._ideal_eft(ir.ops, ivals, m, arith)
            ideal = _delta_tree(ivals[ir.result], fsel(ir.result))
        return self._settle(columns, n_rows, clean, fallback, fsel,
                            perturbed, ideal, arith.suspect)

    def _backward(self, ops, fsel, cvt, targets: List, arith) -> None:
        """The Appendix C witness formulas, one array expression per op.

        ``arith`` supplies the exact-arithmetic kernels (dd float pairs,
        :class:`_EftArith`) and ``cvt`` converts a slot's forward floats
        into their representation; the seam lets a test oracle run the
        same sweep on other arithmetic.  Operand values and the op order
        inside each formula match :mod:`repro.semantics.primitives`.
        Sign/zero domain analysis is unnecessary here: rows whose
        forward values vanish or overflow were diverted to the scalar
        path, and on the remaining rows the backward targets provably
        keep the forward signs.  ``case`` regions recurse through the
        *taken* branch only — screened rows all share one branch tag,
        which the sweep verifies.
        """
        producer = {}
        for op in walk_ops(ops):
            producer[op.dest] = op.code
        self._backward_sweep(ops, fsel, cvt, targets, arith, producer)

    def _backward_sweep(self, ops, fsel, cvt, targets: List, arith,
                        producer: Dict[int, int]) -> None:
        for op in reversed(ops):
            code = op.code
            dest = op.dest
            if L.ADD <= code <= L.DMUL:
                if code == L.DIV:
                    t = _get_b(targets, fsel, dest)
                    if not isinstance(t, _BSum):
                        raise _Unvectorizable("div target is not a batched sum")
                    if not _mask_all(t.mask) or t.left is None:
                        # Scalar: "div backward: finite quotient vs. inr
                        # target".
                        raise _Unvectorizable("div target carries inr rows")
                    targets[op.a], targets[op.b] = arith.div_backward(
                        cvt(op.a), cvt(op.b), arith.ensure(t.left)
                    )
                    continue
                x1, x2 = cvt(op.a), cvt(op.b)
                x3 = arith.ensure(_get_b(targets, fsel, dest))
                if code == L.ADD:
                    targets[op.a], targets[op.b] = arith.add_backward(x1, x2, x3)
                elif code == L.SUB:
                    targets[op.a], targets[op.b] = arith.sub_backward(x1, x2, x3)
                elif code == L.MUL:
                    targets[op.a], targets[op.b] = arith.mul_backward(x1, x2, x3)
                else:  # DMUL: all error onto the linear right operand
                    # The discrete left operand's target is x1 itself; when
                    # it is a plain discrete-variable read, the identity
                    # check is true by construction — skip assigning so the
                    # verify below has nothing to do.
                    if producer.get(op.a) != L.DVAR:
                        targets[op.a] = x1
                    targets[op.b] = arith.dmul_backward(x1, x3)
            elif code == L.DVAR:
                t = targets[dest]
                if t is not None:
                    arith.verify_discrete(op.aux, fsel(dest), t)
            elif code == L.BANG or code == L.RND:
                targets[op.a] = _get_b(targets, fsel, dest)
            elif code == L.PAIR:
                t = _get_b(targets, fsel, dest)
                targets[op.a] = t.left
                targets[op.b] = t.right
            elif code == L.FST or code == L.SND:
                partial = targets[op.a]
                if not isinstance(partial, _BPartial):
                    partial = _BPartial()
                    targets[op.a] = partial
                component = _get_b(targets, fsel, dest)
                if code == L.FST:
                    partial.left = component
                else:
                    partial.right = component
            elif code == L.INL or code == L.INR:
                t = _get_b(targets, fsel, dest)
                if not isinstance(t, _BSum):
                    raise _Unvectorizable("injection target is not a batched sum")
                if code == L.INL:
                    if not _mask_all(t.mask) or t.left is None:
                        # The scalar path raises a per-row LensDomainError
                        # here ("inl value vs. non-inl target"); let it.
                        raise _Unvectorizable("inl value vs. non-inl target rows")
                    targets[op.a] = t.left
                else:
                    if bool(t.mask.any()) or t.right is None:
                        raise _Unvectorizable("inr value vs. non-inr target rows")
                    targets[op.a] = t.right
            elif code == L.CASE:
                fwd = fsel(op.a)
                if not isinstance(fwd, _BSum):
                    raise _Unvectorizable("case scrutinee is not a batched sum")
                mask = fwd.mask
                if _mask_all(mask):
                    region, took_inl = op.aux[0], True
                elif not bool(mask.any()):
                    region, took_inl = op.aux[1], False
                else:
                    raise _Unvectorizable("mixed case branch tags on screened rows")
                targets[region.result] = _get_b(targets, fsel, dest)
                self._backward_sweep(region.ops, fsel, cvt, targets, arith,
                                     producer)
                payload_t = _get_b(targets, fsel, region.payload)
                targets[op.a] = (
                    _BSum(mask, payload_t, None)
                    if took_inl
                    else _BSum(mask, None, payload_t)
                )
            # UNIT / CONST: nothing flows backward.

    def _ideal_eft(self, ops, vals: List, n: int, arith: "_EftArith") -> None:
        """Phase 3 on dd arrays: the ideal semantics ⇓_id op for op.

        dd addition/multiplication carry ~106 bits; against the
        50-digit reference the results agree to ~32 digits, which the
        phase-4 screens' margins absorb.  Leaves the backward map left
        untouched, discrete values and literals stay binary64 arrays,
        so the ops that read them run the dd∘binary64 kernels.  A zero
        divisor marks its row suspect (:meth:`_EftArith.div`); a literal
        binary64 cannot hold exactly (only Λ_S terms carry one) is
        :class:`_Unvectorizable`.
        """
        for op in ops:
            code = op.code
            if L.ADD <= code <= L.DMUL:
                a, b = vals[op.a], vals[op.b]
                if code == L.ADD:
                    vals[op.dest] = arith.add(a, b)
                elif code == L.SUB:
                    vals[op.dest] = arith.sub(a, b)
                elif code == L.DIV:
                    # ⇓_id maps a zero divisor to inr (); arith.div
                    # leaves such rows to the scalar reference.
                    vals[op.dest] = _BSum(
                        np.ones(n, dtype=bool), arith.div(a, b), _BUNIT
                    )
                elif code == L.MUL:
                    vals[op.dest] = arith.mul(a, b)
                else:
                    vals[op.dest] = arith.dmul(a, b)
            elif code in (L.DVAR, L.BANG, L.RND):
                vals[op.dest] = vals[op.a]  # rnd is the identity in ⇓_id
            elif code == L.PAIR:
                vals[op.dest] = _BPair(vals[op.a], vals[op.b])
            elif code == L.FST:
                vals[op.dest] = vals[op.a].left
            elif code == L.SND:
                vals[op.dest] = vals[op.a].right
            elif code == L.CONST:
                c = float(op.aux)
                if Decimal(op.aux) != Decimal(c):
                    # The ideal semantics evaluates the literal as an
                    # exact Decimal; dd can only hold binary64 values.
                    raise _Unvectorizable("non-binary ideal constant")
                vals[op.dest] = np.full(n, c)
            elif code == L.UNIT:
                vals[op.dest] = _BUNIT
            elif code == L.INL:
                vals[op.dest] = _BSum(np.ones(n, dtype=bool), vals[op.a], None)
            elif code == L.INR:
                vals[op.dest] = _BSum(np.zeros(n, dtype=bool), None, vals[op.a])
            elif code == L.CASE:
                scrut = vals[op.a]
                if not isinstance(scrut, _BSum):
                    raise _Unvectorizable("case scrutinee is not a batched sum")
                if _mask_all(scrut.mask) and scrut.left is not None:
                    region, payload = op.aux[0], scrut.left
                elif not bool(scrut.mask.any()) and scrut.right is not None:
                    region, payload = op.aux[1], scrut.right
                else:
                    raise _Unvectorizable("mixed case branch tags on screened rows")
                vals[region.payload] = payload
                self._ideal_eft(region.ops, vals, n, arith)
                vals[op.dest] = vals[region.result]
            else:  # pragma: no cover - CALL is rewritten away or unvectorized
                raise _Unvectorizable(f"opcode {code} is not vectorizable")


class _EftArith:
    """Backward/ideal kernels on dd (hi/lo float64 pair) arrays.

    Operands are dd values or binary64 arrays: forward values, the
    untargeted leaves of the ideal sweep and literals stay binary64,
    and each kernel follows its operands' types — an exact TwoSum or
    TwoProd for two binary64s, a dd∘binary64 kernel for a mixed pair,
    the generic dd kernel only when both operands are dd.  Results are
    always dd.

    Maintains a per-row ``suspect`` mask: rows where a kernel result
    left the range on which the dd soundness arguments hold (overflow,
    underflow, non-finite, or a product/quotient that underflowed to an
    exact zero Decimal would have kept nonzero), and rows where a kernel
    met an operand outside its domain — an exact zero divisor, a
    negative radicand, a discrete target that is not bitwise the
    forward value.  Suspect rows may carry garbage dd values from then
    on — the caller settles them through the per-row scalar reference,
    which decides (or raises) what the reference semantics does there,
    and never reads their dd results.

    Zero tests read ``hi`` alone: every dd here is a kernel output (or
    its negation, magnitude or row selection), hence normalized, and a
    normalized dd is zero iff its ``hi`` is.
    """

    def __init__(self, m: int) -> None:
        self.suspect = np.zeros(m, dtype=bool)
        # Veltkamp splits of binary64 dmul operands, by array identity
        # (the array is kept alive with its split so its id stays
        # unique): a discrete operand such as Horner's evaluation point
        # is split once, not once per op in each sweep.
        self._splits: Dict[int, Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]] = {}

    @staticmethod
    def ensure(tree):
        return tree  # the kernels take binary64 and dd operands alike

    def _split_of(self, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        hit = self._splits.get(id(y))
        if hit is None:
            hit = self._splits[id(y)] = (y, eft.split(y))
        return hit[1]

    def _guard(self, x: DD) -> DD:
        self.suspect |= range_suspect(x)
        return x

    def add(self, x, y) -> DD:
        if isinstance(x, DD):
            r = eft.dd_add(x, y) if isinstance(y, DD) else dd_add_fp(x, y)
        elif isinstance(y, DD):
            r = dd_add_fp(y, x)
        else:
            r = DD(*eft.two_sum(x, y))  # exact
        return self._guard(r)

    def sub(self, x, y) -> DD:
        return self.add(x, eft.dd_neg(y) if isinstance(y, DD) else -y)

    def mul(self, x, y, y_split=None) -> DD:
        """``x·y``; ``y_split`` is ``split(y)`` for a binary64 ``y``."""
        if isinstance(y, DD) and not isinstance(x, DD):
            x, y = y, x
        if isinstance(x, DD):
            if isinstance(y, DD):
                r = eft.dd_mul(x, y)
            else:
                r = dd_mul_fp(x, y, y_split)
        else:
            r = DD(*eft.two_prod(x, y, y_split))  # exact
        # A vanished product of nonzero factors is an underflow artifact
        # — Decimal would keep it nonzero.
        vanished = r.hi == 0.0
        vanished &= _nonzero(x)
        vanished &= _nonzero(y)
        self.suspect |= vanished
        return self._guard(r)

    def div(self, x, y, y_split=None) -> DD:
        self.suspect |= ~_nonzero(y)
        if isinstance(y, DD):
            r = eft.dd_div(as_dd(x), y)
        else:
            r = dd_div_fp(as_dd(x), y, y_split)
        vanished = r.hi == 0.0
        vanished &= _nonzero(x)
        self.suspect |= vanished
        return self._guard(r)

    def sqrt(self, x: DD) -> DD:
        self.suspect |= x.hi < 0.0
        return self._guard(eft.dd_sqrt(x))

    def dmul(self, x1, x2) -> DD:
        """Ideal ``dmul``: the discrete factor is a binary64 leaf."""
        if isinstance(x1, DD):
            return self.mul(x1, x2)
        return self.mul(x2, x1, self._split_of(x1))

    # Backward witnesses.  ``x1``/``x2`` are the op's binary64 forward
    # operands; ``x3`` is its target (dd, or binary64 where untargeted).
    # Each formula is the primitive backward map's up to the order of
    # its dd-rounded steps, all far inside the screens' margins.

    def add_backward(self, x1, x2, x3):
        s = self.add(x1, x2)  # exact: TwoSum of binary64 operands
        q = self.div(x3, s)  # x3·x1/s = (x3/s)·x1: one shared quotient
        return self.mul(q, x1), self.mul(q, x2)

    def sub_backward(self, x1, x2, x3):
        d = self.sub(x1, x2)  # exact, like the sum
        q = self.div(x3, d)
        return self.mul(q, x1), self.mul(q, x2)

    def mul_backward(self, x1, x2, x3):
        p = self.mul(x1, x2)  # exact: TwoProd of binary64 operands
        scale = self.sqrt(self.div(x3, p))
        return self.mul(scale, x1), self.mul(scale, x2)

    def dmul_backward(self, x1, x3):
        return self.div(x3, x1, self._split_of(x1))

    def div_backward(self, x1, x2, x3):
        """Appendix C Div on dd arrays (sqrt radicands are |...|: safe)."""
        p = self.mul(x1, x2)  # exact TwoProd, shared by both witnesses
        magnitude1 = self.sqrt(dd_abs(self.mul(p, x3)))
        magnitude2 = self.sqrt(dd_abs(self.div(p, x3)))
        return (
            where(x1 > 0.0, magnitude1, eft.dd_neg(magnitude1)),
            where(x2 > 0.0, magnitude2, eft.dd_neg(magnitude2)),
        )

    def verify_discrete(self, name: str, current, target) -> None:
        """Exact-equality-only discrete verify.

        The reference applies ``values_close`` slack and raises a
        ``LensDomainError`` that embeds value reprs; dd reproduces
        neither, so rows short of bitwise equality are marked suspect
        and the scalar reference decides them.
        """
        if target is current:
            return
        leaves_cur = _tree_leaves(current, [])
        leaves_tgt = _tree_leaves(_materialize_b(target, current), [])
        for cur, tgt in zip(leaves_cur, leaves_tgt):
            if cur is tgt:
                continue
            if isinstance(tgt, DD):
                ok = (tgt.hi == cur) & (tgt.lo == 0.0)
            else:
                ok = np.asarray(tgt) == cur
            self.suspect |= ~ok


def _nonzero(x) -> np.ndarray:
    """Rows where a binary64 or normalized dd operand is nonzero."""
    return (x.hi if isinstance(x, DD) else x) != 0.0


def _get_b(targets: List, fsel, slot: int):
    t = targets[slot]
    if t is None:
        return fsel(slot)
    if isinstance(t, _BPartial):
        return _materialize_b(t, fsel(slot))
    return t


def _materialize_b(t, fallback):
    if t is None:
        return fallback
    if isinstance(t, _BPartial):
        return _BPair(
            _materialize_b(t.left, fallback.left),
            _materialize_b(t.right, fallback.right),
        )
    return t


def _materialize_mixed(t, float_fallback):
    """Materialize a target tree, keeping untargeted leaves as floats."""
    if t is None:
        return float_fallback
    if isinstance(t, _BPartial):
        return _BPair(
            _materialize_mixed(t.left, float_fallback.left),
            _materialize_mixed(t.right, float_fallback.right),
        )
    return t


# --------------------------------------------------------------------------
# dd helpers the value-form sweep needs (the generic dd kernels stay in
# repro.semantics.eft)
# --------------------------------------------------------------------------


def from_float(a: Array) -> DD:
    """Exact embedding of a float64 array: ``a == a + 0`` identically."""
    return DD(np.asarray(a, dtype=np.float64), np.zeros_like(a, dtype=np.float64))


def as_dd(x: Union[DD, Array]) -> DD:
    """Coerce a float leaf array to dd (exact); pass dd through."""
    if isinstance(x, DD):
        return x
    return from_float(x)


def dd_abs(x: DD) -> DD:
    """Exact magnitude: negate where the leading component is negative."""
    neg = x.hi < 0.0
    return DD(np.where(neg, -x.hi, x.hi), np.where(neg, -x.lo, x.lo))


# --------------------------------------------------------------------------
# dd ∘ binary64 kernels
# --------------------------------------------------------------------------
#
# The batch engine's forward sweep produces binary64 arrays, so every
# first-level operand of a witness formula — and every leaf of the ideal
# sweep the backward map left untouched — is a plain double, not a dd.
# Treating it as ``DD(a, 0)`` pays for a trailing component that is
# identically zero.  The kernels below take the binary64 operand as is
# (Joldes–Muller–Popescu 2017, "Tight and rigorous error bounds for
# basic building blocks of double-word arithmetic"; ``u`` is ``2^-53``,
# so ``u² = 2^-106``).  Each relative-error bound assumes
# no over/underflow, which :func:`range_suspect` polices.


def dd_add_fp(x: DD, y: Array) -> DD:
    """dd + binary64, relative error ``<= 2u²``.

    Soundness: the leading components combine by exact :func:`two_sum`;
    the trailing component joins the error term in one rounding and a
    FastTwoSum normalizes (JMP's ``DWPlusFP``).  Half the work of
    :func:`dd_add`, which also adds two trailing components.
    """
    s, e = eft.two_sum(x.hi, y)
    hi, lo = eft._fast_two_sum(s, x.lo + e)
    return DD(hi, lo)


def dd_mul_fp(x: DD, y: Array,
              y_split: Optional[Tuple[Array, Array]] = None) -> DD:
    """dd × binary64, relative error ``<= 3u²``.

    Soundness: ``x.hi·y`` is an exact :func:`two_prod`; ``x.lo·y`` is
    below ``u`` of the result and joins the error term in working
    precision; one FastTwoSum normalizes.  JMP bound the variant that
    fuses ``x.lo·y + e`` into one fma by ``2u²``; forming it with two
    roundings adds at most ``u·|x.lo·y| <= u²·|x·y|``.  ``y_split`` is
    ``split(y)`` when the caller reuses one divisor or factor.
    """
    p, e = eft.two_prod(x.hi, y, y_split)
    hi, lo = eft._fast_two_sum(p, e + x.lo * y)
    return DD(hi, lo)


def dd_div_fp(x: DD, y: Array,
              y_split: Optional[Tuple[Array, Array]] = None) -> DD:
    """dd ÷ binary64, relative error ``<= 3u²``.

    Soundness: the quotient's leading double ``t = fl(x.hi/y)`` leaves
    the residual ``x - t·y``; ``t·y`` is an exact :func:`two_prod`,
    ``x.hi - fl(t·y)`` is exact by Sterbenz's lemma, and the residual
    divided by ``y`` is the correction (JMP's ``DWDivFP3``; their fma
    forms ``t·y`` exactly, as TwoProd does here, so the bound carries
    over).  Zero divisors yield inf/nan garbage, as in :func:`dd_div`.
    """
    t = x.hi / y
    p, e = eft.two_prod(t, y, y_split)
    correction = (((x.hi - p) - e) + x.lo) / y
    hi, lo = eft._fast_two_sum(t, correction)
    return DD(hi, lo)


def rp_distance(o: Array, n: DD) -> Tuple[Array, Array]:
    """The RP distance ``|ln(o/n)|`` in binary64, and where it is undecided.

    Returns ``(d, undecided)``.  ``undecided`` flags rows the metric
    cannot settle in floating point: a zero on either side or a sign
    flip (where the exact metric is infinite), and non-finite or
    overflowing ratios.  ``d`` is garbage on those rows.

    Elsewhere ``d`` is within ``5u`` relative of the exact distance,
    however small.  Where ``o/n.hi`` lies in ``[1/2, 2]``, ``o - n.hi``
    is exact by Sterbenz's lemma (a TwoSum whose error term is zero), so
    ``gap = ((o - n.hi) - n.lo)/n.hi`` is ``(o - n)/n`` up to three
    roundings, and ``log1p`` is well-conditioned on ``|gap| <= 1/2``:
    gaps at the screens' ``1e-28`` noise floor keep full relative
    precision, where a dd quotient ``o/n`` minus one would cancel.
    The rare rows with ``|gap| > 1/2`` (``|ln(o/n)| >= 0.405``) take
    ``|ln(o/n.hi)|`` instead, whose absolute error of a few ulps is
    again below ``5u`` relative.
    """
    nh = n.hi
    gap = ((o - nh) - n.lo) / nh
    d = np.abs(np.log1p(gap))
    size = np.abs(gap)
    far = size > 0.5
    if far.any():
        d[far] = np.abs(np.log(o[far] / nh[far]))
    # o·sign(n) > 0: both nonzero with one sign; nan fails it.
    decided = o * np.sign(nh) > 0.0
    decided &= np.isfinite(d)
    decided &= size <= 1e300
    return d, ~decided


# --------------------------------------------------------------------------
# Screens and guards
# --------------------------------------------------------------------------


def range_suspect(x: DD) -> Array:
    """Rows where the dd soundness arguments stop holding.

    Flags non-finite components (overflowed kernels, nan garbage),
    magnitudes beyond :data:`~repro.semantics.eft.OVERFLOW_LIMIT` (subsequent splits or
    three-factor witness products may overflow), and nonzero magnitudes
    beneath :data:`~repro.semantics.eft.UNDERFLOW_LIMIT` (subnormal territory where the EFT
    error terms are no longer exact).  ``Decimal``'s exponent range
    covers all of these, so flagged rows are handed to the per-row
    ``Decimal`` reference by the engine.

    One clamp tests both magnitude limits: ``|hi|`` survives clamping
    to ``[eft.UNDERFLOW_LIMIT, eft.OVERFLOW_LIMIT]`` unchanged iff it lies in
    that range, and nan never compares equal.  Adding ``lo·0`` (``±0``
    for finite ``lo``, nan otherwise) folds ``lo``'s finiteness into
    the same test.
    """
    a = np.abs(x.hi)
    a += x.lo * 0.0
    clamped = np.maximum(a, eft.UNDERFLOW_LIMIT)
    np.minimum(clamped, eft.OVERFLOW_LIMIT, out=clamped)
    bad = clamped != a
    bad &= a != 0.0
    return bad


def where(mask: Array, left: Union[DD, Array], right: Union[DD, Array]) -> DD:
    """Elementwise row-select between dd values (exact, per component)."""
    dl, dr = as_dd(left), as_dd(right)
    return DD(np.where(mask, dl.hi, dr.hi), np.where(mask, dl.lo, dr.lo))


def _delta_tree(value, forward):
    """``value`` as a ``δ`` tree over ``forward`` (``_EXACT`` where it
    *is* the forward array): ``δ = (value - x)/x``, with ``value.hi - x``
    exact by Sterbenz's lemma wherever the two are within a factor 2.
    Structure the forward tree does not share is kept as is, so the
    closeness screen reports it as a mismatch."""
    if value is forward:
        return _EXACT
    if isinstance(value, _BPair) and isinstance(forward, _BPair):
        return _BPair(_delta_tree(value.left, forward.left),
                      _delta_tree(value.right, forward.right))
    if isinstance(value, _BSum) and isinstance(forward, _BSum):
        def side(v, f):
            if v is None:
                return None
            return _EXACT if f is None else _delta_tree(v, f)
        return _BSum(value.mask, side(value.left, forward.left),
                     side(value.right, forward.right))
    if isinstance(forward, np.ndarray):
        if isinstance(value, DD):
            return ((value.hi - forward) + value.lo) / forward
        if isinstance(value, np.ndarray):
            return (value - forward) / forward
    return value

