"""Reference batch phases 2-4: Decimal object arrays, the exact path.

:class:`repro.semantics.batch.BatchWitnessEngine` screens phases 2-4 of
a batch witness (backward sweep, ideal re-evaluation, distance checks)
in floating point, and settles every row the screen cannot decide
through the per-row scalar reference.  :class:`DecimalBatchEngine` runs
the same phases as vectorized 50-digit ``Decimal`` computations
instead — the arithmetic of the scalar primitives, one object array per
op — and never consults the scalar reference for a clean row.  It
shares phase 1 (the float64 forward sweep and its risk mask) with the
engine and the value-form ``_backward(…, arith)`` sweep with
:class:`oracles.batch_dd_ref.DdBatchEngine`, overriding only
:meth:`_finish`; the three must agree with each other, and with looping
:func:`repro.semantics.witness.run_witness`, on every observable —
verdicts, exact-match flags, per-parameter maxima, per-row reports,
captured errors, ``fallback_rows`` and the rendered ``rows`` section.

A Decimal signal on the batch (a zero divisor or negative radicand in
a witness formula, which the risk mask keeps off every Bean input) or
structure the sweep does not model re-certifies the whole batch
through the scalar loop, as the engine does for
``_Unvectorizable`` structure.
"""

from __future__ import annotations

import decimal
from decimal import Decimal
from typing import Dict, List

import numpy as np

from repro.lam_s.values import UNIT_VALUE, Value, VInl, VInr, VNum, VPair, values_close
from repro.semantics.batch import (
    _BPair,
    _BSum,
    _BUNIT,
    BatchWitnessReport,
    _mask_all,
    _rendered_distances,
    _tree_leaves,
    _Unvectorizable,
)
from repro.semantics.lens import LensDomainError
from repro.semantics.primitives import BACKWARD_PRECISION
from repro.semantics.spaces import DISTANCE_PRECISION, INF, render_row_distance
from repro.semantics.witness import ParamWitness, WitnessReport
from repro.ir import lower as L

from oracles.batch_dd_ref import DdBatchEngine, _materialize_b, _materialize_mixed

__all__ = ["DecimalBatchEngine", "run_witness_batch_ref"]

_DEC_ZERO = Decimal(0)
_DEC_ONE = Decimal(1)

_to_dec = np.frompyfunc(Decimal, 1, 1)
_sqrt = np.frompyfunc(lambda d: d.sqrt(), 1, 1)


def _map_values(tree, fn):
    """Map ``fn`` over the numeric leaf arrays of a batched tree."""
    if isinstance(tree, _BPair):
        return _BPair(_map_values(tree.left, fn), _map_values(tree.right, fn))
    if isinstance(tree, _BSum):
        left = None if tree.left is None else _map_values(tree.left, fn)
        right = None if tree.right is None else _map_values(tree.right, fn)
        return _BSum(tree.mask, left, right)
    if tree is _BUNIT:
        return tree
    return fn(tree)


class DecimalBatchEngine(DdBatchEngine):
    """:class:`BatchWitnessEngine` with phases 2-4 on Decimal arrays."""

    def _finish(self, columns, n_rows: int, clean: np.ndarray,
                fallback: np.ndarray, fsel,
                suspect: np.ndarray) -> BatchWitnessReport:
        try:
            return self._finish_decimal(columns, n_rows, clean, fallback, fsel)
        except (decimal.InvalidOperation, decimal.DivisionByZero) as exc:
            raise _Unvectorizable("Decimal signal in the batch sweep") from exc

    def _finish_decimal(self, columns, n_rows: int, clean: np.ndarray,
                        fallback: np.ndarray, fsel) -> BatchWitnessReport:
        ir = self.ir
        # Phase 2: backward reverse sweep (Decimal object arrays).
        # Targets stay float arrays while they are pure identity defaults
        # and become Decimal arrays once a witness formula computes them —
        # mirroring the scalar path, whose default targets are the float
        # approximants and whose computed targets are Decimals.
        ambient = decimal.getcontext()
        # Decimal conversions share the same id-keyed memoization as the
        # engine's row selections (see _run_vectorized).
        dec_cache: Dict[int, object] = {}
        dec_memo: Dict[int, np.ndarray] = {}

        def _dec_leaf(a):
            r = dec_memo.get(id(a))
            if r is None:
                r = _to_dec(a)
                dec_memo[id(a)] = r
            return r

        def dec(slot: int):
            cached = dec_cache.get(slot)
            if cached is None:
                cached = _map_values(fsel(slot), _dec_leaf)
                dec_cache[slot] = cached
            return cached

        arith = _DecArith(ambient)
        with decimal.localcontext() as ctx:
            ctx.prec = BACKWARD_PRECISION
            targets: List = [None] * ir.n_slots
            self._backward(ir.ops, fsel, dec, targets, arith)
        # The per-parameter perturbed trees.  Leaves the backward sweep
        # never targeted keep their original float arrays — the scalar
        # path leaves those env entries untouched, and reports must match
        # it representation-for-representation.
        perturbed: Dict[str, object] = {}
        for p in ir.params:
            if p.discrete:
                perturbed[p.name] = fsel(p.slot)
            else:
                perturbed[p.name] = _materialize_mixed(targets[p.slot], fsel(p.slot))

        # Phase 3: ideal re-evaluation of the perturbed inputs.  Slots
        # keep the perturbed representation (floats where the backward
        # sweep never targeted) and convert to Decimal only where an
        # arithmetic op consumes them — exactly the scalar interpreter's
        # behavior, so pass-through results keep their float identity.
        # Conversions reuse the phase-2 memo: a pass-through leaf the
        # backward sweep already converted (or several ops consume) is
        # converted at most once per distinct array — conversion is
        # exact, so sharing cannot change bits.
        ivals: List = [None] * ir.n_slots
        for p in ir.params:
            ivals[p.slot] = perturbed[p.name]
        self._ideal_dec(ir.ops, ivals, clean.size, dec_memo)
        ideal_result = ivals[ir.result]

        # Phase 4: verdicts and distances.
        exact = np.zeros(n_rows, dtype=bool)
        approx_sel = fsel(ir.result)
        closeness = np.ones(clean.size, dtype=bool)
        _close_rows(ideal_result, approx_sel, closeness,
                    np.ones(clean.size, dtype=bool))
        exact[clean] = closeness

        sound = np.zeros(n_rows, dtype=bool)
        within_all = closeness.copy()
        distances: Dict[str, object] = {}
        max_dist: Dict[str, Decimal] = {}
        with decimal.localcontext() as ctx:
            ctx.prec = DISTANCE_PRECISION
            for p in ir.params:
                if p.discrete:
                    distances[p.name] = np.full(clean.size, _DEC_ZERO, dtype=object)
                    max_dist[p.name] = _DEC_ZERO
                    continue
                d = self._param_distances(
                    fsel(p.slot), perturbed[p.name], dec(p.slot),
                    ivals[p.slot], clean.size, _dec_leaf,
                )
                distances[p.name] = d
                bound = self._bounds[p.name]
                within_all &= (d <= bound).astype(bool)
                max_dist[p.name] = max(d, default=_DEC_ZERO) if d.size else _DEC_ZERO
        sound[clean] = within_all

        reports, errors = self._scalar_fallback_rows(
            columns, fallback, sound, exact, max_dist
        )
        clean_pos = {int(row): j for j, row in enumerate(clean)}

        row_tuples = None
        if self.collect_rows:
            def _row_distances(i: int) -> Dict[str, str]:
                rep = reports.get(i)
                if rep is not None:  # scalar-fallback row
                    return _rendered_distances(rep)
                j = clean_pos[i]
                return {
                    p.name: render_row_distance(distances[p.name][j])
                    for p in self.definition.params
                }

            row_tuples = self._row_tuples(
                n_rows, sound, exact, errors, _row_distances
            )

        def materialize(i: int) -> WitnessReport:
            rep = reports.get(i)
            if rep is not None:
                return rep
            j = clean_pos[i]
            approx_v = _row_value(approx_sel, j)
            ideal_v = _row_value(ideal_result, j)
            params: Dict[str, ParamWitness] = {}
            for p in self.definition.params:
                orig = _row_value(fsel(_slot_of(ir, p.name)), j)
                new = _row_value(perturbed[p.name], j)
                params[p.name] = ParamWitness(
                    p.name,
                    orig,
                    new,
                    distances[p.name][j],
                    self._bounds[p.name],
                    self._grades[p.name],
                )
            return WitnessReport(approx_v, ideal_v, bool(exact[i]), params)

        return BatchWitnessReport(
            self.definition,
            n_rows,
            sound,
            exact,
            errors,
            materialize,
            max_dist,
            dict(self._bounds),
            fallback_rows=int(fallback.size),
            rows=row_tuples,
        )

    def _ideal_dec(self, ops, vals: List, n: int,
                   dec_memo: Dict[int, np.ndarray]) -> None:
        prec = self.lens.precision

        def lift(v):
            if isinstance(v, np.ndarray) and v.dtype != object:
                r = dec_memo.get(id(v))
                if r is None:
                    r = _to_dec(v)
                    dec_memo[id(v)] = r
                return r
            return v

        for op in ops:
            code = op.code
            if L.ADD <= code <= L.DMUL:
                with decimal.localcontext() as ctx:
                    ctx.prec = prec
                    # Operand conversion is exact (cf. to_decimal), so
                    # doing it lazily here matches the scalar ⇓_id bits
                    # — and memoizing by array identity converts each
                    # pass-through leaf at most once, however many ops
                    # consume it.
                    a, b = lift(vals[op.a]), lift(vals[op.b])
                    if code == L.ADD:
                        vals[op.dest] = a + b
                    elif code == L.SUB:
                        vals[op.dest] = a - b
                    elif code == L.DIV:
                        if bool(np.asarray(b == _DEC_ZERO, dtype=bool).any()):
                            # ⇓_id maps a zero divisor to inr (); screened
                            # rows can't reach it, so don't model it.
                            raise _Unvectorizable("ideal division by zero")
                        vals[op.dest] = _BSum(
                            np.ones(n, dtype=bool), a / b, _BUNIT
                        )
                    else:  # MUL / DMUL
                        vals[op.dest] = a * b
            elif code in (L.DVAR, L.BANG, L.RND):
                vals[op.dest] = vals[op.a]  # rnd is the identity in ⇓_id
            elif code == L.PAIR:
                vals[op.dest] = _BPair(vals[op.a], vals[op.b])
            elif code == L.FST:
                vals[op.dest] = vals[op.a].left
            elif code == L.SND:
                vals[op.dest] = vals[op.a].right
            elif code == L.CONST:
                vals[op.dest] = np.full(n, Decimal(op.aux), dtype=object)
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
                self._ideal_dec(region.ops, vals, n, dec_memo)
                vals[op.dest] = vals[region.result]
            else:  # pragma: no cover - CALL is rewritten away or unvectorized
                raise _Unvectorizable(f"opcode {code} is not vectorizable")

    def _param_distances(self, fsel_tree, mixed_tree, dec_orig_tree,
                         dec_new_tree, n: int, dec_leaf):
        """Vectorized ``type_distance`` for plain (slack-0) value trees.

        For a zero-slack tensor tree the distance is the max over leaf RP
        distances, and only that max is reported, so exact 60-digit
        ``ln`` evaluation is needed only for the leaves that can attain
        it.  A float64 approximation (absolute error ~4e-16, vastly
        inside the 1e-3-relative + 1e-15-absolute candidate band) screens
        the leaves; the reported Decimal max is then computed with the
        exact scalar formula over the candidates, so it is bitwise equal
        to the scalar path's ``type_distance``.  Leaves the backward
        sweep never perturbed contribute an exact 0 (``ln(x/x)``).
        """
        orig_leaves = _tree_leaves(fsel_tree, [])
        new_leaves = _tree_leaves(mixed_tree, [])
        dec_orig = _tree_leaves(dec_orig_tree, [])
        dec_new = _tree_leaves(dec_new_tree, [])
        k = len(orig_leaves)
        out = np.full(n, _DEC_ZERO, dtype=object)
        approx = np.zeros((k, n))
        anomalous = np.zeros((k, n), dtype=bool)
        perturbed_leaf = np.zeros(k, dtype=bool)
        for j in range(k):
            o, nw = orig_leaves[j], new_leaves[j]
            if nw is o:
                continue  # untargeted leaf: d = |ln(x/x)| = 0 exactly
            perturbed_leaf[j] = True
            nf = nw.astype(np.float64)
            bad = (o == 0.0) | (nf == 0.0) | ((o > 0.0) != (nf > 0.0))
            do, dn = dec_orig[j], dec_new[j]
            if dn.dtype != object:
                # A float perturbed leaf (e.g. rnd's backward map hands
                # the rounded approximant through under reduced
                # precision): convert exactly, like the scalar
                # to_decimal, before the Decimal screening arithmetic.
                # Stored back so the exact candidate pass below sees
                # Decimals too; conversion goes through the shared
                # id-keyed memo, so a leaf the other phases already
                # converted is not converted again.
                dn = dec_new[j] = dec_leaf(dn)
            # Perturbations are relative ~1e-16..1e-13 — far below what a
            # float ratio can resolve.  A 12-digit Decimal difference
            # captures them exactly enough for screening (~1e-11 relative
            # error), at a tenth the cost of the 60-digit exact ln.
            with decimal.localcontext() as ctx:
                ctx.prec = 12
                if bad.any():
                    dn = np.where(bad, _DEC_ONE, dn)
                    do = np.where(bad, _DEC_ONE, do)
                delta = (do - dn) / dn
            with np.errstate(all="ignore"):
                a = np.abs(np.log1p(delta.astype(np.float64)))
            ok = np.isfinite(a) & ~bad
            approx[j] = np.where(ok, a, 0.0)
            anomalous[j] = ~ok
        if not perturbed_leaf.any():
            return out
        max_approx = approx.max(axis=0)
        band = 1e-300 + 1e-6 * max_approx
        candidates = (approx >= (max_approx - band)[None, :]) & perturbed_leaf[
            :, None
        ]
        candidates |= anomalous
        for j in np.flatnonzero(candidates.any(axis=1)):
            do, dn = dec_orig[j], dec_new[j]
            for i in np.flatnonzero(candidates[j]):
                d = _rp_exact(do[i], dn[i])
                if d > out[i]:
                    out[i] = d
        return out


class _DecArith:
    """Backward/ideal kernels on Decimal object arrays (the reference).

    Formula bodies are verbatim from the pre-refactor sweep: expression
    order and working precision match
    :mod:`repro.semantics.primitives`, so results are bitwise equal to
    the scalar path.
    """

    def __init__(self, ambient: decimal.Context) -> None:
        self.ambient = ambient

    @staticmethod
    def ensure(tree):
        return _ensure_dec(tree)

    def add_backward(self, x1, x2, x3):
        s = x1 + x2
        return x3 * x1 / s, x3 * x2 / s

    def sub_backward(self, x1, x2, x3):
        d = x1 - x2
        return x3 * x1 / d, x3 * x2 / d

    def mul_backward(self, x1, x2, x3):
        p = x1 * x2
        scale = _sqrt(x3 / p)
        return x1 * scale, x2 * scale

    def dmul_backward(self, x1, x3):
        return x3 / x1

    def div_backward(self, x1, x2, x3):
        """Appendix C Div: signed square-root witnesses, as array ops.

        The target lives in ``num + unit``; screened rows all divided
        successfully, so a well-formed target is an all-``inl`` batched
        sum whose payload is the quotient target (the sweep unwraps it
        before calling here).  Operand signs carry to the witnesses
        exactly as in ``div_backward``.
        """
        magnitude1 = _sqrt(np.abs(x1 * x2 * x3))
        magnitude2 = _sqrt(np.abs(x1 * x2 / x3))
        pos1 = np.asarray(x1 > _DEC_ZERO, dtype=bool)
        pos2 = np.asarray(x2 > _DEC_ZERO, dtype=bool)
        return (
            np.where(pos1, magnitude1, -magnitude1),
            np.where(pos2, magnitude2, -magnitude2),
        )

    def verify_discrete(self, name: str, current, target) -> None:
        """Discrete variables absorb no error (per-element check).

        Mirrors the scalar interpreter's ``values_close`` test, run under
        the ambient context the scalar path would have used.
        """
        if target is current:
            return
        leaves_cur = _tree_leaves(current, [])
        leaves_tgt = _tree_leaves(_materialize_b(target, current), [])
        with decimal.localcontext(self.ambient):
            for cur, tgt in zip(leaves_cur, leaves_tgt):
                if cur is tgt:
                    continue
                for c, t in zip(cur, tgt):
                    if c is not t and not values_close(VNum(c), VNum(t)):
                        raise LensDomainError(
                            f"discrete variable {name!r} cannot absorb "
                            f"error: {VNum(c)!r} vs target {VNum(t)!r}"
                        )


def _close_rows(ideal, approx, out: np.ndarray, active: np.ndarray) -> None:
    """Row-wise ``values_close`` over batched value trees (``&=`` into out).

    ``active`` restricts which rows a subtree is live on (sums narrow it
    to the rows whose tags select each payload).
    """
    if isinstance(approx, _BPair) and isinstance(ideal, _BPair):
        _close_rows(ideal.left, approx.left, out, active)
        _close_rows(ideal.right, approx.right, out, active)
        return
    if isinstance(approx, _BSum) and isinstance(ideal, _BSum):
        am, im = approx.mask, ideal.mask
        out &= ~active | ~(am ^ im)
        both_inl = active & am & im
        both_inr = active & ~am & ~im
        if bool(both_inl.any()):
            if ideal.left is None or approx.left is None:
                out &= ~both_inl
            else:
                _close_rows(ideal.left, approx.left, out, both_inl)
        if bool(both_inr.any()):
            if ideal.right is None or approx.right is None:
                out &= ~both_inr
            else:
                _close_rows(ideal.right, approx.right, out, both_inr)
        return
    if approx is _BUNIT and ideal is _BUNIT:
        return
    if isinstance(approx, np.ndarray) and isinstance(ideal, np.ndarray):
        for j in np.flatnonzero(active & out):
            if not values_close(VNum(ideal[j]), VNum(approx[j])):
                out[j] = False
        return
    out &= ~active  # structural mismatch: not close on any live row


def _slot_of(ir, name: str) -> int:
    for p in ir.params:
        if p.name == name:
            return p.slot
    raise KeyError(name)


def _row_value(tree, i: int) -> Value:
    """Extract row ``i`` of a batched tree as a scalar Value."""
    if isinstance(tree, _BPair):
        return VPair(_row_value(tree.left, i), _row_value(tree.right, i))
    if isinstance(tree, _BSum):
        if bool(tree.mask[i]):
            return VInl(_row_value(tree.left, i))
        return VInr(_row_value(tree.right, i))
    if tree is _BUNIT:
        return UNIT_VALUE
    x = tree[i]
    if isinstance(x, Decimal):
        return VNum(x)
    return VNum(float(x))


def _dec_array(a: np.ndarray) -> np.ndarray:
    """Exact float->Decimal conversion of one leaf array."""
    return a if a.dtype == object else _to_dec(a)


def _ensure_dec(tree):
    """Exact float->Decimal conversion of any float leaves (cf. as_decimal)."""
    return _map_values(tree, _dec_array)


def _rp_exact(dx: Decimal, dy: Decimal) -> Decimal:
    """The RP metric (Equation 5) — the scalar formula, verbatim.

    Runs under the caller's 60-digit distance context, like
    :func:`repro.semantics.spaces.rp_distance`.
    """
    if dx == 0 and dy == 0:
        return _DEC_ZERO
    if dx == 0 or dy == 0 or (dx > 0) != (dy > 0):
        return INF
    return abs((dx / dy).ln())


def run_witness_batch_ref(definition, inputs, *, program=None, **engine_options):
    """:func:`repro.semantics.batch.run_witness_batch` on the reference."""
    return DecimalBatchEngine(definition, program, **engine_options).run(inputs)
