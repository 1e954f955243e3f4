"""A vectorized batch engine for backward error witnesses.

:func:`repro.semantics.witness.run_witness` certifies Theorem 3.1 on one
concrete input.  Auditing a kernel in production means certifying it on
*thousands* of inputs; running the scalar pipeline in a loop re-pays the
whole interpreter overhead per environment.  :class:`BatchWitnessEngine`
runs the same four-phase pipeline over ``N`` environments at once on the
flat IR:

1. **approximate forward sweep** — one NumPy ``float64`` array op per IR
   instruction (bit-identical to the scalar evaluator: IEEE arithmetic is
   deterministic, and reduced-precision simulation uses the same
   frexp/round-half-even/ldexp construction, vectorized);
2. **backward sweep** — one reverse pass whose per-op witness formulas
   (Appendix C) run in *perturbation form*: every value is its
   binary64 forward value times ``(1 + δ)``, and each op's exact
   rounding error ``η`` (from a TwoSum or TwoProd) turns a witness
   formula into a few float64 ufunc calls on ``δ`` and ``η``
   (:mod:`repro.semantics.eft`; no Python-level dispatch);
3. **ideal re-evaluation** of the perturbed inputs (Property 2), in the
   same form, reusing each op's ``η``;
4. **distance checks** — float64 *screens with provable margins* of
   the relative-precision distances against the inferred grade bounds.
   Every row the screen cannot settle within its stated error bound,
   and every exact number that reaches a report, is decided by the
   per-row scalar reference (the 50-digit :func:`run_witness`), so the
   engine is bit-for-bit equal to looping :func:`run_witness` (the
   parity harness enforces this).  Rows where the screen leaves its
   validated domain — a forward value outside the EFT range, a root of
   a non-positive ratio, a zeroed ideal divisor, a discrete target that
   is not exactly unperturbed — are marked suspect and settled by the
   same per-row reference.  Per-row distances in the ``rows`` section
   render at 8 significant digits, which the screen certifies itself
   on nearly every row.

The vectorized fragment is the whole language:

* ``div`` screens per row — zero divisors and vanishing/overflowing
  quotients divert *those rows* (not the batch) to the scalar path, and
  the surviving rows run the Appendix C square-root witness as array
  expressions;
* ``case``/``inl``/``inr`` evaluate with branch masks: sum values are
  batched as a per-row tag mask plus payload trees, both branch regions
  execute in the forward sweep (inactive rows compute masked-out
  garbage), and the backward/ideal sweeps — which only see screened
  rows, whose branch tags are provably uniform — thread targets through
  the taken region exactly as the scalar reverse sweep does;
* ``call`` is rewritten away up front by :mod:`repro.ir.inline`; only
  calls an inlining guard refused (unknown callee, arity mismatch,
  recursion, size cap) drop the batch to the scalar loop;
* stochastic rounding vectorizes because each rounding decision is a
  pure function of (seed, op, operand bits), not of a sequential RNG
  stream: the forward sweep replays the per-row decision RNG exactly
  and every other phase is rounding-mode independent.

Rows whose forward values are exactly zero or non-finite — where the
primitive backward maps' sign analyses could legitimately fail — fall
back to the scalar :func:`run_witness` row-by-row.  Per-row failures on
a fallback or rechecked row — a ``LensDomainError``, or a Decimal
signal from non-finite data inside the primitive backward maps — are
captured in the report rather than aborting the other rows.  Structure
the array pipeline does not model (mixed branch tags on screened rows,
sum-typed discrete data, literals binary64 cannot hold) and lenses
whose ideal precision is not the 50-digit reference the screens are
calibrated against run the whole batch through the scalar loop, so
results match it on every program.

Reports are *aggregated*: verdict arrays, per-parameter worst distances,
and lazy per-row :class:`~repro.semantics.witness.WitnessReport`
materialization via indexing.
"""

from __future__ import annotations

import decimal
import math
import random
from decimal import Decimal
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..core import ast_nodes as A
from ..core.grades import BINARY64_UNIT_ROUNDOFF, Grade, ZERO
from ..core.types import Discrete, Num, Tensor, Type, Unit, is_discrete
from ..ir import lower as L
from ..ir.cache import IdentityCache, inlined_definition_ir, semantic_definition_ir
from ..lam_s.eval import EvalError, stochastic_round
from . import eft
from .interp import BeanLens, lens_of_definition
from .lens import LensDomainError
from .primitives import BACKWARD_PRECISION
from .spaces import ROW_DISTANCE_DIGITS, grade_bound, render_row_distance
from .witness import WitnessReport, run_witness, witness_distances

__all__ = ["BatchWitnessEngine", "BatchWitnessReport", "run_witness_batch"]

_DEC_ZERO = Decimal(0)

#: Exceptions a single environment can legitimately raise on the scalar
#: path — captured per row rather than aborting the batch.  Decimal
#: signals arise from non-finite/degenerate inputs inside the primitive
#: backward maps (e.g. ``inf/inf``); ``EvalError`` from ill-shaped data.
_ROW_ERRORS = (
    LensDomainError,
    EvalError,
    decimal.InvalidOperation,
    decimal.DivisionByZero,
    decimal.Overflow,
)

class _Unvectorizable(Exception):
    """The batch hit structure the array pipeline does not model.

    Raising it aborts the vectorized attempt; the engine re-certifies
    the whole batch with the (bit-identical) scalar loop, so this is a
    performance event, never a correctness one.
    """


class _BPair:
    """A batched pair value: a tree whose leaves are arrays."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


class _BSum:
    """A batched sum value: a per-row tag mask plus payload trees.

    ``mask`` is a boolean row array, ``True`` where the row is ``inl``.
    A payload side is ``None`` when no constructor ever produced it
    (``inl e`` carries no right payload); by construction no row's tag
    can select a ``None`` side.
    """

    __slots__ = ("mask", "left", "right")

    def __init__(self, mask, left, right):
        self.mask = mask
        self.left = left
        self.right = right


class _BUnit:
    """The batched unit value (a singleton; carries no rows)."""

    __slots__ = ()


_BUNIT = _BUnit()


class _BPartial:
    """A batched pair target under construction (cf. interp._PartialPair)."""

    __slots__ = ("left", "right")

    def __init__(self):
        self.left = None
        self.right = None


# --------------------------------------------------------------------------
# Type-directed packing between row arrays and Value trees
# --------------------------------------------------------------------------


def _leaf_count(ty: Type) -> int:
    if isinstance(ty, Num):
        return 1
    if isinstance(ty, Discrete):
        return _leaf_count(ty.inner)
    if isinstance(ty, Tensor):
        return _leaf_count(ty.left) + _leaf_count(ty.right)
    if isinstance(ty, Unit):
        return 0
    raise TypeError(f"cannot batch parameters of type {ty}")


def _pack_columns(ty: Type, columns: List, offset: int = 0):
    """Build the batched value tree for ``ty`` from leaf column arrays."""
    if isinstance(ty, Num):
        return columns[offset], offset + 1
    if isinstance(ty, Discrete):
        return _pack_columns(ty.inner, columns, offset)
    if isinstance(ty, Tensor):
        left, offset = _pack_columns(ty.left, columns, offset)
        right, offset = _pack_columns(ty.right, columns, offset)
        return _BPair(left, right), offset
    raise TypeError(f"cannot batch parameters of type {ty}")


#: Elements (leaves x rows) in one block of the 2-D batch stages: the
#: leaf-major input copy with its range checks, and the distance screen.
#: 32k float64 values are 256 KB, well inside a core's L2 cache, where a
#: whole (leaves x rows) matrix at a few thousand rows is not.  16k and
#: 64k measured within noise of it (benchmarks/results/
#: perfbench-ab-cache-blocks.txt).
_BLOCK = 32768


def _leaf_major(arr: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """An ``(N, k)`` input as a ``(k, N)`` leaf-major matrix, plus each
    row's largest and smallest ``|leaf|`` (``high``, ``low``; nan where
    the row holds a nan).

    The copy runs in row blocks of at most ``_BLOCK`` elements, and each
    block's extremes are taken while it is still in cache.  A row with no
    leaves reads ``high = 0`` and ``low = inf``, which no range check
    flags.
    """
    n, k = arr.shape
    leaves = np.empty((k, n))
    high = np.zeros(n)
    low = np.full(n, np.inf)
    if k == 0:
        return leaves, high, low
    step = max(1, _BLOCK // k)
    size = np.empty((k, min(step, n)))
    for lo in range(0, n, step):
        rows = slice(lo, lo + step)
        block = leaves[:, rows]
        np.copyto(block, arr[rows].T)
        magnitude = np.abs(block, out=size[:, :block.shape[1]])
        magnitude.max(axis=0, out=high[rows])
        magnitude.min(axis=0, out=low[rows])
    return leaves, high, low


def _select_rows(tree, select):
    """Apply the row selection ``select`` to every leaf array and tag mask."""
    if isinstance(tree, _BPair):
        return _BPair(_select_rows(tree.left, select),
                      _select_rows(tree.right, select))
    if isinstance(tree, _BSum):
        left = None if tree.left is None else _select_rows(tree.left, select)
        right = None if tree.right is None else _select_rows(tree.right, select)
        return _BSum(select(tree.mask), left, right)
    if tree is _BUNIT:
        return tree
    return select(tree)


def _tree_leaves(tree, out: List) -> List:
    """Numeric leaf arrays of a pair tree (sums/units are not leaves)."""
    if isinstance(tree, _BPair):
        _tree_leaves(tree.left, out)
        _tree_leaves(tree.right, out)
    elif isinstance(tree, _BSum) or tree is _BUNIT:
        raise _Unvectorizable("sum/unit data outside the numeric fragment")
    else:
        out.append(tree)
    return out


def _merge_masked(mask: np.ndarray, left, right):
    """Row-select between two batched trees (``mask`` True picks left)."""
    if right is None:
        return left
    if left is None:
        return right
    if isinstance(left, _BPair) and isinstance(right, _BPair):
        return _BPair(
            _merge_masked(mask, left.left, right.left),
            _merge_masked(mask, left.right, right.right),
        )
    if isinstance(left, _BSum) and isinstance(right, _BSum):
        return _BSum(
            np.where(mask, left.mask, right.mask),
            _merge_masked(mask, left.left, right.left),
            _merge_masked(mask, left.right, right.right),
        )
    if left is _BUNIT and right is _BUNIT:
        return _BUNIT
    if isinstance(left, np.ndarray) and isinstance(right, np.ndarray):
        return np.where(mask, left, right)
    raise _Unvectorizable("case branches produced incompatible batched shapes")


def _mask_all(mask: np.ndarray) -> bool:
    return bool(mask.all())


# --------------------------------------------------------------------------
# The aggregated report
# --------------------------------------------------------------------------


class BatchWitnessReport:
    """Aggregated outcome of a batch witness run over ``n_rows`` inputs.

    Per-row :class:`WitnessReport` objects are materialized lazily via
    indexing (``report[i]``); rows that raised (e.g. a lens domain error)
    re-raise on access and are recorded in :attr:`errors`.
    """

    def __init__(
        self,
        definition: A.Definition,
        n_rows: int,
        sound: np.ndarray,
        exact: np.ndarray,
        errors: Dict[int, BaseException],
        materialize,
        param_max_distance: Dict[str, Decimal],
        param_bound: Dict[str, Decimal],
        fallback_rows: int,
        rows: Optional[List[tuple]] = None,
        rechecked_rows: int = 0,
    ) -> None:
        self.definition = definition
        self.n_rows = n_rows
        self.sound = sound  #: per-row soundness verdicts (False where errored)
        self.exact = exact  #: per-row Property-2 verdicts
        self.errors = errors
        self._materialize = materialize
        self.param_max_distance = param_max_distance
        self.param_bound = param_bound
        self.fallback_rows = fallback_rows
        #: Per-row witness tuples ``(row, sound, exact, {param: rendered
        #: distance}, error-or-None)``, materialized only when the engine
        #: ran with ``collect_rows=True`` (the schema-v5 ``rows``
        #: section); ``None`` otherwise.  Distances are final strings
        #: (:func:`~repro.semantics.spaces.render_row_distance`), so
        #: every path, shard and stream chunk emits the same bytes.
        #: Picklable, so shards and chunked streams can carry them
        #: across processes.
        self.rows = rows
        #: Clean rows (not ``fallback_rows``) whose verdicts, exact max
        #: distances or rendered row distances the screen left to the
        #: scalar reference — the screen's efficiency.  In-process only:
        #: never serialized.
        self.rechecked_rows = rechecked_rows

    # -- aggregates --------------------------------------------------------

    @property
    def all_sound(self) -> bool:
        """Did every row satisfy the backward error soundness theorem?"""
        return len(self.errors) == 0 and bool(self.sound.all())

    @property
    def sound_count(self) -> int:
        return int(self.sound.sum())

    def __len__(self) -> int:
        return self.n_rows

    def __getitem__(self, i: int) -> WitnessReport:
        if i < 0:
            i += self.n_rows
        if not 0 <= i < self.n_rows:
            raise IndexError(i)
        err = self.errors.get(i)
        if err is not None:
            raise err
        return self._materialize(i)

    def __iter__(self):
        for i in range(self.n_rows):
            yield self[i]

    def describe(self) -> str:
        lines = [
            f"batch witness: {self.definition.name}",
            f"rows               : {self.n_rows} "
            f"({self.fallback_rows} via scalar fallback)",
            f"sound              : {self.sound_count}/{self.n_rows}"
            + (f" ({len(self.errors)} raised)" if self.errors else ""),
        ]
        for name, dist in self.param_max_distance.items():
            bound = self.param_bound[name]
            status = "ok" if dist <= bound else "VIOLATION"
            lines.append(
                f"  {name}: max d = {dist:.3e} <= {bound:.3e}  [{status}]"
            )
        return "\n".join(lines)


# --------------------------------------------------------------------------
# The engine
# --------------------------------------------------------------------------


class BatchWitnessEngine:
    """Run the soundness theorem over many environments at once."""

    def __init__(
        self,
        definition: A.Definition,
        program: Optional[A.Program] = None,
        *,
        u: float = BINARY64_UNIT_ROUNDOFF,
        rounding: str = "nearest",
        seed: int = 0,
        precision_bits: int = 53,
        lens: Optional[BeanLens] = None,
        collect_rows: bool = False,
    ) -> None:
        self.definition = definition
        self.program = program
        self.u = u
        self.collect_rows = collect_rows
        if lens is not None:
            # A caller-provided lens defines the arithmetic; adopting its
            # configuration keeps the vectorized sweep and the scalar
            # fallback rows on the same semantics (and the same bits).
            self.lens = lens
            self.rounding = lens.rounding
            self.seed = lens.seed
            self.precision_bits = lens.precision_bits
        else:
            self.rounding = rounding
            self.seed = seed
            self.precision_bits = precision_bits
            self.lens = lens_of_definition(
                definition,
                program=program,
                rounding=rounding,
                seed=seed,
                precision_bits=precision_bits,
            )
        self.ir = semantic_definition_ir(definition)
        if self.ir.has_calls and program is not None:
            # Flatten defined-function calls so the array pipeline sees
            # through them; guarded calls survive and force the scalar
            # path (see repro.ir.inline).
            self.ir = inlined_definition_ir(definition, program)
        #: Whether this program runs through the vectorized pipeline.
        #: The op check is the whole language minus un-inlined calls;
        #: the param check excludes implicit (free-variable) parameters,
        #: which only the scalar environment lookup can resolve.  The
        #: screens are calibrated against the 50-digit reference
        #: semantics (the margins and the closeness certificate assume
        #: Decimal noise at ~1e-50·cond), so a lens of any other ideal
        #: precision runs the scalar loop, which honours it.
        self.vectorized = (
            bool(self.ir.vectorizable)
            and len(self.ir.params) == len(definition.params)
            and self.lens.precision == BACKWARD_PRECISION
        )
        self._grades: Dict[str, Grade] = {}
        self._bounds: Dict[str, Decimal] = {}
        self._screen: Optional[_ScreenBounds] = None
        for p in definition.params:
            if is_discrete(p.ty):
                self._grades[p.name] = ZERO
                self._bounds[p.name] = _DEC_ZERO
            else:
                g = self.lens.judgment.grade_of(p.name)
                self._grades[p.name] = g
                self._bounds[p.name] = grade_bound(g, u)

    # -- input handling ----------------------------------------------------

    def _columns(self, inputs: Mapping[str, Sequence]) -> Dict[str, np.ndarray]:
        """Normalize inputs to float64 arrays of shape (N, leaves)."""
        columns: Dict[str, np.ndarray] = {}
        n_rows = None
        for p in self.definition.params:
            if p.name not in inputs:
                raise KeyError(f"missing input for parameter {p.name!r}")
            arr = np.asarray(inputs[p.name], dtype=np.float64)
            k = _leaf_count(p.ty)
            if arr.ndim == 1 and arr.shape[0] == 0:
                # An empty environment *list* carries no per-row shape
                # to infer from; normalize it to zero rows of the right
                # width.  An explicitly 2-D empty keeps its width and
                # faces the same validation as non-empty input.
                arr = arr.reshape((0, max(k, 1)))
            if arr.ndim == 1:
                arr = arr[:, None]
            if arr.ndim != 2 or arr.shape[1] != k:
                raise ValueError(
                    f"input for {p.name!r} must have shape (N, {k}); "
                    f"got {arr.shape}"
                )
            if n_rows is None:
                n_rows = arr.shape[0]
            elif arr.shape[0] != n_rows:
                raise ValueError(
                    f"inconsistent batch sizes: {p.name!r} has "
                    f"{arr.shape[0]} rows, expected {n_rows}"
                )
            columns[p.name] = arr
        if n_rows is None:
            raise ValueError("definition has no parameters to batch over")
        return columns

    def _row_inputs(self, columns: Dict[str, np.ndarray], i: int) -> Dict:
        row: Dict[str, Union[float, List[float]]] = {}
        for p in self.definition.params:
            arr = columns[p.name]
            row[p.name] = float(arr[i, 0]) if arr.shape[1] == 1 else [
                float(x) for x in arr[i]
            ]
        return row

    # -- the pipeline ------------------------------------------------------

    def run(self, inputs: Mapping[str, Sequence]) -> BatchWitnessReport:
        """Witness every row of ``inputs`` (mapping param -> (N,)/(N,k))."""
        columns = self._columns(inputs)
        n_rows = next(iter(columns.values())).shape[0]
        if n_rows == 0:
            # Nothing to certify: an empty report, not a pile of
            # zero-size array ops.
            return self._run_scalar(columns, 0, ())
        if not self.vectorized:
            return self._run_scalar(columns, n_rows, range(n_rows))
        try:
            return self._run_vectorized(columns, n_rows)
        except _Unvectorizable:
            # The batch hit structure the array pipeline does not model:
            # certify everything the slow, per-row way rather than guess.
            return self._run_scalar(columns, n_rows, range(n_rows))

    # -- scalar fallback ---------------------------------------------------

    def _scalar_report(self, columns, i: int):
        return run_witness(
            self.definition,
            self._row_inputs(columns, i),
            program=self.program,
            u=self.u,
            lens=self.lens,
        )

    def _scalar_distances(self, columns, i: int) -> Dict[str, Decimal]:
        """Row ``i``'s exact distances, as :meth:`_scalar_report` would
        report them, without the reference's ideal re-evaluation."""
        return witness_distances(
            self.definition, self._row_inputs(columns, i), lens=self.lens
        )

    def _run_scalar(self, columns, n_rows: int, rows) -> BatchWitnessReport:
        """Witness ``rows``, every row, by the scalar reference alone."""
        sound = np.zeros(n_rows, dtype=bool)
        exact = np.zeros(n_rows, dtype=bool)
        max_dist = {p.name: _DEC_ZERO for p in self.definition.params}
        reports, errors = self._scalar_fallback_rows(
            columns, rows, sound, exact, max_dist
        )
        row_tuples = None
        if self.collect_rows:
            row_tuples = self._row_tuples(
                n_rows, sound, exact, errors,
                lambda i: _rendered_distances(reports[i]),
            )
        return BatchWitnessReport(
            self.definition,
            n_rows,
            sound,
            exact,
            errors,
            reports.__getitem__,
            max_dist,
            dict(self._bounds),
            fallback_rows=n_rows,
            rows=row_tuples,
        )

    def _row_tuples(self, n_rows: int, sound, exact, errors, distances_of):
        """The report's raw per-row witness tuples (``collect_rows``).

        ``distances_of(i)`` supplies the rendered per-parameter distances
        of non-error row ``i``; error rows carry the captured exception
        and no distances.
        """
        rows: List[tuple] = []
        for i, s, e in zip(range(n_rows), sound.tolist(), exact.tolist()):
            exc = errors.get(i)
            if exc is not None:
                rows.append((i, False, False, {}, exc))
            else:
                rows.append((i, s, e, distances_of(i), None))
        return rows

    # -- vectorized pipeline ----------------------------------------------

    def _run_vectorized(self, columns, n_rows: int) -> BatchWitnessReport:
        """Phase 1 over every row, then phases 2-4 on the clean ones.

        Each parameter's ``(N, k)`` input is copied once into a ``(k, N)``
        leaf-major matrix whose rows are the forward sweep's leaves, in
        row blocks of at most ``_BLOCK`` elements; each block's input
        range checks run while it is still in cache (:func:`_leaf_major`).
        """
        ir = self.ir
        # Phase 1: approximate forward sweep (float64 arrays); phases
        # 2-4 (_finish) run on the clean rows.  `span` accumulates each
        # row's smallest and largest forward |value|: a zero or
        # non-finite one makes the row risky (scalar fallback), one
        # outside the EFT range makes it suspect (settled per row).
        fvals: List = [None] * ir.n_slots
        risky = np.zeros(n_rows, dtype=bool)
        span = _Span(n_rows)
        out_of_range = span.out_of_range
        for p in ir.params:
            leaves, high, low = _leaf_major(columns[p.name])
            tree, _ = _pack_columns(p.ty, list(leaves))
            fvals[p.slot] = tree
            risky |= ~(high < np.inf)  # a nan or infinite input
            out_of_range |= high > eft.OVERFLOW_LIMIT
            # Zero inputs too: the reference compares exact zeros there.
            out_of_range |= low < eft.UNDERFLOW_LIMIT
        self._forward_approx(ir.ops, fvals, risky, np.ones(n_rows, dtype=bool),
                             False, span)
        risky |= ~(span.low > 0.0)
        risky |= ~(span.high < np.inf)
        out_of_range |= span.low < eft.UNDERFLOW_LIMIT
        out_of_range |= span.high > eft.OVERFLOW_LIMIT
        clean = np.flatnonzero(~risky)
        fallback = np.flatnonzero(risky)

        if clean.size == 0:
            return self._run_scalar(columns, n_rows, fallback)
        if fallback.size == 0:
            # Every row is clean: the forward arrays are the clean rows.
            return self._finish(columns, n_rows, clean, fallback,
                                fvals.__getitem__, out_of_range)

        # Row selections are memoized by *source array identity*, not
        # slot: slots that alias the same underlying array (projections,
        # dvar reads, aliased binders) then share one selected array
        # object, so identity checks — e.g. a rounding ``rnd`` whose
        # forward value is its operand's — see through the aliasing.
        fsel_cache: Dict[int, object] = {}
        sel_memo: Dict[int, np.ndarray] = {}

        def _sel_leaf(a):
            r = sel_memo.get(id(a))
            if r is None:
                r = a[clean]
                sel_memo[id(a)] = r
            return r

        def fsel(slot: int):
            cached = fsel_cache.get(slot)
            if cached is None:
                cached = _select_rows(fvals[slot], _sel_leaf)
                fsel_cache[slot] = cached
            return cached

        return self._finish(columns, n_rows, clean, fallback, fsel,
                            out_of_range[clean])

    def _scalar_fallback_rows(self, columns, fallback, sound, exact, max_dist):
        """Witness the risky rows via run_witness (bit-identical)."""
        reports: Dict[int, WitnessReport] = {}
        errors: Dict[int, BaseException] = {}
        for i in fallback:
            try:
                rep = self._scalar_report(columns, int(i))
            except _ROW_ERRORS as exc:
                errors[int(i)] = exc
                continue
            reports[int(i)] = rep
            sound[i] = rep.sound
            exact[i] = rep.exact_match
            for name, w in rep.params.items():
                if w.distance > max_dist[name]:
                    max_dist[name] = w.distance
        return reports, errors

    # -- phases 2-3 in perturbation form -----------------------------------

    def _finish(self, columns, n_rows: int, clean: np.ndarray,
                fallback: np.ndarray, fsel,
                suspect: np.ndarray) -> BatchWitnessReport:
        """Phases 2-3 in perturbation form, then the phase-4 screens.

        Every screened value is its slot's binary64 forward array times
        ``(1 + δ)``, with ``δ`` a float64 array (``_EXACT`` where the
        value is bitwise the forward one).  Each forward op's exact
        error ``η`` (``x1 ∘ x2 = r(1+η)``, from TwoSum/TwoProd) is
        computed once by the backward sweep and reused by the ideal
        sweep; the Appendix C maps and the ideal semantics are then a
        few float ops on ``δ`` and ``η`` (:class:`_DeltaSweep`; error
        bounds in :mod:`repro.semantics.eft`).  ``suspect`` marks clean
        rows whose forward values left the EFT range; rows the sweeps
        cannot screen join it, and :meth:`_settle` hands all of them to
        the scalar reference.
        """
        ir = self.ir
        sweep = _DeltaSweep(fsel, int(clean.size), suspect,
                            self.precision_bits == 53
                            and self.rounding != "stochastic")
        with np.errstate(all="ignore"):
            # Phase 2': backward reverse sweep.
            targets: List = [None] * ir.n_slots
            sweep.backward(ir.ops, targets)
            perturbed: Dict[str, object] = {}
            ivals: List = [None] * ir.n_slots
            for p in ir.params:
                forward = fsel(p.slot)
                target = None if p.discrete else targets[p.slot]
                ivals[p.slot] = _fill(target, forward)
                if not p.discrete:
                    perturbed[p.name] = ivals[p.slot]
            del targets
            # Phase 3': ideal re-evaluation of the perturbed inputs.
            sweep.ideal(ir.ops, ivals)
        return self._settle(columns, n_rows, clean, fallback, fsel,
                            perturbed, ivals[ir.result], sweep.suspect)

    def _screen_bounds(self) -> "_ScreenBounds":
        """This program's screen error terms (:class:`_ScreenBounds`).

        ``E`` is :func:`eft.backward_error_bound` over the longest
        backward chain ``K`` and this lens's forward rounding error
        ``η_max``.  The bands' absolute term is ``eft.MARGINS.slack``,
        widened to ``widening·E`` where that is larger, and the noise-floor
        cap is ``noise_cap``, widened to ``widening·(noise_floor + E)``:
        widening only adds rechecks.  For the closeness certificate
        (:func:`_conditions`): every ``|δ|`` and ``|η|`` on a path is at
        most ``Δ = e^L - 1 + η_max`` (``L = K·|ln(1 - η_max)|``), so each
        op of either sweep adds at most ``~8u·Δ`` to the ideal result's
        ``δ``, weighted as the reference's roundings are; ``unit`` doubles
        that and takes ``e^{3L}`` for the magnitude drift.
        """
        if self._screen is None:
            if self.rounding == "stochastic":
                eta_max = 2.0**-51  # within one ulp of the exact value
            elif self.precision_bits == 53:
                eta_max = eft.U
            else:  # binary64 rounding, then round half even to p bits
                eta_max = 2.0**-self.precision_bits + 2.0**-52
            chain = _CHAINS.get(self.ir)
            err = eft.backward_error_bound(chain, eta_max)
            spread = chain * -math.log1p(-eta_max)  # L: max |ln(1+δ)|
            if spread <= 50.0:
                growth = math.exp(2.0 * spread)
                unit = 16.0 * eft.U * math.exp(3.0 * spread) * (
                    math.exp(spread) - 1.0 + eta_max)
            else:
                growth = unit = math.inf
            margins = eft.MARGINS
            self._screen = _ScreenBounds(
                slack=max(margins.slack, margins.widening * err),
                noise_cap=max(margins.noise_cap, margins.widening * (margins.noise_floor + err)),
                leaf_kappa=2.0 * chain + 1.0,
                growth=growth,
                unit=unit,
            )
        return self._screen

    # -- phase 4: screens and per-row settlement ---------------------------

    def _settle(self, columns, n_rows: int, clean: np.ndarray,
                fallback: np.ndarray, fsel, perturbed: Dict[str, object],
                ideal_result, suspect: np.ndarray) -> BatchWitnessReport:
        """Phase 4: screen the perturbation trees, settle the rest.

        ``perturbed`` maps each linear parameter to its witness as a
        ``δ`` tree over its forward leaves, ``ideal_result`` is the
        ideal result's ``δ`` tree over the approximate result, and
        ``suspect`` marks rows the sweeps could not screen.

        The screens never report a value: every exact number that
        reaches a report — perturbed-input reprs, exact distances, max
        distances, ambiguous verdicts — is produced by the per-row
        scalar reference (:func:`run_witness`, or its distances alone,
        :func:`witness_distances`, for a row that only renders them).
        The ``δ`` trees decide which rows can be settled without it, and
        render the ``rows`` section's 8-digit per-row distances where the
        screen's error band cannot straddle a rounding boundary
        (:func:`_screen_row_distances`).  A screened distance is within
        ``2u`` relative plus ``E`` absolute of the exact one (the
        contract in :mod:`repro.semantics.eft`); every margin below is a
        band ``eft.MARGINS.band``: a relative term plus ``slack >= 2E``
        (:meth:`_screen_bounds`), so whenever the screen calls a
        verdict "sure", the 50-digit reference provably agrees.
        ``rechecked_rows`` on the report counts the clean rows handed to
        the scalar reference; a row whose recheck raises keeps the
        exception as its captured error, like a fallback row.
        """
        ir = self.ir
        m = int(clean.size)
        bounds = self._screen_bounds()
        slack, noise_cap = bounds.slack, bounds.noise_cap

        with np.errstate(all="ignore"):
            # Definite verdicts come out of the screen's margins;
            # everything ambiguous joins `recheck` and is decided by the
            # scalar reference, bit for bit.
            recheck = suspect.copy()
            close = np.ones(m, dtype=bool)
            unsure = np.zeros(m, dtype=bool)
            every = np.ones(m, dtype=bool)
            approx = fsel(ir.result)
            _close_screen(ideal_result, approx, close, unsure, every)
            if unsure.any():
                # Rows not surely close: weigh their gaps against the
                # screen's and the reference's own error (see
                # _conditions) before rechecking.
                kappa = _result_conditions(ir, fsel, bounds)
                close[:] = True
                unsure[:] = False
                _close_screen(ideal_result, approx, close, unsure, every,
                              kappa, bounds.unit)
            recheck |= unsure

            within_all = np.ones(m, dtype=bool)
            d_maxes: Dict[str, np.ndarray] = {}
            noise_rows: Dict[str, np.ndarray] = {}
            for p in ir.params:
                if p.discrete:
                    continue
                d_max, noise = _dist_screen(perturbed[p.name], m, recheck)
                bound_f = float(self._bounds[p.name])
                if math.isfinite(bound_f):
                    # A row can only disagree with the exact comparison
                    # inside this margin — recheck those.  d_max == 0.0
                    # rows are exact zeros (or noise-flagged), never
                    # ambiguous.
                    margin = eft.MARGINS.band(bound_f + d_max, slack)
                    recheck |= (np.abs(d_max - bound_f) <= margin) & (d_max > 0.0)
                    within_all &= d_max <= bound_f
                    if bound_f <= noise_cap:
                        # Noise-floor leaves can flip the verdict only
                        # against a bound this small.
                        recheck |= noise
                # An infinite bound is satisfied by every distance, INF
                # included — no screen needed (matches d <= Infinity).
                d_maxes[p.name] = d_max
                noise_rows[p.name] = noise

        # The scalar reference decides every flagged row, bit for bit.
        # A row whose recheck raises keeps the exception as its captured
        # error (as a fallback row does) and joins `recheck`, so no
        # screen below reads its screened values again.
        rechecked: Dict[int, WitnessReport] = {}
        recheck_errors: Dict[int, BaseException] = {}
        measured: Dict[int, Dict[str, Decimal]] = {}

        def _recheck_rows(rows) -> bool:
            """Settle ``rows`` by the scalar reference; True if any raised."""
            raised = False
            for j in rows.tolist():
                if j in rechecked or j in recheck_errors:
                    continue
                try:
                    rechecked[j] = self._scalar_report(columns, int(clean[j]))
                except _ROW_ERRORS as exc:
                    recheck_errors[j] = exc
                    recheck[j] = True
                    raised = True
            return raised

        _recheck_rows(np.flatnonzero(recheck))

        def _exact_max(name: str) -> Decimal:
            """The rechecked rows' largest exact distance of ``name``, or
            ``_DEC_ZERO`` where none is larger (its digits reach the payload)."""
            return max([_DEC_ZERO, *(r.params[name].distance for r in rechecked.values())])

        # Per-parameter max distances must be *exact* Decimals.  Rows
        # whose screened distance falls within the screen's error band
        # of the screened maximum are candidates for the true max;
        # recheck them and report the max over exact values only.
        # (Rows outside the band are provably below the true max by the
        # same margin argument as the bound screen.)  A candidate whose
        # recheck raises drops out of the max, which may then sit lower:
        # screen again until every candidate is settled.
        max_dist: Dict[str, Decimal] = {}
        for p in ir.params:
            if p.discrete:
                max_dist[p.name] = _DEC_ZERO
                continue
            d_max = d_maxes[p.name]
            raised = True
            while raised:
                best = float(_exact_max(p.name))
                screened = np.where(recheck, 0.0, d_max)
                if screened.size:
                    best = max(best, float(screened.max()))
                raised = False
                if best <= noise_cap:
                    # The param's max sits at (or below) the noise
                    # floor: rows whose tiny leaves the screen deferred
                    # can hold it, and only the scalar reference knows
                    # their exact (evaluation-noise-dominated) Decimal
                    # distances.
                    raised = _recheck_rows(np.flatnonzero(noise_rows[p.name]))
                band = eft.MARGINS.band(best, slack)
                cand = ~recheck & (d_max >= best - band) & (d_max > 0.0)
                raised |= _recheck_rows(np.flatnonzero(cand))
            max_dist[p.name] = _exact_max(p.name)

        # Per-row distances render at ROW_DISTANCE_DIGITS straight from
        # the screened d_max wherever its error band cannot straddle a
        # rounding boundary; every other row renders its exact distances
        # from the scalar reference.  Such a row's verdicts are already
        # the screen's, so the reference runs without its ideal
        # re-evaluation; a row on which that run raises gets the full
        # recheck, which captures the reference's own error.
        screened_rows: Dict[str, List[Optional[str]]] = {}
        if self.collect_rows:
            deferred = np.zeros(m, dtype=bool)
            for name, d_max in d_maxes.items():
                rendered = _screen_row_distances(d_max, noise_rows[name],
                                                 slack, noise_cap)
                screened_rows[name] = rendered
                deferred |= np.fromiter(
                    (r is None for r in rendered), dtype=bool, count=m
                )
            for j in np.flatnonzero(deferred).tolist():
                if j in rechecked or j in recheck_errors:
                    continue
                try:
                    measured[j] = self._scalar_distances(columns, int(clean[j]))
                except _ROW_ERRORS:
                    _recheck_rows(np.array([j]))

        exact = np.zeros(n_rows, dtype=bool)
        sound = np.zeros(n_rows, dtype=bool)
        exact_clean = close
        sound_clean = close & within_all
        for j, rep in rechecked.items():
            exact_clean[j] = rep.exact_match
            sound_clean[j] = rep.sound
        for j in recheck_errors:
            exact_clean[j] = sound_clean[j] = False
        exact[clean] = exact_clean
        sound[clean] = sound_clean

        reports, errors = self._scalar_fallback_rows(
            columns, fallback, sound, exact, max_dist
        )
        for j, exc in recheck_errors.items():
            errors[int(clean[j])] = exc

        row_tuples = None
        if self.collect_rows:
            # Column-wise: discrete parameters are never perturbed
            # (distance 0); scalar reports override their rows.
            names = [p.name for p in self.definition.params]
            by_param = [screened_rows.get(name, ["0"] * m) for name in names]
            row_dists: List[Optional[Dict[str, str]]] = [None] * n_rows
            for row, values in zip(clean.tolist(), zip(*by_param)):
                row_dists[row] = dict(zip(names, values))
            for j, rep in rechecked.items():
                row_dists[int(clean[j])] = _rendered_distances(rep)
            for j, dists in measured.items():
                row_dists[int(clean[j])] = {
                    name: render_row_distance(d) for name, d in dists.items()
                }
            for i, rep in reports.items():
                row_dists[i] = _rendered_distances(rep)
            row_tuples = self._row_tuples(
                n_rows, sound, exact, errors, row_dists.__getitem__
            )

        def materialize(i: int) -> WitnessReport:
            rep = reports.get(i)
            if rep is None:
                j = int(np.searchsorted(clean, i))  # clean rows are sorted
                rep = rechecked.get(j)
            if rep is None:
                # Screened values never reach a report: lazy rows
                # materialize through the scalar reference, like the
                # sharded path.
                rep = self._scalar_report(columns, i)
            return rep

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
            rechecked_rows=len(rechecked) + len(measured) + len(recheck_errors),
        )

    # -- phase 1 -----------------------------------------------------------

    def _forward_approx(self, ops, vals: List, risky: np.ndarray,
                        active: np.ndarray, masked: bool,
                        span: "_Span") -> None:
        """Phase 1: the approximate semantics, one array op at a time.

        ``active`` marks the rows this (possibly nested-region) op list
        is live on (``masked`` is False where that is every row); risk
        flags, range spans and per-row divergences only ever apply to
        active rows, so branch-untaken garbage stays inert.
        """
        pbits = self.precision_bits
        stochastic = self.rounding == "stochastic"
        n = risky.shape[0]
        for op in ops:
            code = op.code
            if L.ADD <= code <= L.DMUL:
                a, b = vals[op.a], vals[op.b]
                if code == L.DIV:
                    # Zero divisors produce inr () on the scalar path;
                    # divert those rows rather than modelling them.
                    risky |= active & (b == 0.0)
                if stochastic:
                    r = self._stochastic_binary(code, a, b, active, risky)
                else:
                    with np.errstate(all="ignore"):
                        if code == L.ADD:
                            r = a + b
                        elif code == L.SUB:
                            r = a - b
                        elif code == L.DIV:
                            r = a / b
                        else:  # MUL / DMUL
                            r = a * b
                    if pbits < 53:
                        r = _round_array(r, pbits)
                span.track(r, active, masked)
                if code == L.DIV:
                    vals[op.dest] = _BSum(b != 0.0, r, _BUNIT)
                else:
                    vals[op.dest] = r
            elif code == L.DVAR or code == L.BANG:
                vals[op.dest] = vals[op.a]
            elif code == L.PAIR:
                vals[op.dest] = _BPair(vals[op.a], vals[op.b])
            elif code == L.FST:
                vals[op.dest] = vals[op.a].left
            elif code == L.SND:
                vals[op.dest] = vals[op.a].right
            elif code == L.RND:
                r = vals[op.a]
                if not stochastic and pbits < 53:
                    r = _round_array(r, pbits)
                    span.track(r, active, masked)
                # Stochastic rnd is the identity on values that are
                # already binary64 (the exact value ties the nearest
                # float, so no randomized decision is ever taken).
                vals[op.dest] = r
            elif code == L.CONST:
                c = float(op.aux)
                if c != 0.0 and not (eft.UNDERFLOW_LIMIT <= abs(c)
                                     <= eft.OVERFLOW_LIMIT):
                    span.out_of_range |= active
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
                left_r, right_r = op.aux
                mask = scrut.mask
                left_val = right_val = None
                if scrut.left is not None:
                    vals[left_r.payload] = scrut.left
                    self._forward_approx(left_r.ops, vals, risky, active & mask,
                                         True, span)
                    left_val = vals[left_r.result]
                elif bool((active & mask).any()):
                    raise _Unvectorizable("inl row without an inl payload")
                if scrut.right is not None:
                    vals[right_r.payload] = scrut.right
                    self._forward_approx(right_r.ops, vals, risky,
                                         active & ~mask, True, span)
                    right_val = vals[right_r.result]
                elif bool((active & ~mask).any()):
                    raise _Unvectorizable("inr row without an inr payload")
                if left_val is None and right_val is None:
                    raise _Unvectorizable("case with no evaluable branch")
                vals[op.dest] = _merge_masked(mask, left_val, right_val)
            else:  # pragma: no cover - CALL is rewritten away or unvectorized
                raise _Unvectorizable(f"opcode {code} is not vectorizable")

    def _stochastic_binary(self, code: int, a, b, active: np.ndarray,
                           risky: np.ndarray) -> np.ndarray:
        """Per-row replay of the slot executor's stochastic kernels
        (:func:`repro.lam_s.executor._stochastic_table`).

        Each rounding decision is a pure function of (seed, op name,
        operand bit patterns) — the same ``random.Random`` keying the
        scalar executor uses — so the stream reproduces bit-for-bit
        per row regardless of batching.  Rows with non-finite operands
        or zero divisors are flagged risky and certified scalar.
        """
        op_label = str(L.CODE_TO_PRIM[code])
        seed_s = str(self.seed)
        n = active.shape[0]
        out = np.full(n, np.nan)
        with decimal.localcontext() as ctx:
            ctx.prec = self.lens.precision
            for i in np.flatnonzero(active):
                x = float(a[i])
                y = float(b[i])
                if not (math.isfinite(x) and math.isfinite(y)):
                    risky[i] = True
                    continue
                dx, dy = Decimal(x), Decimal(y)
                if code == L.ADD:
                    exact = dx + dy
                elif code == L.SUB:
                    exact = dx - dy
                elif code == L.DIV:
                    if dy == 0:
                        risky[i] = True
                        continue
                    exact = dx / dy
                else:  # MUL / DMUL
                    exact = dx * dy
                rng = random.Random("\x1f".join([seed_s, op_label, x.hex(), y.hex()]))
                out[i] = stochastic_round(exact, rng)
        return out


class _Span:
    """Per-row extremes of the forward sweep's ``|values|`` (phase 1).

    ``low``/``high`` are each row's smallest and largest forward
    magnitude (nan once any is nan), so three ufunc calls per op settle
    the zero, finiteness and range tests at the end of the sweep;
    ``out_of_range`` collects rows a literal puts outside the EFT range.
    Each op's ``|r|`` goes to one scratch array.
    """

    __slots__ = ("low", "high", "out_of_range", "_size")

    def __init__(self, n: int) -> None:
        self.low = np.full(n, np.inf)
        self.high = np.zeros(n)
        self.out_of_range = np.zeros(n, dtype=bool)
        self._size = np.empty(n)

    def track(self, r: np.ndarray, active: np.ndarray, masked: bool) -> None:
        size = np.abs(r, out=self._size)
        if masked:
            np.putmask(size, ~active, 1.0)
        np.minimum(self.low, size, out=self.low)
        np.maximum(self.high, size, out=self.high)


class _Exact:
    """The zero perturbation: a value bitwise equal to its forward value."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "_EXACT"


_EXACT = _Exact()


def _delta(v):
    """A ``δ`` leaf as a kernel operand: ``None`` for the zero one."""
    return None if v is None or v is _EXACT else v


def _exact_like(forward, leaf=_EXACT):
    """The zero-perturbation tree shaped like a forward value (or the
    tree with ``leaf`` at every number)."""
    if isinstance(forward, _BPair):
        return _BPair(_exact_like(forward.left, leaf),
                      _exact_like(forward.right, leaf))
    if isinstance(forward, _BSum):
        return _BSum(
            forward.mask,
            None if forward.left is None else _exact_like(forward.left, leaf),
            None if forward.right is None else _exact_like(forward.right, leaf),
        )
    if forward is _BUNIT:
        return _BUNIT
    return leaf


def _fill(t, forward):
    """A target as a complete ``δ`` tree: untargeted parts are exact."""
    if t is None:
        return _exact_like(forward)
    if isinstance(t, _BPartial):
        return _BPair(_fill(t.left, forward.left), _fill(t.right, forward.right))
    return t


class _DeltaSweep:
    """Phases 2-3 in perturbation form over the clean rows.

    A slot's backward target or ideal value is a ``δ`` tree over its
    forward value ``fsel(slot)``: numeric leaves are float64 ``δ``
    arrays (the value is ``x·(1+δ)``) or ``_EXACT``, and pairs and sums
    mirror the forward trees.  The backward sweep computes each
    arithmetic op's ``η`` (its exact result is ``r·(1+η)``) and keeps it
    for the ideal sweep, which pops it; a target is freed once its op
    has consumed it.  ``nearest`` says every forward op rounds to
    nearest binary64, so ``r`` is the EFT's own leading term.

    ``suspect`` collects rows the sweeps cannot screen — a mul or div
    witness whose ratio ``(1+δ3)/(1+η)`` is not positive (the reference
    takes a root of a non-positive value there), an ideal divisor the
    perturbation zeroes or flips, a discrete target that is not exactly
    unperturbed — and the caller settles them by the scalar reference.
    Non-finite ``δ`` needs no flag: it stays non-finite through every
    kernel, and the screens treat it as undecided.
    """

    def __init__(self, fsel, m: int, suspect: np.ndarray,
                 nearest: bool) -> None:
        self.fsel = fsel
        self.suspect = suspect
        self.nearest = nearest
        self.etas: Dict[int, np.ndarray] = {}
        self.every = np.ones(m, dtype=bool)
        # Veltkamp splits of discrete dmul factors, by array identity
        # (the array is kept alive with its split so its id stays
        # unique): Horner's evaluation point is split once, not once
        # per op.
        self._splits: Dict[int, Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]] = {}

    def _split_of(self, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        hit = self._splits.get(id(y))
        if hit is None:
            hit = self._splits[id(y)] = (y, eft.split(y))
        return hit[1]

    def eta(self, code: int, x1, x2, r) -> np.ndarray:
        """``η`` of an add/sub/mul/dmul whose forward result is ``r``."""
        if self.nearest:
            r = None
        if code == L.ADD:
            return eft.eta_add(x1, x2, r)
        if code == L.SUB:
            return eft.eta_add(x1, -x2, r)
        if code == L.MUL:
            return eft.eta_mul(x1, x2, r)
        return eft.eta_mul(x2, x1, r, self._split_of(x1))  # DMUL

    # Backward witnesses: ``eta`` is the op's, ``d3`` its target's δ
    # (``None`` when untargeted).  Both operands of add, sub and mul
    # take one δ; Appendix C scales them by one common factor.

    def add_backward(self, eta, d3):
        """add, sub, dmul's linear operand and a rounding ``rnd``."""
        return eft.back_linear(d3, eta)

    def mul_backward(self, eta, d3):
        rho = eft.back_linear(d3, eta)
        self.suspect |= ~(rho > -1.0)
        return eft.back_root(rho)

    def div_backward(self, eta, d3):
        rho = eft.back_linear(d3, eta)
        self.suspect |= ~(rho > -1.0)
        d1 = eft.back_root(rho)
        return d1, eft.back_reciprocal(d1)

    def verify_discrete(self, name: str, current, target) -> None:
        """Discrete variables absorb no error: ``δ`` exactly 0, else suspect.

        The reference applies ``values_close`` slack and raises a
        ``LensDomainError`` that embeds value reprs, which the screen
        reproduces neither of; rows with a nonzero ``δ`` go to it.  A
        zero ``δ`` is exact: discrete values never feed linear
        arithmetic (the checker refuses it), so no backward kernel
        stands behind a discrete target, only ``dmul``'s exact one.
        """
        for d in _tree_leaves(_fill(target, current), []):
            if d is not _EXACT:
                self.suspect |= d != 0.0

    def backward(self, ops, targets: List) -> None:
        """The Appendix C witness maps in reverse, one kernel per op.

        Operand values and the op order match
        :mod:`repro.semantics.primitives`.  Sign/zero domain analysis is
        unnecessary: rows whose forward values vanish or overflow were
        diverted to the scalar path.  ``case`` regions recurse through
        the *taken* branch only — screened rows all share one branch
        tag, which the sweep verifies.
        """
        fsel = self.fsel
        for op in reversed(ops):
            code = op.code
            dest = op.dest
            if L.ADD <= code <= L.DMUL:
                t = targets[dest]
                targets[dest] = None  # consumed
                if code == L.DIV:
                    if t is not None:
                        if not isinstance(t, _BSum):
                            raise _Unvectorizable("div target is not a batched sum")
                        if not _mask_all(t.mask) or t.left is None:
                            # Scalar: "div backward: finite quotient vs.
                            # inr target".
                            raise _Unvectorizable("div target carries inr rows")
                        t = t.left
                    eta = self.etas[dest] = eft.eta_div(
                        fsel(op.a), fsel(op.b), fsel(dest).left
                    )
                    targets[op.a], targets[op.b] = self.div_backward(eta, _delta(t))
                    continue
                eta = self.etas[dest] = self.eta(code, fsel(op.a), fsel(op.b),
                                                 fsel(dest))
                if code == L.DMUL:
                    # All error onto the linear right operand.
                    targets[op.a] = _EXACT
                    targets[op.b] = self.add_backward(eta, _delta(t))
                elif code == L.MUL:
                    targets[op.a] = targets[op.b] = self.mul_backward(eta, _delta(t))
                else:
                    targets[op.a] = targets[op.b] = self.add_backward(eta, _delta(t))
            elif code == L.DVAR:
                t = targets[dest]
                if t is not None and t is not _EXACT:
                    self.verify_discrete(op.aux, fsel(dest), t)
            elif code == L.RND and fsel(dest) is not fsel(op.a):
                # Reduced-precision rnd: its operand is r(1+η).
                eta = self.etas[dest] = eft.eta_round(fsel(op.a), fsel(dest))
                targets[op.a] = self.add_backward(eta, _delta(targets[dest]))
            elif code == L.BANG or code == L.RND:
                targets[op.a] = targets[dest]
            elif code == L.PAIR:
                t = targets[dest]
                if t is not None:
                    t = _fill(t, fsel(dest))
                    targets[op.a] = t.left
                    targets[op.b] = t.right
            elif code == L.FST or code == L.SND:
                partial = targets[op.a]
                if not isinstance(partial, _BPartial):
                    partial = _BPartial()
                    targets[op.a] = partial
                if code == L.FST:
                    partial.left = targets[dest]
                else:
                    partial.right = targets[dest]
            elif code == L.INL or code == L.INR:
                t = targets[dest]
                if t is None:
                    continue
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
                targets[region.result] = targets[dest]
                self.backward(region.ops, targets)
                payload_t = targets[region.payload]
                if payload_t is not None:
                    payload_t = _fill(payload_t, fsel(region.payload))
                    targets[op.a] = (
                        _BSum(mask, payload_t, None)
                        if took_inl
                        else _BSum(mask, None, payload_t)
                    )
            # UNIT / CONST: nothing flows backward.

    def ideal(self, ops, vals: List) -> None:
        """Phase 3: the ideal semantics ⇓_id op for op, in ``δ`` form.

        Each arithmetic op's exact result ``r(1+η)`` is scaled by its
        operands' perturbations (:func:`eft.ideal_sum`,
        :func:`eft.ideal_prod`, :func:`eft.ideal_quot`,
        :func:`eft.grow`).  A divisor the perturbation zeroes or flips
        marks its row suspect (⇓_id maps a zero divisor to inr ()); a
        literal binary64 cannot hold exactly (only Λ_S terms carry one)
        is :class:`_Unvectorizable`.
        """
        fsel = self.fsel
        for op in ops:
            code = op.code
            if L.ADD <= code <= L.DMUL:
                eta = self.etas.pop(op.dest)
                a, b = _delta(vals[op.a]), _delta(vals[op.b])
                if code == L.ADD or code == L.SUB:
                    vals[op.dest] = eft.ideal_sum(
                        eta, fsel(op.a), a, fsel(op.b), b, fsel(op.dest),
                        code == L.SUB,
                    )
                elif code == L.DIV:
                    if b is not None:
                        self.suspect |= ~(b > -1.0)
                    vals[op.dest] = _BSum(
                        self.every, eft.grow(eta, eft.ideal_quot(a, b)), _BUNIT
                    )
                else:  # MUL / DMUL
                    vals[op.dest] = eft.grow(eta, eft.ideal_prod(a, b))
            elif code == L.RND:
                eta = self.etas.pop(op.dest, None)  # rounding rnd only
                vals[op.dest] = (vals[op.a] if eta is None
                                 else eft.grow(eta, _delta(vals[op.a])))
            elif code == L.DVAR or code == L.BANG:
                vals[op.dest] = vals[op.a]
            elif code == L.PAIR:
                vals[op.dest] = _BPair(vals[op.a], vals[op.b])
            elif code == L.FST:
                vals[op.dest] = vals[op.a].left
            elif code == L.SND:
                vals[op.dest] = vals[op.a].right
            elif code == L.CONST:
                if Decimal(op.aux) != Decimal(float(op.aux)):
                    # The ideal semantics evaluates the literal as an
                    # exact Decimal; the screen holds binary64 values.
                    raise _Unvectorizable("non-binary ideal constant")
                vals[op.dest] = _EXACT
            elif code == L.UNIT:
                vals[op.dest] = _BUNIT
            elif code == L.INL:
                vals[op.dest] = _BSum(self.every, vals[op.a], None)
            elif code == L.INR:
                vals[op.dest] = _BSum(~self.every, None, vals[op.a])
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
                self.ideal(region.ops, vals)
                vals[op.dest] = vals[region.result]
            else:  # pragma: no cover - CALL is rewritten away or unvectorized
                raise _Unvectorizable(f"opcode {code} is not vectorizable")


def _chain_depths(ops, depth: Dict[int, int]) -> None:
    """Per slot, the most rounding ops between it and the result."""
    for op in reversed(ops):
        code = op.code
        d = depth.get(op.dest, 0)
        if code == L.CASE:
            for region in op.aux:
                depth[region.result] = max(depth.get(region.result, 0), d)
                _chain_depths(region.ops, depth)
                depth[op.a] = max(depth.get(op.a, 0),
                                  depth.get(region.payload, 0))
        elif L.ADD <= code <= L.DMUL or code == L.PAIR:
            step = d + (code != L.PAIR)
            for slot in (op.a, op.b):
                depth[slot] = max(depth.get(slot, 0), step)
        elif code in (L.FST, L.SND, L.INL, L.INR, L.BANG, L.RND):
            step = d + (code == L.RND)
            depth[op.a] = max(depth.get(op.a, 0), step)


def _longest_chain(ops) -> int:
    """The longest chain of rounding ops from the result to any slot."""
    depth: Dict[int, int] = {}
    _chain_depths(ops, depth)
    return max(depth.values(), default=0)


#: Each IR's :func:`_longest_chain`, kept while the IR lives: a warm
#: session builds one engine per batch audit of the same program.
_CHAINS = IdentityCache(lambda ir: _longest_chain(ir.ops))


class _ScreenBounds(NamedTuple):
    """A program's screen error terms (``BatchWitnessEngine._screen_bounds``)."""

    #: Absolute term of the near-bound, max-candidate and render bands.
    slack: float
    #: Bound on the exact distance of a leaf read below ``MARGINS.noise_floor``.
    noise_cap: float
    #: The reference witnesses' relative error, in units of 1e-49.
    leaf_kappa: float
    #: ``e^{2L}``: how far ideal magnitude ratios stray from forward ones.
    growth: float
    #: The screen's own error in the ideal result's ``δ``, per κ unit.
    unit: float


def _conditions(ops, fsel, kappa: List, growth: float) -> None:
    """Condition weights ``κ`` of the reference's ideal sweep, op for op.

    The 50-digit reference rounds each witness and each ideal op to
    ``5e-50`` relative, so its ideal value at a slot is within
    ``κ·1e-49`` relative of the exact one, where ``κ`` counts those
    roundings weighted by how they propagate: a product or quotient adds
    its operands' ``κ``, a sum weighs them by ``|x_i|/|r|`` (times
    ``growth``, since these are the forward magnitudes, not the ideal
    ones), and each op adds one unit.  Property 2 makes the exact ideal
    result equal the forward one, so ``κ`` bounds the reference's
    closeness gap in units of 1e-49.  Values are floats or row arrays.

    The sweep runs only when some row's gap is not surely close, which
    on binary64 batches is rare: it serves the rows whose ``δ`` noise
    alone passes ``MARGINS.close_sure`` — reduced precision (without it
    ~80-97% of 11/24-bit rows go to the reference) and deep chains — and every
    gap the screen would call far.  No ``BENCHMARK.json`` workload runs
    at reduced precision; ``benchmarks/reduced_precision_probe.py``
    measures it (``benchmarks/results/reduced-precision-probe.txt``).
    """
    for op in ops:
        code = op.code
        if L.ADD <= code <= L.DMUL:
            k1, k2 = kappa[op.a], kappa[op.b]
            if code == L.ADD or code == L.SUB:
                weight = np.abs(fsel(op.a)) * k1 + np.abs(fsel(op.b)) * k2
                k = weight / np.abs(fsel(op.dest)) * growth + 1.0
            else:
                k = k1 + k2 + 1.0
            kappa[op.dest] = _BSum(None, k, _BUNIT) if code == L.DIV else k
        elif code in (L.DVAR, L.BANG, L.RND):
            kappa[op.dest] = kappa[op.a]  # rnd is the identity in ⇓_id
        elif code == L.PAIR:
            kappa[op.dest] = _BPair(kappa[op.a], kappa[op.b])
        elif code == L.FST:
            kappa[op.dest] = kappa[op.a].left
        elif code == L.SND:
            kappa[op.dest] = kappa[op.a].right
        elif code == L.CONST:
            kappa[op.dest] = 0.0  # exact: the ideal sweep checked it
        elif code == L.UNIT:
            kappa[op.dest] = _BUNIT
        elif code == L.INL:
            kappa[op.dest] = _BSum(None, kappa[op.a], None)
        elif code == L.INR:
            kappa[op.dest] = _BSum(None, None, kappa[op.a])
        elif code == L.CASE:
            took_inl = _mask_all(fsel(op.a).mask)  # uniform: the sweeps ran
            region = op.aux[0] if took_inl else op.aux[1]
            scrut = kappa[op.a]
            kappa[region.payload] = scrut.left if took_inl else scrut.right
            _conditions(region.ops, fsel, kappa, growth)
            kappa[op.dest] = kappa[region.result]


def _result_conditions(ir, fsel, bounds: _ScreenBounds):
    """The ideal result's ``κ`` tree (:func:`_conditions`).

    A witness leaf starts at ``bounds.leaf_kappa``: each backward step
    of the reference rounds at most four times (two units) and passes
    its input's error on with factor 1 or 1/2.  Discrete inputs are
    exact.
    """
    kappa: List = [None] * ir.n_slots
    for p in ir.params:
        kappa[p.slot] = _exact_like(
            fsel(p.slot), 0.0 if p.discrete else bounds.leaf_kappa
        )
    _conditions(ir.ops, fsel, kappa, bounds.growth)
    return kappa[ir.result]


def _close_screen(ideal, approx, close: np.ndarray, unsure: np.ndarray,
                  active: np.ndarray, kappa=None, unit: float = 0.0) -> None:
    """Vectorized screen of row-wise ``values_close`` in ``δ`` form.

    ``ideal`` is the ideal result's ``δ`` tree over ``approx``.
    ``close`` accumulates definite verdicts (``&=``); rows the screen
    cannot decide, or whose ``δ`` is undecidable (``δ <= -1``: a zero or
    sign-flipped ideal value; or non-finite), are flagged in ``unsure``
    and left formally close — the scalar reference overrides them.
    By Property 2 a screened gap is rounding noise: ~1e-50·cond in the
    50-digit reference, ~u·cond·|δ| in the screen.  Without ``kappa``
    only a gap ``<= close_sure`` is decided (the thresholds are
    ``eft.MARGINS`` entries).  With the reference's condition tree
    ``kappa`` (:func:`_conditions`) and the screen's error per κ unit
    ``unit``, a gap is also surely close where ``κ <= close_kappa`` and
    the gap is within the screen's own error ``unit·κ`` of zero, and
    surely far only where ``κ <= far_kappa`` and the gap passes
    ``far_sure`` by more than that error (which at reduced precision or
    on deep chains can itself exceed ``far_sure``).  Structure mirrors
    :func:`repro.lam_s.values.values_close` on the batched value trees.
    """
    if isinstance(approx, _BPair) and isinstance(ideal, _BPair):
        kl = kr = None
        if kappa is not None:
            kl, kr = kappa.left, kappa.right
        _close_screen(ideal.left, approx.left, close, unsure, active, kl, unit)
        _close_screen(ideal.right, approx.right, close, unsure, active, kr, unit)
        return
    if isinstance(approx, _BSum) and isinstance(ideal, _BSum):
        am, im = approx.mask, ideal.mask
        close &= ~active | ~(am ^ im)
        both_inl = active & am & im
        both_inr = active & ~am & ~im
        if bool(both_inl.any()):
            if ideal.left is None or approx.left is None:
                close &= ~both_inl
            else:
                _close_screen(ideal.left, approx.left, close, unsure, both_inl,
                              None if kappa is None else kappa.left, unit)
        if bool(both_inr.any()):
            if ideal.right is None or approx.right is None:
                close &= ~both_inr
            else:
                _close_screen(ideal.right, approx.right, close, unsure, both_inr,
                              None if kappa is None else kappa.right, unit)
        return
    if approx is _BUNIT and ideal is _BUNIT:
        return
    if isinstance(approx, np.ndarray) and ideal is _EXACT:
        return  # bitwise the forward value: close
    if isinstance(approx, np.ndarray) and isinstance(ideal, np.ndarray):
        margins = eft.MARGINS
        gap = np.abs(ideal)
        sure_close = gap <= margins.close_sure
        sure_far = np.zeros_like(sure_close)
        if kappa is not None and math.isfinite(unit):
            noise = kappa * unit  # the screen's own error bound
            sure_close |= (kappa <= margins.close_kappa) & (gap <= noise)
            sure_far = (kappa <= margins.far_kappa) & (gap >= margins.far_sure + noise)
        between = ~(sure_close | sure_far)
        between |= ~((ideal > -1.0) & (gap < np.inf))
        between &= active
        unsure |= between
        close &= ~active | sure_close | between
        return
    close &= ~active  # structural mismatch: not close on any live row


def _dist_screen(perturbed, m: int,
                 recheck: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Float64 RP distances of one parameter's perturbed leaves.

    Returns ``(d_max, noise)``: the per-row max over leaf distances
    :func:`eft.log_distance`, plus a mask of rows holding a noise-floor
    leaf.  Rows the screen cannot decide are flagged into ``recheck``:
    a leaf whose ``δ <= -1`` or is non-finite (the exact metric jumps
    to INF or the screen lost the value).  Rows with a zero input, where
    the reference compares exact zeros, are suspect already.  A leaf whose
    distance reads below ``eft.MARGINS.noise_floor`` is different: the
    *reference* value is dominated by the 50-digit evaluator's own
    rounding noise (~1e-50·depth, e.g. a witness formula that happens
    to be exact in binary), which the screen cannot predict; only the
    scalar rerun reproduces those Decimal bits.  Such a leaf's exact
    distance is below the noise cap of :meth:`_screen_bounds`, so it can
    only change the reported output when the param's bound or screened
    max is itself below that cap.  Those rows are returned in
    ``noise`` and the caller defers the (expensive) recheck until one
    of those comparisons actually bites.  Leaves the backward sweep
    never targeted (``_EXACT``) contribute an exact 0, matching the
    scalar path's ``ln(x/x)``.

    The leaves x rows matrix is never built whole: it is walked in tiles
    of at most ``_BLOCK`` elements (blocks of ``min(m, _BLOCK)`` rows,
    each split into groups of as many leaves as fit), stacked into one
    cache-sized buffer.  Up to ``_BLOCK`` elements that is one tile, the
    whole stack.
    """
    deltas = [d for d in _tree_leaves(perturbed, []) if d is not _EXACT]
    # Max and any fold exactly, tile by tile: every distance is >= 0 or
    # nan, and np.maximum keeps a nan.
    d_max = np.zeros(m)
    noise = np.zeros(m, dtype=bool)
    floor = eft.MARGINS.noise_floor
    step = max(1, min(m, _BLOCK))  # rows per block
    group = _BLOCK // step  # leaves per tile
    buf = np.empty((min(group, len(deltas)), step))
    for lo in range(0, m, step):
        rows = slice(lo, lo + step)
        block = deltas if step == m else [d[rows] for d in deltas]
        block_max, block_noise = d_max[rows], noise[rows]
        for first in range(0, len(block), group):
            part = block[first:first + group]
            dist = buf[:len(part), :block_max.size]
            np.stack(part, out=dist)
            eft.log_distance(dist, out=dist)
            np.maximum(block_max, dist.max(axis=0), out=block_max)
            block_noise |= (dist < floor).any(axis=0)
    undecided = ~(d_max < np.inf)  # nan or inf on some leaf
    if undecided.any():
        recheck |= undecided
        noise &= ~undecided
        d_max[undecided] = 0.0
    return d_max, noise



def _round_array(x: np.ndarray, precision_bits: int) -> np.ndarray:
    """Vectorized :func:`repro.lam_s.eval.round_to_precision`."""
    mantissa, exponent = np.frexp(x)
    scaled = mantissa * float(1 << precision_bits)
    rounded = np.rint(scaled)  # round-half-even, like Python's round()
    out = np.ldexp(rounded, exponent - precision_bits)
    special = (x == 0.0) | ~np.isfinite(x)
    if special.any():
        out = np.where(special, x, out)
    return out


def _rendered_distances(report: WitnessReport) -> Dict[str, str]:
    """A scalar report's per-parameter distances, rendered for ``rows``."""
    return {
        name: render_row_distance(w.distance)
        for name, w in report.params.items()
    }


#: ``render_row_distance`` of a binary64 value, without the Decimal:
#: Python's float formatting is correctly rounded half-even, and the
#: renderer matches its layout.
_ROW_FORMAT = f"%.{ROW_DISTANCE_DIGITS - 1}e"


def _screen_row_distances(d_hat: np.ndarray, noise: np.ndarray,
                          slack: float,
                          noise_cap: float) -> List[Optional[str]]:
    """Render screened per-row distances, or defer (``None``) each row.

    ``d_hat`` is a parameter's screened per-row max distance and
    ``noise`` its noise-floor rows (see :func:`_dist_screen`).  The
    exact distance ``d`` lies within ``eft.MARGINS.band(d̂, slack)`` of ``d̂``
    — the assumption the max-distance candidate screen already rests on
    (``BatchWitnessEngine._screen_bounds``) — so when both band ends,
    rounded outward to the next binary64, render to one string,
    rounding is monotone and ``render_row_distance(d)`` is that string
    too.  Rows whose band straddles a rounding boundary (or reaches
    zero) defer, and so do noise-floor rows (``d̂ <= noise_cap`` with a
    noise leaf: a targeted leaf whose screened distance reads 0 is
    one), whose exact distance only the Decimal reference knows.  A
    row with no targeted leaf (``d̂ == 0`` and no noise) is an exact
    ``"0"``.
    """
    band = eft.MARGINS.band(d_hat, slack)
    lo = np.nextafter(d_hat - band, -np.inf)
    hi = np.nextafter(d_hat + band, np.inf)
    out: List[Optional[str]] = []
    for d, tiny, a, b in zip(d_hat.tolist(), noise.tolist(), lo.tolist(),
                             hi.tolist()):
        if tiny and d <= noise_cap:
            out.append(None)
        elif d == 0.0:
            out.append("0")
        elif a <= 0.0:
            out.append(None)
        else:
            text = _ROW_FORMAT % a
            out.append(text if text == _ROW_FORMAT % b else None)
    return out


def run_witness_batch(
    definition: A.Definition,
    inputs: Mapping[str, Sequence],
    *,
    program: Optional[A.Program] = None,
    u: float = BINARY64_UNIT_ROUNDOFF,
    lens: Optional[BeanLens] = None,
    **engine_options,
) -> BatchWitnessReport:
    """Run the soundness theorem on a whole batch of concrete inputs.

    ``inputs`` maps each parameter to an array of shape ``(N,)`` (scalar
    parameters) or ``(N, k)`` (``vec(k)`` parameters).  The counterpart
    of calling :func:`~repro.semantics.witness.run_witness` in a loop,
    at a fraction of the cost; results are bitwise identical.
    """
    engine = BatchWitnessEngine(
        definition, program, u=u, lens=lens, **engine_options
    )
    return engine.run(inputs)
