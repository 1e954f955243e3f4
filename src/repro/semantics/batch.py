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
   (Appendix C) run on an exact-arithmetic backend: by default
   double-double float arrays (:mod:`repro.semantics.eft` — plain
   float64 ufunc expressions, no Python-level dispatch), or object
   arrays of ``Decimal`` under the same 50-digit context the scalar
   primitives use (``exact_backend="decimal"``, the reference);
3. **ideal re-evaluation** of the perturbed inputs (Property 2), again
   as per-op array sweeps on the selected backend;
4. **distance checks** — relative-precision distances against the
   inferred grade bounds.  On the Decimal backend these are vectorized
   60-digit computations; on the EFT backend they are float64 *screens
   with provable margins* — every row the screen cannot settle with
   ~1e18 to spare, and every exact number that reaches a report, is
   decided by the per-row scalar reference, so both backends are
   bit-for-bit equal to looping :func:`run_witness` (the parity
   harness enforces this).  Per-row distances in the ``rows`` section
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
a fallback row — a ``LensDomainError``, or a Decimal signal from
non-finite data inside the primitive backward maps — are captured in
the report rather than aborting the other rows.  Structure the array
pipeline does not model (mixed branch tags on screened rows, sum-typed
discrete data) raises the internal ``_Unvectorizable`` and the whole
batch is re-certified by the scalar loop, so results match it on every
program.

Reports are *aggregated*: verdict arrays, per-parameter worst distances,
and lazy per-row :class:`~repro.semantics.witness.WitnessReport`
materialization via indexing.
"""

from __future__ import annotations

import decimal
import math
import os
import random
from decimal import Decimal
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..core import ast_nodes as A
from ..core.grades import BINARY64_UNIT_ROUNDOFF, Grade, ZERO
from ..core.types import Discrete, Num, Tensor, Type, Unit, is_discrete
from ..ir import lower as L
from ..ir.cache import inlined_definition_ir, semantic_definition_ir
from ..ir.inline import walk_ops
from ..lam_s.eval import EvalError, stochastic_round
from ..lam_s.values import UNIT_VALUE, Value, VInl, VInr, VNum, VPair, values_close
from . import eft
from .eft import DD
from .interp import BeanLens, lens_of_definition
from .lens import LensDomainError
from .primitives import BACKWARD_PRECISION
from .spaces import (
    DISTANCE_PRECISION,
    INF,
    ROW_DISTANCE_DIGITS,
    grade_bound,
    render_row_distance,
)
from .witness import ParamWitness, WitnessReport, run_witness

__all__ = ["BatchWitnessEngine", "BatchWitnessReport", "run_witness_batch"]

_DEC_ZERO = Decimal(0)
_DEC_ONE = Decimal(1)

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

_to_dec = np.frompyfunc(Decimal, 1, 1)
_sqrt = np.frompyfunc(lambda d: d.sqrt(), 1, 1)


class _Unvectorizable(Exception):
    """The batch hit structure the array pipeline does not model.

    Raising it aborts the vectorized attempt; the engine re-certifies
    the whole batch with the (bit-identical) scalar loop, so this is a
    performance event, never a correctness one.
    """


class _EftUnsupported(Exception):
    """The EFT sweep hit a case only the Decimal reference can decide.

    Exact zero divisors and negative radicands (where the Decimal sweep
    raises and falls back batch-wide), discrete verifies that need
    ``values_close`` slack, non-binary ideal constants, and scalar
    rechecks that raised: raising this reruns the whole batch through
    the Decimal vectorized path, so the engine lands on exactly the
    reference behavior.  A performance event, never a correctness one.
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


def _map_tree(tree, fn, mask_fn=None):
    """Map ``fn`` over numeric leaf arrays (``mask_fn`` over tag masks).

    ``mask_fn`` defaults to the identity so value transforms (e.g. the
    float->Decimal conversion) never touch boolean tag masks; row
    selections pass the same function for both.
    """
    if isinstance(tree, _BPair):
        return _BPair(
            _map_tree(tree.left, fn, mask_fn), _map_tree(tree.right, fn, mask_fn)
        )
    if isinstance(tree, _BSum):
        mask = tree.mask if mask_fn is None else mask_fn(tree.mask)
        left = None if tree.left is None else _map_tree(tree.left, fn, mask_fn)
        right = None if tree.right is None else _map_tree(tree.right, fn, mask_fn)
        return _BSum(mask, left, right)
    if tree is _BUNIT:
        return tree
    return fn(tree)


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
    if isinstance(left, DD) or isinstance(right, DD):
        # dd/float leaf mixes promote the float side exactly.
        if isinstance(left, (DD, np.ndarray)) and isinstance(right, (DD, np.ndarray)):
            return eft.where(mask, left, right)
        raise _Unvectorizable("case branches produced incompatible batched shapes")
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
        exact_backend: str = "eft",
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
        #: Which exact-arithmetic backend the engine was configured with
        #: ("eft" or "decimal").  Informational: results are bit-equal
        #: either way.
        self.exact_backend = exact_backend
        #: Per-row witness tuples ``(row, sound, exact, {param: rendered
        #: distance}, error-or-None)``, materialized only when the engine
        #: ran with ``collect_rows=True`` (the schema-v5 ``rows``
        #: section); ``None`` otherwise.  Distances are final strings
        #: (:func:`~repro.semantics.spaces.render_row_distance`), so
        #: every backend, shard and stream chunk emits the same bytes.
        #: Picklable, so shards and chunked streams can carry them
        #: across processes.
        self.rows = rows
        #: Clean rows (not ``fallback_rows``) whose verdicts, exact max
        #: distances or rendered row distances the EFT screen left to the
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
        precision: int = 50,
        rounding: str = "nearest",
        seed: int = 0,
        precision_bits: int = 53,
        lens: Optional[BeanLens] = None,
        exact_backend: Optional[str] = None,
        collect_rows: bool = False,
        inlined_ir=None,
    ) -> None:
        self.definition = definition
        self.program = program
        self.u = u
        self.collect_rows = collect_rows
        if exact_backend is None:
            exact_backend = os.environ.get("REPRO_EXACT_BACKEND") or "eft"
        if exact_backend not in ("eft", "decimal"):
            raise ValueError(
                "exact_backend must be 'eft' or 'decimal', got "
                f"{exact_backend!r}"
            )
        self.exact_backend = exact_backend
        if lens is not None:
            # A caller-provided lens defines the arithmetic; adopting its
            # configuration keeps the vectorized sweep and the scalar
            # fallback rows on the same semantics (and the same bits).
            self.lens = lens
            self.precision = lens.precision
            self.rounding = lens.rounding
            self.seed = lens.seed
            self.precision_bits = lens.precision_bits
        else:
            self.precision = precision
            self.rounding = rounding
            self.seed = seed
            self.precision_bits = precision_bits
            self.lens = lens_of_definition(
                definition,
                program=program,
                precision=precision,
                rounding=rounding,
                seed=seed,
                precision_bits=precision_bits,
            )
        #: The EFT screens are calibrated against the 50-digit reference
        #: semantics (dd resolves ~32 digits; the margins below assume
        #: Decimal noise at ~1e-50·cond); any other ideal precision runs
        #: the Decimal path.  Per-row witnesses run on the EFT path too:
        #: rows render their distances at ROW_DISTANCE_DIGITS, which the
        #: dd screen certifies for all but the rows whose band straddles
        #: a rounding boundary — those are rechecked (see _finish_eft).
        self._use_eft = (
            self.exact_backend == "eft"
            and self.precision == BACKWARD_PRECISION
        )
        if inlined_ir is not None:
            # A caller-provided pre-flattened IR (the compositional
            # engine plans it from summary metadata, lifting the inline
            # size cap when the expansion is known safe).  Must be an
            # execution-equivalent flattening of the definition.
            self.ir = inlined_ir
        else:
            self.ir = semantic_definition_ir(definition)
            if self.ir.has_calls and program is not None:
                # Flatten defined-function calls so the array pipeline
                # sees through them; guarded calls survive and force the
                # scalar path (see repro.ir.inline).
                self.ir = inlined_definition_ir(definition, program)
        #: Whether this program runs through the vectorized pipeline.
        #: The op check is the whole language minus un-inlined calls;
        #: the param check excludes implicit (free-variable) parameters,
        #: which only the scalar environment lookup can resolve.
        self.vectorized = bool(self.ir.vectorizable) and len(
            self.ir.params
        ) == len(definition.params)
        self._grades: Dict[str, Grade] = {}
        self._bounds: Dict[str, Decimal] = {}
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
            return BatchWitnessReport(
                self.definition,
                0,
                np.zeros(0, dtype=bool),
                np.zeros(0, dtype=bool),
                {},
                {}.__getitem__,
                {p.name: _DEC_ZERO for p in self.definition.params},
                dict(self._bounds),
                fallback_rows=0,
                exact_backend=self.exact_backend,
                rows=[] if self.collect_rows else None,
            )
        if not self.vectorized:
            return self._run_scalar(columns, n_rows, range(n_rows))
        if self._use_eft:
            try:
                return self._run_vectorized(columns, n_rows, use_eft=True)
            except _EftUnsupported:
                # The dd sweep hit a case whose behavior the Decimal
                # reference owns (zero divisors, negative radicands,
                # discrete verifies needing values_close slack): rerun
                # the whole batch on the Decimal path below.
                pass
            except (_Unvectorizable, decimal.InvalidOperation,
                    decimal.DivisionByZero):
                return self._run_scalar(columns, n_rows, range(n_rows))
        try:
            return self._run_vectorized(columns, n_rows, use_eft=False)
        except (_Unvectorizable, decimal.InvalidOperation, decimal.DivisionByZero):
            # A row slipped past the risk mask, or the batch hit
            # structure the array pipeline does not model: certify
            # everything the slow, per-row way rather than guess.
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

    def _run_scalar(self, columns, n_rows: int, rows) -> BatchWitnessReport:
        reports: Dict[int, WitnessReport] = {}
        errors: Dict[int, BaseException] = {}
        sound = np.zeros(n_rows, dtype=bool)
        exact = np.zeros(n_rows, dtype=bool)
        max_dist = {p.name: _DEC_ZERO for p in self.definition.params}
        for i in rows:
            try:
                rep = self._scalar_report(columns, i)
            except _ROW_ERRORS as exc:
                errors[i] = exc
                continue
            reports[i] = rep
            sound[i] = rep.sound
            exact[i] = rep.exact_match
            for name, w in rep.params.items():
                if w.distance > max_dist[name]:
                    max_dist[name] = w.distance
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
            exact_backend=self.exact_backend,
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

    def _run_vectorized(self, columns, n_rows: int,
                        use_eft: bool) -> BatchWitnessReport:
        ir = self.ir
        # Phase 1: approximate forward sweep (float64 arrays).  This
        # phase is exact-backend independent; the backend only decides
        # who runs phases 2-4 on the clean rows.
        fvals: List = [None] * ir.n_slots
        for p in ir.params:
            cols = [np.ascontiguousarray(columns[p.name][:, j]) for j in
                    range(columns[p.name].shape[1])]
            tree, _ = _pack_columns(p.ty, cols)
            fvals[p.slot] = tree
        risky = np.zeros(n_rows, dtype=bool)
        self._forward_approx(ir.ops, fvals, risky, np.ones(n_rows, dtype=bool))
        for name in columns:
            col = columns[name]
            risky |= ~np.isfinite(col).all(axis=1)
        clean = np.flatnonzero(~risky)
        fallback = np.flatnonzero(risky)

        if clean.size == 0:
            return self._run_scalar(columns, n_rows, fallback)

        # Row selections are memoized by *source array identity*, not
        # slot: slots that alias the same underlying array (projections,
        # dvar reads, aliased binders) then share one selected array
        # object, so identity checks — e.g. the discrete-variable
        # verify's "target is the unperturbed value" fast path — see
        # through the aliasing.
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
                cached = _map_tree(fvals[slot], _sel_leaf, _sel_leaf)
                fsel_cache[slot] = cached
            return cached

        if use_eft:
            return self._finish_eft(columns, n_rows, clean, fallback, fsel)
        return self._finish_decimal(columns, n_rows, clean, fallback, fsel)

    def _finish_decimal(self, columns, n_rows: int, clean: np.ndarray,
                        fallback: np.ndarray, fsel) -> BatchWitnessReport:
        ir = self.ir
        # Phase 2: backward reverse sweep (Decimal object arrays).
        # Targets stay float arrays while they are pure identity defaults
        # and become Decimal arrays once a witness formula computes them —
        # mirroring the scalar path, whose default targets are the float
        # approximants and whose computed targets are Decimals.
        ambient = decimal.getcontext()
        # Decimal conversions share the same id-keyed memoization as row
        # selections (see _run_vectorized).
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
                cached = _map_tree(fsel(slot), _dec_leaf)
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
            exact_backend=self.exact_backend,
            rows=row_tuples,
        )

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

    # -- the EFT fast path -------------------------------------------------

    def _finish_eft(self, columns, n_rows: int, clean: np.ndarray,
                    fallback: np.ndarray, fsel) -> BatchWitnessReport:
        """Phases 2-4 on dd (double-double) float arrays.

        The dd sweep is a *screen with provable margins*, never a
        reporter of exact values: every exact number that reaches a
        report — perturbed-input reprs, exact distances, max distances,
        ambiguous verdicts — is produced by the per-row scalar reference
        (:func:`run_witness`), which is the established bit-identical
        semantics.  The dd values decide which rows can be settled
        without it, and render the ``rows`` section's 8-digit per-row
        distances where the screen's error band cannot straddle a
        rounding boundary (:func:`_screen_row_distances`).  Soundness of
        each verdict rests on the margins documented in
        :mod:`repro.semantics.eft` and at the screen sites below:
        rounding noise in the 50-digit Decimal reference (~1e-50·cond)
        and in dd (~1e-32·cond) both sit many orders below every
        decision threshold, so whenever dd calls a verdict "sure", the
        Decimal path provably agrees.

        The kernels run on the operands the forward sweep produced
        (:class:`_EftArith`): binary64 forward values enter the witness
        formulas as is, so add/sub witnesses share one dd quotient
        ``x3/s`` by an exact TwoSum divisor and scale it by each
        binary64 operand (``dd_mul_fp``, ``<= 3u²``), mul/div form
        ``x1·x2`` by one exact TwoProd, and dmul divides by a binary64
        whose split is computed once (``dd_div_fp``, ``<= 3u²``); the
        generic dd kernels (``dd_div`` ``<= 14u²``) run only between two
        dd values.  All of these are ~1e-31 relative, orders of
        magnitude inside every margin below.
        ``rechecked_rows`` on the report counts the clean rows handed to
        the scalar reference.
        """
        ir = self.ir
        m = int(clean.size)
        arith = _EftArith(m)

        with np.errstate(all="ignore"):
            # Phase 2': backward reverse sweep on dd arrays.  Forward
            # operands enter the kernels as binary64 arrays.  Rows where
            # a kernel leaves its validated range land in arith.suspect
            # and are settled by the scalar reference below.
            targets: List = [None] * ir.n_slots
            self._backward(ir.ops, fsel, fsel, targets, arith)
            perturbed: Dict[str, object] = {}
            for p in ir.params:
                if p.discrete:
                    perturbed[p.name] = fsel(p.slot)
                else:
                    perturbed[p.name] = _materialize_mixed(
                        targets[p.slot], fsel(p.slot)
                    )

            # Phase 3': ideal re-evaluation on dd arrays.
            ivals: List = [None] * ir.n_slots
            for p in ir.params:
                ivals[p.slot] = perturbed[p.name]
            self._ideal_eft(ir.ops, ivals, m, arith)
            ideal_result = ivals[ir.result]

            # Phase 4': screens.  Definite verdicts come out of the dd
            # margins; everything ambiguous joins `recheck` and is
            # decided by the scalar reference, bit for bit.
            recheck = arith.suspect.copy()
            approx_sel = fsel(ir.result)
            close = np.ones(m, dtype=bool)
            _close_screen_eft(ideal_result, approx_sel, close, recheck,
                              np.ones(m, dtype=bool))

            within_all = np.ones(m, dtype=bool)
            d_maxes: Dict[str, np.ndarray] = {}
            noise_rows: Dict[str, np.ndarray] = {}
            for p in ir.params:
                if p.discrete:
                    continue
                d_max, noise = self._dist_screen_eft(
                    fsel(p.slot), perturbed[p.name], m, recheck
                )
                bound_f = float(self._bounds[p.name])
                if math.isfinite(bound_f):
                    # Perturbations are relative ~1e-16..1e-13; the dd
                    # screen's distance error is ~1e-16·d + 1e-30, so a
                    # row can only disagree with the exact comparison
                    # inside this margin — recheck those.  d_max == 0.0
                    # rows are exact zeros (or noise-flagged), never
                    # ambiguous.
                    margin = 1e-12 * (bound_f + d_max) + 1e-26
                    recheck |= (np.abs(d_max - bound_f) <= margin) & (d_max > 0.0)
                    within_all &= d_max <= bound_f
                    if bound_f <= 1e-27:
                        # Noise-floor leaves (true distance up to
                        # ~1.1e-28) can flip the verdict only against a
                        # bound this small.
                        recheck |= noise
                # An infinite bound is satisfied by every distance, INF
                # included — no screen needed (matches d <= Infinity).
                d_maxes[p.name] = d_max
                noise_rows[p.name] = noise

        # The scalar reference decides every flagged row — and *is* what
        # the Decimal batch reports for it (both materialize ambiguous
        # rows through run_witness).  A row error here means the Decimal
        # batch itself would have aborted mid-sweep; rerun it to inherit
        # its exact behavior.
        rechecked: Dict[int, WitnessReport] = {}

        def _recheck_rows(rows) -> None:
            for j in rows:
                j = int(j)
                if j in rechecked:
                    continue
                try:
                    rechecked[j] = self._scalar_report(columns, int(clean[j]))
                except _ROW_ERRORS as exc:
                    raise _EftUnsupported(
                        "scalar recheck raised; the Decimal batch owns "
                        "this input"
                    ) from exc

        _recheck_rows(np.flatnonzero(recheck))

        # Per-parameter max distances must be *exact* Decimals.  Rows
        # whose screened distance falls within the dd error band of the
        # screened maximum are candidates for the true max; recheck them
        # and report the max over exact values only.  (Rows outside the
        # band are provably below the true max by the same margin
        # argument as the bound screen.)
        max_dist: Dict[str, Decimal] = {}
        for p in ir.params:
            if p.discrete:
                max_dist[p.name] = _DEC_ZERO
                continue
            d_max = d_maxes[p.name]
            best = 0.0
            for rep in rechecked.values():
                dist = rep.params[p.name].distance
                f = float(dist) if dist.is_finite() else math.inf
                if f > best:
                    best = f
            screened = np.where(recheck, 0.0, d_max)
            if screened.size:
                best = max(best, float(screened.max()))
            if best <= 1e-27:
                # The param's max sits at (or below) the noise floor:
                # rows whose tiny leaves the screen deferred can hold
                # it, and only the scalar reference knows their exact
                # (evaluation-noise-dominated) Decimal distances.
                _recheck_rows(np.flatnonzero(noise_rows[p.name]))
            band = 1e-12 * best + 1e-26
            cand = ~recheck & (d_max >= best - band) & (d_max > 0.0)
            _recheck_rows(np.flatnonzero(cand))
            dist_best = _DEC_ZERO
            for rep in rechecked.values():
                dist = rep.params[p.name].distance
                if dist > dist_best:
                    dist_best = dist
            max_dist[p.name] = dist_best

        # Per-row distances render at ROW_DISTANCE_DIGITS straight from
        # the screened d_max wherever its error band cannot straddle a
        # rounding boundary; every other row joins the recheck set and
        # renders its exact distance from the scalar reference.
        screened_rows: Dict[str, List[Optional[str]]] = {}
        if self.collect_rows:
            deferred = np.zeros(m, dtype=bool)
            for name, d_max in d_maxes.items():
                rendered = _screen_row_distances(d_max, noise_rows[name])
                screened_rows[name] = rendered
                deferred |= np.fromiter(
                    (r is None for r in rendered), dtype=bool, count=m
                )
            _recheck_rows(np.flatnonzero(deferred))

        exact = np.zeros(n_rows, dtype=bool)
        sound = np.zeros(n_rows, dtype=bool)
        exact_clean = close
        sound_clean = close & within_all
        for j, rep in rechecked.items():
            exact_clean[j] = rep.exact_match
            sound_clean[j] = rep.sound
        exact[clean] = exact_clean
        sound[clean] = sound_clean

        reports, errors = self._scalar_fallback_rows(
            columns, fallback, sound, exact, max_dist
        )
        clean_pos = {int(row): j for j, row in enumerate(clean)}

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
            for i, rep in reports.items():
                row_dists[i] = _rendered_distances(rep)
            row_tuples = self._row_tuples(
                n_rows, sound, exact, errors, row_dists.__getitem__
            )

        def materialize(i: int) -> WitnessReport:
            rep = reports.get(i)
            if rep is None:
                rep = rechecked.get(clean_pos[i])
            if rep is None:
                # dd values never reach a report: lazy rows materialize
                # through the scalar reference, like the sharded path.
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
            exact_backend=self.exact_backend,
            rows=row_tuples,
            rechecked_rows=len(rechecked),
        )

    def _dist_screen_eft(self, orig_tree, new_tree, m: int,
                         recheck: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Float64 RP-distance approximations for one parameter's leaves.

        Returns ``(d_max, noise)``: the per-row max over leaf distances
        as float64, plus a mask of rows holding a noise-floor leaf.
        Each leaf distance comes from :func:`eft.rp_distance`: the gap
        ``(o - n)/n`` from an exact (Sterbenz) difference and ``log1p``,
        within ``5u ≈ 6e-16`` relative of ``|ln(o/n)|`` for the dd
        ``n`` — ~1e3 inside the ``1e-12``-relative margins below, and
        as accurate at the noise floor as anywhere else.  The dd ``n``
        itself differs from the 50-digit reference by ~1e-32·cond
        relative, which the margins' ``1e-26`` absolute term absorbs.
        Rows the screen cannot decide at all are flagged into
        ``recheck``: sign flips or vanished leaves (where the exact
        metric jumps to INF) and ratios outside float range.  A targeted leaf whose dd distance
        reads below 1e-28 is different — down there the *reference*
        value is dominated by the 50-digit evaluator's own rounding
        noise (~1e-50·depth, e.g. a witness formula that happens to be
        exact in binary), which dd cannot predict; only the scalar
        rerun can reproduce those Decimal bits.  But such a leaf's true
        distance is provably ≤ ~1.1e-28, so it can only influence the
        reported output when the param's bound or screened max is
        itself at the noise floor.  Those rows are returned in
        ``noise`` and the caller defers the (expensive) recheck until
        one of the ≤1e-27 comparisons actually bites — on deep
        programs, some leaf's witness formula is exact in binary on
        most rows, and eagerly rechecking them forfeits the batch win.
        Leaves the backward sweep never targeted (``nw is o``)
        contribute an exact 0 in both backends, matching the scalar
        path's ``ln(x/x)``.
        """
        orig_leaves = _tree_leaves(orig_tree, [])
        new_leaves = _tree_leaves(new_tree, [])
        d_max = np.zeros(m)
        noise = np.zeros(m, dtype=bool)
        for o, nw in zip(orig_leaves, new_leaves):
            if nw is o:
                continue  # untargeted leaf: d = |ln(x/x)| = 0 exactly
            d, undecided = eft.rp_distance(o, eft.as_dd(nw))
            tiny = d < 1e-28
            tiny &= ~undecided
            recheck |= undecided
            noise |= tiny
            np.maximum(d_max, d, out=d_max, where=~(undecided | tiny))
        return d_max, noise

    # -- phase kernels -----------------------------------------------------

    def _forward_approx(self, ops, vals: List, risky: np.ndarray,
                        active: np.ndarray) -> None:
        """Phase 1: the approximate semantics, one array op at a time.

        ``active`` marks the rows this (possibly nested-region) op list
        is live on; risk flags and per-row divergences only ever apply
        to active rows, so branch-untaken garbage stays inert.
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
                risky |= active & ((r == 0.0) | ~np.isfinite(r))
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
                    risky |= active & ((r == 0.0) | ~np.isfinite(r))
                # Stochastic rnd is the identity on values that are
                # already binary64 (the exact value ties the nearest
                # float, so no randomized decision is ever taken).
                vals[op.dest] = r
            elif code == L.CONST:
                vals[op.dest] = np.full(n, float(op.aux))
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
                    self._forward_approx(left_r.ops, vals, risky, active & mask)
                    left_val = vals[left_r.result]
                elif bool((active & mask).any()):
                    raise _Unvectorizable("inl row without an inl payload")
                if scrut.right is not None:
                    vals[right_r.payload] = scrut.right
                    self._forward_approx(right_r.ops, vals, risky, active & ~mask)
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
            ctx.prec = self.precision
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

    def _backward(self, ops, fsel, cvt, targets: List, arith) -> None:
        """The Appendix C witness formulas, one array expression per op.

        ``arith`` supplies the exact-arithmetic kernels — Decimal object
        arrays under the 50-digit backward context (:class:`_DecArith`,
        the reference) or dd float pairs (:class:`_EftArith`, the
        screen) — and ``cvt`` converts a slot's forward floats into that
        representation.  Operand values and the op order inside each
        formula match :mod:`repro.semantics.primitives` exactly.
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

    def _ideal_dec(self, ops, vals: List, n: int,
                   dec_memo: Dict[int, np.ndarray]) -> None:
        prec = self.precision

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

    def _ideal_eft(self, ops, vals: List, n: int, arith: "_EftArith") -> None:
        """Phase 3 on dd arrays: mirrors :meth:`_ideal_dec` op for op.

        dd addition/multiplication carry ~106 bits; against the
        50-digit reference the results agree to ~32 digits, which the
        phase-4 screens' margins absorb.  Leaves the backward map left
        untouched, discrete values and literals stay binary64 arrays,
        so the ops that read them run the dd∘binary64 kernels.  Cases
        only Decimal evaluates faithfully — a zero divisor on a
        non-suspect row, a literal dd cannot represent exactly — raise
        :class:`_EftUnsupported`.
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
                    # ⇓_id maps a zero divisor to inr (); the Decimal
                    # sweep raises _Unvectorizable there, and arith.div
                    # defers such batches to it.
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
                    raise _EftUnsupported("non-binary ideal constant")
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

    # -- misc --------------------------------------------------------------


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
    exact zero Decimal would have kept nonzero).  Suspect rows may carry
    garbage dd values from then on — the caller settles them through
    the per-row scalar reference and never reads their dd results.

    Conditions the *whole* Decimal batch would have refused — an exact
    zero divisor (DivisionByZero) or a negative radicand
    (InvalidOperation) on a non-suspect row — raise
    :class:`_EftUnsupported` instead, so the engine reruns the batch on
    the Decimal path and inherits its exact behavior (including its
    batch-wide scalar fallback and its error messages).

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
        self.suspect |= eft.range_suspect(x)
        return x

    def add(self, x, y) -> DD:
        if isinstance(x, DD):
            r = eft.dd_add(x, y) if isinstance(y, DD) else eft.dd_add_fp(x, y)
        elif isinstance(y, DD):
            r = eft.dd_add_fp(y, x)
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
                r = eft.dd_mul_fp(x, y, y_split)
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
        if bool((~_nonzero(y) & ~self.suspect).any()):
            raise _EftUnsupported("exact zero divisor in dd sweep")
        if isinstance(y, DD):
            r = eft.dd_div(eft.as_dd(x), y)
        else:
            r = eft.dd_div_fp(eft.as_dd(x), y, y_split)
        vanished = r.hi == 0.0
        vanished &= _nonzero(x)
        self.suspect |= vanished
        return self._guard(r)

    def sqrt(self, x: DD) -> DD:
        if bool(((x.hi < 0.0) & ~self.suspect).any()):
            raise _EftUnsupported("negative radicand in dd sweep")
        return self._guard(eft.dd_sqrt(x))

    def dmul(self, x1, x2) -> DD:
        """Ideal ``dmul``: the discrete factor is a binary64 leaf."""
        if isinstance(x1, DD):
            return self.mul(x1, x2)
        return self.mul(x2, x1, self._split_of(x1))

    # Backward witnesses.  ``x1``/``x2`` are the op's binary64 forward
    # operands; ``x3`` is its target (dd, or binary64 where untargeted).
    # Each formula is the Decimal reference's up to the order of its
    # dd-rounded steps, all far inside the screens' margins.

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
        magnitude1 = self.sqrt(eft.dd_abs(self.mul(p, x3)))
        magnitude2 = self.sqrt(eft.dd_abs(self.div(p, x3)))
        return (
            eft.where(x1 > 0.0, magnitude1, eft.dd_neg(magnitude1)),
            eft.where(x2 > 0.0, magnitude2, eft.dd_neg(magnitude2)),
        )

    def verify_discrete(self, name: str, current, target) -> None:
        """Exact-equality-only discrete verify.

        The reference applies ``values_close`` slack and embeds value
        reprs in its error message; dd reproduces neither, so anything
        short of bitwise equality defers to the Decimal path.
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
            if not bool(np.all(ok)):
                raise _EftUnsupported(
                    "discrete verify needs the Decimal path"
                )


def _nonzero(x) -> np.ndarray:
    """Rows where a binary64 or normalized dd operand is nonzero."""
    return (x.hi if isinstance(x, DD) else x) != 0.0


#: Screen thresholds for the EFT closeness verdict.  ``values_close``
#: is a 1e-30-relative test on exactly-converted operands; 50-digit
#: Decimal noise sits at ~1e-50·cond and dd noise at ~1e-32·cond, so a
#: dd relative gap below CLOSE_SURE is ~1e18 away from flipping the
#: reference verdict, one above FAR_SURE is equally surely a genuine
#: Property-2 failure, and only the band between is rechecked.
_CLOSE_SURE = 1e-26
_FAR_SURE = 1e-8


def _close_screen_eft(ideal, approx, close: np.ndarray, recheck: np.ndarray,
                      active: np.ndarray) -> None:
    """Vectorized screen of row-wise ``values_close`` for the dd path.

    ``close`` accumulates definite verdicts (``&=``); rows whose dd gap
    falls between the sure thresholds are flagged in ``recheck`` and
    left formally close — the scalar reference overrides them.
    Structure mirrors :func:`_close_rows`.
    """
    if isinstance(approx, _BPair) and isinstance(ideal, _BPair):
        _close_screen_eft(ideal.left, approx.left, close, recheck, active)
        _close_screen_eft(ideal.right, approx.right, close, recheck, active)
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
                _close_screen_eft(ideal.left, approx.left, close, recheck,
                                  both_inl)
        if bool(both_inr.any()):
            if ideal.right is None or approx.right is None:
                close &= ~both_inr
            else:
                _close_screen_eft(ideal.right, approx.right, close, recheck,
                                  both_inr)
        return
    if approx is _BUNIT and ideal is _BUNIT:
        return
    if isinstance(approx, np.ndarray) and isinstance(ideal, (np.ndarray, DD)):
        di = eft.as_dd(ideal)
        gap = eft.dd_add_fp(di, -approx)
        denom = np.maximum(np.abs(di.hi), np.abs(approx))
        r = np.abs(gap.hi) / denom
        r = np.where(denom == 0.0, 0.0, r)  # both exactly zero: close
        sure_close = r <= _CLOSE_SURE
        band = active & ~sure_close & ~(r >= _FAR_SURE)
        band |= active & ~np.isfinite(r)
        recheck |= band
        close &= ~active | sure_close | band
        return
    close &= ~active  # structural mismatch: not close on any live row


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


def _get_b(targets: List, fsel, slot: int):
    t = targets[slot]
    if t is None:
        return fsel(slot)
    if isinstance(t, _BPartial):
        return _materialize_b(t, fsel(slot))
    return t


def _dec_array(a: np.ndarray) -> np.ndarray:
    """Exact float->Decimal conversion of one leaf array."""
    return a if a.dtype == object else _to_dec(a)


def _ensure_dec(tree):
    """Exact float->Decimal conversion of any float leaves (cf. as_decimal)."""
    return _map_tree(tree, _dec_array)


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


def _screen_row_distances(d_hat: np.ndarray,
                          noise: np.ndarray) -> List[Optional[str]]:
    """Render screened per-row distances, or defer (``None``) each row.

    ``d_hat`` is a parameter's screened per-row max distance and
    ``noise`` its noise-floor rows (see :meth:`_dist_screen_eft`).  The
    exact distance ``d`` lies within ``1e-12·d̂ + 1e-26`` of ``d̂`` — the
    assumption the max-distance candidate screen already rests on — so
    when both band ends, rounded outward to the next binary64, render
    to one string, rounding is monotone and ``render_row_distance(d)``
    is that string too.  Rows whose band straddles a rounding boundary
    (or reaches zero) defer, and so do noise-floor rows (``d̂ <= 1e-27``
    with a noise leaf: a targeted leaf whose dd distance reads 0 is
    one), whose exact distance only the Decimal reference knows.  A
    row with no targeted leaf (``d̂ == 0`` and no noise) is an exact
    ``"0"``.
    """
    band = 1e-12 * d_hat + 1e-26
    lo = np.nextafter(d_hat - band, -np.inf)
    hi = np.nextafter(d_hat + band, np.inf)
    out: List[Optional[str]] = []
    for d, tiny, a, b in zip(d_hat.tolist(), noise.tolist(), lo.tolist(),
                             hi.tolist()):
        if tiny and d <= 1e-27:
            out.append(None)
        elif d == 0.0:
            out.append("0")
        elif a <= 0.0:
            out.append(None)
        else:
            text = _ROW_FORMAT % a
            out.append(text if text == _ROW_FORMAT % b else None)
    return out


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
