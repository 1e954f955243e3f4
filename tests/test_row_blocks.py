"""Cache-sized blocks in the batch engine equal their one-shot forms.

:class:`~repro.semantics.batch.BatchWitnessEngine` walks its 2-D stages
in blocks of at most ``_BLOCK`` elements (leaves x rows): the copy of
each ``(N, k)`` input into a ``(k, N)`` leaf-major matrix with its input
range checks (:func:`~repro.semantics.batch._leaf_major`), and the
distance screen (:func:`~repro.semantics.batch._dist_screen`).  Max,
min, abs and any are exact elementwise, so every block walk must give
the bits of the whole-matrix computation, at every block edge: one row
short of a block, a full block, one row over and two blocks plus one.
Special values (nan, ±inf, zero, a subnormal, a value past
``OVERFLOW_LIMIT``) sit in the first and last rows of the last partial
block, where an off-by-one would drop them.  Whole audits of a 100-leaf
program render the same payload bytes as with one block over all rows.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro.api import batch_report_payload, render_payload
from repro.core import Program
from repro.programs.generators import dot_prod
from repro.semantics import batch as B
from repro.semantics import eft

_SPECIALS = (np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1e300, -1e300)


def _edge_counts(step: int):
    return sorted({max(step - 1, 1), step, step + 1, 2 * step + 1})


def _plant(arr: np.ndarray, step: int, special: float) -> None:
    """``special`` in the first and last rows of the last partial block."""
    n = arr.shape[0]
    first = (n - 1) // step * step
    arr[first, 0] = special
    arr[n - 1, -1] = special


def _one_shot_range(arr: np.ndarray):
    size = np.abs(arr)
    return size.max(axis=1), size.min(axis=1)


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _check_leaf_major(arr: np.ndarray) -> None:
    leaves, high, low = B._leaf_major(arr)
    want_high, want_low = _one_shot_range(arr)
    assert _same(leaves, np.ascontiguousarray(arr.T))
    assert _same(high, want_high)
    assert _same(low, want_low)


class TestLeafMajor:
    @pytest.mark.parametrize("k", [1, 7])
    def test_block_edges(self, k, monkeypatch):
        if k > 1:
            monkeypatch.setattr(B, "_BLOCK", 64)
        step = max(1, B._BLOCK // k)
        rng = np.random.default_rng(k)
        for n in _edge_counts(step):
            for special in _SPECIALS:
                arr = rng.uniform(-2.0, 2.0, (n, k))
                _plant(arr, step, special)
                _check_leaf_major(arr)

    def test_more_leaves_than_a_block(self):
        # k > _BLOCK: one row per block.
        k = B._BLOCK + 3
        rng = np.random.default_rng(3)
        for n in _edge_counts(1):
            for special in (np.nan, 0.0, 5e-324, 2 * eft.OVERFLOW_LIMIT):
                arr = rng.uniform(0.5, 1.0, (n, k))
                _plant(arr, 1, special)
                _check_leaf_major(arr)

    def test_strided_input(self, monkeypatch):
        monkeypatch.setattr(B, "_BLOCK", 32)
        base = np.random.default_rng(4).uniform(-1.0, 1.0, (41, 12))
        _check_leaf_major(base[::2, ::3])  # neither C- nor F-contiguous
        _check_leaf_major(np.asfortranarray(base))

    def test_no_leaves(self):
        leaves, high, low = B._leaf_major(np.empty((5, 0)))
        assert leaves.shape == (0, 5)
        assert not (~(high < np.inf)).any()
        assert not (high > eft.OVERFLOW_LIMIT).any()
        assert not (low < eft.UNDERFLOW_LIMIT).any()


#: δ values that reach every branch of the screen: undecided (nan,
#: ±inf, ``δ = -1``, ``δ < -1``), noise-floor (0, a subnormal) and
#: ordinary.
_DELTA_SPECIALS = (np.nan, np.inf, -np.inf, -1.0, -2.0, 0.0, 5e-324, 1e-29, 0.5)


def _one_shot_screen(deltas, m: int):
    recheck = np.zeros(m, dtype=bool)
    dist = eft.log_distance(np.stack(deltas))
    d_max = dist.max(axis=0)
    noise = (dist < 1e-28).any(axis=0)
    undecided = ~(d_max < np.inf)
    recheck |= undecided
    noise &= ~undecided
    d_max[undecided] = 0.0
    return d_max, noise, recheck


def _check_screen(deltas, m: int) -> None:
    tree = deltas[0]
    for d in deltas[1:]:
        tree = B._BPair(tree, d)
    recheck = np.zeros(m, dtype=bool)
    with np.errstate(all="ignore"):  # as in the engine's phase 4
        d_max, noise = B._dist_screen(tree, m, recheck)
        want_max, want_noise, want_recheck = _one_shot_screen(deltas, m)
    assert _same(d_max, want_max)
    assert _same(noise, want_noise)
    assert _same(recheck, want_recheck)


class TestDistScreen:
    @pytest.mark.parametrize("n_leaves", [2, 3, 5, 8, 13])  # 13 > _BLOCK
    def test_block_edges(self, n_leaves, monkeypatch):
        monkeypatch.setattr(B, "_BLOCK", 12)
        rng = np.random.default_rng(n_leaves)
        group = max(1, B._BLOCK // n_leaves)
        for m in _edge_counts(B._BLOCK) + _edge_counts(group):
            step = min(m, B._BLOCK)
            for special in _DELTA_SPECIALS:
                deltas = [rng.uniform(-1e-13, 1e-13, m) for _ in range(n_leaves)]
                rows = np.stack(deltas, axis=1)
                _plant(rows, step, special)
                _check_screen(list(rows.T.copy()), m)

    def test_rows_past_a_block(self):
        # m > _BLOCK at the real block size: one leaf per tile.
        rng = np.random.default_rng(9)
        step = B._BLOCK
        for m in (step + 1, 2 * step + 1):
            deltas = [rng.uniform(-1e-13, 1e-13, m) for _ in range(3)]
            for special, leaf in ((np.nan, 0), (-1.0, 2), (0.0, 1)):
                deltas[leaf][step] = special
                deltas[leaf][m - 1] = special
            _check_screen(deltas, m)

    def test_exact_leaves_are_skipped(self):
        m = 9
        d = np.full(m, 1e-15)
        recheck = np.zeros(m, dtype=bool)
        d_max, noise = B._dist_screen(
            B._BPair(B._EXACT, B._BPair(d, B._EXACT)), m, recheck
        )
        assert _same(d_max, eft.log_distance(d))
        assert not noise.any() and not recheck.any()
        d_max, noise = B._dist_screen(B._BPair(B._EXACT, B._EXACT), m, recheck)
        assert _same(d_max, np.zeros(m))
        assert not noise.any() and not recheck.any()


def _audit_bytes(definition, program, columns, rows: bool) -> str:
    engine = B.BatchWitnessEngine(definition, program, collect_rows=rows)
    report = engine.run(columns)
    return render_payload(batch_report_payload(
        report, engine="batch", u=engine.u,
        precision_bits=engine.precision_bits,
    ))


@pytest.mark.parametrize("fallback", [False, True])
@pytest.mark.parametrize("rows", [False, True])
def test_payload_bytes_match_one_block(rows, fallback, monkeypatch):
    """DotProd100 at ``step + 1`` rows: two blocks vs one over every row.

    Without a fallback row the screen also sees ``step + 1`` clean rows
    of 100 leaves, past one block; a nan row leaves it one block.
    """
    definition = dot_prod(100)
    program = Program([definition])
    step = B._BLOCK // 100
    n = step + 1
    rng = np.random.default_rng(26)
    x = rng.uniform(0.1, 1.0, (n, 100)) * rng.choice((-1.0, 1.0), (n, 100))
    y = rng.uniform(0.1, 1.0, (n, 100))
    x[step, 0] = 1e-290  # below the EFT range: suspect
    y[0, 5] = 1e290  # above it: suspect
    if fallback:
        y[n - 1, 99] = np.nan
    columns = {"x": x, "y": y}
    engine = B.BatchWitnessEngine(definition, program)
    assert engine.vectorized
    assert engine.run(columns).fallback_rows == int(fallback)
    blocked = _audit_bytes(definition, program, columns, rows)
    monkeypatch.setattr(B, "_BLOCK", 10**9)
    assert _audit_bytes(definition, program, columns, rows) == blocked
