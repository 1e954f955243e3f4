"""Sharded multiprocess witness runner: determinism, merging, safety.

Cross-engine verdict/bit parity for the sharded runner lives in
``test_engine_parity.py``; this module covers the sharding machinery
itself — the deterministic shard→row mapping, report merging (verdicts,
worst distances, captured errors, fallback counts), start-method
safety (including ``spawn``, which re-imports the package and re-lowers
the IR in each worker), degradation to in-process execution,
transient-pool hygiene (no worker or shared-memory segment outlives a
call), and the CLI ``--workers`` surface.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.programs.generators import dot_prod, safe_div_sum, vec_sum
from repro.semantics.batch import run_witness_batch
from repro.semantics.shard import run_witness_sharded, shard_bounds


class TestShardBounds:
    def test_balanced_contiguous_cover(self):
        for n_rows in (1, 2, 7, 10, 100, 101):
            for shards in (1, 2, 3, 7, 10):
                bounds = shard_bounds(n_rows, shards)
                assert bounds[0] == 0 and bounds[-1] == n_rows
                sizes = [b - a for a, b in zip(bounds, bounds[1:])]
                assert sum(sizes) == n_rows
                assert max(sizes) - min(sizes) <= 1  # balanced within one
                assert sizes == sorted(sizes, reverse=True)  # extras first

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            shard_bounds(10, 0)


class TestMerging:
    def test_row_order_is_input_order(self):
        # Make each row's verdict depend on the row index (poison a few)
        # so any shard permutation or offset error flips the comparison.
        definition = vec_sum(6)
        rng = np.random.default_rng(1)
        columns = {"x": rng.uniform(0.5, 4.0, (23, 6))}
        for bad in (0, 9, 22):
            columns["x"][bad, 0] = float("inf")
        single = run_witness_batch(definition, columns)
        for workers in (2, 4, 5):
            sharded = run_witness_sharded(definition, columns, workers=workers)
            assert list(sharded.sound) == list(single.sound), workers
            assert list(sharded.exact) == list(single.exact), workers
            assert set(sharded.errors) == {0, 9, 22}
            assert sharded.fallback_rows == single.fallback_rows
            assert {k: str(v) for k, v in sharded.param_max_distance.items()} == {
                k: str(v) for k, v in single.param_max_distance.items()
            }

    def test_div_case_kernel_shards(self):
        definition = safe_div_sum(8)
        rng = np.random.default_rng(2)
        columns = {
            name: rng.uniform(0.5, 4.0, (12, 8)) for name in ("x", "y", "f")
        }
        columns["y"][5, 3] = 0.0  # one inr row, mid-shard
        single = run_witness_batch(definition, columns)
        sharded = run_witness_sharded(definition, columns, workers=3)
        assert list(sharded.sound) == list(single.sound)
        assert list(sharded.exact) == list(single.exact)
        assert sharded.fallback_rows == single.fallback_rows >= 1
        assert {k: str(v) for k, v in sharded.param_max_distance.items()} == {
            k: str(v) for k, v in single.param_max_distance.items()
        }

    def test_more_workers_than_rows_degrades(self):
        definition = dot_prod(4)
        rng = np.random.default_rng(3)
        columns = {
            "x": rng.uniform(0.5, 4.0, (2, 4)),
            "y": rng.uniform(0.5, 4.0, (2, 4)),
        }
        report = run_witness_sharded(definition, columns, workers=16)
        assert report.n_rows == 2 and report.all_sound

    def test_single_worker_runs_in_process(self):
        definition = vec_sum(5)
        rng = np.random.default_rng(4)
        columns = {"x": rng.uniform(0.5, 4.0, (6, 5))}
        report = run_witness_sharded(definition, columns, workers=1)
        single = run_witness_batch(definition, columns)
        assert list(report.sound) == list(single.sound)


class TestSafety:
    def test_spawn_start_method(self):
        # Spawn re-imports the package and re-lowers the IR per worker:
        # nothing may depend on forked parent state.
        definition = vec_sum(5)
        rng = np.random.default_rng(5)
        columns = {"x": rng.uniform(0.5, 4.0, (4, 5))}
        report = run_witness_sharded(
            definition, columns, workers=2, mp_context="spawn"
        )
        single = run_witness_batch(definition, columns)
        assert list(report.sound) == list(single.sound)
        assert report.all_sound

    def test_deep_program_pickles_through_deep_stack(self):
        # A 400-binder let-chain exceeds the default pickler recursion;
        # the runner must serialize it anyway.
        definition = vec_sum(400)
        rng = np.random.default_rng(6)
        columns = {"x": rng.uniform(0.5, 4.0, (4, 400))}
        report = run_witness_sharded(definition, columns, workers=2)
        assert report.all_sound

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="needs a listable /dev/shm"
    )
    def test_transient_pool_leaves_no_workers_or_segments(self):
        definition = vec_sum(5)
        rng = np.random.default_rng(7)
        columns = {"x": rng.uniform(0.5, 4.0, (9, 5))}
        children = set(multiprocessing.active_children())
        segments = set(os.listdir("/dev/shm"))
        report = run_witness_sharded(definition, columns, workers=3)
        assert report.all_sound
        assert set(multiprocessing.active_children()) <= children
        assert set(os.listdir("/dev/shm")) <= segments

    def test_lens_cannot_cross_processes(self):
        from repro.semantics.interp import lens_of_definition

        definition = vec_sum(4)
        lens = lens_of_definition(definition)
        with pytest.raises(ValueError, match="lens"):
            run_witness_sharded(
                definition, {"x": np.ones((2, 4))}, workers=2, lens=lens
            )


class TestCLI:
    def test_witness_batch_workers(self, tmp_path, capsys):
        source = (
            "DotProd2 (x : vec(2)) (y : vec(2)) : num :=\n"
            "  let (x0, x1) = x in\n"
            "  let (y0, y1) = y in\n"
            "  let v = mul x0 y0 in\n"
            "  let w = mul x1 y1 in\n"
            "  add v w\n"
        )
        path = tmp_path / "dotprod2.bean"
        path.write_text(source)
        inputs = {
            "x": [[1.5, 2.25], [0.5, 1.0], [3.0, 0.25]],
            "y": [[3.1, -0.7], [1.25, 2.0], [0.125, 4.0]],
        }
        code = cli_main(
            [
                "witness", str(path), "--batch", "--workers", "2",
                "--inputs", json.dumps(inputs),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "soundness theorem holds on all rows: True" in out
        assert "rows               : 3" in out
