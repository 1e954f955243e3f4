"""Reduced-precision batch probe: how many rows reach the scalar reference.

At ``precision_bits`` 11 and 24 every forward op rounds by up to
``2^-p``, so the ideal result's ``δ`` carries a screening error far
above ``eft.MARGINS.close_sure`` on ordinary rows.  The batch engine's closeness
certificate (``semantics.batch._conditions``) decides those rows close
when the reference's own noise is provably below the ``values_close``
tolerance; without it each such row goes to the 50-digit scalar
reference.  This probe audits mixed-sign Sum, DotProd and Horner
batches at 11, 24 and 53 bits and prints, per cell, the clean rows
rechecked and the median wall time of a warm ``BatchWitnessEngine.run``.

    PYTHONPATH=src python benchmarks/reduced_precision_probe.py
    PYTHONPATH=src python benchmarks/reduced_precision_probe.py --without-certificate

``--without-certificate`` makes the condition sweep return nothing, so
only gaps below ``eft.MARGINS.close_sure`` are decided by the screen: the cost the
certificate saves.  The script uses only the engine's public
constructor and report, so it also runs against older trees.
"""

from __future__ import annotations

import argparse
import random
import statistics
import time

from repro.programs.generators import dot_prod, horner, vec_sum
from repro.semantics import batch

FAMILIES = {"Sum": vec_sum, "DotProd": dot_prod, "Horner": horner}


def _inputs(family: str, size: int, rows: int, seed: int):
    rng = random.Random(seed)

    def draw(signed: bool) -> float:
        v = rng.uniform(0.5, 2.0)
        return -v if signed and rng.random() < 0.5 else v

    def vec(k: int, signed: bool):
        return [[draw(signed) for _ in range(k)] for _ in range(rows)]

    if family == "Horner":
        return {"a": vec(size + 1, False),
                "z": [rng.uniform(0.5, 1.0) for _ in range(rows)]}
    if family == "Sum":
        return {"x": vec(size, True)}
    return {"x": vec(size, True), "y": vec(size, False)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=1000)
    parser.add_argument("--size", type=int, default=50)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--without-certificate", action="store_true")
    args = parser.parse_args()
    if args.without_certificate:
        batch._result_conditions = lambda *_: None
    print("family size bits rows rechecked median_ms")
    for family, make in FAMILIES.items():
        definition = make(args.size)
        inputs = _inputs(family, args.size, args.rows, seed=args.size)
        for bits in (11, 24, 53):
            engine = batch.BatchWitnessEngine(definition,
                                              precision_bits=bits)
            report = engine.run(inputs)  # warm-up: lowering, bounds
            times = []
            for _ in range(args.repeats):
                start = time.perf_counter()
                report = engine.run(inputs)
                times.append(time.perf_counter() - start)
            print(f"{family} {args.size} {bits} {args.rows} "
                  f"{report.rechecked_rows} "
                  f"{1e3 * statistics.median(times):.1f}")


if __name__ == "__main__":
    main()
