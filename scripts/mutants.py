#!/usr/bin/env python
"""Mutation check of the batch screen's soundness margins.

Each mutant changes one entry of the margin table
(``repro.semantics.eft.MARGINS``), the reference's closeness tolerance
(``repro.lam_s.values.CLOSE_TOLERANCE``) or one of the two ``widening·E``
terms of ``BatchWitnessEngine._screen_bounds``, in a temporary copy of
the tree, and runs the screen suites there (derandomized hypothesis,
``-x``).  A mutant is *killed* when the suites fail; the first failing
test is printed beside it.  The unmutated copy runs first and must pass.

Mutants marked must-kill remove a margin's only cover; the others are
recorded with the argument for why no test kills them (see the
docstring of ``tests/test_margins.py``).  Exit status: 0 when every
must-kill mutant is killed, 1 when one survives, 2 when the unmutated
tree fails or a mutant no longer matches the source.

Usage (from the repository root; stdlib only, the suites need the test
dependencies)::

    python scripts/mutants.py                # every mutant
    python scripts/mutants.py -k widening    # labels containing "widening"
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, NamedTuple, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]

#: The suites that exercise the screen's margins.
SUITES = [
    "tests/test_near_bound.py",
    "tests/test_perturbation_screen.py",
    "tests/test_batch_witness.py",
    "tests/test_row_rendering.py",
    "tests/test_precision_formats.py",
    "tests/test_row_blocks.py",
    "tests/test_engine_parity.py",
    "tests/test_golden_tables.py",
    "tests/test_margins.py",
]

_EFT = "src/repro/semantics/eft.py"
_BATCH = "src/repro/semantics/batch.py"
_VALUES = "src/repro/lam_s/values.py"


class Mutant(NamedTuple):
    label: str
    path: str
    pattern: str  # a regex matching exactly one source line's text
    replacement: str
    must_kill: bool
    note: str = ""


def _entry(name: str, value: str, must_kill: bool, note: str = "") -> Mutant:
    """A mutant of one ``MARGINS`` entry's value."""
    return Mutant(f"MARGINS.{name} -> {value}", _EFT,
                  rf"^(    {name}: float = ).*$", rf"\g<1>{value}", must_kill, note)


MUTANTS = [
    _entry("relative", "0.0", False,
           "equivalent in the bound margin; argued in the max band"),
    _entry("relative", "1e-15", False, "still covers log1p's 2u error"),
    _entry("slack", "0.0", False, "equivalent: the widened 2E alone covers E"),
    _entry("noise_cap", "0.0", False, "equivalent: the widened term alone covers E"),
    _entry("noise_floor", "1e-32", False,
           "equivalent at verdict and row level (any positive floor)"),
    _entry("noise_floor", "0.0", True),
    _entry("widening", "1.0", True),
    _entry("widening", "0.0", True),
    _entry("close_sure", "1e-14", True),
    _entry("far_sure", "1e-20", False, "reached only by a Property-2 failure"),
    _entry("close_kappa", "1e30", True),
    _entry("far_kappa", "1e40", False, "reached only by a Property-2 failure"),
    Mutant("CLOSE_TOLERANCE -> 1e-20", _VALUES,
           r'^(CLOSE_TOLERANCE = Decimal\(")[^"]*("\))$', r"\g<1>1e-20\g<2>", True),
    Mutant("slack without the widening", _BATCH,
           r"slack=max\(margins\.slack, margins\.widening \* err\)",
           "slack=margins.slack", True),
    Mutant("noise_cap without the widening", _BATCH,
           r"noise_cap=max\(margins\.noise_cap, margins\.widening \* "
           r"\(margins\.noise_floor \+ err\)\)",
           "noise_cap=margins.noise_cap", True),
]


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _apply(tree: Path, mutant: Mutant) -> None:
    path = tree / mutant.path
    text, count = re.subn(mutant.pattern, mutant.replacement,
                          path.read_text(encoding="utf-8"), flags=re.M)
    if count != 1:
        raise LookupError(f"{mutant.label}: pattern matched {count} times in {mutant.path}")
    path.write_text(text, encoding="utf-8")


def _run_suites(tree: Path) -> Tuple[bool, Optional[str], float]:
    """``(passed, first failing test, seconds)`` for the suites in ``tree``."""
    env = dict(os.environ, PYTHONPATH="src", HYPOTHESIS_PROFILE="ci",
               PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *SUITES],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"pytest exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    failed = next((line.split(" ", 1)[1].split(" - ", 1)[0]
                   for line in proc.stdout.splitlines() if line.startswith("FAILED ")), None)
    return proc.returncode == 0, failed, elapsed


def _run(mutant: Optional[Mutant]) -> Tuple[bool, Optional[str], float]:
    with tempfile.TemporaryDirectory(prefix="repro-mutant-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        if mutant is not None:
            _apply(tree, mutant)
        return _run_suites(tree)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-k", default="", help="run only mutants whose label contains this")
    args = parser.parse_args(argv)
    selected = [m for m in MUTANTS if args.k in m.label]

    passed, failed, seconds = _run(None)
    if not passed:
        print(f"the unmutated tree fails ({failed}); no mutant can be judged")
        return 2
    print(f"unmutated tree passes the screen suites ({seconds:.0f} s)")

    survivors = []
    for mutant in selected:
        try:
            survived, failed, seconds = _run(mutant)
        except (LookupError, RuntimeError) as exc:
            print(f"error: {exc}")
            return 2
        verdict = "survived" if survived else "killed"
        kind = "must-kill" if mutant.must_kill else "recorded"
        detail = failed or mutant.note
        print(f"{verdict:8}  {kind:9}  {mutant.label:34}  {seconds:4.0f} s  {detail}")
        if survived and mutant.must_kill:
            survivors.append(mutant.label)
    if survivors:
        print(f"must-kill mutants survived: {', '.join(survivors)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
