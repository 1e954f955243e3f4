"""Every ``>>>`` example in a ``repro`` docstring runs as written."""

from __future__ import annotations

import doctest
import importlib
import pkgutil

import repro


def _modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        yield importlib.import_module(info.name)


def test_docstring_examples_run():
    attempted = 0
    failed = []
    for module in _modules():
        result = doctest.testmod(module, report=False)
        attempted += result.attempted
        if result.failed:
            failed.append(module.__name__)
    assert not failed, f"docstring examples fail in {failed} (output above)"
    # The package, Session and explain examples: finding none would
    # mean the walk itself broke.
    assert attempted >= 17
