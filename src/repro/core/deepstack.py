"""Run recursive analyses on very deep ASTs safely.

The Table 1 benchmarks type-check programs with let-chains ~1000 bindings
deep (Sum 1000) and ~5000 floating-point operations (PolyVal 100).  A
straightforward structural recursion is by far the clearest way to write
the checker and the interpreters, but CPython's default recursion limit
(and, more importantly, its default C stack) cannot handle such depths.

:func:`call_with_deep_stack` runs a callable inside a worker thread with a
large explicit stack and a raised recursion limit, and re-raises whatever
the callable raised.  The overhead is a fraction of a millisecond, which is
negligible next to checking even a tiny program.
"""

from __future__ import annotations

import sys
import threading
from typing import Any, Callable, TypeVar

__all__ = ["call_with_deep_stack", "DEEP_RECURSION_LIMIT", "DEEP_STACK_BYTES"]

T = TypeVar("T")

#: Recursion limit used inside the worker thread.
DEEP_RECURSION_LIMIT = 1_000_000
#: Thread stack size: 512 MiB accommodates ~10^6 small frames.
DEEP_STACK_BYTES = 512 * 1024 * 1024

# The recursion limit and the thread stack size are process-wide, so
# concurrent callers share one raise of the limit: the first caller in
# saves it, the last one out restores it.  Without the count, two
# overlapping save/restore pairs can leave the raised limit in place.
_limit_lock = threading.Lock()
_limit_users = 0
_saved_limit = 0
_stack_lock = threading.Lock()


def _raise_limit() -> None:
    global _limit_users, _saved_limit
    with _limit_lock:
        if _limit_users == 0:
            _saved_limit = sys.getrecursionlimit()
            sys.setrecursionlimit(DEEP_RECURSION_LIMIT)
        _limit_users += 1


def _restore_limit() -> None:
    global _limit_users
    with _limit_lock:
        _limit_users -= 1
        if _limit_users == 0:
            sys.setrecursionlimit(_saved_limit)


def call_with_deep_stack(fn: Callable[..., T], *args: Any, **kwargs: Any) -> T:
    """Invoke ``fn(*args, **kwargs)`` on a thread with a very deep stack."""
    result: list = []
    failure: list = []

    def runner() -> None:
        _raise_limit()
        try:
            result.append(fn(*args, **kwargs))
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            failure.append(exc)
        finally:
            _restore_limit()

    with _stack_lock:
        old_stack = threading.stack_size()
        try:
            threading.stack_size(DEEP_STACK_BYTES)
            thread = threading.Thread(target=runner, name="repro-deepstack")
            thread.start()
        finally:
            threading.stack_size(old_stack)
    thread.join()
    if failure:
        raise failure[0]
    return result[0]
