"""Identity-keyed program caches for lowered IR.

Lowering is linear in program size, but hot loops (the witness runner,
the benchmark drivers, repeated CLI invocations on the same parsed
program) re-analyze the *same* ``Definition`` object thousands of times.
These caches key on object identity — definitions are immutable ASTs, so
identity is the right equality, and hashing a 10000-deep expression tree
(which structural equality would require) is exactly the recursion this
package exists to avoid.  A weak reference per entry evicts the cache
line when the definition is garbage collected, so ``id`` reuse cannot
serve stale programs.

Behind the identity layer sits an optional **persistent layer**
(:func:`set_persistent_cache`): a content-addressed store — in practice
:class:`repro.service.cache.ArtifactCache` — consulted on identity-cache
misses so lowered and inlined IR survive process restarts.  The
registration point lives here (rather than in :mod:`repro.service`) so
this package and :mod:`repro.core.checker` can consult it without
importing the serving layer.

A checked definition's IR *is* its semantic IR: the checker lowers each
definition once (``checked=True``) and hands the result to
:func:`adopt_checked_ir`, so :func:`semantic_definition_ir` lowers only
definitions that were never checked in this process.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, Tuple

from ..core import ast_nodes as A
from .lower import IRProgram, lower_definition, lower_expr

__all__ = [
    "IdentityCache",
    "semantic_definition_ir",
    "adopt_checked_ir",
    "semantic_expr_ir",
    "inlined_definition_ir",
    "clear_caches",
    "set_persistent_cache",
    "persistent_cache",
]


class IdentityCache:
    """Map arbitrary (weakref-able) objects to built values by identity."""

    def __init__(self, build: Callable):
        self._build = build
        self._entries: Dict[int, Tuple[Callable, object]] = {}

    def get(self, obj):
        entry = self._entries.get(id(obj))
        if entry is not None and entry[0]() is obj:
            return entry[1]
        return self.put(obj, self._build(obj))

    def put(self, obj, value):
        """Cache ``value`` for ``obj`` unless it has one; return the cached value."""
        key = id(obj)
        entry = self._entries.get(key)
        if entry is not None and entry[0]() is obj:
            return entry[1]
        try:
            ref = weakref.ref(obj, lambda _r, k=key, e=self._entries: e.pop(k, None))
        except TypeError:  # un-weakref-able object: never evict, pin it
            ref = (lambda o: (lambda: o))(obj)
        self._entries[key] = (ref, value)
        return value

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


#: The cross-process artifact store, if one is activated.  Anything with
#: ``get(kind, definition, program, build)`` works; see
#: :class:`repro.service.cache.ArtifactCache`.
_PERSISTENT = None


def set_persistent_cache(cache) -> None:
    """Install (or with ``None`` remove) the persistent outer layer.

    The in-memory identity caches are cleared so artifacts built before
    the switch cannot bypass (or leak from) the new store.
    """
    global _PERSISTENT
    _PERSISTENT = cache
    clear_caches()
    from ..core import checker

    checker.clear_judgment_caches()


def persistent_cache():
    """The installed persistent layer, or ``None``."""
    return _PERSISTENT


def _build_semantic(definition: A.Definition) -> IRProgram:
    def build() -> IRProgram:
        return lower_definition(definition, checked=False)

    if _PERSISTENT is None or not isinstance(definition, A.Definition):
        return build()
    return _PERSISTENT.get("semantic-ir", definition, None, build)


_SEMANTIC_DEFS = IdentityCache(_build_semantic)
_SEMANTIC_EXPRS = IdentityCache(lambda e: lower_expr(e))


def semantic_definition_ir(definition: A.Definition) -> IRProgram:
    """The (cached) semantic-mode IR of a definition."""
    return _SEMANTIC_DEFS.get(definition)


def adopt_checked_ir(definition: A.Definition, ir: IRProgram) -> None:
    """Cache the checker's IR of ``definition`` as its semantic IR (the
    two lowerings agree on accepted definitions, see
    :mod:`repro.ir.lower`).  A persistent layer keeps its own path."""
    if _PERSISTENT is None:
        _SEMANTIC_DEFS.put(definition, ir)


def semantic_expr_ir(expr: A.Expr) -> IRProgram:
    """The (cached) semantic-mode IR of a bare expression."""
    return _SEMANTIC_EXPRS.get(expr)


#: (id(definition), id(program)) -> (def ref, program ref, inlined IR).
_INLINED: Dict[Tuple[int, int], Tuple[Callable, Callable, IRProgram]] = {}


def _ref(obj, key):
    try:
        return weakref.ref(obj, lambda _r, k=key: _INLINED.pop(k, None))
    except TypeError:  # un-weakref-able object: never evict, pin it
        return (lambda o: (lambda: o))(obj)


def inlined_definition_ir(definition: A.Definition, program) -> IRProgram:
    """The (cached) call-inlined semantic IR of a definition.

    Keyed on the identity of *both* the definition and the program: the
    same definition object can appear in several programs whose callee
    definitions differ.
    """
    if program is None:
        return semantic_definition_ir(definition)
    key = (id(definition), id(program))
    entry = _INLINED.get(key)
    if entry is not None and entry[0]() is definition and entry[1]() is program:
        return entry[2]
    from .inline import inline_calls

    def build() -> IRProgram:
        return inline_calls(semantic_definition_ir(definition), program)

    if _PERSISTENT is None or not isinstance(definition, A.Definition):
        value = build()
    else:
        value = _PERSISTENT.get("inlined-ir", definition, program, build)
    _INLINED[key] = (_ref(definition, key), _ref(program, key), value)
    return value


def clear_caches() -> None:
    """Drop every cached program (tests / memory pressure)."""
    _SEMANTIC_DEFS.clear()
    _SEMANTIC_EXPRS.clear()
    _INLINED.clear()
