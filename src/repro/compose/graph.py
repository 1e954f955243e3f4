"""Deep fingerprints and the definition dependency graph.

A cached judgment is only valid while the definition *and everything
it calls* are unchanged, so judgments are keyed by a **deep
fingerprint**: the
definition's own alpha-invariant encoding
(:func:`repro.service.fingerprint.fingerprint_definition`) folded with
the deep fingerprints of its direct callees, in call order.  Editing a
definition therefore changes exactly the deep fingerprints of itself
and its transitive dependents — invalidation is the key change, no
explicit invalidation protocol needed — while every other definition's
judgment keeps hitting the cache.  That is the O(diff) property the
incremental driver and ``repro watch`` build on.
"""

from __future__ import annotations

import hashlib
from typing import Dict, FrozenSet, List, Set, Tuple

from ..core import ast_nodes as A
from ..core.ast_nodes import subexpressions
from ..ir.cache import IdentityCache
from ..service.fingerprint import fingerprint_definition

__all__ = ["DependencyGraph", "deep_fingerprints", "direct_callees"]

#: Definitions are immutable ASTs, so a definition object's base
#: fingerprint never changes; keying by identity makes re-fingerprinting
#: an unchanged program O(diff) when the parse layer
#: (:class:`repro.compose.parsing.ParseCache`) reuses definition
#: objects across edits.
_FINGERPRINTS: IdentityCache = IdentityCache(fingerprint_definition)
_CALLEES: IdentityCache = IdentityCache(
    lambda definition: _direct_callees_uncached(definition)
)

#: Version token folded into every deep fingerprint; bump when the
#: folding scheme changes.
_DEEP_VERSION = "deep/1"


def direct_callees(definition: A.Definition) -> Tuple[str, ...]:
    """The names ``definition`` calls directly, in first-use order.

    Built on :func:`repro.core.ast_nodes.subexpressions`, which walks
    iteratively — deeply nested benchmark bodies cannot hit the
    recursion limit.  Cached by definition identity.
    """
    result: Tuple[str, ...] = _CALLEES.get(definition)
    return result


def _direct_callees_uncached(definition: A.Definition) -> Tuple[str, ...]:
    seen: Set[str] = set()
    ordered: List[str] = []
    for expr in subexpressions(definition.body):
        if isinstance(expr, A.Call) and expr.name not in seen:
            seen.add(expr.name)
            ordered.append(expr.name)
    return tuple(ordered)


def _fold(own: str, callee_pairs: List[Tuple[str, str]]) -> str:
    """Hash a definition's own fingerprint with its callees' deep ones.

    Every token is length-prefixed before it reaches the hash, the same
    collision discipline the base fingerprint encoder follows.
    """
    h = hashlib.sha256()
    for token in [_DEEP_VERSION, own] + [
        part for pair in callee_pairs for part in pair
    ]:
        data = token.encode("utf-8")
        h.update(str(len(data)).encode("ascii") + b":" + data)
    return h.hexdigest()


def deep_fingerprints(program: A.Program) -> Dict[str, str]:
    """The deep fingerprint of every definition, in one forward pass.

    Bean programs resolve calls against *earlier* definitions only, so
    program order is already topological; a callee that is missing (or
    defined later — the checker rejects both when the call executes)
    contributes an ``unresolved`` token, keeping the pass total.
    """
    deep: Dict[str, str] = {}
    for definition in program:
        own: str = _FINGERPRINTS.get(definition)
        pairs: List[Tuple[str, str]] = []
        for callee in direct_callees(definition):
            resolved = deep.get(callee)
            if resolved is None:
                pairs.append((callee, "unresolved"))
            else:
                pairs.append((callee, resolved))
        deep[definition.name] = _fold(own, pairs)
    return deep


class DependencyGraph:
    """Call edges over a program's definitions, with reverse reachability.

    ``dependents_of(name)`` answers the invalidation question directly:
    after editing ``name``, exactly ``{name} | dependents_of(name)``
    need new judgments — everything else keeps its deep fingerprint.
    """

    def __init__(self, program: A.Program) -> None:
        self.order: Tuple[str, ...] = tuple(d.name for d in program)
        self.callees: Dict[str, Tuple[str, ...]] = {
            d.name: direct_callees(d) for d in program
        }
        self._callers: Dict[str, Set[str]] = {name: set() for name in self.order}
        for caller, callees in self.callees.items():
            for callee in callees:
                if callee in self._callers:
                    self._callers[callee].add(caller)

    def direct_dependents(self, name: str) -> FrozenSet[str]:
        """The definitions that call ``name`` directly."""
        return frozenset(self._callers.get(name, frozenset()))

    def dependents_of(self, name: str) -> FrozenSet[str]:
        """Every definition whose judgment an edit to ``name`` invalidates
        (transitive callers; ``name`` itself is not included)."""
        out: Set[str] = set()
        frontier: List[str] = [name]
        while frontier:
            current = frontier.pop()
            for caller in self._callers.get(current, ()):
                if caller not in out:
                    out.add(caller)
                    frontier.append(caller)
        return frozenset(out)
