"""Canonical content hashes for Bean programs.

The server's prepared-program table, fleet routing, the shard worker
pool's prepared programs and the deep fingerprints of
:mod:`repro.compose.graph` all key a program by *what it is*, not by
which parse produced it.  Two things rule out the obvious approaches:

* **object identity** (what :mod:`repro.ir.cache` uses in-memory) means
  nothing across processes;
* **raw structural hashing** is unstable because binder names carry
  no meaning.  The parser's own names depend only on the text (each
  definition numbers its desugared pattern binders from zero), but the
  program builders and the Λ_S renamer draw names from the
  process-global :func:`repro.core.ast_nodes.fresh_name` counter, so
  building the same program twice yields alpha-equivalent ASTs with
  *different* binder names, and so do two texts that differ only in
  the names they bind.

So the fingerprint here is an **alpha-invariant** canonical encoding:
binders are numbered de Bruijn-style in traversal order, bound
occurrences hash as their binder index, and only *free* names (formal
parameters, definition names, callee names) hash as text.  Lowering is
name-insensitive in every observable way — slots are positional, and
the only names embedded in semantic IR are debugging auxiliaries — so
alpha-equivalent definitions share prepared work soundly.

The walk is iterative: benchmark programs nest thousands of ``let``
binders, far past the default recursion limit.  Every token is
length-prefixed before it reaches the hash, so distinct trees cannot
collide by concatenation.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from ..core import ast_nodes as A
from ..core.grades import Grade
from ..core.types import Discrete, Num, Sum, Tensor, Type, Unit

__all__ = [
    "FINGERPRINT_VERSION",
    "UnfingerprintableError",
    "fingerprint_definition",
    "fingerprint_program",
]

#: Bump whenever the encoding changes, so fingerprints from older code
#: never match newer ones (fleet nodes route and prepare by them).
FINGERPRINT_VERSION = 2


class UnfingerprintableError(TypeError):
    """The AST contains nodes outside Bean's kernel grammar.

    Raised e.g. for :class:`repro.lam_s.syntax.Const` literals spliced
    into semantic-mode terms by tests; callers fall back to another key
    (a fresh anonymous pool key, the source text for fleet routing).
    """


def _token(h: "hashlib._Hash", text: str) -> None:
    data = text.encode("utf-8")
    h.update(len(data).to_bytes(4, "big"))
    h.update(data)


def _encode_type(h: "hashlib._Hash", ty: Optional[Type]) -> None:
    # Types are shallow (a vec(n) is a balanced tensor tree, depth
    # O(log n)); plain recursion is fine here.
    if ty is None:
        _token(h, "?")
    elif isinstance(ty, Num):
        _token(h, "num")
    elif isinstance(ty, Unit):
        _token(h, "unit")
    elif isinstance(ty, Discrete):
        _token(h, "!")
        _encode_type(h, ty.inner)
    elif isinstance(ty, Tensor):
        _token(h, "*")
        _encode_type(h, ty.left)
        _encode_type(h, ty.right)
    elif isinstance(ty, Sum):
        _token(h, "+")
        _encode_type(h, ty.left)
        _encode_type(h, ty.right)
    else:
        raise UnfingerprintableError(f"cannot fingerprint type {ty!r}")


def _encode_grade(h: "hashlib._Hash", grade: Optional[Grade]) -> None:
    if grade is None:
        _token(h, "?")
    else:
        _token(h, f"{grade.coeff.numerator}/{grade.coeff.denominator}")


_Scope = Dict[str, int]


def _encode_expr(h: "hashlib._Hash", root: A.Expr) -> None:
    """Hash ``root`` alpha-invariantly with an explicit work stack."""
    scope: _Scope = {}
    undo: List[Tuple[str, Optional[int]]] = []
    counter = 0

    def bind(name: str) -> None:
        nonlocal counter
        undo.append((name, scope.get(name)))
        scope[name] = counter
        counter += 1

    def unbind(n: int) -> None:
        for _ in range(n):
            name, old = undo.pop()
            if old is None:
                del scope[name]
            else:
                scope[name] = old

    work: List[Tuple[Any, ...]] = [("e", root)]
    while work:
        item = work.pop()
        tag = item[0]
        if tag == "u":
            unbind(item[1])
            continue
        if tag == "b":
            for name in item[1:]:
                bind(name)
            continue
        e = item[1]
        cls = type(e)
        if cls is A.Var:
            index = scope.get(e.name)
            if index is None:
                _token(h, "free")
                _token(h, e.name)
            else:
                _token(h, f"v{index}")
        elif cls is A.UnitVal:
            _token(h, "()")
        elif cls is A.Bang:
            _token(h, "!e")
            work.append(("e", e.body))
        elif cls is A.Rnd:
            _token(h, "rnd")
            work.append(("e", e.body))
        elif cls is A.Pair:
            _token(h, "pair")
            work.append(("e", e.right))
            work.append(("e", e.left))
        elif cls is A.Inl or cls is A.Inr:
            _token(h, "inl" if cls is A.Inl else "inr")
            _encode_type(h, e.other)
            work.append(("e", e.body))
        elif cls is A.Let or cls is A.DLet:
            _token(h, "let" if cls is A.Let else "dlet")
            # Binder order: the bound expression hashes in the outer
            # scope, then the binder enters scope for the body only.
            work.append(("u", 1))
            work.append(("e", e.body))
            work.append(("b", e.name))
            work.append(("e", e.bound))
        elif cls is A.LetPair or cls is A.DLetPair:
            _token(h, "letp" if cls is A.LetPair else "dletp")
            work.append(("u", 2))
            work.append(("e", e.body))
            work.append(("b", e.left, e.right))
            work.append(("e", e.bound))
        elif cls is A.Case:
            _token(h, "case")
            work.append(("u", 1))
            work.append(("e", e.right))
            work.append(("b", e.right_name))
            work.append(("u", 1))
            work.append(("e", e.left))
            work.append(("b", e.left_name))
            work.append(("e", e.scrutinee))
        elif cls is A.PrimOp:
            _token(h, f"op:{e.op.value}")
            work.append(("e", e.right))
            work.append(("e", e.left))
        elif cls is A.Call:
            _token(h, "call")
            _token(h, e.name)
            _token(h, str(len(e.args)))
            for arg in reversed(e.args):
                work.append(("e", arg))
        else:
            raise UnfingerprintableError(f"cannot fingerprint {e!r}")


def _encode_definition(h: "hashlib._Hash", definition: A.Definition) -> None:
    _token(h, "def")
    _token(h, definition.name)
    _token(h, str(len(definition.params)))
    for p in definition.params:
        _token(h, p.name)
        _encode_type(h, p.ty)
        _encode_grade(h, p.declared_grade)
    _encode_type(h, definition.declared_result)
    _encode_expr(h, definition.body)


def _options_token(options: Optional[Mapping[str, object]]) -> str:
    if not options:
        return "{}"
    return json.dumps(options, sort_keys=True, default=str)


def fingerprint_definition(
    definition: A.Definition,
    program: Optional[A.Program] = None,
    *,
    kind: str = "",
    options: Optional[Mapping[str, object]] = None,
) -> str:
    """The canonical hash of a definition (plus its program context).

    ``kind`` namespaces the key's users (``"pool"``, ``"fleet-route"``)
    and ``options`` folds in whatever engine options the keyed work
    depends on.  ``program`` must be supplied for work that reads other
    definitions (call inlining): the same definition inlines
    differently in programs whose callees differ.
    """
    h = hashlib.sha256()
    _token(h, f"bean-fp{FINGERPRINT_VERSION}")
    _token(h, kind)
    _token(h, _options_token(options))
    _encode_definition(h, definition)
    if program is not None:
        _token(h, f"prog:{len(program.definitions)}")
        for d in program:
            _encode_definition(h, d)
    return h.hexdigest()


def fingerprint_program(
    program: A.Program,
    *,
    kind: str = "",
    options: Optional[Mapping[str, object]] = None,
) -> str:
    """The canonical hash of a whole program."""
    h = hashlib.sha256()
    _token(h, f"bean-fp{FINGERPRINT_VERSION}")
    _token(h, kind)
    _token(h, _options_token(options))
    _token(h, f"prog:{len(program.definitions)}")
    for d in program:
        _encode_definition(h, d)
    return h.hexdigest()


def fingerprint_source(
    source: Union[str, bytes],
    *,
    kind: str = "",
    options: Optional[Mapping[str, object]] = None,
) -> str:
    """A cheap content hash of raw source text (server request keying)."""
    h = hashlib.sha256()
    _token(h, f"bean-src{FINGERPRINT_VERSION}")
    _token(h, kind)
    _token(h, _options_token(options))
    data = source.encode("utf-8") if isinstance(source, str) else source
    h.update(len(data).to_bytes(8, "big"))
    h.update(data)
    return h.hexdigest()
