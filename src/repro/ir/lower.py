"""Lowering Bean/Λ_S terms to the flat IR.

The lowering machine is a small explicit-stack interpreter over the AST,
so arbitrarily deep ``let`` chains (Sum 10000 nests ten thousand binders)
lower under the default recursion limit.  A let-spine whose bounds are
variables or primops on two variables (every binder of the paper's
families) is walked in place, with one ``unbind`` work item for the
whole chain instead of four items per ``let`` and per primop.  In checked
mode that walk is one loop (``_Lowerer._lower_checked_spine``) that takes
``let x = op a b``, ``let x = v`` and ``(d)let (a, b) = v`` links with the
scope, use-set, slot, type and op-list bookkeeping inlined.  Per link it
checks in the general helpers' order: each variable of the bound as it
is read (unbound, then reused; a discrete one emits its ``dvar`` in
place), a primop's left operand type, its right operand type, then the
``dlet`` bound's discreteness or the pair's type, and each binder's
freshness.  It raises through the error constructors those helpers use,
so each message text exists once.  ``case`` branches become nested
*regions* — contiguous op lists with their own payload and result slots —
sharing the global slot numbering, the same structured-control-flow shape
WASM and MLIR use; the only recursion anywhere in the IR pipeline is over
case-nesting depth, which is bounded by the source program's syntactic
nesting (zero for every paper benchmark), never by program length.

Two modes:

* **checked** (``checked=True``): re-implements the well-formedness side
  of the Figure 7 inference algorithm — structural types per slot,
  strict-linearity use tracking (forked and re-joined across case
  branches), no-shadowing freshness, and the per-rule type checks.  On
  a let-spine with one fault it raises the error
  :class:`repro.core.checker.InferenceEngine` raises, type and text
  (``tests/test_lower_spine.py`` pins this).  With several faults it
  rejects the definition too, but may report a different fault first:
  the lowering raises a linearity error where a variable is used a
  second time, the engine when contexts merge after typing the body.
  Calls are typed compositionally from the callee's judgment, like the
  recursive checker.
* **semantic** (``checked=False``): lowers any *runnable* term, exactly
  as permissive as the Λ_S big-step evaluator (shadowing allowed, no
  linearity, unknown variables fail at use time, Λ_S constants allowed).
  Free variables become implicit parameters read from the environment.

On a term both modes accept they emit the same ops, slot for slot: the
checks only *reject*, and the slot types and used-parameter set are
extra metadata.  So a checked definition's IR *is* its semantic IR —
the checker hands it to :mod:`repro.ir.cache`, and a checked definition
is lowered once.  Semantic mode remains for unchecked Λ_S terms
(:func:`lower_expr`, ``evaluate``) and definitions nobody checked.

Slot discipline: each op writes the slot ``op.dest``; parameter slots are
pre-filled by executors and have no defining op; ``let`` binders emit no
code at all (the bound name aliases the bound expression's slot), which
is what makes a 10000-binding chain a 9999-op program.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core import ast_nodes as A
from ..core.errors import BeanTypeError, LinearityError, UnboundVariableError
from ..core.types import NUM, UNIT as UNIT_TY, Discrete, Num, Sum, Tensor, is_discrete

__all__ = [
    "IROp",
    "IRProgram",
    "IRParam",
    "Region",
    "OP_NAMES",
    "DVAR",
    "CONST",
    "UNIT",
    "PAIR",
    "FST",
    "SND",
    "INL",
    "INR",
    "BANG",
    "RND",
    "ADD",
    "SUB",
    "MUL",
    "DIV",
    "DMUL",
    "CALL",
    "CASE",
    "lower_definition",
    "lower_expr",
]

# --------------------------------------------------------------------------
# Opcodes
# --------------------------------------------------------------------------

DVAR = 0  #: read a discretely bound variable (a = source slot, aux = name)
CONST = 1  #: Λ_S numeric literal (aux = value)
UNIT = 2  #: the unit value
PAIR = 3  #: tensor introduction (a, b = component slots)
FST = 4  #: first projection of a pair slot (from let-pair elimination)
SND = 5  #: second projection
INL = 6  #: left injection (aux = annotated right summand type)
INR = 7  #: right injection (aux = annotated left summand type)
BANG = 8  #: promotion ``!e`` — identity at runtime, discrete at type level
RND = 9  #: explicit rounding (identity in ideal mode)
ADD = 10
SUB = 11
MUL = 12
DIV = 13
DMUL = 14
CALL = 15  #: call of a top-level definition (aux = (name, arg slots))
CASE = 16  #: sum elimination (a = scrutinee, aux = (left, right) regions)

OP_NAMES = {
    DVAR: "dvar",
    CONST: "const",
    UNIT: "unit",
    PAIR: "pair",
    FST: "fst",
    SND: "snd",
    INL: "inl",
    INR: "inr",
    BANG: "bang",
    RND: "rnd",
    ADD: "add",
    SUB: "sub",
    MUL: "mul",
    DIV: "div",
    DMUL: "dmul",
    CALL: "call",
    CASE: "case",
}

_PRIM_CODE = {
    A.Op.ADD: ADD,
    A.Op.SUB: SUB,
    A.Op.MUL: MUL,
    A.Op.DIV: DIV,
    A.Op.DMUL: DMUL,
}

_DNUM = Discrete(NUM)
_DIV_TY = Sum(NUM, UNIT_TY)

#: The work-stack action that binds each let form, and its binder count.
_LET_ACTIONS = {
    A.Let: ("bind_let", 1),
    A.DLet: ("bind_let", 1),
    A.LetPair: ("bind_pair", 2),
    A.DLetPair: ("bind_pair", 2),
}

# Error constructors shared by the general helpers and the checked
# let-spine loop, so each message text exists once.


def _unbound_error(name: str) -> UnboundVariableError:
    return UnboundVariableError(f"unbound variable {name!r}")


def _reuse_error(name: str) -> LinearityError:
    return LinearityError(f"linear variable(s) used in two subexpressions: {name}")


def _shadow_error(name: str) -> BeanTypeError:
    return BeanTypeError(
        f"binding {name!r} shadows a variable already in scope; "
        "Bean programs must use distinct names"
    )


def _num_operand_error(op, ty) -> BeanTypeError:
    # ``op`` is a name or an ``A.Op``; either formats as the name.
    return BeanTypeError(f"{op} requires num operands, got {ty}")


def _dmul_operand_error(ty) -> BeanTypeError:
    return BeanTypeError(f"dmul's first operand must be discrete m(num), got {ty}")


def _dlet_error(ty) -> BeanTypeError:
    return BeanTypeError(
        f"dlet requires a discrete (m-typed) bound expression, got {ty}"
    )


def _pair_types(discrete_pair: bool, bound_ty) -> Tuple:
    """The component types a (``d``)``let``-pair binds, or its type error."""
    if discrete_pair:
        if (
            isinstance(bound_ty, Tensor)
            and is_discrete(bound_ty.left)
            and is_discrete(bound_ty.right)
        ):
            return bound_ty.left, bound_ty.right
        if isinstance(bound_ty, Discrete) and isinstance(bound_ty.inner, Tensor):
            return Discrete(bound_ty.inner.left), Discrete(bound_ty.inner.right)
        raise BeanTypeError(
            f"dlet-pair requires a pair of discrete components, got {bound_ty}"
        )
    if not isinstance(bound_ty, Tensor):
        raise BeanTypeError(f"let-pair requires a tensor type, got {bound_ty}")
    return bound_ty.left, bound_ty.right


def _twice_error(name: str) -> LinearityError:
    return LinearityError(
        f"pair pattern binds {name!r} twice; components must be distinct"
    )


#: Inverse of ``_PRIM_CODE``: arithmetic opcode back to the AST operator.
CODE_TO_PRIM = {code: op for op, code in _PRIM_CODE.items()}

#: Opcodes the batch witness engine can evaluate as whole-array operations.
#: ``div`` vectorizes with per-row zero screening, ``case``/``inl``/``inr``
#: with branch masks; ``call`` is the one op the array pipeline cannot see
#: through directly — :mod:`repro.ir.inline` rewrites calls away first, and
#: only programs where a call survives (unknown callee, arity mismatch,
#: recursion, size guard) drop to the scalar path.
_VECTORIZABLE = frozenset(
    {DVAR, CONST, UNIT, PAIR, FST, SND, INL, INR, BANG, RND,
     ADD, SUB, MUL, DIV, DMUL, CASE}
)


class IROp:
    """One flat instruction.  ``dest`` is the slot this op writes."""

    __slots__ = ("code", "dest", "a", "b", "aux")

    def __init__(self, code: int, dest: int, a: int = -1, b: int = -1, aux=None):
        self.code = code
        self.dest = dest
        self.a = a
        self.b = b
        self.aux = aux

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"%{self.dest} = {OP_NAMES[self.code]}"]
        if self.a >= 0:
            parts.append(f"%{self.a}")
        if self.b >= 0:
            parts.append(f"%{self.b}")
        if self.code in (DVAR, CALL, CONST):
            parts.append(repr(self.aux))
        return " ".join(parts)


class Region:
    """A case branch: its ops, the payload slot, and the result slot."""

    __slots__ = ("ops", "payload", "result")

    def __init__(self, ops: List[IROp], payload: int, result: int):
        self.ops = ops
        self.payload = payload
        self.result = result


class IRParam:
    """A parameter slot of an :class:`IRProgram`."""

    __slots__ = ("name", "slot", "discrete", "ty")

    def __init__(self, name: str, slot: int, discrete: bool, ty=None):
        self.name = name
        self.slot = slot
        self.discrete = discrete
        self.ty = ty

    def __repr__(self) -> str:  # pragma: no cover
        kind = "discrete" if self.discrete else "linear"
        return f"IRParam({self.name!r}@%{self.slot}, {kind})"


class IRProgram:
    """A lowered definition: flat op list plus slot metadata."""

    __slots__ = (
        "name",
        "params",
        "ops",
        "result",
        "n_slots",
        "types",
        "used_params",
        "has_calls",
        "has_cases",
        "vectorizable",
        "inline_fallbacks",
        "__weakref__",  # per-IR caches key on identity (repro.ir.cache)
    )

    def __init__(
        self,
        name: str,
        params: Tuple[IRParam, ...],
        ops: List[IROp],
        result: int,
        n_slots: int,
        types: Optional[List] = None,
        used_params: frozenset = frozenset(),
        has_calls: bool = False,
        has_cases: bool = False,
        vectorizable: bool = False,
        inline_fallbacks: Tuple = (),
    ):
        self.name = name
        self.params = params
        self.ops = ops
        self.result = result
        self.n_slots = n_slots
        self.types = types
        self.used_params = used_params
        self.has_calls = has_calls
        self.has_cases = has_cases
        self.vectorizable = vectorizable
        #: ``(callee, reason)`` pairs recorded by the inliner for every
        #: ``call`` op it left in place (empty for semantic-mode IR).
        self.inline_fallbacks = inline_fallbacks

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<IRProgram {self.name!r}: {len(self.ops)} ops, "
            f"{self.n_slots} slots, result %{self.result}>"
        )


# --------------------------------------------------------------------------
# The lowering machine
# --------------------------------------------------------------------------


class _Bind:
    """A scope entry: where a name lives and how it may be used."""

    __slots__ = ("slot", "discrete", "ty")

    def __init__(self, slot: int, discrete: bool, ty=None):
        self.slot = slot
        self.discrete = discrete
        self.ty = ty


class _Lowerer:
    def __init__(self, checked: bool, judgments: Optional[Mapping] = None):
        self.checked = checked
        self.judgments = dict(judgments or {})
        self.blocks: List[List[IROp]] = [[]]
        self.n_slots = 0
        self.types: List = [] if checked else None
        self.scope: Dict[str, _Bind] = {}
        #: Bound names to unbind; semantic mode pairs each with the
        #: entry it shadowed (see :meth:`bind`).
        self.undo: List = []
        self.used: set = set()  # _Bind objects consumed (checked mode)
        self.case_states: List[dict] = []
        self.implicit_params: List[IRParam] = []
        self.param_binds: Dict[str, _Bind] = {}
        self.param_slots: set = set()
        self.has_calls = False
        self.has_cases = False
        self.vectorizable = True

    # -- slot / op helpers -------------------------------------------------

    def new_slot(self, ty=None) -> int:
        slot = self.n_slots
        self.n_slots += 1
        if self.types is not None:
            self.types.append(ty)
        return slot

    def emit(self, code: int, a: int = -1, b: int = -1, aux=None, ty=None) -> int:
        dest = self.new_slot(ty)
        self.blocks[-1].append(IROp(code, dest, a, b, aux))
        if code not in _VECTORIZABLE:
            self.vectorizable = False
        return dest

    def bind(self, name: str, slot: int, discrete: bool, ty=None) -> None:
        # Checked mode binds only fresh names (check_fresh runs first), so
        # its undo log holds names; semantic mode keeps what it shadows.
        self.undo.append(name if self.checked else (name, self.scope.get(name)))
        self.scope[name] = _Bind(slot, discrete, ty)

    def unbind(self, count: int) -> None:
        undo, scope = self.undo, self.scope
        start = len(undo) - count
        if self.checked:
            for name in undo[start:]:
                del scope[name]
        else:
            for name, old in reversed(undo[start:]):
                if old is None:
                    del scope[name]
                else:
                    scope[name] = old
        del undo[start:]

    def check_fresh(self, name: str) -> None:
        if name in self.scope:
            raise _shadow_error(name)

    def ty_of(self, slot: int):
        return self.types[slot] if self.types is not None else None

    @staticmethod
    def _require_num(ty, op) -> None:
        if not isinstance(ty, Num):
            raise _num_operand_error(op, ty)

    # -- the main loop -----------------------------------------------------

    def lower(self, root: A.Expr) -> int:
        work: List[tuple] = [("expr", root)]
        vstack: List[int] = []
        push = work.append
        while work:
            item = work.pop()
            tag = item[0]

            if tag == "expr":
                e = item[1]
                cls = type(e)

                if cls is A.Var:
                    vstack.append(self._lower_var(e.name))
                elif cls in _LET_ACTIONS:
                    self._lower_let_spine(e, push)
                elif cls is A.PrimOp:
                    push(("primop", e))
                    push(("expr", e.right))
                    push(("primop_mid", e))
                    push(("expr", e.left))
                elif cls is A.Pair:
                    push(("pair",))
                    push(("expr", e.right))
                    push(("expr", e.left))
                elif cls is A.Bang:
                    push(("bang",))
                    push(("expr", e.body))
                elif cls is A.Rnd:
                    push(("rnd",))
                    push(("expr", e.body))
                elif cls is A.Inl or cls is A.Inr:
                    push(("inj", e))
                    push(("expr", e.body))
                elif cls is A.Case:
                    push(("case_mid", e))
                    push(("expr", e.scrutinee))
                elif cls is A.Call:
                    self._start_call(e, push)
                elif cls is A.UnitVal:
                    vstack.append(self.emit(UNIT, ty=UNIT_TY))
                elif not self.checked and hasattr(e, "value") and not A._children(e):
                    # Λ_S numeric literal (lam_s.syntax.Const) — runnable
                    # but outside Bean's checked grammar.
                    vstack.append(self.emit(CONST, aux=e.value))
                else:
                    if self.checked:
                        raise BeanTypeError(f"cannot check {e!r}")
                    raise BeanTypeError(f"cannot lower {e!r}")

            elif tag == "bind_let":
                self._bind_let(item[1], vstack.pop())

            elif tag == "bind_pair":
                self._bind_pair(item[1], vstack.pop())

            elif tag == "unbind":
                self.unbind(item[1])

            elif tag == "primop_mid":
                if self.checked:
                    self._primop_mid(item[1], vstack[-1])

            elif tag == "primop":
                b = vstack.pop()
                vstack.append(self._primop(item[1], vstack.pop(), b))

            elif tag == "pair":
                b = vstack.pop()
                a = vstack.pop()
                ty = None
                if self.checked:
                    ty = Tensor(self.ty_of(a), self.ty_of(b))
                vstack.append(self.emit(PAIR, a, b, ty=ty))

            elif tag == "bang":
                a = vstack.pop()
                ty = Discrete(self.ty_of(a)) if self.checked else None
                vstack.append(self.emit(BANG, a, ty=ty))

            elif tag == "rnd":
                a = vstack.pop()
                if self.checked:
                    self._require_num(self.ty_of(a), "rnd")
                vstack.append(self.emit(RND, a, ty=NUM if self.checked else None))

            elif tag == "inj":
                e = item[1]
                a = vstack.pop()
                code = INL if type(e) is A.Inl else INR
                ty = None
                if self.checked:
                    body_ty = self.ty_of(a)
                    ty = (
                        Sum(body_ty, e.other)
                        if code == INL
                        else Sum(e.other, body_ty)
                    )
                vstack.append(self.emit(code, a, aux=e.other, ty=ty))

            elif tag == "case_mid":
                self._case_mid(item[1], vstack, push)
            elif tag == "case_after_left":
                self._case_after_left(item[1], vstack, push)
            elif tag == "case_finish":
                self._case_finish(item[1], vstack)

            elif tag == "check_arg":
                if self.checked:
                    e, index = item[1], item[2]
                    param = self.judgments[e.name].params[index]
                    ty = self.ty_of(vstack[-1])
                    if ty != param.ty:
                        raise BeanTypeError(
                            f"argument for {param.name!r} of {e.name!r} has "
                            f"type {ty}, expected {param.ty}"
                        )
            elif tag == "emit_call":
                e = item[1]
                n = len(e.args)
                args = tuple(vstack[len(vstack) - n :]) if n else ()
                del vstack[len(vstack) - n :]
                ty = self.judgments[e.name].result if self.checked else None
                self.has_calls = True
                vstack.append(self.emit(CALL, aux=(e.name, args), ty=ty))

            else:  # pragma: no cover - machine invariant
                raise AssertionError(f"unknown lowering action {tag!r}")

        assert len(vstack) == 1, "lowering imbalance"
        return vstack[0]

    # -- per-construct helpers ---------------------------------------------

    def _lower_var(self, name: str) -> int:
        bind = self.scope.get(name)
        if bind is None:
            if self.checked:
                raise _unbound_error(name)
            # Semantic mode: an implicit parameter, resolved (or reported
            # missing) when the program runs — like the Λ_S evaluator.
            slot = self.new_slot()
            bind = _Bind(slot, False, None)
            self.scope[name] = bind
            self.implicit_params.append(IRParam(name, slot, False, None))
            self.param_slots.add(slot)
            return slot
        if bind.discrete:
            return self.emit(DVAR, bind.slot, aux=name, ty=bind.ty)
        if self.checked:
            if bind in self.used:
                raise _reuse_error(name)
            self.used.add(bind)
        return bind.slot

    def _lower_let_spine(self, e, push) -> None:
        """Lower a chain of lets in place, with one ``unbind`` for all.

        The walk goes on while each bound is a variable or a primop on
        two variables, which covers every binder of the paper's
        families.  It stops at the spine's tail, or at a let with any
        other bound, and hands that node to the general work stack.
        Checked mode runs :meth:`_lower_checked_spine` instead.
        """
        if self.checked:
            self._lower_checked_spine(e, push)
            return
        n = 0
        action = _LET_ACTIONS.get(type(e))
        while action is not None:
            bound = e.bound
            bcls = type(bound)
            if bcls is A.Var:
                slot = self._lower_var(bound.name)
            elif (
                bcls is A.PrimOp
                and type(bound.left) is A.Var
                and type(bound.right) is A.Var
            ):
                a = self._lower_var(bound.left.name)
                slot = self._primop(bound, a, self._lower_var(bound.right.name))
            else:
                tag, count = action
                push(("unbind", n + count))
                push(("expr", e.body))
                push((tag, e))
                push(("expr", bound))
                return
            if action[1] == 1:
                self._bind_let(e, slot)
            else:
                self._bind_pair(e, slot)
            n += action[1]
            e = e.body
            action = _LET_ACTIONS.get(type(e))
        push(("unbind", n))
        push(("expr", e))

    def _lower_checked_spine(self, e, push) -> None:
        """The checked let-spine: :meth:`_lower_let_spine`'s walk with
        the scope, use-set, slot, type and op-list bookkeeping inlined.

        Each link runs the general helpers' checks in their order:
        the bound's variables as :meth:`_lower_var` reads them (a
        discrete one emits its ``dvar`` in place), a primop's left
        operand type (:meth:`_primop_mid`), its right operand type
        (:meth:`_primop`), then the binder checks of :meth:`_bind_let`
        or :meth:`_bind_pair`.  It raises through the same error
        constructors and emits the same ops, slot for slot.  In checked
        mode a slot's number is its index in ``types``, and no binder
        shadows, so the undo log holds bare names.
        """
        scope = self.scope
        used = self.used
        types = self.types
        ops = self.blocks[-1]
        undo = self.undo
        param_slots = self.param_slots
        n = 0
        cls = type(e)
        while cls in _LET_ACTIONS:
            bound = e.bound
            bcls = type(bound)
            if bcls is A.Var:
                name = bound.name
                bind = scope.get(name)
                if bind is None:
                    raise _unbound_error(name)
                if bind.discrete:
                    slot = len(types)
                    types.append(bind.ty)
                    ops.append(IROp(DVAR, slot, bind.slot, -1, name))
                else:
                    if bind in used:
                        raise _reuse_error(name)
                    used.add(bind)
                    slot = bind.slot
                    if slot in param_slots and (cls is A.Let or cls is A.DLet):
                        # _bind_let's parameter alias: an identity op.
                        dest = len(types)
                        types.append(types[slot])
                        ops.append(IROp(BANG, dest, slot, -1, None))
                        slot = dest
            elif (
                bcls is A.PrimOp
                and type(bound.left) is A.Var
                and type(bound.right) is A.Var
            ):
                op = bound.op
                name = bound.left.name
                bind = scope.get(name)
                if bind is None:
                    raise _unbound_error(name)
                if bind.discrete:
                    a = len(types)
                    types.append(bind.ty)
                    ops.append(IROp(DVAR, a, bind.slot, -1, name))
                else:
                    if bind in used:
                        raise _reuse_error(name)
                    used.add(bind)
                    a = bind.slot
                ty = types[a]
                if op is A.Op.DMUL:
                    if ty != _DNUM:
                        raise _dmul_operand_error(ty)
                elif not isinstance(ty, Num):
                    raise _num_operand_error(op, ty)
                name = bound.right.name
                bind = scope.get(name)
                if bind is None:
                    raise _unbound_error(name)
                if bind.discrete:
                    b = len(types)
                    types.append(bind.ty)
                    ops.append(IROp(DVAR, b, bind.slot, -1, name))
                else:
                    if bind in used:
                        raise _reuse_error(name)
                    used.add(bind)
                    b = bind.slot
                ty = types[b]
                if not isinstance(ty, Num):
                    raise _num_operand_error(op, ty)
                slot = len(types)
                types.append(_DIV_TY if op is A.Op.DIV else NUM)
                ops.append(IROp(_PRIM_CODE[op], slot, a, b, None))
            else:
                break
            ty = types[slot]
            if cls is A.Let or cls is A.DLet:
                discrete = cls is A.DLet
                if discrete and not isinstance(ty, Discrete):
                    raise _dlet_error(ty)
                name = e.name
                if name in scope:
                    raise _shadow_error(name)
                undo.append(name)
                scope[name] = _Bind(slot, discrete, ty)
                n += 1
            else:
                discrete = cls is A.DLetPair
                left_ty, right_ty = _pair_types(discrete, ty)
                left, right = e.left, e.right
                if left in scope:
                    raise _shadow_error(left)
                if right in scope:
                    raise _shadow_error(right)
                if left == right:
                    raise _twice_error(left)
                fst = len(types)
                types.append(left_ty)
                types.append(right_ty)
                ops.append(IROp(FST, fst, slot, -1, None))
                ops.append(IROp(SND, fst + 1, slot, -1, None))
                undo.append(left)
                undo.append(right)
                scope[left] = _Bind(fst, discrete, left_ty)
                scope[right] = _Bind(fst + 1, discrete, right_ty)
                n += 2
            e = e.body
            cls = type(e)
        self.n_slots = len(types)
        if cls in _LET_ACTIONS:
            # A let whose bound is not a spine link: the general stack
            # lowers the bound, then binds and walks on from its body.
            tag, count = _LET_ACTIONS[cls]
            push(("unbind", n + count))
            push(("expr", e.body))
            push((tag, e))
            push(("expr", e.bound))
            return
        push(("unbind", n))
        push(("expr", e))

    def _bind_let(self, e, slot: int) -> None:
        """Bind a ``Let``/``DLet`` name to its bound's ``slot``."""
        if type(e.bound) is A.Var and slot in self.param_slots:
            # Figure 6's let rule reads a let-bound variable eagerly; a
            # pure slot alias would skip the read (and its unbound-input
            # check) when the binder is dead.  An identity op keeps the
            # strictness observable.  Checked mode emits it too, typed
            # as the parameter (grade inference passes ``!`` through),
            # so both modes produce the same ops.
            slot = self.emit(BANG, slot, ty=self.ty_of(slot))
        if type(e) is A.DLet:
            if self.checked:
                ty = self.ty_of(slot)
                if not is_discrete(ty):
                    raise _dlet_error(ty)
                self.check_fresh(e.name)
            self.bind(e.name, slot, True, self.ty_of(slot))
        else:
            if self.checked:
                self.check_fresh(e.name)
            self.bind(e.name, slot, False, self.ty_of(slot))

    def _primop_mid(self, e: A.PrimOp, a: int) -> None:
        """Checked mode: the left operand's type, before the right lowers."""
        ty1 = self.ty_of(a)
        if e.op is A.Op.DMUL:
            if ty1 != _DNUM:
                raise _dmul_operand_error(ty1)
        else:
            self._require_num(ty1, e.op)

    def _primop(self, e: A.PrimOp, a: int, b: int) -> int:
        """Emit ``e.op`` on slots ``a`` and ``b`` (checking ``b`` first)."""
        result_ty = None
        if self.checked:
            self._require_num(self.ty_of(b), e.op)
            result_ty = _DIV_TY if e.op is A.Op.DIV else NUM
        return self.emit(_PRIM_CODE[e.op], a, b, ty=result_ty)

    def _bind_pair(self, e, slot: int) -> None:
        """Pair elimination, shared by ``LetPair`` and ``DLetPair``."""
        discrete_pair = type(e) is A.DLetPair
        bound_ty = self.ty_of(slot)
        left_ty = right_ty = None
        if self.checked:
            left_ty, right_ty = _pair_types(discrete_pair, bound_ty)
            self.check_fresh(e.left)
            self.check_fresh(e.right)
            if e.left == e.right:
                raise _twice_error(e.left)
        fst = self.emit(FST, slot, ty=left_ty)
        snd = self.emit(SND, slot, ty=right_ty)
        self.bind(e.left, fst, discrete_pair, left_ty)
        self.bind(e.right, snd, discrete_pair, right_ty)

    def _start_call(self, e: A.Call, push) -> None:
        if self.checked:
            judgment = self.judgments.get(e.name)
            if judgment is None:
                raise UnboundVariableError(
                    f"call to unknown definition {e.name!r} "
                    "(definitions must appear before their uses)"
                )
            if len(e.args) != len(judgment.params):
                raise BeanTypeError(
                    f"{e.name!r} expects {len(judgment.params)} argument(s), "
                    f"got {len(e.args)}"
                )
        push(("emit_call", e))
        for i in range(len(e.args) - 1, -1, -1):
            push(("check_arg", e, i))
            push(("expr", e.args[i]))

    def _case_mid(self, e: A.Case, vstack: List[int], push) -> None:
        scrut = vstack.pop()
        scrut_ty = self.ty_of(scrut)
        if self.checked:
            if not isinstance(scrut_ty, Sum):
                raise BeanTypeError(
                    f"case requires a sum-typed scrutinee, got {scrut_ty}"
                )
            self.check_fresh(e.left_name)
        state = {
            "scrut": scrut,
            "saved_used": set(self.used) if self.checked else None,
        }
        self.case_states.append(state)
        # Left region: fresh emission buffer, payload slot, branch binder.
        self.blocks.append([])
        payload = self.new_slot(scrut_ty.left if self.checked else None)
        state["payload_left"] = payload
        self.bind(e.left_name, payload, False, scrut_ty.left if self.checked else None)
        push(("case_after_left", e))
        push(("expr", e.left))

    def _case_after_left(self, e: A.Case, vstack: List[int], push) -> None:
        state = self.case_states[-1]
        state["left_result"] = vstack.pop()
        state["left_ops"] = self.blocks.pop()
        self.unbind(1)
        if self.checked:
            state["left_used"] = self.used
            self.used = set(state["saved_used"])
            self.check_fresh(e.right_name)
        scrut_ty = self.ty_of(state["scrut"])
        self.blocks.append([])
        payload = self.new_slot(scrut_ty.right if self.checked else None)
        state["payload_right"] = payload
        self.bind(
            e.right_name, payload, False, scrut_ty.right if self.checked else None
        )
        push(("case_finish", e))
        push(("expr", e.right))

    def _case_finish(self, e: A.Case, vstack: List[int]) -> None:
        state = self.case_states.pop()
        right_result = vstack.pop()
        right_ops = self.blocks.pop()
        self.unbind(1)
        result_ty = None
        if self.checked:
            left_ty = self.ty_of(state["left_result"])
            right_ty = self.ty_of(right_result)
            if left_ty != right_ty:
                raise BeanTypeError(
                    f"case branches disagree: {left_ty} vs {right_ty}"
                )
            self.used = state["left_used"] | self.used
            result_ty = left_ty
        regions = (
            Region(state["left_ops"], state["payload_left"], state["left_result"]),
            Region(right_ops, state["payload_right"], right_result),
        )
        self.has_cases = True
        vstack.append(self.emit(CASE, state["scrut"], aux=regions, ty=result_ty))


# --------------------------------------------------------------------------
# Entry points
# --------------------------------------------------------------------------


def lower_definition(
    definition: A.Definition,
    *,
    checked: bool = False,
    judgments: Optional[Mapping] = None,
) -> IRProgram:
    """Lower a definition.  See the module docstring for the two modes."""
    low = _Lowerer(checked, judgments)
    params = []
    for p in definition.params:
        discrete = is_discrete(p.ty)
        slot = low.new_slot(p.ty)
        bind = _Bind(slot, discrete, p.ty)
        low.scope[p.name] = bind
        low.param_binds[p.name] = bind
        low.param_slots.add(slot)
        params.append(IRParam(p.name, slot, discrete, p.ty))
    result = low.lower(definition.body)
    used_params = frozenset(
        name for name, bind in low.param_binds.items() if bind in low.used
    )
    return IRProgram(
        definition.name,
        tuple(params) + tuple(low.implicit_params),
        low.blocks[0],
        result,
        low.n_slots,
        types=low.types,
        used_params=used_params,
        has_calls=low.has_calls,
        has_cases=low.has_cases,
        vectorizable=low.vectorizable and not low.implicit_params,
    )


def lower_expr(
    expr: A.Expr,
    *,
    params: Sequence[A.Param] = (),
) -> IRProgram:
    """Lower a bare (semantic-mode) expression.

    Free variables not covered by ``params`` become implicit linear
    parameters read from the evaluation environment, mirroring the
    Λ_S big-step semantics' env lookup.
    """
    low = _Lowerer(False, None)
    param_slots = []
    for p in params:
        discrete = is_discrete(p.ty)
        slot = low.new_slot()
        low.scope[p.name] = _Bind(slot, discrete, p.ty)
        low.param_slots.add(slot)
        param_slots.append(IRParam(p.name, slot, discrete, p.ty))
    result = low.lower(expr)
    return IRProgram(
        "<expr>",
        tuple(param_slots) + tuple(low.implicit_params),
        low.blocks[0],
        result,
        low.n_slots,
        has_calls=low.has_calls,
        has_cases=low.has_cases,
        vectorizable=False,
    )
