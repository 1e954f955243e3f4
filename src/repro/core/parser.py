"""Recursive-descent parser for Bean's concrete syntax.

Grammar (expressions follow the paper's Figure 2, with the Section 4
conveniences: calls, tuple patterns, and n-ary tuples)::

    program    ::= definition+
    definition ::= NAME param* (':' type)? ':=' expr
    param      ::= '(' pattern ':' type ('@' INT ('/' INT)?)? ')'
    pattern    ::= NAME | '(' pattern (',' pattern)+ ')'

    type       ::= tensor ('+' tensor)?
    tensor     ::= atomtype (('*' | '⊗') atomtype)*        (right assoc)
    atomtype   ::= 'num' | 'R' | 'unit' | '!' atomtype
                 | 'vec' '(' INT ')' | 'mat' '(' INT ',' INT ')'
                 | '(' type ')'

    expr       ::= 'let' pattern '=' expr 'in' expr
                 | 'dlet' pattern '=' expr 'in' expr
                 | 'case' expr 'of' 'inl' bname '=>' expr
                                '|' 'inr' bname '=>' expr
                 | op atom atom                 (op ∈ add sub mul dmul div)
                 | 'rnd' atom
                 | 'inl' ('{' type '}')? atom
                 | 'inr' ('{' type '}')? atom
                 | '!' atom
                 | NAME atom+                   (call)
                 | atom
    atom       ::= NAME | '(' ')' | '(' expr (',' expr)* ')'

``NAME`` and ``INT`` are the lexer's ``IDENT`` and ASCII ``[0-9]+``
tokens (:mod:`repro.core.lexer`).  The parser reads the token *texts*
of one whole-source scan and compares strings; a syntax error's
line:column is computed only when it is raised.  The let-spine is
parsed in a loop, and its commonest link, ``let NAME = op NAME NAME
in``, in one step.

Desugared tuple patterns bind names from a per-definition supply
(``__arg0``, ``__l1``, ...) that skips the source's own identifiers,
so a program's AST depends on its text alone.

Tuple patterns and n-ary tuples are desugared to *balanced* nested pairs,
matching :func:`repro.core.types.tensor_of`, so pattern depth stays
logarithmic in the tuple width.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, FrozenSet, List, Optional, Sequence, Tuple, TypeVar, Union

from . import ast_nodes as A
from .errors import BeanSyntaxError
from .grades import Grade
from .lexer import TokenKind, kind_of, scan, tokenize
from .types import NUM, UNIT, Discrete, Sum, Tensor, Type, is_discrete, matrix, vector

__all__ = ["parse_program", "parse_expression", "parse_type"]

_OPS = {
    "add": A.Op.ADD,
    "sub": A.Op.SUB,
    "mul": A.Op.MUL,
    "dmul": A.Op.DMUL,
    "div": A.Op.DIV,
}

#: Pattern = a variable name or a tuple of sub-patterns.
Pattern = Union[str, Tuple["Pattern", ...]]

_T = TypeVar("_T")


def _describe(tok: str) -> str:
    return repr(tok) if tok else "end of input"


class _NameSupply:
    """Binder names for desugared patterns: ``__arg0``, ``__l1``, ...

    Each definition starts its own count, so a program's names depend on
    its text alone, never on what was parsed before it in the process.
    Names spelled like an identifier of the source are skipped, and the
    two leading underscores keep them apart from
    :func:`~repro.core.ast_nodes.fresh_name`, whose names have one.
    """

    __slots__ = ("taken", "count")

    def __init__(self, taken: FrozenSet[str]) -> None:
        self.taken = taken
        self.count = 0

    def __call__(self, hint: str) -> str:
        while True:
            name = f"__{hint}{self.count}"
            self.count += 1
            if name not in self.taken:
                return name


class _Parser:
    """Recursive descent over the token texts of one source.

    A token is its text (the lexer's :func:`~repro.core.lexer.scan`):
    no identifier or numeral is spelled like a keyword or symbol, so
    the grammar compares strings directly, and ``idents`` (the source's
    identifiers) answers "is this a NAME".  Positions are computed, by
    :func:`~repro.core.lexer.tokenize`, only when an error is raised.
    """

    __slots__ = ("source", "toks", "idents", "pos", "fresh")

    def __init__(self, source: str) -> None:
        self.source = source
        self.toks, self.idents = scan(source)
        self.pos = 0
        self.fresh = _NameSupply(self.idents)

    # -- token plumbing -------------------------------------------------------

    def error(self, message: str) -> BeanSyntaxError:
        """A syntax error at the current token."""
        tok = tokenize(self.source)[self.pos]
        return BeanSyntaxError(message, tok.line, tok.column)

    def expect_symbol(self, sym: str) -> None:
        if self.toks[self.pos] != sym:
            raise self.error(f"expected {sym!r}, found {_describe(self.toks[self.pos])}")
        self.pos += 1

    def expect_keyword(self, word: str) -> None:
        if self.toks[self.pos] != word:
            raise self.error(
                f"expected keyword {word!r}, found {_describe(self.toks[self.pos])}"
            )
        self.pos += 1

    def expect_ident(self) -> str:
        tok = self.toks[self.pos]
        if tok not in self.idents:
            raise self.error(f"expected an identifier, found {_describe(tok)}")
        self.pos += 1
        return tok

    def expect_int(self) -> int:
        tok = self.toks[self.pos]
        if kind_of(tok) != TokenKind.INT:
            raise self.error(f"expected an integer, found {_describe(tok)}")
        self.pos += 1
        return int(tok)

    # -- types ----------------------------------------------------------------

    def parse_type(self) -> Type:
        left = self.parse_tensor_type()
        if self.toks[self.pos] == "+":
            self.pos += 1
            right = self.parse_type()
            return Sum(left, right)
        return left

    def parse_tensor_type(self) -> Type:
        left = self.parse_atom_type()
        if self.toks[self.pos] in ("*", "⊗"):
            self.pos += 1
            right = self.parse_tensor_type()
            return Tensor(left, right)
        return left

    def parse_atom_type(self) -> Type:
        tok = self.toks[self.pos]
        if tok == "num" or tok == "R":
            self.pos += 1
            return NUM
        if tok == "unit":
            self.pos += 1
            return UNIT
        if tok == "!":
            self.pos += 1
            return Discrete(self.parse_atom_type())
        if tok == "vec":
            self.pos += 1
            self.expect_symbol("(")
            n = self.expect_int()
            self.expect_symbol(")")
            return vector(n)
        if tok == "mat":
            self.pos += 1
            self.expect_symbol("(")
            rows = self.expect_int()
            self.expect_symbol(",")
            cols = self.expect_int()
            self.expect_symbol(")")
            return matrix(rows, cols)
        if tok == "(":
            self.pos += 1
            inner = self.parse_type()
            self.expect_symbol(")")
            return inner
        raise self.error(f"expected a type, found {_describe(tok)}")

    # -- patterns --------------------------------------------------------------

    def parse_pattern(self) -> Pattern:
        toks = self.toks
        tok = toks[self.pos]
        if tok in self.idents:
            self.pos += 1
            return tok
        if tok == "(":
            self.pos += 1
            parts: List[Pattern] = [self.parse_pattern()]
            while toks[self.pos] == ",":
                self.pos += 1
                parts.append(self.parse_pattern())
            self.expect_symbol(")")
            if len(parts) == 1:
                return parts[0]
            return tuple(parts)
        raise self.error(f"expected a pattern, found {_describe(tok)}")

    # -- expressions -------------------------------------------------------------

    def parse_expr(self) -> A.Expr:
        toks = self.toks
        idents = self.idents
        text = toks[self.pos]
        if text == "let" or text == "dlet":
            # Iterate over the let-spine instead of recursing: benchmark
            # programs chain thousands of binders, and the rest of the
            # pipeline (IR lowering, sweeps) is iterative too.  The
            # commonest link, ``let NAME = op NAME NAME in``, is taken
            # in one step; every lookahead below stops at the ``""``
            # EOF sentinel, which matches none of them.
            frames: List[Tuple[Pattern, A.Expr, bool]] = []
            pos = self.pos
            while text == "let" or text == "dlet":
                name = toks[pos + 1]
                if name in idents and toks[pos + 2] == "=":
                    op = _OPS.get(toks[pos + 3])
                    if (
                        op is not None
                        and toks[pos + 4] in idents
                        and toks[pos + 5] in idents
                        and toks[pos + 6] == "in"
                    ):
                        bound: A.Expr = A.PrimOp(
                            op, A.Var(toks[pos + 4]), A.Var(toks[pos + 5])
                        )
                        frames.append((name, bound, text == "dlet"))
                        pos += 7
                        text = toks[pos]
                        continue
                self.pos = pos + 1  # let / dlet
                pattern = self.parse_pattern()
                self.expect_symbol("=")
                bound = self.parse_expr()
                self.expect_keyword("in")
                frames.append((pattern, bound, text == "dlet"))
                pos = self.pos
                text = toks[pos]
            self.pos = pos
            expr = self.parse_expr()
            for pattern, bound, discrete in reversed(frames):
                if isinstance(pattern, str):  # bind_pattern's name case, inline
                    if discrete:
                        expr = A.DLet(pattern, bound, expr)
                    else:
                        expr = A.Let(pattern, bound, expr)
                else:
                    expr = bind_pattern(pattern, bound, expr, discrete, self.fresh)
            return expr
        op = _OPS.get(text)
        if op is not None:
            self.pos += 1
            left = self.parse_atom()
            right = self.parse_atom()
            return A.PrimOp(op, left, right)
        if text == "case":
            return self.parse_case()
        if text == "rnd":
            self.pos += 1
            return A.Rnd(self.parse_atom())
        if text == "inl" or text == "inr":
            return self.parse_injection()
        if text == "!":
            self.pos += 1
            return A.Bang(self.parse_atom())
        if (
            text in idents
            and self._starts_atom(toks[self.pos + 1])
            and not self._begins_definition(self.pos + 1)
        ):
            self.pos += 1
            args = [self.parse_atom()]
            while self._starts_atom(toks[self.pos]) and not self._begins_definition(
                self.pos
            ):
                args.append(self.parse_atom())
            return A.Call(text, args)
        return self.parse_atom()

    def _starts_atom(self, tok: str) -> bool:
        return tok in self.idents or tok == "("

    def _begins_definition(self, idx: int) -> bool:
        """Whether the token at ``idx`` starts a new top-level definition.

        Definitions look like ``NAME (pat : type) ... :=``; the telltale is
        a ``:`` or ``:=`` after the name (possibly inside the first
        parenthesized parameter), which no expression can produce.
        """
        toks = self.toks
        if toks[idx] not in self.idents:  # so ``idx`` is not the last token
            return False
        after = toks[idx + 1]
        if after == ":=" or after == ":":
            return True
        if after != "(":
            return False
        depth = 0
        for j in range(idx + 1, len(toks)):
            t = toks[j]
            if t == "(":
                depth += 1
            elif t == ")":
                depth -= 1
                if depth == 0:
                    return False
            elif t == ":" or t == ":=":
                return True
            elif not t:
                return False
        return False

    def parse_case(self) -> A.Expr:
        self.expect_keyword("case")
        scrutinee = self.parse_expr()
        self.expect_keyword("of")
        self.expect_keyword("inl")
        left_name = self.parse_branch_name()
        self.expect_symbol("=>")
        left = self.parse_expr()
        self.expect_symbol("|")
        self.expect_keyword("inr")
        right_name = self.parse_branch_name()
        self.expect_symbol("=>")
        right = self.parse_expr()
        return A.Case(scrutinee, left_name, left, right_name, right)

    def parse_branch_name(self) -> str:
        if self.toks[self.pos] == "(":
            self.pos += 1
            name = self.expect_ident()
            self.expect_symbol(")")
            return name
        return self.expect_ident()

    def parse_injection(self) -> A.Expr:
        tok = self.toks[self.pos]  # inl / inr
        self.pos += 1
        other: Type = UNIT
        if self.toks[self.pos] == "{":
            self.pos += 1
            other = self.parse_type()
            self.expect_symbol("}")
        body = self.parse_atom()
        if tok == "inl":
            return A.Inl(body, other)
        return A.Inr(body, other)

    def parse_atom(self) -> A.Expr:
        toks = self.toks
        tok = toks[self.pos]
        if tok in self.idents:
            self.pos += 1
            return A.Var(tok)
        if tok == "(":
            self.pos += 1
            if toks[self.pos] == ")":
                self.pos += 1
                return A.UnitVal()
            parts = [self.parse_expr()]
            while toks[self.pos] == ",":
                self.pos += 1
                parts.append(self.parse_expr())
            self.expect_symbol(")")
            if len(parts) == 1:
                return parts[0]
            return balanced_tuple(parts)
        raise self.error(f"expected an expression, found {_describe(tok)}")

    # -- definitions -----------------------------------------------------------

    def parse_grade_annotation(self) -> Grade:
        """``@ n`` or ``@ n/d``: a declared bound in units of ε."""
        numerator = self.expect_int()
        denominator = 1
        if self.toks[self.pos] == "/":
            self.pos += 1
            denominator = self.expect_int()
        if denominator == 0:
            raise self.error("grade annotation denominator cannot be zero")
        return Grade(Fraction(numerator, denominator))

    def parse_definition(self) -> A.Definition:
        toks = self.toks
        self.fresh = _NameSupply(self.idents)
        name = self.expect_ident()
        raw_params: List[Tuple[str, Pattern, Type, Optional[Grade]]] = []
        while toks[self.pos] == "(":
            self.pos += 1
            pattern = self.parse_pattern()
            param = pattern if isinstance(pattern, str) else self.fresh("arg")
            self.expect_symbol(":")
            ty = self.parse_type()
            declared_grade: Optional[Grade] = None
            if toks[self.pos] == "@":
                self.pos += 1
                declared_grade = self.parse_grade_annotation()
            self.expect_symbol(")")
            raw_params.append((param, pattern, ty, declared_grade))
        declared: Optional[Type] = None
        if toks[self.pos] == ":":
            self.pos += 1
            declared = self.parse_type()
        self.expect_symbol(":=")
        body = self.parse_expr()
        for param, pattern, ty, _ in reversed(raw_params):
            if not isinstance(pattern, str):
                body = destructure(pattern, param, ty, body, self.fresh)
        params = [A.Param(param, ty, grade) for param, _, ty, grade in raw_params]
        return A.Definition(name, params, body, declared_result=declared)

    def parse_program(self) -> A.Program:
        definitions = []
        while self.toks[self.pos]:
            definitions.append(self.parse_definition())
        if not definitions:
            raise self.error("a program must contain at least one definition")
        return A.Program(definitions)


# ---------------------------------------------------------------------------
# Pattern desugaring
# ---------------------------------------------------------------------------


def balanced_tuple(parts: Sequence[A.Expr]) -> A.Expr:
    """Combine expressions into balanced nested pairs (like tensor_of)."""
    parts = list(parts)
    if len(parts) == 1:
        return parts[0]
    mid = len(parts) // 2
    return A.Pair(balanced_tuple(parts[:mid]), balanced_tuple(parts[mid:]))


def _split_pattern(pattern: Tuple[Pattern, ...]) -> Tuple[Pattern, Pattern]:
    """Split a tuple pattern the same way balanced tensors split."""
    if len(pattern) == 2:
        return pattern[0], pattern[1]
    mid = len(pattern) // 2
    left = pattern[:mid] if mid > 1 else pattern[0]
    right = pattern[mid:] if len(pattern) - mid > 1 else pattern[mid]
    return left, right


def bind_pattern(
    pattern: Pattern,
    bound: A.Expr,
    body: A.Expr,
    discrete: bool,
    fresh: Callable[[str], str],
) -> A.Expr:
    """Desugar ``let pattern = bound in body`` (or ``dlet``).

    ``fresh`` names the intermediate pairs of a nested tuple pattern.
    """
    if isinstance(pattern, str):
        if discrete:
            return A.DLet(pattern, bound, body)
        return A.Let(pattern, bound, body)
    left, right = _split_pattern(pattern)
    left_name = left if isinstance(left, str) else fresh("l")
    right_name = right if isinstance(right, str) else fresh("r")
    if not isinstance(right, str):
        body = bind_pattern(right, A.Var(right_name), body, discrete, fresh)
    if not isinstance(left, str):
        body = bind_pattern(left, A.Var(left_name), body, discrete, fresh)
    if discrete:
        return A.DLetPair(left_name, right_name, bound, body)
    return A.LetPair(left_name, right_name, bound, body)


def destructure(
    pattern: Pattern, name: str, ty: Type, body: A.Expr, fresh: Callable[[str], str]
) -> A.Expr:
    """Destructure parameter ``name : ty`` against a tuple pattern.

    Discrete parameter types (``m(...)`` or tensors of discrete components)
    are eliminated with ``dlet``; everything else with ``let``.
    """
    discrete = _eliminates_discretely(ty)
    return bind_pattern(pattern, A.Var(name), body, discrete, fresh)


def _eliminates_discretely(ty: Type) -> bool:
    if is_discrete(ty):
        return True
    if isinstance(ty, Tensor):
        return is_discrete(ty.left) and is_discrete(ty.right)
    return False


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def parse_program(source: str) -> A.Program:
    """Parse a whole Bean source file into a :class:`Program`."""
    return _Parser(source).parse_program()


def parse_expression(source: str) -> A.Expr:
    """Parse a single Bean expression (no definitions)."""
    return _parse_all(source, _Parser.parse_expr)


def parse_type(source: str) -> Type:
    """Parse a Bean type."""
    return _parse_all(source, _Parser.parse_type)


def _parse_all(source: str, parse: Callable[[_Parser], _T]) -> _T:
    parser = _Parser(source)
    result = parse(parser)
    tok = parser.toks[parser.pos]
    if tok:
        raise parser.error(f"unexpected trailing input: {_describe(tok)}")
    return result
