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
tokens (:mod:`repro.core.lexer`).

Tuple patterns and n-ary tuples are desugared to *balanced* nested pairs,
matching :func:`repro.core.types.tensor_of`, so pattern depth stays
logarithmic in the tuple width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from fractions import Fraction

from . import ast_nodes as A
from .errors import BeanSyntaxError
from .grades import Grade
from .lexer import Token, TokenKind, tokenize
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


@dataclass
class _Parser:
    tokens: List[Token]
    pos: int = 0

    # -- token plumbing -------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        try:
            return self.tokens[self.pos + ahead]
        except IndexError:  # looking past the end: the EOF token
            return self.tokens[-1]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != TokenKind.EOF:
            self.pos += 1
        return tok

    def expect_symbol(self, sym: str) -> Token:
        tok = self.advance()
        if not tok.is_symbol(sym):
            raise BeanSyntaxError(
                f"expected {sym!r}, found {tok.describe()}", tok.line, tok.column
            )
        return tok

    def expect_keyword(self, word: str) -> Token:
        tok = self.advance()
        if not tok.is_keyword(word):
            raise BeanSyntaxError(
                f"expected keyword {word!r}, found {tok.describe()}",
                tok.line,
                tok.column,
            )
        return tok

    def expect_ident(self) -> Token:
        tok = self.advance()
        if tok.kind != TokenKind.IDENT:
            raise BeanSyntaxError(
                f"expected an identifier, found {tok.describe()}",
                tok.line,
                tok.column,
            )
        return tok

    def expect_int(self) -> int:
        tok = self.advance()
        if tok.kind != TokenKind.INT:
            raise BeanSyntaxError(
                f"expected an integer, found {tok.describe()}", tok.line, tok.column
            )
        return int(tok.text)

    def fail(self, message: str) -> BeanSyntaxError:
        tok = self.peek()
        return BeanSyntaxError(message, tok.line, tok.column)

    # -- types ----------------------------------------------------------------

    def parse_type(self) -> Type:
        left = self.parse_tensor_type()
        if self.peek().is_symbol("+"):
            self.advance()
            right = self.parse_type()
            return Sum(left, right)
        return left

    def parse_tensor_type(self) -> Type:
        left = self.parse_atom_type()
        if self.peek().is_symbol("*") or self.peek().is_symbol("⊗"):
            self.advance()
            right = self.parse_tensor_type()
            return Tensor(left, right)
        return left

    def parse_atom_type(self) -> Type:
        tok = self.peek()
        if tok.is_keyword("num") or tok.is_keyword("R"):
            self.advance()
            return NUM
        if tok.is_keyword("unit"):
            self.advance()
            return UNIT
        if tok.is_symbol("!"):
            self.advance()
            return Discrete(self.parse_atom_type())
        if tok.is_keyword("vec"):
            self.advance()
            self.expect_symbol("(")
            n = self.expect_int()
            self.expect_symbol(")")
            return vector(n)
        if tok.is_keyword("mat"):
            self.advance()
            self.expect_symbol("(")
            rows = self.expect_int()
            self.expect_symbol(",")
            cols = self.expect_int()
            self.expect_symbol(")")
            return matrix(rows, cols)
        if tok.is_symbol("("):
            self.advance()
            inner = self.parse_type()
            self.expect_symbol(")")
            return inner
        raise self.fail(f"expected a type, found {tok.describe()}")

    # -- patterns --------------------------------------------------------------

    def parse_pattern(self) -> Pattern:
        tok = self.peek()
        if tok.kind == TokenKind.IDENT:
            return self.advance().text
        if tok.is_symbol("("):
            self.advance()
            parts: List[Pattern] = [self.parse_pattern()]
            while self.peek().is_symbol(","):
                self.advance()
                parts.append(self.parse_pattern())
            self.expect_symbol(")")
            if len(parts) == 1:
                return parts[0]
            return tuple(parts)
        raise self.fail(f"expected a pattern, found {tok.describe()}")

    # -- expressions -------------------------------------------------------------

    # No identifier or numeral is spelled like a keyword or symbol, so
    # the dispatch below compares ``tok.text`` alone.

    def parse_expr(self) -> A.Expr:
        tok = self.peek()
        text = tok.text
        if text == "let" or text == "dlet":
            # Iterate over the let-spine instead of recursing: benchmark
            # programs chain thousands of binders, and the rest of the
            # pipeline (IR lowering, sweeps) is iterative too.
            frames = []
            while text == "let" or text == "dlet":
                discrete = text == "dlet"
                self.advance()  # let / dlet
                pattern = self.parse_pattern()
                self.expect_symbol("=")
                bound = self.parse_expr()
                self.expect_keyword("in")
                frames.append((pattern, bound, discrete))
                text = self.peek().text
            expr = self.parse_expr()
            for pattern, bound, discrete in reversed(frames):
                expr = bind_pattern(pattern, bound, expr, discrete=discrete)
            return expr
        op = _OPS.get(text)
        if op is not None:
            self.advance()
            left = self.parse_atom()
            right = self.parse_atom()
            return A.PrimOp(op, left, right)
        if text == "case":
            return self.parse_case()
        if text == "rnd":
            self.advance()
            return A.Rnd(self.parse_atom())
        if text == "inl" or text == "inr":
            return self.parse_injection()
        if text == "!":
            self.advance()
            return A.Bang(self.parse_atom())
        if (
            tok.kind == TokenKind.IDENT
            and self._starts_atom(self.peek(1))
            and not self._begins_definition(self.pos + 1)
        ):
            name = self.advance().text
            args = [self.parse_atom()]
            while self._starts_atom(self.peek()) and not self._begins_definition(
                self.pos
            ):
                args.append(self.parse_atom())
            return A.Call(name, args)
        return self.parse_atom()

    @staticmethod
    def _starts_atom(tok: Token) -> bool:
        return tok.kind == TokenKind.IDENT or tok.text == "("

    def _begins_definition(self, idx: int) -> bool:
        """Whether the token at ``idx`` starts a new top-level definition.

        Definitions look like ``NAME (pat : type) ... :=``; the telltale is
        a ``:`` or ``:=`` after the name (possibly inside the first
        parenthesized parameter), which no expression can produce.
        """
        tok = self.tokens[min(idx, len(self.tokens) - 1)]
        if tok.kind != TokenKind.IDENT:
            return False
        after = self.tokens[min(idx + 1, len(self.tokens) - 1)]
        if after.is_symbol(":=") or after.is_symbol(":"):
            return True
        if not after.is_symbol("("):
            return False
        depth = 0
        for j in range(idx + 1, len(self.tokens)):
            t = self.tokens[j]
            if t.is_symbol("("):
                depth += 1
            elif t.is_symbol(")"):
                depth -= 1
                if depth == 0:
                    return False
            elif t.is_symbol(":") or t.is_symbol(":="):
                return True
            elif t.kind == TokenKind.EOF:
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
        if self.peek().is_symbol("("):
            self.advance()
            name = self.expect_ident().text
            self.expect_symbol(")")
            return name
        return self.expect_ident().text

    def parse_injection(self) -> A.Expr:
        tok = self.advance()
        other: Type = UNIT
        if self.peek().is_symbol("{"):
            self.advance()
            other = self.parse_type()
            self.expect_symbol("}")
        body = self.parse_atom()
        if tok.is_keyword("inl"):
            return A.Inl(body, other)
        return A.Inr(body, other)

    def parse_atom(self) -> A.Expr:
        tok = self.peek()
        if tok.kind == TokenKind.IDENT:
            return A.Var(self.advance().text)
        if tok.text == "(":
            self.advance()
            if self.peek().text == ")":
                self.advance()
                return A.UnitVal()
            parts = [self.parse_expr()]
            while self.peek().text == ",":
                self.advance()
                parts.append(self.parse_expr())
            self.expect_symbol(")")
            if len(parts) == 1:
                return parts[0]
            return balanced_tuple(parts)
        raise self.fail(f"expected an expression, found {tok.describe()}")

    # -- definitions -----------------------------------------------------------

    def parse_grade_annotation(self) -> Grade:
        """``@ n`` or ``@ n/d``: a declared bound in units of ε."""
        numerator = self.expect_int()
        denominator = 1
        if self.peek().is_symbol("/"):
            self.advance()
            denominator = self.expect_int()
        if denominator == 0:
            raise self.fail("grade annotation denominator cannot be zero")
        return Grade(Fraction(numerator, denominator))

    def parse_definition(self) -> A.Definition:
        name = self.expect_ident().text
        raw_params: List[Tuple[Pattern, Type, Optional[Grade]]] = []
        while self.peek().is_symbol("("):
            self.advance()
            pattern = self.parse_pattern()
            self.expect_symbol(":")
            ty = self.parse_type()
            declared_grade: Optional[Grade] = None
            if self.peek().is_symbol("@"):
                self.advance()
                declared_grade = self.parse_grade_annotation()
            self.expect_symbol(")")
            raw_params.append((pattern, ty, declared_grade))
        declared: Optional[Type] = None
        if self.peek().is_symbol(":"):
            self.advance()
            declared = self.parse_type()
        self.expect_symbol(":=")
        body = self.parse_expr()
        params: List[A.Param] = []
        for pattern, ty, declared_grade in reversed(raw_params):
            if isinstance(pattern, str):
                params.append(A.Param(pattern, ty, declared_grade))
            else:
                fresh = A.fresh_name("arg")
                params.append(A.Param(fresh, ty, declared_grade))
                body = destructure(pattern, fresh, ty, body)
        params.reverse()
        return A.Definition(name, params, body, declared_result=declared)

    def parse_program(self) -> A.Program:
        definitions = []
        while self.peek().kind != TokenKind.EOF:
            definitions.append(self.parse_definition())
        if not definitions:
            raise self.fail("a program must contain at least one definition")
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


def _split_pattern(pattern: Tuple) -> Tuple[Pattern, Pattern]:
    """Split a tuple pattern the same way balanced tensors split."""
    if len(pattern) == 2:
        return pattern[0], pattern[1]
    mid = len(pattern) // 2
    left = pattern[:mid] if mid > 1 else pattern[0]
    right = pattern[mid:] if len(pattern) - mid > 1 else pattern[mid]
    return left, right


def bind_pattern(
    pattern: Pattern, bound: A.Expr, body: A.Expr, *, discrete: bool
) -> A.Expr:
    """Desugar ``let pattern = bound in body`` (or ``dlet``)."""
    if isinstance(pattern, str):
        if discrete:
            return A.DLet(pattern, bound, body)
        return A.Let(pattern, bound, body)
    left, right = _split_pattern(pattern)
    left_name = left if isinstance(left, str) else A.fresh_name("l")
    right_name = right if isinstance(right, str) else A.fresh_name("r")
    if not isinstance(right, str):
        body = bind_pattern(right, A.Var(right_name), body, discrete=discrete)
    if not isinstance(left, str):
        body = bind_pattern(left, A.Var(left_name), body, discrete=discrete)
    if discrete:
        return A.DLetPair(left_name, right_name, bound, body)
    return A.LetPair(left_name, right_name, bound, body)


def destructure(pattern: Pattern, name: str, ty: Type, body: A.Expr) -> A.Expr:
    """Destructure parameter ``name : ty`` against a tuple pattern.

    Discrete parameter types (``m(...)`` or tensors of discrete components)
    are eliminated with ``dlet``; everything else with ``let``.
    """
    discrete = _eliminates_discretely(ty)
    return bind_pattern(pattern, A.Var(name), body, discrete=discrete)


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
    return _Parser(tokenize(source)).parse_program()


def parse_expression(source: str) -> A.Expr:
    """Parse a single Bean expression (no definitions)."""
    return _parse_all(source, _Parser.parse_expr)


def parse_type(source: str) -> Type:
    """Parse a Bean type."""
    return _parse_all(source, _Parser.parse_type)


def _parse_all(source: str, parse):
    parser = _Parser(tokenize(source))
    result = parse(parser)
    tok = parser.peek()
    if tok.kind != TokenKind.EOF:
        raise BeanSyntaxError(
            f"unexpected trailing input: {tok.describe()}", tok.line, tok.column
        )
    return result
