"""Tokenizer for Bean's concrete syntax.

The surface syntax mirrors the paper's listings (Section 4)::

    // comments run to end of line
    ScaleVec (a : !R) (x : vec(2)) : vec(2) :=
      let (x0, x1) = x in
      let u = dmul a x0 in
      let v = dmul a x1 in
      (u, v)

Token grammar (space, tab and CR are blanks; ``//`` and ``#`` comments
run to end of line)::

    IDENT   ::= (letter | '_') (letter | digit | '_' | "'")*, not a KEYWORD
    KEYWORD ::= let dlet in case of inl inr add sub mul dmul div rnd
                num R unit vec mat
    INT     ::= [0-9]+
    SYMBOL  ::= := => ( ) { } , : = | ! + * ⊗ @ /

"Letter" and "digit" are Unicode's (``str.isalpha`` / ``str.isalnum``),
so ``x²`` or ``λ1`` name variables; ``INT`` is ASCII only, so a numeral
such as ``²`` or ``٣`` is an unexpected character, never a number.
Every character outside this grammar is a :class:`BeanSyntaxError` at
its line:column.  ``!`` marks discrete types / promotion.

The scanner is one compiled master pattern, applied to each line with
``findall``: every match is one token (or comment) with its leading
blanks folded in, so the per-character work happens in the regex
engine and Python only sees one tuple per token.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple

from .errors import BeanSyntaxError

__all__ = ["Token", "TokenKind", "tokenize"]

KEYWORDS = frozenset(
    "let dlet in case of inl inr add sub mul dmul div rnd num R unit vec mat".split()
)

# Multi-character symbols must come before their prefixes.
SYMBOLS = (":=", "=>", "(", ")", "{", "}", ",", ":", "=", "|", "!", "+", "*", "⊗", "@", "/")


class TokenKind:
    """Token kinds (simple string constants)."""

    IDENT = "IDENT"
    KEYWORD = "KEYWORD"
    INT = "INT"
    SYMBOL = "SYMBOL"
    EOF = "EOF"


class Token(NamedTuple):
    """A lexed token with 1-based source position."""

    kind: str
    text: str
    line: int
    column: int

    def is_keyword(self, word: str) -> bool:
        return self.kind == TokenKind.KEYWORD and self.text == word

    def is_symbol(self, sym: str) -> bool:
        return self.kind == TokenKind.SYMBOL and self.text == sym

    def describe(self) -> str:
        if self.kind == TokenKind.EOF:
            return "end of input"
        return repr(self.text)


# One capture group per token class, tried in order after the blanks,
# matched against one line at a time.  The identifier class ``[^\W\d]``
# is "a word character but not a decimal digit"; it also admits numerals
# such as ``²`` that are not letters, so the scanner rejects a match
# whose first character fails ``isalpha``.  ``.`` catches any other
# character as an error; the empty ``$`` alternative absorbs trailing
# blanks, so the matches tile each line exactly.
_LINE_TOKENS = re.compile(
    r"([ \t\r]*)(?:"
    r"([^\W\d][\w']*)"
    r"|((?://|\#).*)"
    r"|(" + "|".join(re.escape(s) for s in SYMBOLS) + r")"
    r"|([0-9]+)"
    r"|(.)"
    r"|$)"
)

_new_token = tuple.__new__  # Token(...) without the Python-level __new__


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source``; raises :class:`BeanSyntaxError` on bad input."""
    tokens: List[Token] = []
    append = tokens.append
    keywords = KEYWORDS
    KEYWORD, IDENT, SYMBOL, INT = (
        TokenKind.KEYWORD, TokenKind.IDENT, TokenKind.SYMBOL, TokenKind.INT
    )
    line = 0
    col = 1
    for text in source.split("\n"):
        line += 1
        col = 1
        for blanks, ident, comment, symbol, digits, bad in _LINE_TOKENS.findall(text):
            col += len(blanks)
            if ident:
                first = ident[0]
                if not (first.isalpha() or first == "_"):
                    bad = first
                    break
                kind = KEYWORD if ident in keywords else IDENT
                append(_new_token(Token, (kind, ident, line, col)))
                col += len(ident)
            elif symbol:
                append(_new_token(Token, (SYMBOL, symbol, line, col)))
                col += len(symbol)
            elif digits:
                append(_new_token(Token, (INT, digits, line, col)))
                col += len(digits)
            elif bad:
                break
            else:
                col += len(comment)
        if bad:
            raise BeanSyntaxError(f"unexpected character {bad!r}", line, col)
    append(_new_token(Token, (TokenKind.EOF, "", line, col)))
    return tokens
