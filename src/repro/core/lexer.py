"""Tokenizer for Bean's concrete syntax.

The surface syntax mirrors the paper's listings (Section 4)::

    // comments run to end of line
    ScaleVec (a : !R) (x : vec(2)) : vec(2) :=
      let (x0, x1) = x in
      let u = dmul a x0 in
      let v = dmul a x1 in
      (u, v)

Token grammar (space, tab, CR and newline are blanks; ``//`` and ``#``
comments run to end of line)::

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

One compiled master pattern drives both entry points.  :func:`scan` is
the parser's: one ``findall`` over the whole source yields the token
texts alone, ending in an ``""`` EOF sentinel.  No two token classes
share a spelling, so a token's kind is a function of its text
(:func:`kind_of`), and bad characters are found by classifying the
*distinct* texts, not every token.  Positions are never computed on
that path.  :func:`tokenize` runs the same pattern with ``finditer``
and returns positioned :class:`Token` s; it is the one place that
computes line:column, and the parser calls it only to report an error.
"""

from __future__ import annotations

import re
from typing import FrozenSet, List, NamedTuple, Optional, Tuple

from .errors import BeanSyntaxError

__all__ = ["Token", "TokenKind", "kind_of", "scan", "tokenize"]

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


# A token, then the blanks and comments after it, consumed possessively
# so a comment is never backtracked into and re-read as ``/`` ``/``.
# The identifier class ``[^\W\d]`` is "a word character but not a
# decimal digit"; it also admits numerals such as ``²`` that are not
# letters, which :func:`kind_of` rejects.  ``.`` catches any other
# character as an error, and the empty ``$`` alternative is the EOF
# sentinel.  Leading blanks are skipped once with ``_BLANKS``, so the
# matches tile the source exactly and ``$`` matches once, at its end.
_BLANKS = r"(?:[ \t\r\n]+|(?://|\#)[^\n]*)*+"
_SKIP = re.compile(_BLANKS)
_TOKENS = re.compile(
    r"([^\W\d][\w']*"
    r"|" + "|".join(re.escape(s) for s in SYMBOLS)
    + r"|[0-9]+"
    r"|."
    r"|$)" + _BLANKS
)

_DIGITS = "0123456789"
_FIXED_KINDS = {
    "": TokenKind.EOF,
    **{s: TokenKind.SYMBOL for s in SYMBOLS},
    **{k: TokenKind.KEYWORD for k in KEYWORDS},
}


def _first_token(source: str) -> int:
    """The offset of the first token: past leading blanks and comments."""
    blanks = _SKIP.match(source)
    assert blanks is not None  # the pattern matches the empty string
    return blanks.end()


def kind_of(text: str) -> Optional[str]:
    """The kind of a scanned token text; ``None`` for a bad character."""
    kind = _FIXED_KINDS.get(text)
    if kind is not None:
        return kind
    first = text[0]
    if first in _DIGITS:
        return TokenKind.INT
    if first.isalpha() or first == "_":
        return TokenKind.IDENT
    return None


def scan(source: str) -> Tuple[List[str], FrozenSet[str]]:
    """The token texts of ``source`` (``""``-terminated) and its identifiers.

    Raises :class:`BeanSyntaxError` at the first bad character, with the
    position :func:`tokenize` computes.
    """
    texts = _TOKENS.findall(source, _first_token(source))
    rest = set(texts).difference(_FIXED_KINDS)
    idents = frozenset([t for t in rest if t[0].isalpha() or t[0] == "_"])
    if any(t[0] not in _DIGITS for t in rest.difference(idents)):
        tokenize(source)  # raises at the first bad character
    return texts, idents


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source``; raises :class:`BeanSyntaxError` on bad input."""
    tokens: List[Token] = []
    line = 1
    line_start = 0  # source offset of the current line
    at = 0  # offset up to which newlines are counted
    for match in _TOKENS.finditer(source, _first_token(source)):
        start = match.start()
        newlines = source.count("\n", at, start)
        if newlines:
            line += newlines
            line_start = source.rindex("\n", at, start) + 1
        at = start
        text = match.group(1)
        kind = kind_of(text)
        if kind is None:
            raise BeanSyntaxError(
                f"unexpected character {text[0]!r}", line, start - line_start + 1
            )
        tokens.append(Token(kind, text, line, start - line_start + 1))
    return tokens
