"""Reference tokenizer: the character-at-a-time scanner Bean shipped with.

``repro.core.lexer`` now scans with one compiled regular expression; this
loop is kept as the independent oracle ``tests/test_lexer.py`` checks it
against.  It differs from the shipped lexer in exactly two places, both
bugs the shipped lexer fixes:

* it reads any Unicode digit (``str.isdigit``) as part of an ``INT``, so
  ``vec(²)`` reached ``int()`` and crashed, and ``vec(٣)`` read as
  ``vec(3)``;
* a comment never advanced the column, so the ``EOF`` token after a
  trailing comment pointed at the comment, not at the end of input.

``reference_tokens`` returns plain ``(kind, text, line, column)`` tuples.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.core.errors import BeanSyntaxError
from repro.core.lexer import KEYWORDS, SYMBOLS, TokenKind

__all__ = ["reference_tokens"]

Tok = Tuple[str, str, int, int]


def _ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _ident_continue(ch: str) -> bool:
    return ch.isalnum() or ch in "_'"


def reference_tokens(source: str) -> List[Tok]:
    """Tokenize ``source``; raises :class:`BeanSyntaxError` on bad input."""
    return list(_tokens(source))


def _tokens(source: str) -> Iterator[Tok]:
    i = 0
    line = 1
    col = 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "/" and source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if _ident_start(ch):
            start = i
            while i < n and _ident_continue(source[i]):
                i += 1
            text = source[start:i]
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            yield (kind, text, line, col)
            col += i - start
            continue
        if ch.isdigit():
            start = i
            while i < n and source[i].isdigit():
                i += 1
            yield (TokenKind.INT, source[start:i], line, col)
            col += i - start
            continue
        for sym in SYMBOLS:
            if source.startswith(sym, i):
                yield (TokenKind.SYMBOL, sym, line, col)
                i += len(sym)
                col += len(sym)
                break
        else:
            raise BeanSyntaxError(f"unexpected character {ch!r}", line, col)
    yield (TokenKind.EOF, "", line, col)
