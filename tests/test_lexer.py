"""Tests for the Bean tokenizer."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles.lexer_ref import reference_tokens
from repro.core.errors import BeanSyntaxError
from repro.core.lexer import KEYWORDS, SYMBOLS, TokenKind, kind_of, scan, tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)]


def texts(source):
    return [t.text for t in tokenize(source)[:-1]]  # drop EOF


class TestTokens:
    def test_empty_input_yields_eof(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].kind == TokenKind.EOF

    def test_keywords(self):
        assert texts("let in dlet case of inl inr") == [
            "let", "in", "dlet", "case", "of", "inl", "inr",
        ]
        assert all(t.kind == TokenKind.KEYWORD for t in tokenize("let in")[:-1])

    def test_identifiers(self):
        toks = tokenize("foo x0 a_b x'")
        assert [t.text for t in toks[:-1]] == ["foo", "x0", "a_b", "x'"]
        assert all(t.kind == TokenKind.IDENT for t in toks[:-1])

    def test_R_is_keyword(self):
        assert tokenize("R")[0].kind == TokenKind.KEYWORD

    def test_integers(self):
        toks = tokenize("42 7")
        assert [t.text for t in toks[:-1]] == ["42", "7"]
        assert all(t.kind == TokenKind.INT for t in toks[:-1])

    def test_symbols(self):
        assert texts(":= => ( ) , : = | ! + *") == [
            ":=", "=>", "(", ")", ",", ":", "=", "|", "!", "+", "*",
        ]

    def test_assign_not_split(self):
        toks = tokenize("x := y")
        assert toks[1].text == ":="

    def test_line_comment(self):
        assert texts("x // the rest is ignored\ny") == ["x", "y"]

    def test_hash_comment(self):
        assert texts("x # ignored\ny") == ["x", "y"]

    def test_unexpected_character(self):
        with pytest.raises(BeanSyntaxError):
            tokenize("x ` y")

    def test_contract_symbols(self):
        assert texts("@ / 3") == ["@", "/", "3"]


class TestPositions:
    def test_line_tracking(self):
        toks = tokenize("a\nb\n  c")
        assert (toks[0].line, toks[0].column) == (1, 1)
        assert (toks[1].line, toks[1].column) == (2, 1)
        assert (toks[2].line, toks[2].column) == (3, 3)

    def test_error_carries_position(self):
        with pytest.raises(BeanSyntaxError) as exc:
            tokenize("ok\n   $")
        assert exc.value.line == 2
        assert exc.value.column == 4


class TestTokenGrammarFixes:
    """The two places the shipped lexer departs from the old scanner."""

    @pytest.mark.parametrize(
        "source, column, char",
        [
            ("F (x : vec(²)) := x", 12, "²"),  # superscript: not a numeral
            ("F (x : vec(٣)) := x", 12, "٣"),  # Arabic-Indic: was read as 3
            ("vec(1٣)", 6, "٣"),  # an INT is ASCII digits only
            ("  ½", 3, "½"),
        ],
    )
    def test_non_ascii_numerals_are_syntax_errors(self, source, column, char):
        with pytest.raises(BeanSyntaxError) as exc:
            tokenize(source)
        assert (exc.value.line, exc.value.column) == (1, column)
        assert str(exc.value) == f"1:{column}: unexpected character {char!r}"

    def test_non_ascii_letters_and_digits_inside_identifiers(self):
        toks = tokenize("x² λ1 a٣ é")
        assert [(t.kind, t.text) for t in toks[:-1]] == [
            ("IDENT", "x²"), ("IDENT", "λ1"), ("IDENT", "a٣"), ("IDENT", "é"),
        ]

    @pytest.mark.parametrize(
        "source, position",
        [
            ("F (x : num) := // c", (1, 20)),
            ("F (x : num) := # c", (1, 19)),
            ("x\n// c", (2, 5)),
            ("x // c\n", (2, 1)),
            ("x  ", (1, 4)),
        ],
    )
    def test_eof_sits_at_the_true_end_of_input(self, source, position):
        eof = tokenize(source)[-1]
        assert eof.kind == TokenKind.EOF
        assert (eof.line, eof.column) == position

    def test_parser_reports_the_end_after_a_trailing_comment(self):
        from repro.core.parser import parse_program

        with pytest.raises(BeanSyntaxError) as exc:
            parse_program("F (x : num) := // c")
        assert str(exc.value) == "1:20: expected an expression, found end of input"

    def test_every_unicode_letter_starts_an_identifier(self):
        starts = [
            chr(i) for i in range(0x110000) if chr(i).isalpha() or chr(i) == "_"
        ]
        toks = tokenize(" ".join(starts))[:-1]
        assert [t.text for t in toks] == starts
        assert all(t.kind in (TokenKind.IDENT, TokenKind.KEYWORD) for t in toks)

    def test_every_unicode_alphanumeric_continues_an_identifier(self):
        rest = "".join(
            chr(i) for i in range(0x110000) if chr(i).isalnum() or chr(i) in "_'"
        )
        toks = tokenize("a" + rest)
        assert [(t.kind, t.text) for t in toks[:-1]] == [("IDENT", "a" + rest)]

    def test_non_letter_word_characters_cannot_start_a_token(self):
        # ``str.isalnum`` characters that are neither letters nor ASCII
        # digits (², ½, Ⅻ, ٣, ...): each is an error at its column.
        for i in range(0x110000):
            ch = chr(i)
            if ch.isalnum() and not ch.isalpha() and ch not in "0123456789":
                with pytest.raises(BeanSyntaxError, match="1:2: unexpected"):
                    tokenize(" " + ch)


# ---------------------------------------------------------------------------
# Differential oracle: the old character-loop scanner
# ---------------------------------------------------------------------------


def _outcome(scan, source):
    try:
        return ("ok", [tuple(t) for t in scan(source)])
    except BeanSyntaxError as exc:
        return ("error", str(exc), exc.line, exc.column)


def _offset(source, line, column):
    """The source offset of a 1-based line:column (columns count chars)."""
    start = 0
    for _ in range(line - 1):
        start = source.index("\n", start) + 1
    return start + column - 1


def _expected(source):
    """The reference scanner's outcome with the two fixes applied.

    * An ``INT`` holding a non-ASCII digit becomes an error at that digit.
    * ``EOF`` sits at the true end of input, after any trailing comment.

    When the reference scanner fails, the shipped lexer may fail earlier,
    at a non-ASCII digit the reference read as a number: the reference's
    run on the text before its error decides.
    """
    ref = _outcome(reference_tokens, source)
    if ref[0] == "error":
        prefix = source[: _offset(source, ref[2], ref[3])]
        before = _expected(prefix)
        return before if before[0] == "error" else ref
    for kind, text, line, column in ref[1]:
        if kind == TokenKind.INT:
            for k, ch in enumerate(text):
                if ch not in "0123456789":
                    col = column + k
                    return ("error", f"{line}:{col}: unexpected character {ch!r}", line, col)
    kind, text, line, _ = ref[1][-1]
    end_column = len(source) - (source.rfind("\n") + 1) + 1
    return ("ok", ref[1][:-1] + [(kind, text, line, end_column)])


#: Fragments of Bean text: the token alphabet, blanks, comments, and
#: non-ASCII letters, digits and numerals.
_FRAGMENTS = (
    sorted(KEYWORDS)
    + list(SYMBOLS)
    + ["x", "y0", "_t", "a'", "λ", "é", "x²", "٣", "²", "½", "Ⅻ", "0", "42",
       " ", "  ", "\t", "\r", "\n", "\r\n", "// c", "//", "# h", "#", "/",
       "`", "$", ".", "-", "\xa0", "\f"]
)
bean_text = st.one_of(
    st.lists(st.sampled_from(_FRAGMENTS), max_size=30).map("".join),
    st.text(alphabet=st.sampled_from("".join(_FRAGMENTS)), max_size=30),
    st.text(max_size=20),
)


class TestReferenceDifferential:
    @given(bean_text)
    @example("F (x : vec(²)) := x")
    @example("F (x : num) := // c")
    @example("12٣ x ` ²")
    @example("a\n  $ ²")
    def test_matches_reference_scanner(self, source):
        assert _outcome(tokenize, source) == _expected(source)

    def test_examples_tokenize_like_the_reference(self):
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent / "examples"
        sources = [p.read_text() for p in sorted(root.rglob("*.bean"))]
        assert sources
        for source in sources:
            assert _outcome(tokenize, source) == _outcome(reference_tokens, source)


# ---------------------------------------------------------------------------
# The parser's scan: texts alone, positions only on error
# ---------------------------------------------------------------------------


def _scan_outcome(source):
    try:
        texts, idents = scan(source)
    except BeanSyntaxError as exc:
        return ("error", str(exc), exc.line, exc.column)
    return ("ok", texts, idents)


class TestScan:
    @given(bean_text)
    @example("F (x : num) := // c")
    @example("x  \t ")
    @example("a\r\n\tb\r")
    @example("vec(1٣) ²")
    @example("add x\n` y")
    @example("a//b\n/c # d")
    def test_matches_tokenize_and_the_reference(self, source):
        expected = _expected(source)
        got = _scan_outcome(source)
        if expected[0] == "error":
            assert got == expected
            return
        tokens = [tuple(t) for t in tokenize(source)]
        assert tokens == expected[1]
        assert got[1] == [text for _, text, _, _ in tokens]
        assert got[2] == {text for kind, text, _, _ in tokens if kind == TokenKind.IDENT}
        assert all(kind_of(text) == kind for kind, text, _, _ in tokens)

    def test_eof_sentinel_is_the_only_empty_text(self):
        for source in ("", "  ", "x", "x  ", "x // c", "x\n# c\n", "// c"):
            texts, _ = scan(source)
            assert texts[-1] == "" and "" not in texts[:-1]

    @pytest.mark.parametrize(
        "source, message",
        [
            # A comment or blanks at the end of input.
            ("F (x : num) := # c", "1:19: expected an expression, found end of input"),
            ("F (x : num) := add x // c", "1:26: expected an expression, found end of input"),
            ("F (x : num) :=   \t ", "1:20: expected an expression, found end of input"),
            # CR and tab are blanks one column wide.
            ("F (x : num) :=\r\n\tlet y =\r\n", "3:1: expected an expression, found end of input"),
            ("F (x :\tmat(2 3)) := x", "1:14: expected ',', found '3'"),
            # Non-ASCII numerals are bad characters, not numbers.
            ("F (x : vec(٣)) := x", "1:12: unexpected character '٣'"),
            ("F (x : num) := x\n\n  ½", "3:3: unexpected character '½'"),
            # A bad character wins over an earlier parse error.
            ("F (x num) := x $", "1:16: unexpected character '$'"),
            ("F (x : num) := add x\nG (y : num) := y ` z", "2:18: unexpected character '`'"),
            ("\t\r\n", "2:1: a program must contain at least one definition"),
        ],
    )
    def test_parser_error_positions(self, source, message):
        from repro.core.parser import parse_program

        with pytest.raises(BeanSyntaxError) as exc:
            parse_program(source)
        assert str(exc.value) == message
