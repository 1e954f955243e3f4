"""Fuzzing the front end: arbitrary input must fail *cleanly*.

The lexer/parser/checker pipeline may reject garbage, but only ever with
a Bean diagnostic (never an internal exception), and accepted programs
must be deterministic to re-check.
"""

import string

from hypothesis import example, given
from hypothesis import strategies as st

from repro.core import (
    BeanError,
    check_program,
    parse_expression,
    parse_program,
)

# Text biased towards Bean's alphabet so some inputs get deep into the
# parser rather than dying at the first character.
bean_alphabet = st.sampled_from(
    list(string.ascii_lowercase[:8])
    + ["let", "in", "dlet", "case", "of", "inl", "inr", "add", "mul",
       "dmul", "num", "vec", "(", ")", ",", ":", ":=", "=>", "=", "|",
       "!", "*", "+", " ", "\n", "1", "2"]
)
bean_soup = st.lists(bean_alphabet, min_size=0, max_size=40).map(" ".join)
raw_text = st.text(max_size=60)


class TestFrontEndRobustness:
    @given(bean_soup)
    @example("F (x : num) := add x")  # missing operand
    @example("F (x := x")  # truncated header
    @example("let x = in y")
    @example("F (x : vec(²)) := x")  # a numeral int() would choke on
    @example("F (x : mat(1, ٣)) := x")
    def test_parse_program_fails_cleanly(self, text):
        try:
            program = parse_program(text)
        except BeanError:
            return
        # If parsing succeeded, checking must also fail cleanly or pass.
        try:
            check_program(program)
        except BeanError:
            pass

    @given(raw_text)
    @example("F (x : vec(²)) := x")
    def test_arbitrary_text(self, text):
        try:
            parse_program(text)
        except BeanError:
            pass

    @given(bean_soup)
    def test_parse_expression_fails_cleanly(self, text):
        try:
            parse_expression(text)
        except BeanError:
            pass

    @given(bean_soup)
    def test_parsing_is_deterministic(self, text):
        def attempt():
            try:
                return ("ok", parse_program(text))
            except BeanError as exc:
                return ("err", str(exc))

        first = attempt()
        second = attempt()
        assert first[0] == second[0]
        if first[0] == "err":
            assert first[1] == second[1]
