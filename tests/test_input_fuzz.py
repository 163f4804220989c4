"""Property tests of the input boundary: text built from the expression
grammar (and that text with one token spliced in or cut out) either parses
or raises ExpressionError, and ``qmforms expand`` on it exits 0 or 2 with
one ``error:`` line.

Integer literals stay at most 99.  Exponents on E2, E4, E6 and on literals
run up to 9999, which binary powering keeps cheap.  Exponents drawn on Delta
stay at most 99 and those on a parenthesised group at most 3: the expanded
polynomial of a sum grows with the exponent, so larger ones would only make
an example slow, not find a fault.  Group powers nest up to three deep, so a
valid text still reaches Delta^(99 * 27): ``((-Delta^79)^3)^3`` is
Delta^711.  Cold, in a fresh process, ``qmforms expand --precision 4`` took
0.20-0.22 s on that text and 3.6-3.7 s on ``(((Delta^99)^3)^3)^3``
(Python 3.11.7, 2 vCPU), far under the suite's 60 s limit per test.  A
mutation can still lengthen an exponent: cutting ``)^`` out of
``(+Delta^64)^3`` leaves ``(+Delta^643``.  Such text is malformed, and the
parser refuses malformed text before it expands anything, so it costs
nothing.
"""

import contextlib
import io

from hypothesis import given, settings, strategies as st

from qmforms.cli import main
from qmforms.exprparse import ExpressionError, parse_form

SIGNS = st.sampled_from(["", "", "-", "+", "--", "-+"])
LITERALS = st.integers(0, 99).map(str)
ATOMS = st.one_of(st.sampled_from(["E2", "E4", "E6", "Delta"]), LITERALS)
POWERS = st.one_of(
    ATOMS,
    st.builds("{}^{}".format, st.one_of(st.sampled_from(["E2", "E4", "E6"]), LITERALS), st.integers(0, 9999)),
    # Delta has two monomials, so its n-th power has n + 1
    st.builds("Delta^{}".format, st.integers(0, 99)),
)
OPERATORS = st.sampled_from(["+", "-", "*", "/", " + ", " - ", " * "])


def _extend(inner):
    group = inner.map("({})".format)
    return st.one_of(
        st.builds("{}{}{}".format, inner, OPERATORS, inner),
        st.builds("{}{}".format, SIGNS, group),
        # a group raised to a small power keeps the expanded polynomial small
        st.builds("{}^{}".format, group, st.integers(0, 3)),
    )


EXPRESSIONS = st.recursive(st.builds("{}{}".format, SIGNS, POWERS), _extend, max_leaves=6)
JUNK = st.sampled_from(["(", ")", "^", "*", "/", "+", "-", "E8", "@", "2", " "])


@st.composite
def _mutated(draw):
    """Grammar-built text with one token inserted or one slice removed."""
    text = draw(EXPRESSIONS)
    start = draw(st.integers(0, len(text)))
    if draw(st.booleans()):
        return text[:start] + draw(JUNK) + text[start:]
    return text[:start] + text[draw(st.integers(start, len(text))):]


INPUTS = st.one_of(EXPRESSIONS, _mutated())


@settings(max_examples=150, deadline=None)
@given(INPUTS)
def test_parse_form_raises_only_expression_error(text):
    try:
        parse_form(text)
    except ExpressionError:
        pass


@settings(max_examples=75, deadline=None)
@given(INPUTS)
def test_cli_expand_exits_0_or_2_with_one_error_line(text):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["expand", "--precision", "4", "--", text])
    assert code in (0, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""
