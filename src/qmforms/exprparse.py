"""A tiny expression syntax for entering forms on the command line.

Grammar: sums/differences of products of powers of E2, E4, E6, Delta and
integer literals, with parentheses; '/' divides by a rational constant, so
literals like 3/2 and scalings like (E4^3 - E6^2)/1728 work.  Any operand
may carry a sign, which binds looser than '^' and tighter than '*' and '/':
-E4^2 and E4*-E4^2 both negate E4^2.  The result is a QuasiModularForm;
weight homogeneity is enforced by the form arithmetic.

    sum     := product (('+' | '-') product)*
    product := signed (('*' | '/') signed)*
    signed  := ('+' | '-') signed | power
    power   := atom ('^' integer)?
    atom    := integer | name | '(' sum ')'
"""

import re

from .quasimodular import DELTA, E2, E4, E6, ONE, QuasiModularForm

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]\w*)|([-+*/^()]))")

_GENERATORS = {"E2": E2, "E4": E4, "E6": E6, "Delta": DELTA}


class ExpressionError(ValueError):
    """The expression cannot be parsed into a weight-homogeneous form."""


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if not match:
            break
        if match.group(1):
            tokens.append(("int", int(match.group(1))))
        elif match.group(2):
            tokens.append(("name", match.group(2)))
        else:
            tokens.append(("op", match.group(3)))
        pos = match.end()
    if text[pos:].strip():
        raise ExpressionError(f"unexpected character {text[pos:].lstrip()[0]!r} at position {pos}")
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.index = 0

    def peek(self):
        return self.tokens[self.index] if self.index < len(self.tokens) else (None, None)

    def take(self):
        token = self.peek()
        self.index += 1
        return token

    def expect_op(self, op):
        kind, value = self.take()
        if kind != "op" or value != op:
            raise ExpressionError(f"expected {op!r}, got {value!r}")

    def parse(self):
        form = self.sum()
        if self.index < len(self.tokens):
            raise ExpressionError(f"trailing input at token {self.peek()[1]!r}")
        return form

    def sum(self):
        form = self.product()
        while True:
            kind, value = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                term = self.product()
                try:
                    form = form - term if value == "-" else form + term
                except ValueError as exc:
                    raise ExpressionError(f"not weight-homogeneous: {exc}") from None
            else:
                return form

    def product(self):
        form = self.signed()
        while True:
            kind, value = self.peek()
            if kind == "op" and value in "*/":
                self.take()
                rhs = self.signed()
                if value == "*":
                    form = form * rhs
                else:
                    scalar = _as_scalar(rhs)
                    if scalar is None or scalar == 0:
                        raise ExpressionError("division only by nonzero rational constants")
                    form = form / scalar
            else:
                return form

    def signed(self):
        kind, value = self.peek()
        if kind == "op" and value in "+-":
            self.take()
            form = self.signed()
            return -form if value == "-" else form
        return self.power()

    def power(self):
        base = self.atom()
        kind, value = self.peek()
        if kind == "op" and value == "^":
            self.take()
            kind, exponent = self.take()
            if kind != "int":
                raise ExpressionError("exponent must be a non-negative integer literal")
            return base ** exponent
        return base

    def atom(self):
        kind, value = self.take()
        if kind == "int":
            return ONE * value
        if kind == "name":
            try:
                return _GENERATORS[value]
            except KeyError:
                raise ExpressionError(
                    f"unknown name {value!r}; expected one of {sorted(_GENERATORS)}"
                ) from None
        if kind == "op" and value == "(":
            form = self.sum()
            self.expect_op(")")
            return form
        raise ExpressionError(f"unexpected token {value!r}")


def _as_scalar(form):
    """The rational value of a constant (weight-0) form, or None."""
    if form.is_zero:
        return 0
    if set(form.monomials) == {(0, 0, 0)}:
        return form.monomials[(0, 0, 0)]
    return None


def parse_form(text):
    """Parse an expression like ``E2^2*E4 + 3*E6^2`` into a form."""
    tokens = _tokenize(text)
    if not tokens:
        raise ExpressionError("empty expression")
    try:
        form = _Parser(tokens).parse()
    except RecursionError:
        raise ExpressionError("expression nested too deeply") from None
    if not isinstance(form, QuasiModularForm):
        raise ExpressionError("expression did not produce a form")
    return form
