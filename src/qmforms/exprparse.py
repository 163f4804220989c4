"""A tiny expression syntax for entering forms on the command line.

Grammar: sums/differences of products of powers of E2, E4, E6, Delta and
integer literals, with parentheses; '/' divides by a rational constant, so
literals like 3/2 and scalings like (E4^3 - E6^2)/1728 work.  Any operand
may carry a sign, which binds looser than '^' and tighter than '*' and '/':
-E4^2 and E4*-E4^2 both negate E4^2.  The result is a QuasiModularForm.

The parser builds a tree and no form, so malformed text is refused before
anything is expanded.  ``_build`` then does all of the form arithmetic, and
raises its two errors: weights that do not match, and a divisor that is not
a nonzero rational constant.

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
        digits, name, op = match.groups()
        if digits:
            try:
                tokens.append(("int", int(digits)))
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                raise ExpressionError(f"integer literal of {len(digits)} digits is too long") from None
        elif name:
            tokens.append(("name", name))
        else:
            tokens.append(("op", op))
        pos = match.end()
    if text[pos:].strip():
        raise ExpressionError(f"unexpected character {text[pos:].lstrip()[0]!r} at position {pos}")
    return tokens


class _Parser:
    """Recursive descent to a tree; an op token is told by its value alone."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.index = 0

    def peek(self):
        return self.tokens[self.index] if self.index < len(self.tokens) else (None, None)

    def take(self):
        token = self.peek()
        self.index += 1
        return token

    def parse(self):
        tree = self.chain(("+", "-"), self.product)
        if self.index < len(self.tokens):
            raise ExpressionError(f"trailing input at token {self.peek()[1]!r}")
        return tree

    def product(self):
        return self.chain(("*", "/"), self.signed)

    def chain(self, ops, operand):
        run = [operand()]
        while self.peek()[1] in ops:
            run.append((self.take()[1], operand()))
        return run if len(run) > 1 else run[0]

    def signed(self):
        # signed and power in one method, to spend no stack frame on power
        if self.peek()[1] in ("+", "-"):
            return (self.take()[1], self.signed())
        base = self.atom()
        if self.peek()[1] == "^":
            self.take()
            kind, exponent = self.take()
            if kind != "int":
                raise ExpressionError("exponent must be a non-negative integer literal")
            return [base, ("^", exponent)]
        return base

    def atom(self):
        kind, value = self.take()
        if kind == "int":
            return value
        if kind == "name":
            try:
                return _GENERATORS[value]
            except KeyError:
                raise ExpressionError(
                    f"unknown name {value!r}; expected one of {sorted(_GENERATORS)}"
                ) from None
        if value == "(":
            tree = self.chain(("+", "-"), self.product)
            close = self.take()[1]
            if close != ")":
                raise ExpressionError(f"expected ')', got {close!r}")
            return tree
        raise ExpressionError(f"unexpected token {value!r}")


def _build(tree):
    """The form of a tree from ``_Parser``: an int literal, a generator form,
    ``(sign, operand)``, or a left-associative run ``[first, (op, operand),
    ...]`` where a '^' operand is the exponent.  A run is built by a loop, so
    a long sum recurses no deeper than its terms."""
    if type(tree) is int:
        return ONE * tree
    if isinstance(tree, QuasiModularForm):
        return tree
    if type(tree) is tuple:
        return -_build(tree[1]) if tree[0] == "-" else _build(tree[1])
    form = _build(tree[0])
    for op, operand in tree[1:]:
        if op == "^":
            form = form ** operand
        elif op == "*":
            form = form * _build(operand)
        elif op == "/":
            divisor = _build(operand)
            if set(divisor.numerators) != {(0, 0, 0)}:
                raise ExpressionError("division only by nonzero rational constants")
            form = form * divisor.denominator / divisor.numerators[(0, 0, 0)]
        else:
            term = _build(operand)
            try:
                form = form - term if op == "-" else form + term
            except ValueError as exc:
                raise ExpressionError(f"not weight-homogeneous: {exc}") from None
    return form


def parse_form(text):
    """Parse an expression like ``E2^2*E4 + 3*E6^2`` into a form."""
    tokens = _tokenize(text)
    if not tokens:
        raise ExpressionError("empty expression")
    try:
        return _build(_Parser(tokens).parse())
    except RecursionError:
        raise ExpressionError("expression nested too deeply") from None
