"""Truncated q-expansions with exact rational coefficients.

Every holomorphic object downstream is carried by a ``QSeries``: a finite
list of Fourier coefficients in q = exp(2*pi*i*tau).  Arithmetic is exact
(``fractions.Fraction``) and truncates to the shorter operand; precision is
never extended silently.  The normalized derivative is D = q d/dq.
"""

import cmath
import math
from fractions import Fraction
from typing import NamedTuple

#: default number of stored coefficients (of q^0 ... q^(N-1))
DEFAULT_PRECISION = 64

# Cocycle constant of E2:  E2(g tau) = j^2 E2(tau) + LAMBDA * c * j with
# j = c*tau + d and LAMBDA = 6/(pi*i) = -6i/pi.  Rationally 2*pi*i*LAMBDA = 12,
# which is why reduced data stays in Q; LAMBDA itself enters only at the
# complex-evaluation boundary.
LAMBDA = complex(0.0, -6.0 / math.pi)


def yhat(y):
    """Numeric value of the reduced non-holomorphic variable -3/(pi*y)."""
    return -3.0 / (math.pi * y)


class Evaluation(NamedTuple):
    """A complex series value together with a truncation-tail estimate."""

    value: complex
    truncation_error: float


def _coerce(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact integer or Fraction, got {type(value).__name__}")


class QSeries:
    """A power series in q truncated to a fixed number of coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(_coerce(c) for c in coeffs)
        if not coeffs:
            raise ValueError("a q-series needs at least one coefficient")
        self.coeffs = coeffs

    @classmethod
    def zero(cls, precision=DEFAULT_PRECISION):
        return cls([Fraction(0)] * precision)

    @classmethod
    def one(cls, precision=DEFAULT_PRECISION):
        return cls([Fraction(1)] + [Fraction(0)] * (precision - 1))

    @property
    def precision(self):
        return len(self.coeffs)

    @property
    def is_zero(self):
        return not any(self.coeffs)

    def coefficient(self, n):
        """Coefficient of q^n (n must lie below the precision)."""
        return self.coeffs[n]

    def valuation(self):
        """Index of the first nonzero coefficient, or the precision if zero."""
        for n, c in enumerate(self.coeffs):
            if c:
                return n
        return self.precision

    def truncate(self, precision):
        """Drop coefficients beyond ``precision`` (never extends)."""
        if precision < 1:
            raise ValueError("precision must be positive")
        if precision >= self.precision:
            return self
        return QSeries(self.coeffs[:precision])

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, QSeries):
            n = min(self.precision, other.precision)
            return QSeries([self.coeffs[i] + other.coeffs[i] for i in range(n)])
        other = _coerce(other)
        return QSeries((self.coeffs[0] + other,) + self.coeffs[1:])

    __radd__ = __add__

    def __neg__(self):
        return QSeries([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, QSeries) else -_coerce(other))

    def __rsub__(self, other):
        return (-self) + _coerce(other)

    def __mul__(self, other):
        if isinstance(other, QSeries):
            n = min(self.precision, other.precision)
            out = [Fraction(0)] * n
            for i in range(n):
                a = self.coeffs[i]
                if not a:
                    continue
                for j in range(n - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
            return QSeries(out)
        other = _coerce(other)
        return QSeries([other * c for c in self.coeffs])

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only non-negative integer powers are defined")
        result = QSeries.one(self.precision)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def __eq__(self, other):
        return isinstance(other, QSeries) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- calculus and evaluation -------------------------------------------

    def derive(self):
        """Normalized derivative D = q d/dq; coefficient n*a_n at q^n."""
        return QSeries([n * c for n, c in enumerate(self.coeffs)])

    def evaluate(self, tau):
        """Evaluate at tau in the upper half-plane.

        Returns the double-precision value of the truncated sum together
        with the tail estimate |q|^N / (1 - |q|).  Terms are accumulated in
        ascending order of n, so extending the precision of a series never
        perturbs the contribution of the shared coefficients.
        """
        tau = complex(tau)
        if not tau.imag > 0:
            raise ValueError(f"tau must lie in the upper half-plane, got Im tau = {tau.imag}")
        q = cmath.exp(2j * math.pi * tau)
        total = 0j
        qn = 1 + 0j
        for c in self.coeffs:
            if c:
                total += float(c) * qn
            qn *= q
        aq = abs(q)
        tail = aq ** self.precision / (1.0 - aq) if aq < 1.0 else math.inf
        return Evaluation(total, tail)

    # -- presentation --------------------------------------------------------

    def __str__(self):
        return format_series(self)

    def __repr__(self):
        shown = format_series(self.truncate(min(4, self.precision)))
        more = ", ..." if self.precision > 4 else ""
        return f"QSeries({shown}{more}; precision={self.precision})"


def format_series(series):
    """Human-readable q-expansion, e.g. ``1 + 240q + 2160q^2``."""
    pieces = []
    for n, c in enumerate(series.coeffs):
        if not c:
            continue
        if n == 0:
            body = str(abs(c))
        else:
            q = "q" if n == 1 else f"q^{n}"
            mag = abs(c)
            if mag == 1:
                body = q
            elif mag.denominator == 1:
                body = f"{mag}{q}"
            else:
                body = f"{mag}*{q}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces) if pieces else "0"
