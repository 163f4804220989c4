"""Almost holomorphic modular forms as polynomials in Yhat = -3/(pi*y).

A form of weight k is sum_r coeffs[r] * Yhat^r with holomorphic q-series
coefficients.  The completion of a quasi-modular form f substitutes its
reduced components for the coefficients, e.g. the completion of E2 is the
classical E2 - 3/(pi*y).  Everything here stays rational; Yhat acquires its
numeric value only in ``evaluate``.
"""

from math import comb

from .qseries import (DEFAULT_PRECISION, QSeries, _evaluations, _natural, _powers, _precision, _weighted_sum,
                      _weighted_value, yhat)


class NotHolomorphicError(ValueError):
    """Cancellation of the non-holomorphic part failed."""


class AlmostHolomorphicForm:
    """Polynomial in Yhat over truncated q-series, of fixed even weight."""

    __slots__ = ("weight", "coeffs")

    def __init__(self, weight, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("need at least one Yhat-coefficient")
        precisions = {s.precision for s in coeffs}
        if len(precisions) != 1:
            raise ValueError(f"precision mismatch across Yhat-coefficients: {sorted(precisions)}")
        while len(coeffs) > 1 and coeffs[-1].is_zero:
            coeffs = coeffs[:-1]
        if len(coeffs) == 1 and coeffs[0].is_zero:
            weight = 0
        self.weight = _natural(weight, "weight", even=True)
        self.coeffs = coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def precision(self):
        return self.coeffs[0].precision

    @property
    def is_zero(self):
        return len(self.coeffs) == 1 and self.coeffs[0].is_zero

    def coefficient(self, r):
        """The Yhat^r coefficient (zero series beyond the degree)."""
        if _natural(r, "Yhat index") > self.degree:
            return QSeries.zero(self.precision)
        return self.coeffs[r]

    def __eq__(self, other):
        return (
            isinstance(other, AlmostHolomorphicForm)
            and self.weight == other.weight
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.weight, self.coeffs))

    def __add__(self, other):
        if not isinstance(other, AlmostHolomorphicForm):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.weight != other.weight:
            raise ValueError(f"cannot add forms of weights {self.weight} and {other.weight}")
        if self.precision != other.precision:
            raise ValueError("precision mismatch")
        n = max(self.degree, other.degree) + 1
        return AlmostHolomorphicForm(
            self.weight, [self.coefficient(r) + other.coefficient(r) for r in range(n)]
        )

    def __neg__(self):
        return AlmostHolomorphicForm(self.weight, [-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, AlmostHolomorphicForm):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar):
        if isinstance(scalar, AlmostHolomorphicForm):
            return NotImplemented
        return AlmostHolomorphicForm(self.weight, [scalar * c for c in self.coeffs])

    __rmul__ = __mul__

    def evaluate(self, tau):
        """Numeric value sum_r coeffs[r](tau) * (-3/(pi*Im tau))^r."""
        tau = complex(tau)
        return _weighted_value(_powers(yhat(tau.imag), self.degree), _evaluations(self.coeffs, tau))

    def __str__(self):
        lines = [f"Y^{r}: {series}" for r, series in enumerate(self.coeffs)]
        return "\n".join(lines)

    def __repr__(self):
        return f"AlmostHolomorphicForm(weight={self.weight}, degree={self.degree})"


def completion(form, precision=DEFAULT_PRECISION):
    """The almost holomorphic completion sum_r qexp(fhat_r) * Yhat^r.  The
    form keeps the last one built, so a repeat at its precision is free."""
    full = form._completion
    if full is None or full.precision != _precision(precision):
        full = form._completion = AlmostHolomorphicForm(
            form.weight, [c.qexpansion(precision) for c in form.components()]
        )
    return full


def _component_values(form, precision, tau):
    """The ``Evaluation``s of fhat_0..fhat_d of ``form`` at tau, from its completion at ``precision``.
    A completion drops its zero top coefficients; only then are they read as zero series, whose
    values are zero and whose tails are those of the other components."""
    coeffs = completion(form, precision).coeffs
    if len(coeffs) <= form.depth:
        coeffs += (QSeries.zero(coeffs[0].precision),) * (form.depth + 1 - len(coeffs))
    return _evaluations(coeffs, tau)


def _lowered(full, r):
    """delta^r / r! of an almost holomorphic form, delta = d/dYhat: the form
    of weight k - 2r whose Yhat^s coefficient is binom(r + s, s) times the
    Yhat^(r+s) one of ``full``.  Applied to the completion of f it gives the
    completion of fhat_r."""
    if r == 0:
        return full
    # a completion drops its zero top coefficients, so Yhat^r may lie past its degree
    return AlmostHolomorphicForm(full.weight - 2 * r, [full.coefficient(r)] + [
        comb(r + s, s) * full.coeffs[r + s] for s in range(1, full.degree - r + 1)])


def component_forms(form, precision=DEFAULT_PRECISION):
    """Completions of all reduced components of a quasi-modular form.

    Entry r is an almost holomorphic form of weight k - 2r; the family is
    exactly what ``reconstruct`` inverts.  Entry r is delta^r/r! of the one
    completion of ``form``, with Yhat^s coefficient binom(r + s, s) * qexp(fhat_(r+s)).
    """
    full = completion(form, precision)
    return [_lowered(full, r) for r in range(form.depth + 1)]


def _graded_weight(parts, weight=None):
    """The weight k of a family whose nonzero part s has weight k - 2s:
    ``weight`` when given, else the first nonzero part's weight + 2s; None
    when no part fixes it.  A part of another weight is a ``ValueError``."""
    for s, part in enumerate(parts):
        if part.is_zero:
            continue
        if weight is None:
            weight = part.weight + 2 * s
        elif part.weight != weight - 2 * s:
            raise ValueError(f"part {s} has weight {part.weight}, expected {weight - 2 * s}")
    return weight


def reconstruct(parts):
    """Recover the holomorphic q-expansion from a component family.

    Forms sum_s parts[s] * (-Yhat)^s as a Yhat-polynomial, demands that all
    positive Yhat-powers cancel identically at the working precision, and
    returns the constant coefficient.  Raises ``NotHolomorphicError`` when
    the cancellation fails, which signals that the inputs were not the
    component family of a single quasi-modular form.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("need at least one part")
    precisions = {p.precision for p in parts}
    if len(precisions) != 1:
        raise ValueError(f"precision mismatch across parts: {sorted(precisions)}")
    _graded_weight(parts)
    n = parts[0].precision

    def coefficient(r):
        # the Yhat^r coefficient of sum_s parts[s] * (-Yhat)^s
        return _weighted_sum((((-1) ** s, part.coeffs[r - s])
                              for s, part in enumerate(parts[:r + 1]) if r - s <= part.degree), n)

    for r in range(1, max(s + p.degree for s, p in enumerate(parts)) + 1):
        if not coefficient(r).is_zero:
            raise NotHolomorphicError(
                f"not holomorphic: Yhat^{r} coefficient does not cancel"
            )
    # only parts[0] reaches Yhat^0
    return parts[0].coeffs[0]


def raise_op(form):
    """The reduced weight-raising operator (weight k -> k + 2).

    New Yhat^r coefficient: D(coeffs[r]) + (k - r + 1)/12 * coeffs[r-1], as
    the one weighted sum (12 D(coeffs[r]) + (k - r + 1) coeffs[r-1]) / 12.
    The constant term of raise_op(completion(f)) is D of the expansion of f.
    """
    k, n = form.weight, form.precision
    below = (QSeries.zero(n),) + form.coeffs  # coeffs[r - 1], zero at r = 0
    return AlmostHolomorphicForm(k + 2, [
        _weighted_sum([(12, form.coefficient(r).derive()), (k - r + 1, below[r])], n, 12)
        for r in range(form.degree + 2)])


def lower_op(form):
    """The reduced weight-lowering operator delta = d/dYhat (weight k -> k - 2):
    ``_lowered`` at r = 1.  New Yhat^r coefficient: (r + 1) * coeffs[r + 1];
    a form of degree 0 goes to the zero form, and lower_op(completion(f)) is
    the completion of fhat_1."""
    return _lowered(form, 1)
