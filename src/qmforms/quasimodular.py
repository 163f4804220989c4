"""Holomorphic quasi-modular forms for the full modular group.

A form of even weight k is stored as its canonical polynomial representation:
a rational combination of monomials E2^a E4^b E6^c with 2a + 4b + 6c = k.
The E2-degree is the depth.  The reduced transformation components are

    fhat_r = (1/r!) * d^r f / dE2^r,

polynomials again; the transformation law of f uses the true components
f_r = LAMBDA^r * fhat_r, with the scaling applied only when evaluating
numerically.  Differentiation D = q d/dq acts through the Ramanujan rules

    D E2 = (E2^2 - E4)/12,   D E4 = (E2 E4 - E6)/3,   D E6 = (E2 E6 - E4^2)/2.
"""

from fractions import Fraction
from math import comb

from . import linalg
from .qseries import (DEFAULT_PRECISION, QSeries, _coerce, _natural, _power, _precision, _prefix_cache,
                      _signed_sum, _weighted_sum)
from .eisenstein import eisenstein_series, monomial_basis


class NoMatchError(ValueError):
    """A q-expansion is not the expansion of any candidate form."""


class UnderdeterminedError(ValueError):
    """The recognition precision cannot separate the candidate monomials."""


class QuasiModularForm:
    """Weight-homogeneous polynomial in E2, E4, E6 with rational coefficients."""

    __slots__ = ("weight", "monomials", "_expansion", "_completion")

    def __init__(self, weight, monomials):
        cleaned = {}
        for key, value in monomials.items():
            value = _coerce(value)
            if not value:
                continue
            a, b, c = (_natural(e, "monomial exponent") for e in key)
            if 2 * a + 4 * b + 6 * c != weight:
                raise ValueError(
                    f"monomial E2^{a} E4^{b} E6^{c} has weight {2*a+4*b+6*c}, not {weight}"
                )
            cleaned[(a, b, c)] = value
        if cleaned:
            _natural(weight, "weight", even=True)
        self._set(weight, cleaned)

    @classmethod
    def _from_valid(cls, weight, monomials):
        """The form with these ``monomials``, whose keys already have weight
        ``weight`` and whose values are ``Fraction``s: only the zero values
        are dropped, the counterpart of ``QSeries._from_ints``."""
        form = cls.__new__(cls)
        form._set(weight, {key: value for key, value in monomials.items() if value})
        return form

    def _set(self, weight, monomials):
        # the zero form carries no weight information of its own
        self.weight = weight if monomials else 0
        self.monomials = monomials
        # the last ``qexpansion`` and the last ``almostholo.completion`` built,
        # each kept for one precision; the completion's Yhat^0 coefficient is
        # the form's own expansion
        self._expansion = self._completion = None

    # -- structure -----------------------------------------------------------

    @property
    def is_zero(self):
        return not self.monomials

    @property
    def depth(self):
        """Degree in E2 (zero for the zero form)."""
        return max((a for (a, _, _) in self.monomials), default=0)

    def __eq__(self, other):
        return (
            isinstance(other, QuasiModularForm)
            and self.weight == other.weight
            and self.monomials == other.monomials
        )

    def __hash__(self):
        return hash((self.weight, tuple(sorted(self.monomials.items()))))

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, QuasiModularForm):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.weight != other.weight:
            raise ValueError(f"cannot add forms of weights {self.weight} and {other.weight}")
        merged = dict(self.monomials)
        for key, value in other.monomials.items():
            merged[key] = merged.get(key, Fraction(0)) + value
        return QuasiModularForm._from_valid(self.weight, merged)

    def __neg__(self):
        return QuasiModularForm._from_valid(self.weight, {k: -v for k, v in self.monomials.items()})

    def __sub__(self, other):
        if not isinstance(other, QuasiModularForm):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, QuasiModularForm):
            product = {}
            for (a1, b1, c1), v1 in self.monomials.items():
                for (a2, b2, c2), v2 in other.monomials.items():
                    key = (a1 + a2, b1 + b2, c1 + c2)
                    product[key] = product.get(key, Fraction(0)) + v1 * v2
            return QuasiModularForm._from_valid(self.weight + other.weight, product)
        other = _coerce(other)
        return QuasiModularForm._from_valid(self.weight, {k: other * v for k, v in self.monomials.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        scalar = _coerce(scalar)
        return self * (1 / scalar)

    def __pow__(self, exponent):
        return _power(self, exponent, ONE)

    # -- components and operators ---------------------------------------------

    def reduced_component(self, r):
        """The reduced component fhat_r = (1/r!) d^r/dE2^r applied to self."""
        if _natural(r, "component index") == 0:
            return self
        out = {}
        for (a, b, c), value in self.monomials.items():
            if a >= r:
                out[(a - r, b, c)] = value * comb(a, r)
        return QuasiModularForm._from_valid(self.weight - 2 * r, out)

    def components(self):
        """The tuple (fhat_0, ..., fhat_depth)."""
        return tuple(self.reduced_component(r) for r in range(self.depth + 1))

    def lower(self):
        """The depth-lowering operator f -> fhat_1."""
        return self.reduced_component(1)

    def derive(self):
        """D = q d/dq via the Ramanujan rules; weight goes up by two."""
        out = {}

        def add(key, value):
            out[key] = out.get(key, 0) + value

        for (a, b, c), v in self.monomials.items():
            up = v * (Fraction(a, 12) + Fraction(b, 3) + Fraction(c, 2))
            add((a + 1, b, c), up)
            if a:
                add((a - 1, b + 1, c), -v * Fraction(a, 12))
            if b:
                add((a, b - 1, c + 1), -v * Fraction(b, 3))
            if c:
                add((a, b + 2, c - 1), -v * Fraction(c, 2))
        return QuasiModularForm._from_valid(self.weight + 2, out)

    def e2_coefficient(self, t):
        """Coefficient of E2^t: a depth-0 form of weight (k - 2t)."""
        _natural(t, "E2 exponent")
        out = {(0, b, c): v for (a, b, c), v in self.monomials.items() if a == t}
        return QuasiModularForm._from_valid(self.weight - 2 * t, out)

    # -- expansions --------------------------------------------------------------

    def qexpansion(self, precision=DEFAULT_PRECISION):
        """Substitute the generator series into the polynomial.  The form
        keeps the last expansion built, so a repeat at its precision is free."""
        series = self._expansion
        if series is None or series.precision != _precision(precision):
            series = self._expansion = _weighted_sum(((value, _monomial_series(a, b, c, precision))
                                                      for (a, b, c), value in self.monomials.items()), precision)
        return series

    # -- presentation --------------------------------------------------------------

    def __str__(self):
        terms = []
        for (a, b, c), v in sorted(self.monomials.items(), reverse=True):
            factors = []
            for name, e in (("E2", a), ("E4", b), ("E6", c)):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            mag = abs(v)
            if not body:
                body = str(mag)
            elif mag != 1:
                body = f"{mag}*{body}"
            terms.append((v, body))
        return _signed_sum(terms)

    def __repr__(self):
        return f"QuasiModularForm({self.weight}, {self})"


@_prefix_cache
def _generator_power(weight, exponent, precision):
    # E_k^0 is built without E_k, so a monomial builds only the series it uses
    return eisenstein_series(weight, precision) ** exponent if exponent else QSeries.one(precision)


@_prefix_cache
def _monomial_series(a, b, c, precision):
    return (
        _generator_power(2, a, precision)
        * _generator_power(4, b, precision)
        * _generator_power(6, c, precision)
    )


def monomial(a, b, c, coefficient=1):
    """The form coefficient * E2^a E4^b E6^c."""
    return QuasiModularForm(2 * a + 4 * b + 6 * c, {(a, b, c): coefficient})


ONE = QuasiModularForm(0, {(0, 0, 0): 1})
E2 = QuasiModularForm(2, {(1, 0, 0): 1})
E4 = QuasiModularForm(4, {(0, 1, 0): 1})
E6 = QuasiModularForm(6, {(0, 0, 1): 1})
DELTA = QuasiModularForm(12, {(0, 3, 0): Fraction(1, 1728), (0, 0, 2): Fraction(-1, 1728)})


def weight_op(form):
    """Multiplication by the weight (the grading operator)."""
    return form * form.weight


def derivative_lift(modular_form, p):
    """Component tuple of the p-th derivative of a depth-0 form, computed
    directly from the weight data.

    For g of weight l, entry r is binom(p, r) * prod_{j=1..r}(l + p - j)
    / 12^r times D^(p-r) g; the tuple coincides exactly with
    ``(D^p g).components()``.
    """
    if modular_form.depth > 0:
        raise ValueError("derivative_lift needs a modular (depth-0) input")
    _natural(p, "derivative order")
    l = modular_form.weight
    derivatives = [modular_form]
    for _ in range(p):
        derivatives.append(derivatives[-1].derive())
    entries = []
    for r in range(p + 1):
        scale = Fraction(comb(p, r), 12 ** r)
        for j in range(1, r + 1):
            scale *= l + p - j
        entries.append(derivatives[p - r] * scale)
    return tuple(entries)


def _candidate_keys(weight, depth_bound):
    return [
        (a, b, c)
        for a in range(min(depth_bound, weight // 2) + 1)
        for (b, c) in monomial_basis(weight - 2 * a)
    ]


def recognize(series, weight, depth_bound):
    """Find the unique form of the given weight and depth bound whose
    q-expansion matches ``series`` exactly, by an exact linear solve.

    Raises ``UnderdeterminedError`` when the precision of ``series`` cannot
    separate the candidate monomials, and ``NoMatchError`` when the system is
    inconsistent.
    """
    _natural(depth_bound, "depth bound")
    if type(weight) is not int:
        _natural(weight, "weight", even=True)
    # a negative or odd weight has no candidates, like a weight without monomials
    keys = _candidate_keys(weight, depth_bound)
    if not keys:
        if series.is_zero:
            return QuasiModularForm(0, {})
        raise NoMatchError(f"no candidate monomials of weight {weight}, depth <= {depth_bound}")
    n = series.precision
    # generator monomials have integer coefficients: their numerators are the columns
    columns = [_monomial_series(a, b, c, n).numerators for (a, b, c) in keys]
    rows = list(zip(*columns))
    try:
        solution = linalg.solve_unique(rows, series.numerators)
    except linalg.UnderdeterminedSystem as exc:
        raise UnderdeterminedError(f"underdetermined: {exc}") from exc
    except linalg.InconsistentSystem:
        raise NoMatchError(
            f"no match: series is not a weight-{weight} form of depth <= {depth_bound}"
        ) from None
    return QuasiModularForm._from_valid(weight, {key: x / series.denominator for key, x in zip(keys, solution)})
