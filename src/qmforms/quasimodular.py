"""Holomorphic quasi-modular forms for the full modular group.

A form of even weight k is stored as its canonical polynomial representation:
a rational combination of monomials E2^a E4^b E6^c with 2a + 4b + 6c = k,
kept like a ``QSeries`` as integer numerators by (a, b, c) over one positive
denominator in lowest terms, in which all arithmetic, ``/`` and ``recognize``
included, stays; only the view ``monomials`` and ``str`` show ``Fraction``s.
The E2-degree is the depth.  The reduced transformation components are

    fhat_r = (1/r!) * d^r f / dE2^r,

polynomials again; the transformation law of f uses the true components
f_r = LAMBDA^r * fhat_r, with the scaling applied only when evaluating
numerically.  Differentiation D = q d/dq acts through the Ramanujan rules

    D E2 = (E2^2 - E4)/12,   D E4 = (E2 E4 - E6)/3,   D E6 = (E2 E6 - E4^2)/2.
"""

from math import comb, prod

from . import linalg
from .qseries import (DEFAULT_PRECISION, QSeries, _decimal_text, _exact, _fraction_map, _lowest_terms, _natural,
                      _over_lcm, _power, _precision, _prefix_cache, _signed_sum, _weighted_sum)
from .eisenstein import eisenstein_series, monomial_basis


class NoMatchError(ValueError):
    """A q-expansion is not the expansion of any candidate form."""


class UnderdeterminedError(ValueError):
    """The recognition precision cannot separate the candidate monomials."""


class QuasiModularForm:
    """Weight-homogeneous polynomial in E2, E4, E6 with rational coefficients,
    kept as integer numerators over one positive denominator in lowest terms."""

    __slots__ = ("weight", "numerators", "denominator", "depth", "_monomials", "_expansion", "_completion")

    def __init__(self, weight, monomials):
        cleaned = {}
        for key, value in monomials.items():
            value = _exact(value)
            if not value:
                continue
            a, b, c = (_natural(e, "monomial exponent") for e in key)
            if 2 * a + 4 * b + 6 * c != weight:
                a, b, c, total = map(_decimal_text, (a, b, c, 2 * a + 4 * b + 6 * c))
                raise ValueError(f"monomial E2^{a} E4^{b} E6^{c} has weight {total}, not "
                                 f"{_decimal_text(weight) if isinstance(weight, int) else weight}")
            cleaned[(a, b, c)] = value
        if cleaned:
            _natural(weight, "weight", even=True)
        nums, den = _over_lcm((v.numerator, v.denominator) for v in cleaned.values())
        self._set(weight, dict(zip(cleaned, nums)), den)

    @classmethod
    def _from_valid(cls, weight, numerators, den=1):
        """The form sum(numerators[key] * key) / den for int values, keys of weight ``weight``
        and ``den`` > 0: only zero values are dropped, the counterpart of ``QSeries._from_ints``."""
        form = cls.__new__(cls)
        form._set(weight, {key: n for key, n in numerators.items() if n}, den)
        return form

    def _set(self, weight, numerators, den):
        # lowest terms: _lowest_terms hands the values view back when nothing divides out
        nums, self.denominator = _lowest_terms(numerators.values(), den)
        self.numerators = numerators if self.denominator == den else dict(zip(numerators, nums))
        # the zero form carries no weight information of its own, and the
        # largest key (a, b, c) has the largest E2-degree a
        self.weight, self.depth = (weight, max(numerators)[0]) if numerators else (0, 0)
        # the Fraction view, the last qexpansion and the last almostholo.completion, each
        # built on first use; the completion's Yhat^0 coefficient is the form's own expansion
        self._monomials = self._expansion = self._completion = None

    # -- structure -----------------------------------------------------------

    @property
    def monomials(self):
        """The reduced ``Fraction`` coefficient of each (a, b, c), built once."""
        if self._monomials is None:
            self._monomials = _fraction_map(self.numerators, self.denominator)
        return self._monomials

    @property
    def is_zero(self):
        return not self.numerators

    def __eq__(self, other):
        return (
            isinstance(other, QuasiModularForm)
            and self.weight == other.weight
            and self.denominator == other.denominator
            and self.numerators == other.numerators
        )

    def __hash__(self):
        return hash((self.weight, tuple(sorted(self.numerators.items())), self.denominator))

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
        (s, t), den = _over_lcm(((1, self.denominator), (1, other.denominator)))
        merged = {key: n * s for key, n in self.numerators.items()}
        for key, n in other.numerators.items():
            merged[key] = merged.get(key, 0) + n * t
        return QuasiModularForm._from_valid(self.weight, merged, den)

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        if not isinstance(other, QuasiModularForm):
            return NotImplemented
        return self + (-other)

    def _scaled(self, num, den):
        """self * num / den for ints num and den > 0."""
        return QuasiModularForm._from_valid(self.weight, {k: num * n for k, n in self.numerators.items()},
                                            den * self.denominator)

    def __mul__(self, other):
        if not isinstance(other, QuasiModularForm):
            return self._scaled(_exact(other).numerator, other.denominator)
        product = {}
        for (a1, b1, c1), n1 in self.numerators.items():
            for (a2, b2, c2), n2 in other.numerators.items():
                key = (a1 + a2, b1 + b2, c1 + c2)
                product[key] = product.get(key, 0) + n1 * n2
        return QuasiModularForm._from_valid(self.weight + other.weight, product, self.denominator * other.denominator)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        num, den = _exact(scalar).numerator, scalar.denominator
        if not num:
            raise ZeroDivisionError(f"Fraction({den}, 0)")
        return self._scaled(den if num > 0 else -den, abs(num))

    def __pow__(self, exponent):
        return _power(self, exponent, ONE)

    # -- components and operators ---------------------------------------------

    def reduced_component(self, r):
        """The reduced component fhat_r = (1/r!) d^r/dE2^r applied to self."""
        if _natural(r, "component index") == 0:
            return self
        out = {(a - r, b, c): n * comb(a, r) for (a, b, c), n in self.numerators.items() if a >= r}
        return QuasiModularForm._from_valid(self.weight - 2 * r, out, self.denominator)

    def components(self):
        """The tuple (fhat_0, ..., fhat_depth)."""
        return tuple(self.reduced_component(r) for r in range(self.depth + 1))

    def lower(self):
        """The depth-lowering operator f -> fhat_1."""
        return self.reduced_component(1)

    def derive(self):
        """D = q d/dq via the Ramanujan rules; weight goes up by two.  Their
        1/12, 1/3 and 1/2 are a/12, 4b/12 and 6c/12 over the one factor 12
        on the denominator."""
        out = {}
        for (a, b, c), n in self.numerators.items():
            for key, m in (((a + 1, b, c), a + 4 * b + 6 * c), ((a - 1, b + 1, c), -a),
                           ((a, b - 1, c + 1), -4 * b), ((a, b + 2, c - 1), -6 * c)):
                if m:
                    out[key] = out.get(key, 0) + n * m
        return QuasiModularForm._from_valid(self.weight + 2, out, 12 * self.denominator)

    def e2_coefficient(self, t):
        """Coefficient of E2^t: a depth-0 form of weight (k - 2t)."""
        _natural(t, "E2 exponent")
        out = {(0, b, c): n for (a, b, c), n in self.numerators.items() if a == t}
        return QuasiModularForm._from_valid(self.weight - 2 * t, out, self.denominator)

    # -- expansions --------------------------------------------------------------

    def qexpansion(self, precision=DEFAULT_PRECISION):
        """Substitute the generator series into the polynomial.  The form
        keeps the last expansion built, so a repeat at its precision is free."""
        series = self._expansion
        if series is None or series.precision != _precision(precision):
            series = self._expansion = _weighted_sum(((n, _monomial_series(a, b, c, precision))
                                                      for (a, b, c), n in self.numerators.items()),
                                                     precision, self.denominator)
        return series

    # -- presentation --------------------------------------------------------------

    def __str__(self):
        terms = []
        for (a, b, c), v in sorted(self.monomials.items(), reverse=True):
            body = "*".join(name if e == 1 else f"{name}^{e}" for name, e in (("E2", a), ("E4", b), ("E6", c)) if e)
            mag = abs(v)
            text = _decimal_text(mag)
            terms.append((v, f"{text}*{body}" if body and mag != 1 else body or text))
        return _signed_sum(terms)

    def __repr__(self):
        return f"QuasiModularForm({self.weight}, {self})"


@_prefix_cache
def _monomial_series(a, b, c, precision):
    # each key is one product of keys below it; E4^b E6^c is a key, as each E2-degree of a completion reads it
    if a and (b or c) or b and c:
        low = (a, 0, 0) if a else (0, b, 0)
        return _monomial_series(*low, precision) * _monomial_series(0, b - low[1], c, precision)
    if not (a or b or c):
        return QSeries.one(precision)
    if (a + b + c) % 2:  # a power E_k^e is E_k^(e-1) E_k, or (E_k^(e/2))^2 for even e
        rest = _monomial_series(a - a % 2, b - b % 2, c - c % 2, precision)
        return rest * eisenstein_series(2 if a else 4 if b else 6, precision)
    half = _monomial_series(a // 2, b // 2, c // 2, precision)
    return half * half


def monomial(a, b, c):
    """The form E2^a E4^b E6^c."""
    return QuasiModularForm(2 * a + 4 * b + 6 * c, {(a, b, c): 1})


ONE = QuasiModularForm(0, {(0, 0, 0): 1})
E2 = QuasiModularForm(2, {(1, 0, 0): 1})
E4 = QuasiModularForm(4, {(0, 1, 0): 1})
E6 = QuasiModularForm(6, {(0, 0, 1): 1})
DELTA = QuasiModularForm._from_valid(12, {(0, 3, 0): 1, (0, 0, 2): -1}, 1728)


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
    return tuple(derivatives[p - r]._scaled(comb(p, r) * prod(range(l + p - r, l + p)), 12 ** r)
                 for r in range(p + 1))


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
        nums, den = linalg.solve_unique(rows, series.numerators)
    except linalg.UnderdeterminedSystem as exc:
        raise UnderdeterminedError(f"underdetermined: {exc}") from exc
    except linalg.InconsistentSystem:
        raise NoMatchError(
            f"no match: series is not a weight-{weight} form of depth <= {depth_bound}"
        ) from None
    return QuasiModularForm._from_valid(weight, dict(zip(keys, nums)), den * series.denominator)
