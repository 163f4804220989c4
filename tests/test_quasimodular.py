import itertools
import random
from fractions import Fraction
from functools import reduce
from math import comb, gcd
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from qmforms import (
    DEFAULT_PRECISION,
    DELTA,
    E2,
    E4,
    E6,
    NoMatchError,
    ONE,
    QSeries,
    QuasiModularForm,
    UnderdeterminedError,
    completion,
    derivative_lift,
    monomial,
    recognize,
    weight_op,
)

from qmforms.eisenstein import eisenstein_series
from qmforms.qseries import CACHE_KEYS
from qmforms.quasimodular import _generator_power, _monomial_series
from qmforms import linalg

from _oracles import all_monomials, convolution, eisenstein_by_divisors, pow_list, random_form


def sympy_components(form, r):
    """Independent reduced-component oracle: differentiate with sympy."""
    import sympy

    e2, e4, e6 = sympy.symbols("e2 e4 e6")
    expr = sympy.Integer(0)
    for (a, b, c), v in form.monomials.items():
        expr += sympy.Rational(v.numerator, v.denominator) * e2 ** a * e4 ** b * e6 ** c
    derived = sympy.diff(expr, e2, r) / sympy.factorial(r)
    derived = sympy.expand(derived)
    if derived == 0:
        return QuasiModularForm(0, {})
    poly = sympy.Poly(derived, e2, e4, e6)
    monomials = {}
    for (a, b, c), coeff in poly.terms():
        q = sympy.Rational(coeff)
        monomials[(a, b, c)] = Fraction(int(q.p), int(q.q))
    return QuasiModularForm(form.weight - 2 * r, monomials)


class TestConstruction:
    def test_weight_homogeneity_enforced(self):
        with pytest.raises(ValueError):
            QuasiModularForm(4, {(1, 0, 0): 1})

    def test_odd_weight_rejected(self):
        with pytest.raises(ValueError):
            QuasiModularForm(3, {(0, 0, 0): 1})

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            QuasiModularForm(-2, {(0, 0, 0): 1})

    @pytest.mark.parametrize(
        "build, name",
        [
            (lambda: QuasiModularForm(4.0, {(0, 1, 0): 1}), "weight"),
            (lambda: QuasiModularForm(4, {(0, True, 0): 1}), "exponent"),
            (lambda: QuasiModularForm(4, {(0, 1.0, 0): 1}), "exponent"),
            (lambda: QuasiModularForm(4, {(0, -1, 2): 1}), "exponent"),
            (lambda: E2.reduced_component(1.0), "component index"),
            (lambda: E2.e2_coefficient(True), "E2 exponent"),
            (lambda: derivative_lift(E4, -1), "derivative order"),
        ],
        ids=["float weight", "bool exponent", "float exponent", "negative exponent",
             "float index", "bool E2 exponent", "negative order"],
    )
    def test_integer_rule(self, build, name):
        # a bool or float would be written by dumps and refused by loads
        with pytest.raises(ValueError, match=f"{name} must be a non-negative (even )?integer"):
            build()

    def test_zero_form_normalizes(self):
        zero = QuasiModularForm(8, {})
        assert zero.is_zero and zero.weight == 0 and zero.depth == 0
        assert zero == E4 - E4

    def test_zero_weight_is_wildcard_in_sums(self):
        zero = E6 - E6
        assert zero + E4 == E4
        assert E2 + zero == E2

    def test_weight_mismatch_in_sums(self):
        with pytest.raises(ValueError):
            E2 + E4

    def test_depth(self):
        assert E4.depth == 0
        assert (E2 * E4).depth == 1
        assert (E2 ** 3).depth == 3
        assert DELTA.depth == 0 and DELTA.weight == 12


class TestComponents:
    def test_e2(self):
        assert E2.reduced_component(0) == E2
        assert E2.reduced_component(1) == ONE
        assert E2.components() == (E2, ONE)

    def test_modular_forms_have_trivial_components(self):
        assert E4.reduced_component(1).is_zero
        assert E4.components() == (E4,)

    def test_e2_squared(self):
        f = E2 * E2
        assert f.reduced_component(1) == 2 * E2
        assert f.reduced_component(2) == ONE
        assert f.reduced_component(3).is_zero

    def test_e2_e4(self):
        assert (E2 * E4).components() == (E2 * E4, E4)

    def test_component_weights_and_depths(self):
        rng = random.Random(3)
        for _ in range(20):
            f = random_form(rng)
            for r, c in enumerate(f.components()):
                if not c.is_zero:
                    assert c.weight == f.weight - 2 * r
                    assert c.depth <= f.depth - r

    def test_against_sympy_differentiation(self):
        rng = random.Random(5)
        for _ in range(15):
            f = random_form(rng, max_weight=16, max_depth=5)
            for r in range(f.depth + 2):
                assert f.reduced_component(r) == sympy_components(f, r)

    def test_nested_component_identity(self):
        rng = random.Random(9)
        for _ in range(40):
            f = random_form(rng)
            for r in range(f.depth + 1):
                for s in range(f.depth - r + 1):
                    lhs = f.reduced_component(r).reduced_component(s)
                    rhs = comb(r + s, r) * f.reduced_component(r + s)
                    assert lhs == rhs


class TestProduct:
    def test_monomial_product(self):
        product = E2 * E4
        assert product.depth == 1 and product.weight == 6
        assert product == monomial(1, 1, 0)

    def test_component_convolution_for_e2_squared(self):
        assert (E2 * E2).components() == (E2 * E2, 2 * E2, ONE)

    def test_multiplicative_identity(self):
        rng = random.Random(13)
        for _ in range(10):
            f = random_form(rng)
            assert f * ONE == f

    def test_depth_additivity(self):
        rng = random.Random(17)
        for _ in range(20):
            f, g = random_form(rng), random_form(rng)
            assert (f * g).depth == f.depth + g.depth

    def test_component_convolution(self):
        rng = random.Random(19)
        for _ in range(20):
            f, g = random_form(rng, max_weight=14), random_form(rng, max_weight=14)
            h = f * g
            for t in range(h.depth + 1):
                total = QuasiModularForm(0, {})
                for r in range(t + 1):
                    total = total + f.reduced_component(r) * g.reduced_component(t - r)
                assert h.reduced_component(t) == total

    def test_division_by_a_scalar(self):
        # the quotient is taken in integers: the sign of a negative divisor
        # moves onto the numerators, and the denominator stays positive
        quotient = E4 / Fraction(-2, 3)
        assert quotient == E4 * Fraction(-3, 2) == (E4 * -3) / 2
        assert quotient.numerators == {(0, 1, 0): -3} and quotient.denominator == 2
        assert (E4 * 6) / 4 == E4 * Fraction(3, 2) and ((E4 * 6) / 4).denominator == 2
        for zero in (0, Fraction(0)):
            with pytest.raises(ZeroDivisionError):
                E4 / zero
        with pytest.raises(TypeError):
            E4 / 1.5


class TestDerivative:
    def test_ramanujan_rules(self):
        assert E2.derive() == (E2 * E2 - E4) / 12
        assert E4.derive() == (E2 * E4 - E6) / 3
        assert E6.derive() == (E2 * E6 - E4 * E4) / 2

    def test_constant(self):
        assert ONE.derive().is_zero

    def test_qexpansion_consistency(self):
        rng = random.Random(23)
        for _ in range(15):
            f = random_form(rng, max_weight=16)
            assert f.derive().qexpansion(32) == f.qexpansion(32).derive()

    def test_weight_and_depth_bounds(self):
        rng = random.Random(29)
        for _ in range(15):
            f = random_form(rng)
            d = f.derive()
            assert d.weight == f.weight + 2
            assert d.depth <= f.depth + 1


class TestOperators:
    def test_lower(self):
        assert E2.lower() == ONE
        assert (E4 ** 3).lower().is_zero
        assert (E2 * E2 * E4).lower() == 2 * E2 * E4

    def test_weight_op(self):
        assert weight_op(E4) == 4 * E4
        assert weight_op(ONE).is_zero
        assert weight_op(E2 * E6) == 8 * E2 * E6

    def test_sl2_weight_derivative_commutator(self):
        for key in all_monomials(16):
            f = monomial(*key)
            lhs = weight_op(f.derive()) - weight_op(f).derive()
            assert lhs == 2 * f.derive()

    def test_sl2_weight_lowering_commutator(self):
        for key in all_monomials(16):
            f = monomial(*key)
            lhs = weight_op(f).lower() - weight_op(f.lower())
            assert lhs == 2 * f.lower()

    def test_sl2_lowering_derivative_commutator(self):
        # determine the constant from three probes, then verify broadly
        constants = set()
        for f in (E2, E4, E2 * E2):
            bracket = f.derive().lower() - f.lower().derive()
            assert set(bracket.monomials) == set(f.monomials)
            ratios = {
                key: value / f.monomials[key] for key, value in bracket.monomials.items()
            }
            assert len(set(ratios.values())) == 1
            constants.add(next(iter(ratios.values())) / f.weight)
        assert constants == {Fraction(1, 12)}
        for weight in range(2, 17, 2):
            for key in all_monomials(weight):
                f = monomial(*key)
                bracket = f.derive().lower() - f.lower().derive()
                assert bracket == weight_op(f) / 12


class TestDerivativeLift:
    def test_order_zero(self):
        assert derivative_lift(E6, 0) == (E6,)

    def test_e4_order_one(self):
        entries = derivative_lift(E4, 1)
        assert entries == (E4.derive(), E4 / 3)

    def test_e6_order_two_matches_components(self):
        assert derivative_lift(E6, 2) == E6.derive().derive().components()

    def test_matches_components_generally(self):
        for g in (E4, E6, DELTA, E4 * E6):
            d = g
            for p in range(4):
                assert derivative_lift(g, p) == d.components()
                d = d.derive()

    def test_rejects_positive_depth(self):
        with pytest.raises(ValueError):
            derivative_lift(E2, 1)


class TestQExpansion:
    def test_constant(self):
        assert ONE.qexpansion(4).coeffs == (1, 0, 0, 0)

    def test_e2_e4_coefficient(self):
        series = (E2 * E4).qexpansion(3)
        assert series.coeffs[0] == 1
        assert series.coeffs[1] == 216

    def test_discriminant(self):
        series = ((E4 ** 3 - E6 ** 2) / 1728).qexpansion(5)
        assert list(series.coeffs) == [0, 1, -24, 252, -1472]

    def test_e4_matches_divisor_oracle(self):
        assert list(E4.qexpansion(24).coeffs) == eisenstein_by_divisors(4, 24)

    def test_ring_homomorphism(self):
        rng = random.Random(31)
        for _ in range(10):
            f, g = random_form(rng, max_weight=14), random_form(rng, max_weight=14)
            assert (f * g).qexpansion(24) == f.qexpansion(24) * g.qexpansion(24)
            if f.weight == g.weight:
                assert (f + g).qexpansion(24) == f.qexpansion(24) + g.qexpansion(24)


@st.composite
def forms(draw, weights=range(0, 17, 2), max_denominator=6):
    """A quasi-modular form of one of ``weights`` (by default <= 16) with up
    to four terms whose coefficients have denominators 1 to
    ``max_denominator``; the zero form is drawn too."""
    weight = draw(st.sampled_from(weights))
    keys = draw(st.lists(st.sampled_from(all_monomials(weight)), max_size=4, unique=True))
    values = st.builds(Fraction, st.integers(-50, 50), st.integers(1, max_denominator))
    return QuasiModularForm(weight, {key: draw(values) for key in keys})


class TestRingHomomorphismProperty:
    """qexpansion(N) takes products, sums and differences of forms to those
    of their expansions: the packed product on signed rational series."""

    @settings(max_examples=100, deadline=None)
    @given(forms(range(0, 25, 2), 12), forms(range(0, 25, 2), 12), st.integers(1, 96))
    def test_product(self, f, g, precision):
        assert (f * g).qexpansion(precision) == f.qexpansion(precision) * g.qexpansion(precision)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(range(0, 25, 2)).flatmap(lambda k: st.tuples(forms([k], 12), forms([k], 12))),
           st.integers(1, 96))
    def test_sum_and_difference(self, pair, precision):
        f, g = pair
        assert (f + g).qexpansion(precision) == f.qexpansion(precision) + g.qexpansion(precision)
        assert (f - g).qexpansion(precision) == f.qexpansion(precision) - g.qexpansion(precision)


def assert_canonical(form):
    """Nonzero int numerators over one positive denominator in lowest terms,
    and the Fraction view term by term."""
    nums, den = form.numerators, form.denominator
    assert all(type(n) is int and n for n in nums.values())
    assert type(den) is int and den > 0
    assert gcd(den, *nums.values()) == 1
    assert form.monomials == {key: Fraction(n, den) for key, n in nums.items()}
    assert form.depth == max((a for a, _, _ in nums), default=0)


class TestCanonicalForm:
    """Every ring operation leaves its result in lowest terms."""

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(range(0, 25, 2)).flatmap(lambda k: st.tuples(forms([k], 12), forms([k], 12))),
           forms(range(0, 13, 2), 12), st.integers(0, 5), st.integers(0, 6),
           st.fractions(min_value=-9, max_value=9, max_denominator=9))
    def test_after_every_ring_operation(self, pair, h, exponent, r, scalar):
        f, g = pair
        assert_canonical(f)
        for result in (f + g, f - g, -f, f * g, f * h, h ** exponent, f.derive(), f.reduced_component(r),
                       f.e2_coefficient(r), f * scalar):
            assert_canonical(result)
        if scalar:
            assert_canonical(f / scalar)

    def test_cancellation_leaves_no_zero_numerator(self):
        f = E2 * E4 / 6 + E6 / 4
        for result in (f - f, (f - E6 / 4) * 6, f * 0, (E2 * E4 - E6).derive() - (E2 * E4 - E6).derive()):
            assert_canonical(result)
        assert (f - f).is_zero and (f - f).denominator == 1 and (f - f).weight == 0
        assert (f - E6 / 4) * 6 == E2 * E4


def term_by_term(form, precision):
    """The expansion as the sum of value * monomial series, one QSeries
    addition per term."""
    total = QSeries.zero(precision)
    for (a, b, c), value in form.monomials.items():
        total = total + value * _monomial_series(a, b, c, precision)
    return total


class TestQExpansionIsExact:
    @settings(max_examples=80, deadline=None)
    @given(forms(), st.integers(1, 40))
    def test_matches_the_term_by_term_sum(self, form, precision):
        assert form.qexpansion(precision) == term_by_term(form, precision)

    @pytest.mark.parametrize("precision", [1, 2, 17])
    def test_zero_form(self, precision):
        assert QuasiModularForm(0, {}).qexpansion(precision) == QSeries.zero(precision)

    def test_precision_one_is_the_constant_term(self):
        form = E2 ** 4 / 6 - E4 * E2 ** 2 / 4 + Fraction(5, 3) * E2 * E6
        assert form.qexpansion(1) == QSeries([Fraction(1, 6) - Fraction(1, 4) + Fraction(5, 3)])

    def test_mixed_denominators(self):
        form = QuasiModularForm(12, {(6, 0, 0): Fraction(1, 2), (3, 0, 1): Fraction(-2, 3),
                                     (0, 3, 0): Fraction(1, 5), (0, 0, 2): Fraction(7, 6)})
        series = form.qexpansion(30)
        assert series == term_by_term(form, 30)
        assert series.coefficient(0) == Fraction(1, 2) - Fraction(2, 3) + Fraction(1, 5) + Fraction(7, 6)

    @pytest.mark.parametrize("precision, error, message", [
        (0, ValueError, "precision must be positive, got 0"),
        (2.5, ValueError, "precision must be a non-negative integer, got 2.5"),
        (True, ValueError, "precision must be a non-negative integer, got True"),
        # equal to the kept expansion's precision 8 in the second round
        (8.0, ValueError, "precision must be a non-negative integer, got 8.0"),
    ])
    @pytest.mark.parametrize("form", [E2 * E4 / 3, QuasiModularForm(0, {})], ids=["E2*E4/3", "zero"])
    def test_bad_precision_keeps_its_error(self, form, precision, error, message):
        clear_expansion_caches()
        for _ in ("cold", "with the monomials cached"):
            with pytest.raises(error, match=f"^{message}$"):
                form.qexpansion(precision)
            form.qexpansion(8)


def clear_expansion_caches():
    for cache in (_monomial_series, _generator_power, eisenstein_series):
        cache.cache_clear()


def count_products(monkeypatch):
    """A list that records the precision of every series x series product."""
    calls = []
    original = QSeries.__mul__

    def counted(self, other):
        if isinstance(other, QSeries):
            calls.append(min(self.precision, other.precision))
        return original(self, other)

    monkeypatch.setattr(QSeries, "__mul__", counted)
    return calls


def generator_powers(weight, top, precision):
    """[E_k^0, ..., E_k^top] as int lists, E_k from its divisor sums."""
    series = list(map(int, eisenstein_by_divisors(weight, precision)))
    powers = [[1] + [0] * (precision - 1)]
    for _ in range(top):
        powers.append(convolution(powers[-1], series))
    return powers


@pytest.mark.parametrize("first", ["cold", "modular part", "monomial"])
def test_every_monomial_series_matches_the_schoolbook_product(first):
    """Every ``_monomial_series(a, b, c, N)`` for a <= 6, b <= 5, c <= 4 is
    E2^a E4^b E6^c, built cold, after its modular part E4^b E6^c, or first."""
    n_max = 40
    e2s, e4s, e6s = (generator_powers(k, top, n_max) for k, top in ((2, 6), (4, 5), (6, 4)))
    expected = {(a, b, c): convolution(e2s[a], convolution(e4s[b], e6s[c]))
                for a, b, c in itertools.product(range(7), range(6), range(5))}
    for (a, b, c), want in expected.items():
        clear_expansion_caches()
        for n in (1, 2, n_max):  # a longer request rebuilds
            if first == "modular part":
                assert list(_monomial_series(0, b, c, n).numerators) == expected[0, b, c][:n]
            elif first == "monomial":
                _monomial_series(a, b, c, n)
                assert list(_monomial_series(0, b, c, n).numerators) == expected[0, b, c][:n]
            series = _monomial_series(a, b, c, n)
            assert series.denominator == 1 and list(series.numerators) == want[:n]


class TestPrefixCache:
    FORM = E2 ** 3 * E4 * E6 + DELTA * E2 ** 2

    @pytest.mark.parametrize("first, second", [(256, 64), (64, 256)])
    def test_either_order_matches_a_fresh_expansion(self, first, second):
        fresh = {}
        for n in (first, second):
            clear_expansion_caches()
            fresh[n] = self.FORM.qexpansion(n)
        clear_expansion_caches()
        assert self.FORM.qexpansion(first) == fresh[first]
        assert self.FORM.qexpansion(second) == fresh[second]
        assert self.FORM.qexpansion(first) == fresh[first]

    def test_shorter_request_is_answered_by_truncation(self, monkeypatch):
        clear_expansion_caches()
        calls = count_products(monkeypatch)
        self.FORM.qexpansion(128)
        assert calls and set(calls) == {128}
        calls.clear()
        self.FORM.qexpansion(40)
        assert calls == []
        # a longer request rebuilds at the least power of two above it
        self.FORM.qexpansion(129)
        assert calls and set(calls) == {256}
        calls.clear()
        self.FORM.qexpansion(200)
        self.FORM.qexpansion(256)
        assert calls == []
        self.FORM.qexpansion(257)
        assert calls and set(calls) == {512}

    def test_rising_requests_rebuild_once_per_power_of_two(self, monkeypatch):
        n_max = 256
        e2s, e4s, e6s = (generator_powers(k, top, n_max) for k, top in ((2, 1), (4, 2), (6, 1)))
        want = convolution(e2s[1], convolution(e4s[2], e6s[1]))
        clear_expansion_caches()
        calls = count_products(monkeypatch)
        for n in range(1, n_max + 1):
            series = _monomial_series(1, 2, 1, n)
            assert series.precision == n and series.denominator == 1 and list(series.numerators) == want[:n]
        # 9 builds of (1, 2, 1) at 1, 2, 4, ..., 256, and 9 of its modular part (0, 2, 1)
        assert _monomial_series.cache_info().misses == 18
        assert set(calls) == {1 << j for j in range(9)}

    def test_first_build_is_at_the_request(self, monkeypatch):
        clear_expansion_caches()
        calls = count_products(monkeypatch)
        self.FORM.qexpansion(51)
        assert calls and set(calls) == {51}

    def test_cache_clear_empties_the_caches(self, monkeypatch):
        clear_expansion_caches()
        calls = count_products(monkeypatch)
        _monomial_series(1, 2, 1, 32)
        built = len(calls)
        _monomial_series(1, 2, 1, 32)
        assert built > 0 and len(calls) == built
        _monomial_series.cache_clear()
        _monomial_series(1, 2, 1, 32)
        assert len(calls) == built + 2  # the powers are still cached
        _monomial_series.cache_clear()
        _generator_power.cache_clear()
        _monomial_series(1, 2, 1, 32)
        assert len(calls) == 2 * built + 2

    def test_form_keeps_its_last_expansion(self, monkeypatch):
        form = E2 ** 3 * E4 * E6 + DELTA * E2 ** 2
        clear_expansion_caches()
        calls = count_products(monkeypatch)
        series = form.qexpansion(48)
        assert calls
        calls.clear()
        # cache_clear empties the shared caches, not what the form keeps
        clear_expansion_caches()
        assert form.qexpansion(48) is series and calls == []

    @pytest.mark.parametrize("first, second", [(48, 20), (20, 48)])
    def test_other_precision_replaces_the_kept_expansion(self, first, second):
        form = E2 ** 4 * E4 - DELTA / 7
        kept = form.qexpansion(first)
        replaced = form.qexpansion(second)
        assert replaced is not kept and replaced.precision == second
        assert replaced == (E2 ** 4 * E4 - DELTA / 7).qexpansion(second)
        assert form.qexpansion(second) is replaced

    @pytest.mark.parametrize("expand_first", [True, False], ids=["qexpansion-first", "completion-first"])
    def test_completion_reuses_the_kept_expansion(self, expand_first):
        form = E2 ** 2 * E6 + Fraction(3, 5) * E4 * E6
        if expand_first:
            series = form.qexpansion(40)
            assert completion(form, 40).coeffs[0] is series
        else:
            full = completion(form, 40)
            assert form.qexpansion(40) is full.coeffs[0]

    def test_large_power_by_binary_powering(self):
        clear_expansion_caches()
        series = monomial(0, 3000, 0).qexpansion(8)
        assert list(series.coeffs) == pow_list(eisenstein_by_divisors(4, 8), 3000)

    def test_least_recently_used_key_goes_first(self):
        clear_expansion_caches()
        keys = [(0, b, 0) for b in range(CACHE_KEYS + 1)]
        for key in keys:
            _monomial_series(*key, 1)
        info = _monomial_series.cache_info()
        assert info.currsize == info.maxsize == CACHE_KEYS
        assert _generator_power.cache_info().currsize == CACHE_KEYS
        _monomial_series(*keys[-1], 1)
        assert _monomial_series.cache_info().misses == info.misses
        _monomial_series(*keys[0], 1)
        assert _monomial_series.cache_info().misses == info.misses + 1

    def test_cache_info_counts_truncations_and_builds(self):
        clear_expansion_caches()
        assert _monomial_series.cache_info() == (0, 0, CACHE_KEYS, 0)
        for n in (32, 16, 32, 64):  # build, truncate, truncate, rebuild
            _monomial_series(1, 2, 1, n)
        info = _monomial_series.cache_info()
        # each build of (1, 2, 1) also builds its modular part (0, 2, 1)
        assert (info.hits, info.misses, info.maxsize, info.currsize) == (2, 4, CACHE_KEYS, 2)
        _monomial_series.cache_clear()
        assert _monomial_series.cache_info() == (0, 0, CACHE_KEYS, 0)

    def test_eisenstein_series_keeps_one_entry_per_weight(self):
        clear_expansion_caches()
        for n in range(1, 201):
            E4.qexpansion(n)
        assert eisenstein_series.cache_info().currsize == 1
        clear_expansion_caches()
        for n in range(1, 201):
            eisenstein_series(4, n)
        # built at 1, 2, 4, ..., 256: once per power of two the requests cross
        assert eisenstein_series.cache_info().misses <= 9

    def test_refused_request_keeps_the_entry(self):
        clear_expansion_caches()
        eisenstein_series(4, 64)
        with pytest.raises(ValueError, match="precision"):
            eisenstein_series(4, 100.0)
        assert eisenstein_series.cache_info().currsize == 1
        eisenstein_series(4, 64)
        assert eisenstein_series.cache_info().misses == 1

    @pytest.mark.parametrize("precision", [2.5, 0, True])
    def test_refused_request_is_neither_a_hit_nor_a_miss(self, precision):
        clear_expansion_caches()
        eisenstein_series(4, 64)
        info = eisenstein_series.cache_info()
        for weight in (4, 6):  # a cached key and a cold one
            with pytest.raises(ValueError, match="precision"):
                eisenstein_series(weight, precision)
        assert eisenstein_series.cache_info() == info

    @pytest.mark.parametrize("build, key, equal_key, name", [
        (eisenstein_series, (4.0,), (4,), "weight"),
        (eisenstein_series, (True,), (4,), "weight"),
        (_generator_power, (4, True), (4, 1), "exponent"),
        (_monomial_series, (True, 0, 0), (1, 0, 0), "a"),
        (_monomial_series, (0, 1.0, 0), (0, 1, 0), "b"),
    ])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_key_arguments_are_checked_before_the_lookup(self, build, key, equal_key, name, warm):
        clear_expansion_caches()
        if warm:
            build(*equal_key, 64)
        info = build.cache_info()
        with pytest.raises(ValueError, match=f"^{name} must be a non-negative integer"):
            build(*key, 8)
        assert build.cache_info() == info

    def test_left_out_precision_is_the_default(self):
        clear_expansion_caches()
        assert eisenstein_series(4) == eisenstein_series(4, DEFAULT_PRECISION)
        assert eisenstein_series(4, 2 * DEFAULT_PRECISION).precision == 2 * DEFAULT_PRECISION
        assert eisenstein_series(4) == eisenstein_series(4, DEFAULT_PRECISION)


class TestPower:
    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(0, 8))
    def test_power_is_repeated_product(self, rng, n):
        f = random_form(rng, max_weight=12)
        assert f ** n == reduce(mul, [f] * n, ONE)
        series = f.qexpansion(12)
        assert series ** n == reduce(mul, [series] * n, QSeries.one(12))

    def test_large_power_takes_logarithmically_many_products(self, monkeypatch):
        calls = []
        original = QuasiModularForm.__mul__

        def counted(self, other):
            calls.append(other)
            return original(self, other)

        monkeypatch.setattr(QuasiModularForm, "__mul__", counted)
        assert E4 ** 200000 == monomial(0, 200000, 0)
        assert len(calls) <= 36

    @pytest.mark.parametrize("n", [*range(41), 400])
    def test_delta_power_is_the_binomial_expansion(self, n):
        # (E4^3 - E6^2)^n / 1728^n term by term, built without a form power
        terms = {(0, 3 * (n - j), 2 * j): Fraction((-1) ** j * comb(n, j), 1728 ** n) for j in range(n + 1)}
        power = DELTA ** n
        assert power == QuasiModularForm(12 * n, terms)
        assert power.denominator == 1728 ** n
        assert power.numerators == {key: (-1) ** j * comb(n, j) for j, key in enumerate(terms)}

    @pytest.mark.parametrize("exponent", [-1, 1.5, True])
    def test_only_non_negative_integer_exponents(self, exponent):
        for base in (E4, E4.qexpansion(4)):
            with pytest.raises(ValueError, match="non-negative integer"):
                base ** exponent


class TestRecognize:
    def test_round_trip_e2_squared(self):
        f = E2 * E2
        assert recognize(f.qexpansion(16), 4, 2) == f

    def test_sigma_oracle_input(self):
        series = QSeries(eisenstein_by_divisors(4, 16))
        assert recognize(series, 4, 0) == E4

    def test_eta_oracle_input(self):
        from _oracles import delta_by_eta

        series = QSeries(delta_by_eta(24))
        assert recognize(series, 12, 0) == (E4 ** 3 - E6 ** 2) / 1728

    def test_round_trips_random(self):
        rng = random.Random(37)
        for _ in range(15):
            f = random_form(rng)
            assert recognize(f.qexpansion(64), f.weight, f.depth) == f

    def test_no_match(self):
        corrupted = list(E4.qexpansion(16).coeffs)
        corrupted[3] += 1
        with pytest.raises(NoMatchError):
            recognize(QSeries(corrupted), 4, 0)

    def test_underdetermined(self):
        with pytest.raises(UnderdeterminedError):
            recognize((E2 * E2).qexpansion(1), 4, 2)

    def test_zero_series(self):
        assert recognize(QSeries.zero(8), 4, 2).is_zero

    @pytest.mark.parametrize("depth_bound", [True, 1.5, -1])
    def test_depth_bound_follows_the_integer_rule(self, depth_bound):
        with pytest.raises(ValueError, match="depth bound must be a non-negative integer"):
            recognize(E4.qexpansion(8), 4, depth_bound)

    @pytest.mark.parametrize("form, weight", [(ONE, False), (E4, 4.0)] + [
        (form, weight) for weight in (True, 3.0, -2.0) for form in (E4, QuasiModularForm(0, {}))])
    def test_weight_follows_the_integer_rule(self, form, weight):
        # the solution builds the form without the constructor's checks
        with pytest.raises(ValueError, match="weight must be a non-negative even integer"):
            recognize(form.qexpansion(8), weight, 0)

    @pytest.mark.parametrize("weight", [-2, 3, 2])
    def test_a_weight_without_candidates_has_only_the_zero_form(self, weight):
        assert recognize(QSeries.zero(8), weight, 0).is_zero
        with pytest.raises(NoMatchError, match=f"no candidate monomials of weight {weight}"):
            recognize(E4.qexpansion(8), weight, 0)

    def test_solves_in_integers(self, monkeypatch):
        systems = []
        original = linalg.solve_unique

        def spy(rows, rhs):
            systems.append((rows, rhs))
            return original(rows, rhs)

        monkeypatch.setattr(linalg, "solve_unique", spy)
        f = E2 ** 3 / 7 - Fraction(5, 6) * E2 * E4 + E6 / 4
        assert f.qexpansion(24).denominator > 1
        assert recognize(f.qexpansion(24), 6, 3) == f
        [(rows, rhs)] = systems
        assert all(type(x) is int for row in rows for x in row)
        assert all(type(x) is int for x in rhs)

    def test_cold_recognize_lifts_one_column(self, monkeypatch):
        lifts = []
        original = linalg._lift

        def spy(a, c, b, p):
            lifts.append(b)
            return original(a, c, b, p)

        monkeypatch.setattr(linalg, "_lift", spy)
        linalg._factor.cache_clear()
        f = E2 ** 8 * E4 ** 5 * E6 ** 2 - E2 * E4 ** 10 * E6 / 3 + DELTA ** 4
        assert recognize(f.qexpansion(96), 48, 8) == f
        # the minor is inverted modulo p only: no exact inverse, one right-hand side lifted
        assert len(lifts) == 1
