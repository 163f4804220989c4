"""The Fraction views built by ``qseries._fractions`` against the constructor:
the helper entry by entry, then every view of a series and a form, and the
value of a solve's integers."""

import random
from fractions import Fraction
from functools import partial
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from qmforms import (QSeries, QuasiModularForm, completion, component_forms, derivative_lift, dumps, linalg, loads,
                     parse_form, qseries, raise_op, reconstruct, recognize)
from qmforms.eisenstein import eisenstein_series
from qmforms.quasimodular import _generator_power, _monomial_series

from _fraction_view import DENOMINATORS, assert_same_fractions, fixed_cases
from _oracles import random_form, solved


def constructor_fractions(nums, den):
    return [Fraction(n, den) for n in nums]


def assert_same_pairs(got, want):
    assert all(type(f) is Fraction for f in got)
    assert [(f.numerator, f.denominator) for f in got] == [(f.numerator, f.denominator) for f in want]


class TestHelper:
    def test_fixed_cases(self):
        assert sum(assert_same_fractions(nums, den) for nums, den in fixed_cases()) == 12 * len(DENOMINATORS)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-2 ** 2000, 2 ** 2000) | st.integers(-1000, 1000), max_size=12),
           st.sampled_from(DENOMINATORS) | st.integers(1, 2 ** 300))
    def test_agrees_with_the_constructor(self, nums, den):
        assert_same_fractions(nums, den)


class TestViews:
    """Each view equals the one the constructor builds from the same integers."""

    def test_series_views_of_random_forms(self):
        rng = random.Random(5)
        for _ in range(20):
            s = random_form(rng, max_weight=24, max_depth=5).qexpansion(rng.randint(1, 48))
            want = constructor_fractions(s.numerators, s.denominator)
            assert_same_pairs(s.coeffs, want)
            assert_same_pairs([s.coefficient(n) for n in range(s.precision)], want)

    def test_monomials_of_random_forms(self):
        rng = random.Random(6)
        for _ in range(40):
            f = random_form(rng)
            assert list(f.monomials) == list(f.numerators)
            assert_same_pairs(list(f.monomials.values()), constructor_fractions(f.numerators.values(), f.denominator))

    def test_str_of_random_forms(self, monkeypatch):
        rng = random.Random(7)
        series = [random_form(rng).qexpansion(rng.randint(1, 24)) for _ in range(20)]
        series += [s.truncate(1) * Fraction(-5, 3) for s in series[:3]]
        shown = [str(s) for s in series]
        monkeypatch.setattr(qseries, "_fractions", constructor_fractions)
        assert shown == [str(s) for s in series]

    def test_solve_unique_of_random_systems(self):
        rng = random.Random(8)
        for size in range(1, 9):
            den = rng.choice(DENOMINATORS[:-1])
            nums = [rng.randint(-2 ** 90, 2 ** 90) for _ in range(size)]
            rows = [[rng.randint(-50, 50) for _ in range(size)] for _ in range(size + 2)]
            rhs = [sum(a * n for a, n in zip(row, nums)) for row in rows]
            rows = [[den * a for a in row] for row in rows]
            assert_same_pairs(solved(rows, rhs), constructor_fractions(nums, den))


def _refuse(nums, den):
    raise AssertionError("built a Fraction view inside the package")


#: per path, the call (built from a fresh form, before the guard) that must build no Fraction
PATHS = {
    "parse_form with /": lambda f: partial(parse_form, "(E4^3 - E6^2)/1728 - E2*E4*E6/-6"),
    "cold qexpansion": lambda f: partial(f.qexpansion, 32),
    "recognize": lambda f: partial(recognize, f.qexpansion(32), f.weight, f.depth),
    "loads(dumps(f))": lambda f: lambda: loads(dumps(f)),
    "reconstruct(component_forms(f, N))": lambda f: lambda: reconstruct(component_forms(f, 32)),
    "raise_op(completion(f, N))": lambda f: lambda: raise_op(completion(f, 32)),
    "derivative_lift": lambda f: partial(derivative_lift, f.e2_coefficient(0), 3),
    "QSeries product with a constant operand": lambda f: partial(mul, f.qexpansion(32), QSeries.one(32)),
}


class TestNoFractionInside:
    """Integers inside, Fractions only at the edge: with the constructor and
    the view builder both refusing, each exact path still gives its answer."""

    @staticmethod
    def cold(setup):
        for cache in (_monomial_series, _generator_power, eisenstein_series, linalg._factor):
            cache.cache_clear()
        # a fresh form keeps no expansion or completion that would answer a path
        return setup(QuasiModularForm(12, {(3, 0, 1): 1, (2, 2, 0): Fraction(-5, 6), (0, 3, 0): Fraction(1, 7)}))

    @pytest.mark.parametrize("path", PATHS)
    def test_path_builds_no_fraction(self, path, monkeypatch):
        want = self.cold(PATHS[path])()
        run = self.cold(PATHS[path])

        def refuse(cls, *args, **kwargs):
            raise AssertionError("built a Fraction inside the package")

        monkeypatch.setattr(Fraction, "__new__", refuse)
        # the code object is shared by every module that imported the builder
        monkeypatch.setattr(qseries._fractions, "__code__", _refuse.__code__)
        for view in (partial(Fraction, 1, 2), lambda: QSeries._from_ints([1], 3).coeffs):
            with pytest.raises(AssertionError, match="built a Fraction"):
                view()
        got = run()
        monkeypatch.undo()
        assert got == want
