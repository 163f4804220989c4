"""The Fraction views built by ``qseries._fractions`` against the constructor:
the helper entry by entry, then every view of a series, a form and a solve."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from qmforms import qseries
from qmforms.linalg import solve_unique

from _fraction_view import DENOMINATORS, assert_same_fractions, fixed_cases
from _oracles import random_form


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
            assert_same_pairs(solve_unique(rows, rhs), constructor_fractions(nums, den))
