import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qmforms import (
    AlmostHolomorphicForm,
    DELTA,
    E2,
    E4,
    E6,
    NotHolomorphicError,
    ONE,
    QSeries,
    QuasiModularForm,
    check_scalar,
    completion,
    component_forms,
    default_plan,
    from_quasimodular,
    holwt_component,
    lower_op,
    max_relative,
    raise_op,
    reconstruct,
)

from _oracles import random_form
from test_quasimodular import forms

N = 32


class TestCompletion:
    def test_e2(self):
        F = completion(E2, N)
        assert F.weight == 2 and F.degree == 1
        assert F.coeffs[0] == E2.qexpansion(N)
        assert F.coeffs[1] == QSeries.one(N)

    def test_modular_form_stays_degree_zero(self):
        F = completion(E4, N)
        assert F.degree == 0 and F.coeffs[0] == E4.qexpansion(N)

    def test_e2_squared(self):
        F = completion(E2 * E2, N)
        assert F.degree == 2
        assert F.coeffs[0] == (E2 * E2).qexpansion(N)
        assert F.coeffs[1] == 2 * E2.qexpansion(N)
        assert F.coeffs[2] == QSeries.one(N)

    @pytest.mark.parametrize("precision, equal", [(8.0, 8), (True, 1)])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_precision_is_checked_before_the_kept_completion(self, precision, equal, warm):
        # a form keeping its completion at the equal int precision must refuse too
        form = E2 * E4
        for call in (lambda: completion(form, precision), lambda: from_quasimodular(form, 1).evaluate(1j, precision)):
            if warm:
                completion(form, equal)
            with pytest.raises(ValueError, match="precision"):
                call()

    def test_constant_term_round_trip(self):
        assert completion(E2, N).coeffs[0] == E2.qexpansion(N)
        assert completion(E2 * E4, N).coeffs[0] == (E2 * E4).qexpansion(N)
        assert completion(E4, N).coeffs[0] == E4.qexpansion(N)


class TestConstruction:
    def test_precision_mismatch_rejected(self):
        with pytest.raises(ValueError):
            AlmostHolomorphicForm(2, [QSeries.one(8), QSeries.one(4)])

    def test_top_coefficient_trimmed(self):
        F = AlmostHolomorphicForm(2, [QSeries.one(8), QSeries.zero(8)])
        assert F.degree == 0

    def test_zero_form(self):
        F = AlmostHolomorphicForm(6, [QSeries.zero(8)])
        assert F.is_zero and F.weight == 0

    @pytest.mark.parametrize("value", [4.0, True, -2])
    def test_weight_and_index_are_non_negative_ints(self, value):
        with pytest.raises(ValueError, match="weight must be a non-negative even integer"):
            AlmostHolomorphicForm(value, [E4.qexpansion(4)])
        with pytest.raises(ValueError, match="index must be a non-negative integer"):
            completion(E4, 4).coefficient(value)

    def test_odd_weight_rejected(self):
        with pytest.raises(ValueError):
            AlmostHolomorphicForm(3, [QSeries.one(8)])


class TestComponentForms:
    def test_e2(self):
        parts = component_forms(E2, N)
        assert len(parts) == 2
        assert parts[0] == completion(E2, N)
        assert parts[1] == AlmostHolomorphicForm(0, [QSeries.one(N)])

    def test_modular(self):
        assert component_forms(E4, N) == [completion(E4, N)]

    def test_e2_squared_middle_part(self):
        parts = component_forms(E2 * E2, N)
        assert parts[0] == completion(E2 * E2, N)
        assert parts[1] == 2 * completion(E2, N)
        assert parts[2] == AlmostHolomorphicForm(0, [QSeries.one(N)])

    def test_nested_structure(self):
        # entry r carries binom(r+t, r) * qexp(fhat_{r+t}) at Yhat^t
        rng = random.Random(41)
        for _ in range(10):
            f = random_form(rng, max_weight=16, max_depth=5)
            parts = component_forms(f, N)
            for r, part in enumerate(parts):
                for t in range(part.degree + 1):
                    expected = math.comb(r + t, r) * f.reduced_component(r + t).qexpansion(N)
                    assert part.coefficient(t) == expected


def expanded_component_forms(form, precision):
    """The component family the long way: the completion of each reduced
    component, every component of a component expanded on its own."""
    return [completion(c, precision) for c in form.components()]


class TestComponentIdentity:
    """Entry r of ``component_forms`` is read off the one completion of f:
    its Yhat^s coefficient is binom(r + s, s) times f's Yhat^(r+s) one."""

    @settings(max_examples=100, deadline=None)
    @given(forms(range(0, 25, 2), 12), st.integers(1, 96), st.integers(0, 2))
    def test_matches_the_expanded_components(self, f, precision, extra):
        assert component_forms(f, precision) == expanded_component_forms(f, precision)
        F = from_quasimodular(f, f.depth + extra)
        for s in range(F.m + 1):
            assert holwt_component(F, s, precision) == completion(f.reduced_component(s), precision)

    @pytest.mark.parametrize("form", [E2 * DELTA ** 5, QuasiModularForm(0, {})], ids=["E2*Delta^5", "zero"])
    def test_completion_stripped_of_zero_coefficients(self, form):
        # at N = 3 every coefficient of E2 Delta^5 vanishes, so its completion
        # keeps one zero coefficient and the family reads past its degree
        assert completion(form, 3).degree == 0
        parts = component_forms(form, 3)
        assert parts == expanded_component_forms(form, 3)
        assert len(parts) == form.depth + 1 and all(part.is_zero for part in parts)
        F = from_quasimodular(form, form.depth + 2)
        for s in range(F.m + 1):
            assert holwt_component(F, s, 3) == completion(form.reduced_component(s), 3)

    def test_entry_zero_is_the_kept_completion(self):
        f = E2 ** 3 * E4 ** 2 + DELTA * E2
        assert component_forms(f, N)[0] is completion(f, N)


class TestReconstruct:
    def test_e2(self):
        assert reconstruct(component_forms(E2, N)) == E2.qexpansion(N)

    def test_single_modular_part(self):
        assert reconstruct([completion(E4, N)]) == E4.qexpansion(N)

    def test_random_round_trips(self):
        rng = random.Random(43)
        for _ in range(20):
            f = random_form(rng, max_weight=20, max_depth=6)
            assert reconstruct(component_forms(f, N)) == f.qexpansion(N)

    def test_returns_the_kept_constant_coefficient(self):
        # only parts[0] reaches Yhat^0, so its coefficient is the answer itself
        f = E2 ** 3 * E4 - E2 ** 2 * E6 * Fraction(5, 3)
        assert reconstruct(component_forms(f, N)) is completion(f, N).coeffs[0]

    def test_corrupted_family_fails(self):
        parts = component_forms(E2 * E2 * E4, N)
        corrupted = list(parts)
        corrupted[1] = completion(E6, N)  # right weight, wrong content
        with pytest.raises(NotHolomorphicError):
            reconstruct(corrupted)

    @pytest.mark.parametrize("part, r", [(0, 1), (0, 2), (1, 0), (1, 1), (2, 0)])
    def test_tampered_coefficient_fails_at_its_power(self, part, r):
        parts = component_forms(E2 * E2 * E4, N)
        coeffs = list(parts[part].coeffs)
        coeffs[r] = coeffs[r] + QSeries([0] * 5 + [Fraction(1, 7)] + [0] * (N - 6))
        parts[part] = AlmostHolomorphicForm(parts[part].weight, coeffs)
        if part + r == 0:
            assert reconstruct(parts) != (E2 * E2 * E4).qexpansion(N)
        else:
            with pytest.raises(NotHolomorphicError, match=rf"Yhat\^{part + r} coefficient"):
                reconstruct(parts)

    def test_precision_mismatch_fails_loudly(self):
        parts = [completion(E2, 16), completion(ONE, 8)]
        with pytest.raises(ValueError, match="precision"):
            reconstruct(parts)

    def test_weight_bookkeeping_enforced(self):
        with pytest.raises(ValueError, match="weight"):
            reconstruct([completion(E4, N), completion(E4, N)])


class TestRaising:
    def test_e4(self):
        F = raise_op(completion(E4, N))
        assert F.weight == 6 and F.degree == 1
        assert F.coeffs[0] == E4.qexpansion(N).derive()
        assert F.coeffs[1] == E4.qexpansion(N) * Fraction(1, 3)

    def test_weight_zero_constant_killed(self):
        assert raise_op(AlmostHolomorphicForm(0, [QSeries.one(N)])).is_zero

    def test_constant_term_is_derivative(self):
        rng = random.Random(47)
        for _ in range(10):
            f = random_form(rng, max_weight=16, max_depth=5)
            lhs = raise_op(completion(f, N)).coeffs[0]
            assert lhs == f.qexpansion(N).derive()


class TestLowering:
    def test_e2(self):
        assert lower_op(completion(E2, N)) == AlmostHolomorphicForm(0, [QSeries.one(N)])

    def test_degree_zero_goes_to_zero(self):
        for form in (E6, ONE, QuasiModularForm(0, {})):
            lowered = lower_op(completion(form, N))
            assert lowered == AlmostHolomorphicForm(0, [QSeries.zero(N)]) and lowered.weight == 0

    def test_e2_squared(self):
        assert lower_op(completion(E2 * E2, N)) == 2 * completion(E2, N)

    def test_intertwining_with_components(self):
        rng = random.Random(53)
        for _ in range(20):
            f = random_form(rng, max_weight=20, max_depth=5)
            assert lower_op(completion(f, N)) == completion(f.lower(), N)

    @settings(max_examples=100, deadline=None)
    @given(forms(range(0, 25, 2), 12), st.integers(1, 96))
    # at N = 3 the completion of E2 Delta^5 is one zero coefficient
    @example(E2 * DELTA ** 5, 3)
    @example(QuasiModularForm(0, {}), 3)
    def test_iterates_are_the_component_family(self, f, precision):
        # delta^r / r! of the completion of f is the completion of fhat_r
        parts = component_forms(f, precision)
        lowered = completion(f, precision)
        for r in range(f.depth + 1):
            expected = completion(f.reduced_component(r), precision)
            assert Fraction(1, math.factorial(r)) * lowered == parts[r] == expected
            lowered = lower_op(lowered)

    def test_weight_zero_of_degree_one_is_refused(self):
        with pytest.raises(ValueError, match="weight must be a non-negative even integer"):
            lower_op(AlmostHolomorphicForm(0, [QSeries.one(N), QSeries.one(N)]))


class TestEvaluate:
    def test_constant(self):
        F = AlmostHolomorphicForm(0, [QSeries.one(8)])
        assert F.evaluate(complex(0.2, 0.9)).value == 1

    def test_e2_star_vanishes_at_i(self):
        # the weight-2 law at the fixed point of S forces E2*(i) = 0
        value = completion(E2, 64).evaluate(1j).value
        assert abs(value) < 1e-10

    def test_e2_star_against_closed_form(self):
        tau = complex(0.3, 1.1)
        expected = E2.qexpansion(64).evaluate(tau).value - 3.0 / (math.pi * 1.1)
        assert abs(completion(E2, 64).evaluate(tau).value - expected) < 1e-14

    def test_weight_two_law_at_specific_point(self):
        F = completion(E2, 64)
        tau = 2j
        image = -1 / tau
        lhs = F.evaluate(image).value
        rhs = tau ** 2 * F.evaluate(tau).value
        assert abs(lhs - rhs) / max(1.0, abs(rhs)) < 1e-8

    def test_rejects_lower_half_plane(self):
        with pytest.raises(ValueError):
            completion(E2, 8).evaluate(complex(1.0, -2.0))

    def test_numeric_modularity_of_completions(self):
        plan = default_plan()
        for f in (E2, E4, E2 * E2, E2 * E4, E2 * E2 * E6):
            F = completion(f, plan.precision)
            residuals = check_scalar(F.evaluate, f.weight, plan, label=f"completion({f})")
            assert max_relative(residuals) < plan.tolerance
