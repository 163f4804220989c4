import cmath
import json
import math
import random
import time
from fractions import Fraction
from itertools import product

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from qmforms import almostholo, numverify, vectorvalued
from qmforms.qseries import CACHE_KEYS, DEFAULT_PRECISION, LAMBDA, Evaluation, _evaluations, yhat
from qmforms import (
    DELTA,
    E2,
    E4,
    E6,
    GroupElement,
    IDENTITY,
    QSeries,
    QuasiModularForm,
    S,
    SamplePlan,
    T,
    all_within,
    check_quasimodular,
    check_scalar,
    check_vv,
    completion,
    default_plan,
    from_quasimodular,
    max_relative,
    sym_matrix,
)

from _oracles import all_monomials, plain_float_sum, random_form
from _residual_bits import battery_sha256, evaluator_sha256


def corrupt(form, precision=DEFAULT_PRECISION, r=1):
    """``form`` with the completion that the checks read made wrong: q added
    to its Yhat^r coefficient, which no transformation law allows."""
    full = completion(form, precision)
    coeffs = list(full.coeffs)
    coeffs[r] += QSeries([0, 1] + [0] * (precision - 2))
    form._completion = almostholo.AlmostHolomorphicForm(full.weight, coeffs)
    return form


class TestPlan:
    def test_default_plan_is_valid(self):
        plan = default_plan()
        assert len(plan.taus) == 3 and len(plan.gammas) == 6
        assert plan.tolerance == 1e-8 and plan.precision == 64
        for gamma in plan.gammas:
            assert gamma.a * gamma.d - gamma.b * gamma.c == 1
        for tau in plan.taus:
            assert tau.imag >= 0.3
            for gamma in plan.gammas:
                assert gamma.act(tau).imag >= 0.25

    def test_documented_image_bound(self):
        tau = complex(0.3, 1.1)
        assert abs(S.act(tau).imag - 1.1 / abs(tau) ** 2) < 1e-12
        assert S.act(tau).imag > 0.25

    def test_low_base_point_rejected(self):
        with pytest.raises(ValueError):
            SamplePlan(taus=(complex(0.0, 0.2),), gammas=(T,))

    def test_low_image_rejected(self):
        # a c=2 element pushes Im(gamma tau) below 0.25 at these points
        gamma = GroupElement(1, -1, 2, -1)
        with pytest.raises(ValueError):
            SamplePlan(taus=(complex(0.3, 1.1),), gammas=(gamma,))

    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError):
            SamplePlan(taus=(), gammas=(T,))

    @pytest.mark.parametrize("tolerance", [math.inf, math.nan])
    def test_non_finite_tolerance_rejected(self, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            SamplePlan(taus=(complex(0.3, 1.1),), gammas=(T,), tolerance=tolerance)

    @pytest.mark.parametrize(
        "tau",
        [complex(math.nan, 1.0), complex(0.3, math.nan), complex(math.inf, 1.0), complex(0.3, math.inf)],
    )
    def test_non_finite_sample_point_rejected(self, tau):
        with pytest.raises(ValueError, match="finite"):
            SamplePlan(taus=(tau,), gammas=(T,))


class TestPlanContract:
    def test_positional_and_keyword_construction_agree(self):
        taus, gammas = (complex(0.3, 1.1),), (T, S)
        positional = SamplePlan(taus, gammas, 1e-6, 32)
        keyword = SamplePlan(precision=32, tolerance=1e-6, gammas=gammas, taus=taus)
        assert positional == keyword
        assert (keyword.taus, keyword.gammas, keyword.tolerance, keyword.precision) == (taus, gammas, 1e-6, 32)

    def test_defaults(self):
        plan = SamplePlan(taus=(complex(0.3, 1.1),), gammas=(T,))
        assert plan.tolerance == numverify.DEFAULT_TOLERANCE == 1e-8
        assert plan.precision == numverify.DEFAULT_PRECISION == 64

    def test_immutable(self):
        plan = SamplePlan(taus=(complex(0.3, 1.1),), gammas=(T,))
        with pytest.raises(AttributeError):
            plan.tolerance = 1.0

    @pytest.mark.parametrize(
        "build",
        [lambda: default_plan()._replace(tolerance=math.nan), lambda: SamplePlan._make(((), (), 1e-8, 64))],
        ids=["_replace", "_make"],
    )
    def test_namedtuple_constructors_are_checked(self, build):
        with pytest.raises(ValueError):
            build()

    @pytest.mark.parametrize("precision", [64.0, 2.5, True])
    def test_precision_must_be_an_int(self, precision):
        with pytest.raises(ValueError, match="precision"):
            SamplePlan(taus=(complex(0.3, 1.1),), gammas=(S,), precision=precision)
        with pytest.raises(ValueError, match="precision"):
            default_plan()._replace(precision=precision)

    def test_replace_keeps_the_plan_type(self):
        plan = default_plan()._replace(tolerance=1e-6)
        assert type(plan) is SamplePlan and plan == (*default_plan()[:2], 1e-6, default_plan().precision)


    def test_plan_from_lists_keeps_tuples_and_residual_bits(self):
        tuples = default_plan()
        lists = SamplePlan(list(tuples.taus), list(tuples.gammas))
        assert type(lists.taus) is tuple and type(lists.gammas) is tuple
        assert hash(lists) == hash(tuples) and lists == tuples
        assert type(tuples._replace(taus=list(tuples.taus)).taus) is tuple
        form = E2 ** 2 * E4 - E6 * E2 * Fraction(3, 2)
        series = form.qexpansion(tuples.precision)
        for check in (lambda plan: check_vv(from_quasimodular(form, 3), plan),
                      lambda plan: check_quasimodular(form, plan),
                      lambda plan: check_scalar(series.evaluate, form.weight, plan)):
            assert residual_bits(check(lists)) == residual_bits(check(tuples))


class TestResidualContract:
    def residual(self, **changes):
        fields = dict(form="E4", gamma=S, tau=complex(0.3, 1.1), absolute=1.2345678901234567e-15,
                      relative=0.1 + 0.2, truncation_error=1.57496990637e-192)
        return numverify.Residual(**{**fields, **changes})

    def test_equality(self):
        assert self.residual() == self.residual()
        assert self.residual() != self.residual(gamma=T)
        assert self.residual() != self.residual(relative=0.3)

    def test_json_line_is_unchanged(self):
        # the text written by the dataclass version of Residual
        assert self.residual().json_line() == (
            '{"absolute": 1.23456789012e-15, "form": "E4", "gamma": [0, -1, 1, 0], "relative": 0.3, '
            '"tau": [0.3, 1.1], "truncation_error": 1.57496990637e-192}'
        )

    def test_a_rhs_norm_past_float64_is_refused_not_a_pass(self):
        # at m = 1 both sides are |outer| * 1.5e308 at each point, |outer| = 1.05 and 0.95:
        # each |rhs_i| is finite, their norm is not, and absolute / inf read 0.0, a PASS
        plan = SamplePlan(taus=(complex(0.1, 1.0),), gammas=(IDENTITY,))
        _, _, ((*_, rows),) = numverify._law_table(plan.taus, plan.gammas, 1, False)
        assert all(bound * 1.5e308 < math.inf for *_, bound in rows)
        with pytest.raises(ValueError, match=r"rank-1 law of big leaves the float64 range"):
            numverify._check_law(lambda tau: [Evaluation(1.5e308 + 0j, 0.0)], 0, 1, plan, "big")

    @pytest.mark.parametrize("relatives", [(math.nan, 0.5, 2.0), (0.5, 2.0, math.nan)], ids=["first", "last"])
    def test_max_relative_is_nan_wherever_a_nan_falls(self, relatives):
        residuals = [self.residual(relative=x) for x in relatives]
        assert math.isnan(max_relative(residuals))
        assert not all_within(residuals, 1e-8)
        assert max_relative(residuals[1:] if math.isnan(relatives[0]) else residuals[:-1]) == 2.0


class TestScalar:
    def test_e4_weight_four(self):
        plan = default_plan()
        residuals = check_scalar(E4.qexpansion(plan.precision).evaluate, 4, plan)
        assert len(residuals) == 18
        assert max_relative(residuals) < 1e-8

    def test_constant_weight_zero(self):
        plan = default_plan()
        residuals = check_scalar(QSeries.one(8).evaluate, 0, plan)
        assert max_relative(residuals) < 1e-14

    def test_identity_gives_zero_residual(self):
        plan = SamplePlan(taus=(complex(0.3, 1.1),), gammas=(IDENTITY,))
        residuals = check_scalar(E4.qexpansion(64).evaluate, 4, plan)
        assert residuals[0].absolute == 0.0

    def test_negative_control_e2_is_not_modular(self):
        plan = default_plan()
        residuals = check_scalar(E2.qexpansion(plan.precision).evaluate, 2, plan)
        assert max_relative(residuals) > 1e-3
        assert not all_within(residuals, plan.tolerance)

    def test_plain_complex_evaluators_accepted(self):
        plan = default_plan()
        residuals = check_scalar(lambda tau: 1 + 0j, 0, plan)
        assert max_relative(residuals) < 1e-14

    @pytest.mark.parametrize("value", [complex(1.5e308, 1.5e308), complex(math.inf, 0.0), complex(math.nan, 1.0)],
                             ids=["abs-overflows", "inf", "nan"])
    def test_values_past_float64_are_refused(self, value):
        # no residual of such values means anything: the law is refused, as in check_vv
        with pytest.raises(ValueError, match=r"rank-0 law of scalar form leaves the float64 range"):
            check_scalar(lambda tau: value, 0, default_plan())

    @pytest.mark.parametrize("error", [OverflowError, ZeroDivisionError, ValueError])
    def test_an_evaluator_exception_propagates_unchanged(self, error):
        def evaluator(tau):
            raise error("from the evaluator")

        with pytest.raises(error, match="from the evaluator") as raised:
            check_scalar(evaluator, 4, default_plan())
        assert type(raised.value) is error


class TestWeightLimit:
    # on default_plan() max|j| = |(0.1 + 1.7i) + 1|, and floor(1023 ln 2 / ln max|j|) = 1005
    def test_largest_weight_is_checked(self):
        plan = default_plan()
        assert len(check_scalar(lambda tau: 1 + 0j, 1005, plan)) == 18

    def test_weight_above_the_limit_is_refused(self):
        plan = default_plan()
        with pytest.raises(ValueError, match=r"weight 1006 is outside -\d+\.\.1005,"):
            check_scalar(lambda tau: 1 + 0j, 1006, plan)

    def test_every_check_refuses_it_before_expanding(self, monkeypatch):
        def no_expansion(*args):
            raise AssertionError("expanded before the weight check")

        monkeypatch.setattr(almostholo, "completion", no_expansion)
        plan = default_plan()
        with pytest.raises(ValueError, match=r"\.\.1005,"):
            check_quasimodular(E4 ** 300, plan)
        with pytest.raises(ValueError, match=r"\.\.1005,"):
            check_vv(from_quasimodular(E4 ** 300, 0), plan)

    def test_plan_without_growth_has_no_limit(self):
        plan = SamplePlan(taus=(complex(0.3, 1.1),), gammas=(T,))
        assert check_scalar(lambda tau: 1 + 0j, 10 ** 6, plan)[0].absolute == 0.0


class TestRankLimit:
    # on default_plan() the largest 1 + |gamma tau| of an image is 3.025 (at
    # T (0.1 + 1.7i)), which bounds |u| = |gamma tau w + 1| at every point w,
    # so the outer factors u^m stay in float64 up to 3.025^641 < 2^1024
    def test_large_ranks_are_refused_before_anything_is_built(self, monkeypatch):
        def nothing_built(*args):
            raise AssertionError("built before the rank check")

        # no completion, no value, and by the time bound no root of unity at m = 10^9
        for name in ("completion", "_evaluations"):
            monkeypatch.setattr(almostholo, name, nothing_built)
        plan = default_plan()
        for m in (642, 700, 2048, 10 ** 9):
            start = time.perf_counter()
            message = rf"rank {m} is above 641, the largest rank this sample plan can check"
            with pytest.raises(ValueError, match=message):
                check_vv(from_quasimodular(E4, m), plan)
            assert time.perf_counter() - start < 1.0

    def test_a_point_where_u_vanishes_is_refused(self):
        # tau w = -1 exactly at the 4th root of unity w = i (in floats): z = LAMBDA w / u has no value at m = 3
        tau = -1 / cmath.rect(1.0, 2 * math.pi / 4)
        plan = SamplePlan(taus=(tau,), gammas=(IDENTITY,))
        with pytest.raises(ValueError, match=r"rank-3 law of .* leaves the float64 range"):
            check_vv(from_quasimodular(E4, 3), plan)
        assert max_relative(check_vv(from_quasimodular(E4, 2), plan)) < 1e-14

    def test_the_weight_is_refused_before_a_point_where_u_vanishes(self):
        # the same point beside an element with |j| > 1, which bounds the weights; no value is read
        def no_values(tau):
            raise AssertionError("values read on a plan the law cannot check")

        tau = -1 / cmath.rect(1.0, 2 * math.pi / 4)
        plan = SamplePlan(taus=(tau, complex(0.3, 1.1)), gammas=(IDENTITY, GroupElement(1, 0, 1, 1)))
        with pytest.raises(ValueError, match=r"weight 100000 is outside -inf\.\.1331, the weights"):
            numverify._check_law(no_values, 10 ** 5, 3, plan, "f")
        with pytest.raises(ValueError, match=r"rank-3 law of f leaves the float64 range"):
            numverify._check_law(no_values, 4, 3, plan, "f")

    @pytest.mark.parametrize("d", [170, 240])
    def test_values_past_float64_are_refused(self, d):
        # z^d overflows where u^d is tiny, and inf - inf is NaN (d = 170), or |x - y| of
        # finite parts passes 2^1024 and raises OverflowError (d = 240)
        with pytest.raises(ValueError, match=rf"rank-{d} law of .* leaves the float64 range \|x\| < 2\^1024"):
            check_vv(from_quasimodular(E2 ** d, d), default_plan())

    @pytest.mark.parametrize("m", [36, 64, 128, 256, 641])
    def test_e4_passes_up_to_the_limit(self, m):
        # the Sym^m product FAILed it from m = 36 on, and read NaN at m = 641
        plan = default_plan()
        residuals = check_vv(from_quasimodular(E4, m), plan)
        assert all(map(math.isfinite, (x for r in residuals for x in (r.absolute, r.relative, r.truncation_error))))
        assert all_within(residuals, plan.tolerance)

    def test_limit_follows_the_plan(self):
        # T^(2^20) moves tau by 2^20: (2^20 + 1.3)^51 < 2^1024 < (2^20 + 1)^52
        plan = SamplePlan(taus=(complex(0.3, 1.1), complex(-0.4, 0.9)), gammas=(GroupElement(1, 2 ** 20, 0, 1),))
        assert len(check_vv(from_quasimodular(E4, 51), plan)) == 2
        with pytest.raises(ValueError, match=r"rank 52 is above 51,"):
            check_vv(from_quasimodular(E4, 52), plan)


@st.composite
def group_elements(draw):
    """A det-one matrix with |c| <= 3: c and d coprime, a = d^-1 mod c (a = d = +-1 at c = 0),
    b = (a d - 1) / c, then a random translate T^n of it."""
    c = draw(st.integers(-3, 3))
    if c == 0:
        a = d = draw(st.sampled_from((-1, 1)))
        b = 0
    else:
        d = draw(st.integers(-20, 20).filter(lambda d: math.gcd(c, d) == 1))
        a = pow(d, -1, abs(c))
        b = (a * d - 1) // c
    return GroupElement(1, draw(st.integers(-50, 50)), 0, 1) * GroupElement(a, b, c, d)


class TestCosetImages:
    """q-series are 1-periodic, so check_vv and check_quasimodular read each left side at the
    coset image gamma' tau, gamma = T^n gamma', computed on the shifted integers."""

    @settings(max_examples=300, deadline=None)
    @given(gamma=group_elements(), n=st.integers(-50, 50), x=st.floats(-1.0, 1.0), y=st.floats(0.3, 3.0))
    def test_every_element_of_a_coset_gives_the_same_bits(self, gamma, n, x, y):
        # T^n gamma and -T^n gamma, which acts as T^n gamma
        tau = complex(x, y)
        image = numverify._coset_image(gamma, tau)
        shifted = GroupElement(1, n, 0, 1) * gamma
        for other in (shifted, GroupElement(-shifted.a, -shifted.b, -shifted.c, -shifted.d)):
            point = numverify._coset_image(other, tau)
            assert (point.real.hex(), point.imag.hex()) == (image.real.hex(), image.imag.hex())
        # Im(gamma tau) = Im tau / |c tau + d|^2 is the same on the coset, and Re moves by n; the
        # literal quotient of entries up to 200 loses digits to cancellation: 1.2e-12 relative
        # in Im and 2.1e-14 in the shift at worst over 300 000 such draws
        assert image.imag == pytest.approx(gamma.act(tau).imag, rel=1e-10, abs=0)
        shift = gamma.act(tau).real - image.real
        assert image is tau if gamma.c == 0 else abs(shift - round(shift)) < 1e-11

    def test_check_scalar_keeps_the_literal_images(self):
        # a plan of T alone tests only periodicity; tau is not 1-periodic, and at the coset
        # images, T's being tau itself, the same values would read a residual of 0
        plan = SamplePlan(taus=(complex(0.3, 1.1), complex(-0.4, 0.9)), gammas=(T,))
        residuals = check_scalar(lambda tau: tau, 0, plan)
        assert not all_within(residuals, plan.tolerance) and max_relative(residuals) > 0.5
        periodic = numverify._check_law(lambda tau: [Evaluation(tau, 0.0)], 0, 0, plan, "tau", periodic=True)
        assert max_relative(periodic) == 0.0


class TestQuasiModular:
    def test_e2_pins_the_cocycle_constant(self):
        plan = default_plan()
        assert max_relative(check_quasimodular(E2, plan)) < 1e-8

    def test_depth_zero_degenerates_to_scalar(self):
        plan = default_plan()
        qm = check_quasimodular(E4, plan)
        scalar = check_scalar(E4.qexpansion(plan.precision).evaluate, 4, plan)
        for a, b in zip(qm, scalar):
            assert abs(a.absolute - b.absolute) < 1e-12

    def test_depth_two(self):
        plan = default_plan()
        assert max_relative(check_quasimodular(E2 * E2 * E4, plan)) < 1e-8


class TestVectorValued:
    def test_w_type(self):
        plan = default_plan()
        assert max_relative(check_vv(from_quasimodular(E2, 1), plan)) < 1e-8

    def test_rank_zero_matches_scalar(self):
        # check_vv at m = 0 is the depth-0 law of check_quasimodular, bit for bit; check_scalar
        # reads its evaluator at the literal gamma tau, so it gives the same bits where gamma is
        # its own coset representative (S, S*T), and elsewhere the same law at a point that
        # differs by rounding: both residuals are rounding alone, 6.5e-15 apart at most here
        plan = default_plan()
        for f in (E4, 2 * E4 ** 3 + E6 ** 2):
            vv = check_vv(from_quasimodular(f, 0), plan, label="f")
            scalar = check_scalar(f.qexpansion(plan.precision).evaluate, f.weight, plan, label="f")
            assert len(vv) == 18 and vv == check_quasimodular(f, plan, label="f")
            for a, b in zip(vv, scalar):
                assert (a.gamma, a.tau) == (b.gamma, b.tau)
                if a.gamma in (S, S * T):
                    assert a == b
                else:
                    assert abs(a.relative - b.relative) < 1e-13
                    assert a.truncation_error == pytest.approx(b.truncation_error, rel=1e-12, abs=0)

    def test_depth_two_rank_two(self):
        plan = default_plan()
        assert max_relative(check_vv(from_quasimodular(E2 * E2, 2), plan)) < 1e-8

    def test_truncation_error_sums_both_sides(self):
        # at each 4th root of unity w, with u = gamma tau w + 1 and outer = u^3 / 2:
        # |outer| sum_r |LAMBDA w / u|^r tail(gamma tau) on the left and
        # |j^k outer| sum_r |LAMBDA (a w + c) / (j u)|^r tail(tau) on the right
        form = from_quasimodular(E2 ** 2 * E4, 3)
        gamma, tau = GroupElement(2, 1, 1, 1), complex(-0.4, 0.9)
        plan = SamplePlan(taus=(tau,), gammas=(gamma,))
        (residual,) = check_vv(form, plan)
        image, j = gamma.act(tau), gamma.j(tau)
        fhat = completion(form.source, plan.precision).coeffs
        assert len(fhat) == 3 and len({s.precision for s in fhat}) == 1
        left, right = (fhat[0].evaluate(point).truncation_error for point in (image, tau))
        expected = 0.0
        for w in (cmath.exp(2j * math.pi * n / 4) for n in range(4)):
            u = image * w + 1
            outer = abs(u) ** 3 / 2
            z_left, z_right = abs(LAMBDA * w / u), abs(LAMBDA * (gamma.a * w + gamma.c) / (j * u))
            expected += outer * sum(z_left ** r for r in range(3)) * left
            expected += abs(j ** 8) * outer * sum(z_right ** r for r in range(3)) * right
        assert residual.truncation_error == pytest.approx(expected, rel=1e-12, abs=0)

    def test_truncation_errors_add_without_compensation(self):
        # with a tail of 1.0 each side's tail at a point is |outer|; at m = 5 these six
        # |outer| added left to right differ from their exact sum, which sum() of
        # floats gives from Python 3.12 on
        plan = SamplePlan(taus=(complex(0.1, 1.0),), gammas=(IDENTITY,))
        _, _, ((*_, rows),) = numverify._law_table(plan.taus, plan.gammas, 5, False)
        errors = [bound for *_, bound in rows]
        assert math.fsum(errors) != plain_float_sum(errors)
        (residual,) = numverify._check_law(lambda tau: [Evaluation(0j, 1.0)], 0, 5, plan, "fixed")
        assert residual.absolute == 0.0
        assert residual.truncation_error == 2 * plain_float_sum(errors)

    def test_corrupted_component_family_fails(self):
        plan = default_plan()
        assert max_relative(check_vv(from_quasimodular(E2 * E2, 2), plan)) < 1e-8
        bad = corrupt(E2 * E2)
        assert max_relative(check_vv(from_quasimodular(bad, 2), plan)) > 1e-3
        assert max_relative(check_quasimodular(bad, plan)) > 1e-3

    def test_every_true_monomial_to_weight_twenty_passes(self):
        # through the Sym^m product E2^10 FAILed at m = 12 (3.5e-8)
        plan = default_plan()
        for weight in range(2, 21, 2):
            for key in all_monomials(weight):
                form = QuasiModularForm(weight, {key: 1})
                checks = [check_vv(from_quasimodular(form, m), plan) for m in range(form.depth, form.depth + 3)]
                for residuals in checks + [check_quasimodular(form, plan)]:
                    assert all_within(residuals, plan.tolerance), (str(form), max_relative(residuals))


def dense_residual(fhat, weight, m, gamma, tau, dps=60):
    """The absolute residual and ||rhs|| of F(gamma tau) = j^(k-m) Sym^m(gamma) F(tau)
    in mpmath, from the float values of the series ``fhat`` at tau and gamma tau:
    component i of F is sum_r LAMBDA^r fhat_r binom(m-r, i) tau^(m-r-i)."""
    with mpmath.workdps(dps):
        lam = mpmath.mpc(0, -6) / mpmath.pi

        def components(point):
            values = [mpmath.mpc(s.evaluate(point).value) for s in fhat]
            t = mpmath.mpc(point)
            return [sum(lam ** r * values[r] * math.comb(m - r, i) * t ** (m - r - i)
                        for r in range(min(len(fhat) - 1, m - i) + 1)) for i in range(m + 1)]

        lhs, base = components(gamma.act(tau)), components(tau)
        factor = mpmath.mpc(gamma.j(tau)) ** (weight - m)
        rhs = [factor * sum(x * y for x, y in zip(row, base)) for row in sym_matrix(gamma, m)]
        return (float(mpmath.sqrt(sum(abs(x - y) ** 2 for x, y in zip(lhs, rhs)))),
                float(mpmath.sqrt(sum(abs(y) ** 2 for y in rhs))))


class TestLowerLeftEntryTwo:
    """Every element of ``default_plan()`` has c in {0, 1, -1}, where a law that read sign(c) for c
    would pass.  [[1, 0], [2, 1]] and [[-1, -1], [2, 1]] have c = 2 and the cusp -1/2, and base
    points near it keep every image at Im >= 0.45."""

    PLAN = SamplePlan(taus=(complex(-0.5, 0.5), complex(-0.45, 0.55)),
                      gammas=(T, S, GroupElement(1, 0, 2, 1), GroupElement(-1, -1, 2, 1)))

    def test_plan_reaches_c_two_above_the_image_bound(self):
        images = [gamma.act(tau) for gamma in self.PLAN.gammas for tau in self.PLAN.taus]
        assert min(image.imag for image in images) == pytest.approx(0.4508, abs=1e-4)
        assert max(abs(gamma.c) for gamma in self.PLAN.gammas) == 2

    @pytest.mark.parametrize("form, ranks", [
        (E4, (0, 3)), (E2, (1, 4)), (E2 * E4, (1, 5)), (DELTA * E2 ** 2, (2, 5)),
        (E2 ** 3 * E4 + E2 ** 2 * E6, (3, 5)),
    ])
    def test_true_forms_pass(self, form, ranks):
        # rounding alone: at most 2.5e-15 (E2^3 E4 + E2^2 E6 at m = 5); a law reading sign(c) reads 9.4 there
        assert max_relative(check_quasimodular(form, self.PLAN)) < 1e-13
        for m in ranks:
            assert max_relative(check_vv(from_quasimodular(form, m), self.PLAN)) < 1e-13

    @pytest.mark.parametrize("form, weight", [(E2, 2), (E4, 6)])
    def test_negative_controls_fail(self, form, weight):
        # E2 at weight 2 reads 2.06, E4 at weight 6 reads 2.0
        residuals = check_scalar(form.qexpansion(self.PLAN.precision).evaluate, weight, self.PLAN)
        assert max_relative(residuals) > 1.0
        assert not all_within(residuals, self.PLAN.tolerance)


class TestVanishingComponents:
    """At precision 1 every component of E2 Delta expands to zero, and its completion keeps fhat_0 alone.
    The laws read fhat_1 as the zero series, with the tail of fhat_0, which a sample with c != 0 weights
    on its right side by |c LAMBDA / j|."""

    FORM = E2 * DELTA
    PLAN = default_plan()._replace(precision=1)

    @staticmethod
    def tail(point):
        """|q|^1 / (1 - |q|) at ``point``: the tail of every series of precision 1."""
        aq = math.exp(-2 * math.pi * point.imag)
        return aq / (1 - aq)

    def test_the_vanishing_component_keeps_its_tail(self):
        residuals = check_quasimodular(self.FORM, self.PLAN)
        for residual in residuals:
            gamma, tau = residual.gamma, residual.tau
            j = gamma.j(tau)
            expected = self.tail(gamma.act(tau)) + abs(j) ** 14 * (1 + abs(gamma.c * LAMBDA / j)) * self.tail(tau)
            assert residual.truncation_error == pytest.approx(expected, rel=1e-12, abs=0)
        errors = [residual.truncation_error for residual in residuals if residual.gamma == S]
        assert errors == pytest.approx([0.0217, 0.0113, 0.110], rel=3e-3)

    def test_values_are_those_without_the_padding(self):
        # the zero series adds nothing to a value: the residuals are bit for bit those of a reader
        # that drops fhat_1, whose truncation errors leave out its tail where c != 0
        residuals = check_quasimodular(self.FORM, self.PLAN)
        full = completion(self.FORM, self.PLAN.precision)
        assert full.degree == 0
        dropped = numverify._check_law(lambda tau: _evaluations(full.coeffs, tau), 14, 0, self.PLAN, "dropped",
                                       periodic=True)
        for residual, other in zip(residuals, dropped):
            assert (residual.absolute.hex(), residual.relative.hex()) == (other.absolute.hex(), other.relative.hex())
            if residual.gamma.c:
                assert residual.truncation_error > other.truncation_error
            else:
                assert residual.truncation_error == other.truncation_error


class TestAgainstTheDenseProduct:
    def test_corrupted_families_match_mpmath(self):
        # the polynomial check at the roots of unity reports the residual of the dense
        # Sym^m product, within rounding; every q-series obeys the law of a c = 0
        # element, so there both residuals are rounding alone.  dense_residual reads
        # the series at the literal gamma tau, check_vv at its coset image
        rng = random.Random(37)
        plan = default_plan()
        forms = [random_form(rng, max_weight=24, max_depth=6) for _ in range(3)]
        for form in forms + [E2 ** 6 * E6 - E2 ** 3 * E6 ** 2 * Fraction(5, 3)]:
            fhat = completion(corrupt(form, r=rng.randint(0, form.depth)), plan.precision).coeffs
            for m in sorted({form.depth, rng.randint(form.depth, 40), 40}):
                residuals = check_vv(from_quasimodular(form, m), plan)
                for residual, (gamma, tau) in zip(residuals, product(plan.gammas, plan.taus)):
                    absolute, norm = dense_residual(fhat, form.weight, m, gamma, tau)
                    if gamma.c == 0:
                        assert max(residual.relative, absolute / max(1.0, norm)) < 1e-12
                        continue
                    assert residual.relative > 1e-6
                    assert residual.absolute == pytest.approx(absolute, rel=1e-8)
                    assert residual.relative == pytest.approx(absolute / max(1.0, norm), rel=1e-8)


class TestWorkPerCheck:
    @pytest.fixture
    def completions(self, monkeypatch):
        """The precision of every completion built (not merely asked for)."""
        builds = []

        class Counting(almostholo.AlmostHolomorphicForm):
            __slots__ = ()

            def __init__(self, weight, coeffs):
                super().__init__(weight, coeffs)
                builds.append(self.precision)

        monkeypatch.setattr(almostholo, "AlmostHolomorphicForm", Counting)
        return builds

    def test_check_vv_expands_its_form_once(self, completions):
        plan = default_plan()
        check_vv(from_quasimodular(E2 ** 3 * E4, 4), plan)
        assert completions == [plan.precision]

    def test_other_precision_rebuilds_the_completion(self, completions):
        form = from_quasimodular(E2 ** 2 * E6, 3)
        tau = complex(0.3, 1.1)
        form.evaluate(tau, 64)
        form.evaluate(complex(-0.4, 0.9), 64)
        assert completions == [64]
        coarse = form.evaluate(tau, 12)
        assert completions == [64, 12]
        assert coarse == from_quasimodular(E2 ** 2 * E6, 3).evaluate(tau, 12)
        assert form.evaluate(tau, 64) == from_quasimodular(E2 ** 2 * E6, 3).evaluate(tau, 64)

    def test_check_quasimodular_reuses_the_completion_of_check_vv(self, completions):
        plan = default_plan()
        form = E2 ** 2 * E4 - E6 * E2 * Fraction(3, 2)
        vv = check_vv(from_quasimodular(form, 3), plan)
        scalar = check_quasimodular(form, plan)
        assert completions == [plan.precision]
        # a fresh copy of the form builds its own completion, to the same residuals
        assert vv == check_vv(from_quasimodular(form * 1, 3), plan)
        assert scalar == check_quasimodular(form * 1, plan)

    def test_each_base_point_is_evaluated_once(self, monkeypatch):
        plan = default_plan()
        form = from_quasimodular(E2 * E2, 2)
        expected = check_vv(form, plan)
        taus = []
        evaluations = almostholo._evaluations

        def counting(series, tau):
            taus.append(tau)
            return evaluations(series, tau)

        monkeypatch.setattr(almostholo, "_evaluations", counting)
        assert check_vv(form, plan) == expected
        # the 3 base points and the coset images of S, S*T and [[1, 0], [-1, 1]]: T's is tau
        # itself, T*S^-1 shares S's and [[2, 1], [1, 1]] shares S*T's
        assert len(taus) == len(set(taus)) == 12
        assert set(plan.taus) < set(taus)
        images = {numverify._coset_image(gamma, tau) for gamma in plan.gammas for tau in plan.taus}
        assert set(taus) == images | set(plan.taus)

    def test_check_scalar_evaluates_each_base_point_once(self):
        plan = default_plan()
        seen = []
        series = E4.qexpansion(plan.precision)

        def evaluator(tau):
            seen.append(tau)
            return series.evaluate(tau)

        check_scalar(evaluator, 4, plan)
        # an opaque evaluator need not be 1-periodic: every literal image is its own point
        assert len(seen) == len(set(seen)) == len(plan.gammas) * len(plan.taus) + len(plan.taus) == 21
        images = {gamma.act(tau) for gamma in plan.gammas for tau in plan.taus}
        assert set(seen) == images | set(plan.taus)


def residual_bits(residuals):
    return [(r.gamma, r.tau, r.absolute.hex(), r.relative.hex(), r.truncation_error.hex()) for r in residuals]


class TestPlanTables:
    """The images and automorphy factors kept per plan and weight, and the
    law's points kept per plan and rank, give every check what a cold build gives."""

    OTHER = SamplePlan(taus=(complex(0.2, 1.3), complex(-0.25, 1.0)),
                       gammas=(T * T, S, GroupElement(1, 0, 1, 1)))
    FORMS = [E4, E2 * E4, E2 ** 2 * E6 + E4 * E6, E2 ** 3 * E4 ** 2 - E2 * E6 ** 2 * Fraction(2, 7)]

    def checks(self):
        """Every check of the forms at m = depth and depth + 1, over both plans in turn."""
        out = []
        for form in self.FORMS:
            evaluate = form.qexpansion(DEFAULT_PRECISION).evaluate
            for plan in (default_plan(), self.OTHER):
                out += [(check_vv, from_quasimodular(form, m), plan) for m in (form.depth, form.depth + 1)]
                out += [(check_quasimodular, form, plan), (check_scalar, evaluate, form.weight, plan)]
        return out

    def test_no_table_leaks_across_plans_or_keys(self):
        checks = self.checks()
        warm = [residual_bits(check(*args)) for check, *args in checks]
        numverify._law_table.cache_clear()
        # cold again, in the reverse order, so a leak in either direction shows
        cold = [residual_bits(check(*args)) for check, *args in reversed(checks)][::-1]
        assert cold == warm
        assert len({len(bits) for bits in warm}) == 2


class TestValueMemo:
    """Each series keeps its values by tau, so two checks that share a form's
    completion sum each component once per point."""

    @pytest.fixture
    def sums(self, monkeypatch):
        """Every series summed at some tau (each sum reads the float coefficients)."""
        summed = []
        original = QSeries._float_coeffs

        def counted(series):
            summed.append(series)
            return original(series)

        monkeypatch.setattr(QSeries, "_float_coeffs", counted)
        return summed

    def test_check_quasimodular_after_check_vv_sums_nothing(self, sums):
        plan = default_plan()
        form = E2 ** 2 * E4 - E6 * E2 * Fraction(3, 2)
        check_vv(from_quasimodular(form, 3), plan)
        # three components (depth 2) at the 12 distinct points: 3 base points and 9 coset images
        assert len(sums) == 3 * 12
        sums.clear()
        check_quasimodular(form, plan)
        assert sums == []

    def test_memo_holds_at_most_cache_keys_values(self):
        series = QSeries([1, Fraction(-2, 3), 5])
        taus = [complex(n / CACHE_KEYS, 1.0) for n in range(CACHE_KEYS + 1)]
        for tau in taus:
            series.evaluate(tau)
        assert 0 < len(series._values) <= CACHE_KEYS
        assert series.evaluate(taus[0]) == QSeries(series.coeffs).evaluate(taus[0])

    def test_thinnest_margin_is_the_same_cold_and_warm(self):
        # E2^10 at m = 11 keeps a thin margin: 4.5e-9 against 1e-8 (7.9e-9 through the Sym^m product)
        plan = default_plan()
        form = E2 ** 10

        def residuals():
            return check_vv(from_quasimodular(form, 11), plan) + check_quasimodular(form, plan)

        def bits(rs):
            return [(r.absolute.hex(), r.relative.hex(), r.truncation_error.hex()) for r in rs]

        cold = residuals()
        assert bits(residuals()) == bits(cold)
        assert 4.5e-9 < max_relative(cold) < plan.tolerance


class TestBitIdentity:
    # the same under CPython 3.10.13, 3.11.7, 3.12.1 and 3.13.0 on x86-64 Linux;
    # change it only with a change that means to move residual bits
    BATTERY_SHA256 = "cccc245009720887034faf48558fa693388088371c57f219dc1abe3d7982211e"
    # likewise for the evaluator values beneath the residuals
    EVALUATOR_SHA256 = "8e27970b4150428c5ef2b1569bc21e31010270e36df1057eb0821e60d9491fb4"

    def test_battery_residual_bits_are_unchanged(self):
        assert battery_sha256() == self.BATTERY_SHA256

    def test_evaluator_value_bits_are_unchanged(self):
        assert evaluator_sha256() == self.EVALUATOR_SHA256


def combine(terms):
    """``(sum w * value, sum |w| * tail)`` over ``(w, (value, tail))`` terms,
    added one at a time from 0j and 0.0, zero weights included: the order
    every weighted sum of the harness keeps."""
    total, error = 0j, 0.0
    for weight, (value, tail) in terms:
        total += weight * value
        error += abs(weight) * tail
    return total, error


def hex_pairs(pairs):
    return [(value.real.hex(), value.imag.hex(), tail.hex()) for value, tail in pairs]


class TestRowSumBits:
    """The one-row sum gives, bit for bit, the sums that ``combine`` above adds
    term by term."""

    def test_vector_valued_components(self):
        # component i is sum_r (LAMBDA^r binom(m-r, i)) tau^(m-r-i) * fhat_r(tau)
        rng = random.Random(29)
        plan = default_plan()
        points = list(plan.taus) + [gamma.act(tau) for gamma in plan.gammas for tau in plan.taus]
        for _ in range(12):
            form = random_form(rng, max_weight=24, max_depth=4)
            full = completion(form, plan.precision)
            lam = [LAMBDA ** 0]
            for _ in range(form.depth):
                lam.append(lam[-1] * LAMBDA)
            for m in range(form.depth, 13, 3):
                vv = from_quasimodular(form, m)
                for tau in points:
                    values = [full.coefficient(r).evaluate(tau) for r in range(form.depth + 1)]
                    powers = [tau ** e for e in range(m + 1)]
                    expected = [combine((lam[r] * math.comb(m - r, i) * powers[m - r - i], values[r])
                                        for r in range(min(form.depth, m - i) + 1)) for i in range(m + 1)]
                    assert hex_pairs(vv.evaluate(tau, plan.precision)) == hex_pairs(expected)

    def test_almost_holomorphic_values(self):
        rng = random.Random(30)
        for _ in range(20):
            full = completion(random_form(rng, max_weight=24, max_depth=4), 64)
            for tau in default_plan().taus:
                powers = [1.0]
                for _ in range(full.degree):
                    powers.append(powers[-1] * yhat(tau.imag))
                expected = combine(zip(powers, [s.evaluate(tau) for s in full.coeffs]))
                assert hex_pairs([full.evaluate(tau)]) == hex_pairs([expected])


class TestResidualScaling:
    def test_doubling_precision_never_hurts(self):
        coarse = default_plan()._replace(precision=64)
        fine = default_plan()._replace(precision=128)
        for form in (E2, E2 * E2 * E4, E4 * E6):
            low = check_quasimodular(form, coarse)
            high = check_quasimodular(form, fine)
            budget = max(r.truncation_error for r in low)
            assert max_relative(high) <= max_relative(low) + budget


class TestReporting:
    def test_json_lines(self):
        plan = default_plan()
        residuals = check_quasimodular(E2, plan, label="E2")
        lines = [r.json_line() for r in residuals]
        assert len(lines) == 18
        parsed = json.loads(lines[0])
        assert parsed["form"] == "E2"
        assert len(parsed["gamma"]) == 4
        assert len(parsed["tau"]) == 2
        assert parsed["relative"] >= 0
        assert "truncation_error" in parsed
