import cmath
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from qmforms import E2, E4, E6, QSeries, format_series
from qmforms.eisenstein import delta_series, eisenstein_series
from qmforms.numverify import check_quasimodular, check_vv, default_plan
from qmforms import qseries
from qmforms.qseries import (CACHE_KEYS, Evaluation, _evaluations, _kronecker_product, _lowest_terms, _q_table,
                             _short_product, _weighted_sum, _weighted_value)
from qmforms.vectorvalued import from_quasimodular

from _oracles import ascending_complex_sum, convolution, delta_by_eta, eisenstein_by_divisors, mp_eval, mul_lists, sigma

# frozen with a 60-digit independent summation of the full series at tau = i
E4_AT_I = 1.455762892268709322462422
DELTA_AT_I = 0.001785369850642151904343055


def series(*coeffs):
    return QSeries(coeffs)


def geometric(precision):
    return QSeries([1] * precision)


def random_coeffs(rng, n, bits=8, dens=(1,)):
    """``n`` signed Fractions with numerators below 2^bits in magnitude."""
    return [Fraction(rng.randint(-(2 ** bits), 2 ** bits), rng.choice(dens)) for _ in range(n)]


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            QSeries([])

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            QSeries([1.5])

    def test_precision(self):
        assert series(1, 2, 3).precision == 3

    @pytest.mark.parametrize("precision", [0, -1, 5.0, True])
    def test_one_rejects_non_positive_precision(self, precision):
        # checked before any series is built, where True would build one of precision 1
        with pytest.raises(ValueError, match="precision"):
            QSeries.one(precision)
        with pytest.raises(ValueError):
            QSeries.zero(precision)

    def test_one_zero_per_precision(self):
        assert QSeries.zero(5) == QSeries([0] * 5)
        assert QSeries.zero() == QSeries.zero(64) == QSeries([0] * 64)
        assert QSeries.one(5) == QSeries([1, 0, 0, 0, 0]) and QSeries.one(1) == QSeries([1])

    def test_truncate_never_extends(self):
        s = series(1, 2, 3)
        assert s.truncate(10) is s
        assert s.truncate(2) == series(1, 2)

    @pytest.mark.parametrize("precision", [64.0, 2.5, True, 0, -3])
    def test_truncate_takes_only_a_positive_int(self, precision):
        with pytest.raises(ValueError, match="precision"):
            series(1, 2, 3).truncate(precision)

    @pytest.mark.parametrize("n, error", [(-1, ValueError), (True, ValueError), (1.0, ValueError), (4, IndexError)])
    def test_coefficient_takes_only_an_index_below_the_precision(self, n, error):
        with pytest.raises(error):
            E4.qexpansion(4).coefficient(n)


class TestAdd:
    def test_cancellation(self):
        one_plus_q = series(1, 1)
        one_minus_q = series(1, -1)
        assert one_plus_q + one_minus_q == series(2, 0)

    def test_eisenstein_sum_matches_divisor_oracle(self):
        n = 16
        expected = [
            a + b
            for a, b in zip(eisenstein_by_divisors(4, n), eisenstein_by_divisors(6, n))
        ]
        total = eisenstein_series(4, n) + eisenstein_series(6, n)
        assert list(total.coeffs) == expected
        assert total.coeffs[0] == 2 and total.coeffs[1] == -264

    def test_additive_identity(self):
        s = series(3, Fraction(1, 2), -7)
        assert s + QSeries.zero(3) == s

    def test_mixed_precision_truncates(self):
        assert (series(1, 1, 1) + series(1, 1)).precision == 2


class TestMul:
    def test_difference_of_squares(self):
        lhs = QSeries([1, 1, 0]) * QSeries([1, -1, 0])
        assert lhs == series(1, 0, -1)

    def test_e4_squared_is_e8(self):
        # dim M_8 = 1 forces E4^2 = E8 = 1 + 480 sum sigma_7(n) q^n
        n = 24
        e4sq = eisenstein_series(4, n) ** 2
        expected = [Fraction(1)] + [Fraction(480) * sigma(k, 7) for k in range(1, n)]
        assert list(e4sq.coeffs) == expected

    def test_discriminant_against_eta_product(self):
        n = 32
        lhs = eisenstein_series(4, n) ** 3 - eisenstein_series(6, n) ** 2
        assert list(lhs.coeffs) == [1728 * c for c in delta_by_eta(n)]

    def test_scalar_multiplication(self):
        assert 3 * series(1, 2) == series(3, 6)
        assert series(1, 2) * Fraction(1, 2) == series(Fraction(1, 2), 1)

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(1, 12), st.integers(1, 12), st.booleans())
    def test_constant_operand_scales_without_a_kronecker_product(self, data, m, k, constant_first):
        fractions = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 30))
        other = QSeries(data.draw(st.lists(fractions, min_size=m, max_size=m)))
        # a constant below the common precision n; what lies at or past q^n is ignored
        n = min(m, k)
        c = data.draw(st.sampled_from([0, -1, 5, Fraction(-7, 3)]) | fractions)
        constant = QSeries([c] + [0] * (n - 1) + data.draw(st.lists(fractions, min_size=k - n, max_size=k - n)))
        a, b = (constant, other) if constant_first else (other, constant)
        expected = QSeries._from_ints(_kronecker_product(a.numerators[:n], b.numerators[:n]),
                                      a.denominator * b.denominator)
        with mock.patch.object(qseries, "_kronecker_product") as spy:
            product = a * b
        assert spy.call_count == 0
        assert product == expected and product.precision == n


class TestMulAgainstSchoolbook:
    """The Kronecker-substitution product against the oracle's double loop."""

    @staticmethod
    def check(a, b):
        product = QSeries(a) * QSeries(b)
        assert list(product.coeffs) == mul_lists([Fraction(x) for x in a], [Fraction(x) for x in b])

    def test_signed_mixed_denominators(self):
        rng = random.Random(2024)
        for _ in range(40):
            n = rng.randint(1, 40)
            self.check(random_coeffs(rng, n, dens=(1, 2, 3, 5, 12)), random_coeffs(rng, n, dens=(1, 7, 9)))

    def test_zero_operand_and_leading_zeros(self):
        a = random_coeffs(random.Random(5), 12, dens=(1, 4))
        self.check(a, [0] * 12)
        self.check([0] * 12, a)
        self.check([0, 0, 0, 1, -2] + [0] * 7, [0, 0, 5, 0, -1, 3] + [0] * 6)
        assert (QSeries([0] * 6) * QSeries([0] * 6)).is_zero

    def test_precision_one(self):
        self.check([-7], [Fraction(3, 4)])
        self.check([0], [5])
        assert (QSeries([-7]) * QSeries([5])).precision == 1

    def test_unequal_precisions_truncate_to_the_shorter(self):
        rng = random.Random(9)
        a, b = random_coeffs(rng, 17, dens=(1, 2)), random_coeffs(rng, 6)
        assert (QSeries(a) * QSeries(b)).precision == 6
        assert (QSeries(b) * QSeries(a)).precision == 6
        self.check(a, b)
        self.check(b, a)

    def test_coefficients_over_1000_bits(self):
        rng = random.Random(13)
        for _ in range(4):
            self.check(random_coeffs(rng, 20, bits=1100, dens=(1, 3)), random_coeffs(rng, 20, bits=1030))
        big = 2 ** 1200 - 1
        self.check([big] * 10, [-big] * 10)

    @pytest.mark.parametrize("magnitude", [1, 7, 127, 128, 255, 256, 2 ** 15, 2 ** 63 - 1, 2 ** 64])
    def test_worst_case_slot_widths(self, magnitude):
        # equal magnitudes make every coefficient reach the width bound
        for n in (1, 2, 3, 8, 9, 33):
            for sa, sb in ((1, 1), (1, -1), (-1, -1)):
                self.check([sa * magnitude] * n, [sb * magnitude] * n)
                self.check([sa * magnitude, -sa * magnitude] * n, [sb * magnitude] * (2 * n))


def signed_ints(rng, n, bits):
    """``n`` signed ints of magnitude below 2^bits, a quarter of them at the bound."""
    top = 2 ** bits - 1
    return [rng.choice((top, -top)) if rng.random() < 0.25 else rng.randint(-top, top) for _ in range(n)]


class TestKroneckerProduct:
    """``_kronecker_product`` against a schoolbook convolution, on plain int
    lists: the short product keeps the slots below n of the packed product."""

    @staticmethod
    def check(a, b):
        assert _kronecker_product(a, b) == convolution(a, b)
        # the same list twice takes the square path, a copy the general one
        assert _kronecker_product(a, a) == _kronecker_product(a, list(a)) == convolution(a, a)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 300), st.integers(1, 200), st.integers(1, 200), st.randoms(use_true_random=False))
    def test_matches_the_schoolbook_convolution(self, n, abits, bbits, rng):
        self.check(signed_ints(rng, n, abits), signed_ints(rng, n, bbits))

    # for n <= 3 the split at ceil(7n/10) slots leaves the cross terms empty
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 200), st.integers(1, 200), st.randoms(use_true_random=False))
    def test_short_lengths(self, n, abits, bbits, rng):
        self.check(signed_ints(rng, n, abits), signed_ints(rng, n, bbits))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 10, 300])
    def test_zero_operands(self, n):
        zeros, other = [0] * n, signed_ints(random.Random(n), n, 150)
        assert _kronecker_product(zeros, zeros) == zeros
        assert _kronecker_product(zeros, list(zeros)) == zeros
        assert _kronecker_product(zeros, other) == zeros
        assert _kronecker_product(other, zeros) == zeros

    # the even- and the odd-indexed coefficients are packed apart, at the points +-2^s
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 255, 256, 257])
    def test_one_packed_half_is_zero(self, n):
        rng = random.Random(n)

        def vanishing(parity, bits):
            return [0 if i % 2 == parity else x for i, x in enumerate(signed_ints(rng, n, bits))]

        for parity in (0, 1):
            half, other_half, full = vanishing(parity, 70), vanishing(1 - parity, 130), signed_ints(rng, n, 40)
            for a in (half, [abs(x) for x in half], [-abs(x) for x in half]):
                for b in (half, other_half, full, [abs(x) for x in full], [-abs(x) for x in other_half]):
                    self.check(a, b)
                    self.check(b, a)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-2 ** 400, 2 ** 400), st.integers(-2 ** 400, 2 ** 400), st.integers(1, 800))
    def test_short_product_is_the_product_modulo_a_power_of_two(self, x, y, bits):
        assert _short_product(x, y, bits) % 2 ** bits == x * y % 2 ** bits
        assert _short_product(x, x, bits) % 2 ** bits == x * x % 2 ** bits

    def test_a_series_squared_hands_over_one_operand(self):
        e4 = eisenstein_series(4, 30)
        with mock.patch.object(qseries, "_kronecker_product", wraps=_kronecker_product) as spy:
            square, product = e4 * e4, e4 * eisenstein_series(4, 31)
        (a, b), _ = spy.call_args_list[0]
        assert a is b
        (a, b), _ = spy.call_args_list[1]
        assert a is not b
        assert square == product == e4 ** 2


class TestCanonicalForm:
    def test_scaled_series_equals_and_hashes_like_its_reduced_form(self):
        halved = QSeries([2, 4]) * Fraction(1, 2)
        assert halved == QSeries([1, 2])
        assert hash(halved) == hash(QSeries([1, 2]))
        assert (halved.numerators, halved.denominator) == ((1, 2), 1)

    def test_shared_denominator_in_lowest_terms(self):
        s = QSeries([Fraction(1, 6), Fraction(-1, 4), 2])
        assert (s.numerators, s.denominator) == ((2, -3, 24), 12)
        assert s.coeffs == (Fraction(1, 6), Fraction(-1, 4), Fraction(2))
        assert all(type(c) is Fraction for c in s.coeffs)
        assert s.coefficient(1) == Fraction(-1, 4)

    def test_operations_reduce(self):
        assert (QSeries([Fraction(1, 2), 1]) * QSeries([2, 0])).denominator == 1
        assert QSeries([1, Fraction(1, 2)]).truncate(1) == QSeries([1])
        assert (QSeries([Fraction(1, 2), 0]) + Fraction(1, 2)).denominator == 1
        assert QSeries([Fraction(1, 3), 1]).derive() == QSeries([0, 1])
        assert (QSeries([Fraction(1, 3), Fraction(2, 3)]) - QSeries([Fraction(1, 3), Fraction(-1, 3)])) == series(0, 1)

    def test_denominator_one_takes_no_gcd(self):
        nums = [0, -3, 6, 2 ** 300, -9]
        with mock.patch.object(qseries.math, "gcd", side_effect=AssertionError("took a gcd")):
            assert _lowest_terms(nums, 1) == (nums, 1) and _lowest_terms(nums, 1)[0] is nums
            assert qseries._fractions(nums, 1) == [Fraction(n) for n in nums]
            assert QSeries._from_ints(nums).coeffs == tuple(Fraction(n) for n in nums)
        assert _lowest_terms(nums, 3)[0] is nums
        assert _lowest_terms([0, -3, 6, -9], 3) == ([0, -1, 2, -3], 1)

    def test_zero_series_has_denominator_one(self):
        z = QSeries([Fraction(1, 3), 0]) * 0
        assert z == QSeries.zero(2) and z.denominator == 1


class TestDerive:
    def test_constant(self):
        assert QSeries.one(5).derive() == QSeries.zero(5)

    def test_q(self):
        q = series(0, 1, 0)
        assert q.derive() == q

    def test_e2_derivative_matches_n_sigma_oracle(self):
        n = 20
        d = eisenstein_series(2, n).derive()
        assert list(d.coeffs) == [Fraction(-24) * k * sigma(k, 1) for k in range(n)]
        assert d.coeffs[1] == -24 and d.coeffs[2] == -144

    def test_derivation_property(self):
        rng = random.Random(7)
        for _ in range(25):
            a = QSeries([rng.randint(-5, 5) for _ in range(10)])
            b = QSeries([rng.randint(-5, 5) for _ in range(10)])
            assert (a * b).derive() == a * b.derive() + b * a.derive()


class TestRingAxioms:
    def test_axioms_on_random_series(self):
        rng = random.Random(11)
        for _ in range(25):
            a, b, c = (
                QSeries([Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3])) for _ in range(8)])
                for _ in range(3)
            )
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c


class TestEvaluate:
    def test_constant(self):
        for tau in (1j, complex(0.5, 2.0)):
            assert QSeries.one(8).evaluate(tau).value == 1

    def test_e4_at_i_matches_frozen_oracle(self):
        value = eisenstein_series(4, 64).evaluate(1j).value
        assert abs(value - E4_AT_I) < 1e-12
        assert abs(value.imag) < 1e-12

    def test_delta_at_i_matches_frozen_oracle(self):
        value = delta_series(64).evaluate(1j).value
        assert abs(value - DELTA_AT_I) < 1e-15
        assert value.real > 0 and abs(value) < 0.002

    def test_against_mpmath_summation(self):
        tau = complex(0.3, 1.1)
        s = eisenstein_series(6, 48)
        ours = s.evaluate(tau).value
        theirs = mp_eval(list(s.coeffs), tau)
        assert abs(ours - theirs) < 1e-10 * max(1, abs(theirs))

    def test_bit_identical_to_fraction_accumulation(self):
        # the numeric harness's weight-20 residuals sit close to its tolerance,
        # so evaluation must reproduce the float(Fraction) sum exactly
        rng = random.Random(17)
        cases = [
            eisenstein_series(4, 64),
            delta_series(64),
            (E2 ** 7 * E6 * Fraction(1, 7) - E4 ** 5 / 3).qexpansion(64),
            QSeries(random_coeffs(rng, 48, bits=200, dens=(1, 3, 7, 10 ** 30 + 1))),
        ]
        taus = (1j, complex(0.3, 1.1), complex(-0.5, 0.87), complex(0.1, 0.25))
        for s in cases:
            for tau in taus:
                assert s.evaluate(tau).value == ascending_complex_sum(s.coeffs, tau)[0]

    def test_rejects_lower_half_plane(self):
        s = QSeries.one(4)
        for tau in (0j, complex(1.0, -0.5), complex(2.0, 0.0)):
            with pytest.raises(ValueError):
                s.evaluate(tau)

    def test_error_estimate_bounds_refinement(self):
        # for series with |a_n| <= 1 the tail estimate at precision N/2
        # dominates the change from doubling the precision
        taus = (complex(0.3, 1.1), complex(-0.4, 0.9), complex(0.1, 1.7))
        for build in (geometric, lambda n: QSeries([(-1) ** k for k in range(n)])):
            coarse, fine = build(32), build(64)
            for tau in taus:
                low = coarse.evaluate(tau)
                high = fine.evaluate(tau)
                assert abs(high.value - low.value) <= low.truncation_error

    def test_error_estimate_decreases_with_precision(self):
        tau = complex(0.0, 0.4)
        e32 = geometric(32).evaluate(tau).truncation_error
        e64 = geometric(64).evaluate(tau).truncation_error
        assert 0 < e64 < e32


class TestEvaluations:
    """``_evaluations`` shares one q-power table between series and must give
    what evaluating each series on its own in ascending n always gave."""

    TAUS = (1j, complex(0.3, 1.1), complex(-0.4, 0.9), complex(0.1, 0.25), complex(2.5, 3.0))

    @staticmethod
    def one_by_one(s, tau):
        return Evaluation(*ascending_complex_sum(s.coeffs, tau))

    def cases(self):
        rng = random.Random(29)
        out = []
        for _ in range(20):
            coeffs = random_coeffs(rng, rng.randint(1, 48), bits=rng.choice((4, 64, 200)),
                                   dens=rng.choice(((1,), (1, 3, 7), (2, 10 ** 25 + 7))))
            # runs of zero numerators, including a zero leading coefficient
            out.append(QSeries([c if rng.random() < 0.6 else 0 for c in coeffs]))
        return out + [QSeries.zero(5), QSeries.one(1), series(Fraction(-2, 3)), series(0, 0, Fraction(5, 2))]

    def test_equals_an_ascending_loop_per_series(self):
        cases = self.cases()
        assert {s.precision for s in cases} >= {1, 5}
        assert len({s.denominator for s in cases}) > 3
        for tau in self.TAUS:
            expected = [self.one_by_one(s, tau) for s in cases]
            assert _evaluations(cases, tau) == expected
            assert [s.evaluate(tau) for s in cases] == expected

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 300),
           st.lists(st.one_of(
               st.just(Fraction(0)),
               st.builds(Fraction, st.integers(-2 ** 70, 2 ** 70), st.sampled_from((1, 3, 7, 10 ** 25 + 7))),
           ), min_size=1, max_size=40),
           st.builds(complex, st.floats(-1, 1), st.floats(0.01, 1.7)))
    def test_split_sums_round_like_the_complex_loop(self, precision, pattern, tau):
        # at Im tau = 1.7 the powers of q reach subnormals by n = 66 and zero later
        coeffs = [pattern[n % len(pattern)] for n in range(precision)]
        s = QSeries(coeffs)
        value, tail = ascending_complex_sum(coeffs, tau)
        expected = [value.real.hex(), value.imag.hex(), tail.hex()]
        for _ in ("cold", "from the memo"):
            got = _evaluations([s], tau)[0]
            assert [got.value.real.hex(), got.value.imag.hex(), got.truncation_error.hex()] == expected

    def test_rejects_points_off_the_upper_half_plane(self):
        for tau in (0j, complex(0.3, 0.0), complex(1.0, -0.5)):
            with pytest.raises(ValueError, match="upper half-plane"):
                _evaluations([QSeries.one(4), series(1, 2)], tau)

    def test_fractions_are_built_once(self):
        for s in (series(1, Fraction(1, 3), 0, -2 ** 60), series(4, 0, -1)):
            coeffs = s.coeffs
            assert coeffs == tuple(s.coefficient(n) for n in range(s.precision))
            assert s.coeffs is coeffs

    def test_coefficients_convert_to_floats_once(self):
        s = series(1, Fraction(1, 3), 0, -2 ** 60)
        floats = s._float_coeffs()
        assert floats == (1.0, 1 / 3, 0.0, -2.0 ** 60)
        s.evaluate(self.TAUS[1])
        assert s._float_coeffs() is floats

    def test_coefficient_beyond_float64_is_a_value_error(self):
        huge = series(1, 2 ** 1024, 3)
        with pytest.raises(ValueError, match="float64 range"):
            _evaluations([QSeries.one(3), huge], 1j)
        # the largest numerator that still rounds below 2^1024 evaluates
        assert math.isfinite(series(0, 2 ** 1024 - 2 ** 970 - 1).evaluate(1j).value.real)


class CountingCoeffs(tuple):
    """A float coefficient tuple that records how many items iteration has read."""

    def __iter__(self):
        self.read = 0
        for x in tuple.__iter__(self):
            self.read += 1
            yield x


class TestExitRule:
    """``_evaluations`` ends a sum once no later term can change either total,
    so it must give, bit for bit, what a plain loop over every term gives."""

    @staticmethod
    def plain_loop(s, tau):
        """Both parts summed from 0.0 over every term, left to right, with q^n
        by repeated multiplication, and the tail, as hex strings."""
        q = cmath.exp(2j * math.pi * tau)
        re = im = 0.0
        qn = 1 + 0j
        for c in s.coeffs:
            re += float(c) * qn.real
            im += float(c) * qn.imag
            qn *= q
        aq = abs(q)
        return [re.hex(), im.hex(), (aq ** s.precision / (1.0 - aq)).hex()]

    @staticmethod
    def evaluated(s, tau):
        """``_evaluations`` of s at tau as hex strings, and how many terms it read."""
        s._floats = CountingCoeffs(s._float_coeffs())
        value, tail = _evaluations([s], tau)[0]
        return [value.real.hex(), value.imag.hex(), tail.hex()], s._floats.read

    @staticmethod
    def random_series(rng, tau):
        length, bits = rng.randint(1, 300), rng.randint(1, 300)
        den = rng.choice([1, rng.randint(2, 99), 10 ** rng.randint(1, 200), rng.randint(1, 10 ** 200)])
        kind = rng.choice(["dense", "sparse", "zero", "alternating", "cancelling"])
        if kind == "zero":
            nums = [0] * length
        elif kind == "alternating":
            # terms of nearly one size and alternating sign cancel
            base = rng.getrandbits(bits) + 1
            nums = [(-1) ** n * (base + rng.getrandbits(max(1, bits // 8))) for n in range(length)]
        elif kind == "cancelling":
            # c2 = -(1 - e) c1 / (2 Re q) leaves e c1 Im q of c1 Im q + c2 Im q^2, so c0 + c1 q
            # overstates the imaginary total by up to 2^12, and later terms of |c2| keep the bound tight
            q = cmath.exp(2j * math.pi * tau)
            c2 = -(1 - 2.0 ** -rng.uniform(0, 12)) / (2 * q.real) if q.real else 1.0
            return QSeries([1, 1, Fraction(c2)] + [Fraction(rng.choice((1, -1)) * c2)] * rng.randint(0, 100))
        else:
            share = 1.0 if kind == "dense" else 0.3
            nums = [rng.choice((1, -1)) * rng.getrandbits(bits) if rng.random() < share else 0 for _ in range(length)]
        return QSeries([Fraction(n, den) for n in nums])

    def test_matches_a_plain_loop_bit_for_bit(self):
        rng = random.Random(36)
        stopped = 0
        for _ in range(800):
            # Im tau log-uniform in 0.01..40; at Re tau = 0 every Im q^n is 0, and so the imaginary total
            tau = complex(rng.choice([0.0, rng.uniform(-0.5, 0.5)]), 10 ** rng.uniform(-2, math.log10(40)))
            s = self.random_series(rng, tau)
            got, read = self.evaluated(s, tau)
            assert got == self.plain_loop(s, tau), (s, tau)
            stopped += read < s.precision
        assert stopped > 100

    def test_a_zero_imaginary_table_ends_the_sum(self):
        # at Re tau = 0 every Im q^n is 0.0, and so is the imaginary total at
        # any cut: the real part alone decides (all 256 terms were read, against
        # 26 at 0.5 + 1i)
        s = QSeries((E4 ** 4).qexpansion(256).coeffs)
        got, read = self.evaluated(s, 1j)
        assert got == self.plain_loop(s, 1j) and got[1] == "0x0.0p+0"
        assert read < 256

    def test_a_missed_cut_sums_the_rest(self, monkeypatch):
        # c0 + c1 q predicts a total near Im q, but c2 = -1/(2 Re q) cancels c1 Im q
        # (Im q^2 = 2 Re q Im q), so the total at the predicted cut is near c3 Im q^3
        tau = complex(0.3, 1.1)
        q = cmath.exp(2j * math.pi * tau)
        s = QSeries([1, 1, Fraction(-1 / (2 * q.real))] + [1] * 61)
        cuts = []
        ulp = math.ulp
        monkeypatch.setattr(math, "ulp", lambda x: cuts.append(s._floats.read) or ulp(x))
        got, read = self.evaluated(s, tau)
        assert got == self.plain_loop(s, tau)
        # checked once at the cut, short of the end, then every term read
        assert len(set(cuts)) == 1 and 0 < cuts[0] < read == s.precision


class TestQTable:
    """``_evaluations`` takes its powers of q from ``_q_table``: one cached
    table per tau and longest precision of the call, which serves every
    shorter series of the call as is."""

    TAU = complex(0.3, 1.1)

    @pytest.fixture(autouse=True)
    def cold_cache(self):
        _q_table.cache_clear()

    def counts(self):
        info = _q_table.cache_info()
        return info.hits, info.misses

    def test_default_plan_builds_each_point_once(self):
        plan = default_plan()
        form = E2 ** 2 * E4
        check_vv(from_quasimodular(form, 2), plan)
        hits, misses = self.counts()
        # the 3 base points and 9 coset images, each evaluated once
        assert misses == _q_table.cache_info().currsize == 12
        # every component keeps its value at all 12 points: no table is looked up
        check_quasimodular(form, plan)
        assert self.counts() == (hits, 12)

    def test_each_precision_has_its_own_table(self):
        _evaluations([geometric(32)], self.TAU)
        _evaluations([geometric(8)], self.TAU)
        assert self.counts() == (0, 2)
        _evaluations([geometric(32), geometric(8)], self.TAU)
        assert self.counts() == (1, 2)
        reals, imags, _, modulus = _q_table(self.TAU, 8)
        assert len(reals) == len(imags) == 8 and modulus == abs(cmath.exp(2j * math.pi * self.TAU))

    def test_one_call_mixes_precisions(self):
        cases = [geometric(3), eisenstein_series(6, 40), QSeries.one(1), delta_series(17)]
        for tau in TestEvaluations.TAUS:
            assert _evaluations(cases, tau) == [TestEvaluations.one_by_one(s, tau) for s in cases]
        assert self.counts() == (0, len(TestEvaluations.TAUS))

    def test_value_does_not_depend_on_the_cache(self):
        s = eisenstein_series(4, 24) * Fraction(1, 3)
        cold = s.evaluate(self.TAU)
        warm = s.evaluate(self.TAU)
        _evaluations([geometric(64)], self.TAU)
        # a fresh copy converts its floats again and reads the longer table;
        # a warm call reads the value the series keeps, and no table
        assert cold == warm == QSeries(s.coeffs).evaluate(self.TAU) == s.evaluate(self.TAU)
        assert self.counts() == (1, 2)

    def test_cache_clear(self):
        _evaluations([geometric(4)], self.TAU)
        assert _q_table.cache_info().currsize == 1
        _q_table.cache_clear()
        assert _q_table.cache_info() == (0, 0, CACHE_KEYS, 0)


class TestWeightedValue:
    def test_weighted_sum_and_tail(self):
        pairs = [Evaluation(1 + 1j, 0.5), Evaluation(2 + 0j, 0.25), Evaluation(4j, 0.0)]
        result = _weighted_value([2.0, -3j, 0.5], pairs)
        assert type(result) is Evaluation and result == (2 - 2j, 1.75)

    def test_empty_sum(self):
        assert _weighted_value([], []) == (0j, 0.0)
        assert _weighted_value([], [(1j, 1.0)]) == (0j, 0.0)

    def test_zip_stops_at_the_shorter_input(self):
        pairs = [(1 + 0j, 1.0), (1j, 2.0), (-1 + 0j, 4.0)]
        assert _weighted_value([3, -1], pairs) == (3 - 1j, 5.0)
        assert _weighted_value([3, -1, 2, 7], pairs) == (1 - 1j, 13.0)


class TestWeightedSum:
    def oracle(self, terms, precision):
        total = QSeries.zero(precision)
        for weight, s in terms:
            total = total + weight * s
        return total

    def test_mixed_denominators_match_term_by_term_addition(self):
        rng = random.Random(101)
        for _ in range(20):
            n = rng.randint(1, 24)
            terms = [(Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                      QSeries(random_coeffs(rng, n, dens=(1, 2, 3, 5, 7))))
                     for _ in range(rng.randint(0, 5))]
            assert _weighted_sum(iter(terms), n) == self.oracle(terms, n)

    def test_int_weights_and_a_full_cancellation(self):
        s = series(Fraction(1, 3), Fraction(-2, 5), 7)
        assert _weighted_sum([(1, s), (-1, s)], 3) == QSeries.zero(3)
        assert _weighted_sum([(2, s), (Fraction(1, 2), s)], 3) == Fraction(5, 2) * s

    def test_no_terms_is_the_zero_series(self):
        assert _weighted_sum([], 5) == QSeries.zero(5)
        assert _weighted_sum([], 1) == QSeries.zero(1)

    def test_truncates_to_the_precision(self):
        s = series(1, 2, 3, 4)
        assert _weighted_sum([(Fraction(1, 2), s)], 1) == series(Fraction(1, 2))
        assert _weighted_sum([(3, s)], 2) == series(3, 6)

    def test_result_is_in_lowest_terms(self):
        total = _weighted_sum([(Fraction(1, 6), series(2, 4)), (Fraction(1, 3), series(2, 4))], 2)
        assert (total.numerators, total.denominator) == ((1, 2), 1)

    @pytest.mark.parametrize("precision, error, message", [
        (0, ValueError, "precision must be positive, got 0"),
        (-2, ValueError, "precision must be positive, got -2"),
        (2.5, ValueError, "precision must be a non-negative integer, got 2.5"),
        (True, ValueError, "precision must be a non-negative integer, got True"),
    ])
    def test_bad_precision_is_refused_before_any_term_is_built(self, precision, error, message):
        def terms():
            raise AssertionError("a term was built")
            yield

        with pytest.raises(error, match=f"^{message}$"):
            _weighted_sum(terms(), precision)


class TestFormatting:
    def test_expansion_string(self):
        assert str(eisenstein_series(4, 3)) == "1 + 240q + 2160q^2"
        assert str(QSeries.zero(4)) == "0"
        assert format_series(series(0, 1, Fraction(-1, 2))) == "q - 1/2*q^2"


def test_cocycle_constant_identity():
    # 2 pi i * LAMBDA = 12 rationalizes every reduced normalization
    import math

    from qmforms import LAMBDA

    assert abs(2j * math.pi * LAMBDA - 12) < 1e-12
