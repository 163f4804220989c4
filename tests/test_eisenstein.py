from functools import partial

import pytest

from qmforms import (
    delta_series,
    dim_cusp,
    dim_modular,
    eisenstein_series,
    monomial_basis,
)
from qmforms.quasimodular import _monomial_series

from _oracles import delta_by_eta, eisenstein_by_divisors, exact_rank

# dim M_k for k = 0, 2, ..., 24
CLASSICAL_DIMS = [1, 0, 1, 1, 1, 1, 2, 1, 2, 2, 2, 2, 3]


class TestGenerators:
    def test_e2_expansion(self):
        assert str(eisenstein_series(2, 4)) == "1 - 24q - 72q^2 - 96q^3"

    def test_e6_expansion(self):
        assert str(eisenstein_series(6, 3)) == "1 - 504q - 16632q^2"

    def test_delta_expansion(self):
        assert str(delta_series(4)) == "q - 24q^2 + 252q^3"

    @pytest.mark.parametrize("weight", [2, 4, 6])
    def test_series_match_divisor_oracle(self, weight):
        n = 40
        assert list(eisenstein_series(weight, n).coeffs) == eisenstein_by_divisors(weight, n)

    def test_delta_matches_eta_oracle(self):
        n = 40
        assert list(delta_series(n).coeffs) == delta_by_eta(n)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            eisenstein_series(8, 4)

    def test_bad_precision(self):
        with pytest.raises(ValueError):
            eisenstein_series(4, 0)

    @pytest.mark.parametrize("name", ["E2", "E4", "E6", "Delta"])
    @pytest.mark.parametrize("precision", [0, -3])
    def test_every_generator_rejects_non_positive_precision(self, name, precision):
        build = delta_series if name == "Delta" else partial(eisenstein_series, int(name[1:]))
        with pytest.raises(ValueError, match="precision must be positive"):
            build(precision)

    @pytest.mark.parametrize("precision", [64.0, 2.5, True])
    def test_precision_must_be_an_int(self, precision):
        # refused both when the series is built and when a cached one is cut
        eisenstein_series.cache_clear()
        with pytest.raises(ValueError, match="precision"):
            eisenstein_series(4, precision)
        eisenstein_series(4, 64)
        with pytest.raises(ValueError, match="precision"):
            eisenstein_series(4, precision)
        with pytest.raises(ValueError, match="precision"):
            delta_series(precision)

    def test_table_invariants(self):
        e2, e4, e6 = (eisenstein_series(weight, 24) for weight in (2, 4, 6))
        delta = delta_series(24)
        assert e2.coeffs[0] == 1
        assert e4.coeffs[0] == 1
        assert e6.coeffs[0] == 1
        assert delta.coeffs[0] == 0
        assert delta * 1728 == e4 ** 3 - e6 ** 2

    def test_discriminant_valuation_and_leading_coefficient(self):
        diff = eisenstein_series(4, 16) ** 3 - eisenstein_series(6, 16) ** 2
        assert diff.valuation() == 1
        assert diff.coeffs[1] == 1728


class TestDimensions:
    def test_classical_table(self):
        assert [dim_modular(k) for k in range(0, 25, 2)] == CLASSICAL_DIMS

    def test_weight_zero(self):
        assert dim_modular(0) == 1

    def test_weight_two_vanishes(self):
        assert dim_modular(2) == 0

    def test_weight_twelve(self):
        assert dim_modular(12) == 2

    def test_odd_weights_vanish(self):
        assert dim_modular(7) == 0
        assert dim_cusp(11) == 0

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            dim_modular(-2)
        with pytest.raises(ValueError):
            dim_cusp(-4)

    @pytest.mark.parametrize("weight", [4.0, True])
    def test_weight_must_be_an_int(self, weight):
        for count in (monomial_basis, dim_modular, dim_cusp):
            with pytest.raises(ValueError, match="weight must be a non-negative integer"):
                count(weight)

    def test_cusp_dimensions(self):
        assert dim_cusp(12) == 1
        assert dim_cusp(0) == 0
        assert dim_cusp(2) == 0
        assert dim_cusp(16) == 1
        for k in range(4, 41, 2):
            assert dim_cusp(k) == dim_modular(k) - 1


class TestMonomialBasis:
    def test_weight_eight(self):
        assert monomial_basis(8) == [(2, 0)]

    def test_weight_twelve(self):
        assert monomial_basis(12) == [(0, 2), (3, 0)]

    def test_weight_two_empty(self):
        assert monomial_basis(2) == []

    def test_length_equals_dimension(self):
        for k in range(0, 41, 2):
            assert len(monomial_basis(k)) == dim_modular(k)

    def test_basis_expansions_linearly_independent(self):
        # exact rank over Q of the monomial expansions for all even k <= 40
        n = 64
        for k in range(0, 41, 2):
            rows = [
                list(_monomial_series(0, a, b, n).coeffs) for (a, b) in monomial_basis(k)
            ]
            assert exact_rank(rows) == dim_modular(k)
