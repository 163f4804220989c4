import cmath
import math
import random
import time
from fractions import Fraction

import pytest

from qmforms import (
    DELTA,
    E2,
    E4,
    E6,
    GroupElement,
    IDENTITY,
    LAMBDA,
    ONE,
    QuasiModularForm,
    S,
    T,
    basis_vv,
    certify_dim_vv,
    check_vv,
    completion,
    default_plan,
    dim_modular,
    dim_vv,
    embed_i,
    from_quasimodular,
    holwt_component,
    image_test,
    iota_lift,
    max_relative,
    monomial,
    monomial_basis,
    sym_matrix,
    vv_product,
    w_compose,
    w_decompose,
)
from qmforms import almostholo, linalg, qseries, vectorvalued

from _oracles import det_one_elements, exact_rank, random_form, sym_power_by_tensors


class TestGroupElement:
    def test_determinant_enforced(self):
        with pytest.raises(ValueError):
            GroupElement(1, 1, 1, 1)

    def test_equality_and_hash_follow_the_entries(self):
        assert GroupElement(2, 1, 1, 1) == GroupElement(2, 1, 1, 1)
        assert GroupElement(2, 1, 1, 1) != GroupElement(1, 1, 0, 1)
        assert hash(GroupElement(0, -1, 1, 0)) == hash(S) == hash((0, -1, 1, 0))
        assert len({S, T, S * S * S * S, IDENTITY}) == 3
        assert S != (0, -1, 1, 0)

    def test_repr_and_str(self):
        assert repr(S) == "GroupElement(a=0, b=-1, c=1, d=0)"
        assert str(S) == "[[0, -1], [1, 0]]"

    @pytest.mark.parametrize("name", ["a", "d", "other"])
    def test_immutable(self, name):
        gamma = GroupElement(2, 1, 1, 1)
        with pytest.raises(AttributeError):
            setattr(gamma, name, 5)
        with pytest.raises(AttributeError):
            delattr(gamma, name)
        assert gamma == GroupElement(2, 1, 1, 1)

    def test_product_with_a_number_is_refused(self):
        with pytest.raises(TypeError):
            T * 3
        with pytest.raises(TypeError):
            3 * T

    @pytest.mark.parametrize("entries", [(0.5, 0, 0, 2), (1.0, 0, 0, 1), (True, 0, 0, True), (1, Fraction(0), 0, 1)],
                             ids=["half", "float-one", "bools", "fraction"])
    def test_entries_must_be_ints(self, entries):
        # checked before the determinant, which each of these passes
        with pytest.raises(ValueError, match=r"entries of \[\[.*\]\] must be integers"):
            GroupElement(*entries)

    def test_determinant_message(self):
        with pytest.raises(ValueError, match=r"determinant of \[\[2, 0\], \[0, 1\]\] must be 1"):
            GroupElement(2, 0, 0, 1)

    def test_action_and_factor(self):
        tau = complex(0.3, 1.1)
        image = S.act(tau)
        assert abs(image - (-1 / tau)) < 1e-15
        assert S.j(tau) == tau

    def test_product_and_inverse(self):
        gamma = GroupElement(2, 1, 1, 1)
        assert gamma * gamma.inverse() == IDENTITY
        assert T * S.inverse() == GroupElement(-1, 1, -1, 0)

    def test_cocycle_exact_at_rational_points(self):
        points = [Fraction(5, 7), Fraction(-3, 11), Fraction(2, 5)]
        elements = [T, S, S * T, GroupElement(2, 1, 1, 1), GroupElement(1, 0, -1, 1)]
        for gamma in elements:
            for delta in elements:
                for tau in points:
                    if delta.j(tau) == 0 or (gamma * delta).j(tau) == 0:
                        continue
                    assert (gamma * delta).j(tau) == gamma.j(delta.act(tau)) * delta.j(tau)

    def test_v1_relation(self):
        # gamma (tau, 1)^T = j(gamma, tau) (gamma tau, 1)^T
        tau = complex(-0.4, 0.9)
        for gamma in default_plan().gammas:
            j = gamma.j(tau)
            top = gamma.a * tau + gamma.b
            bottom = gamma.c * tau + gamma.d
            image = gamma.act(tau)
            assert abs(top - j * image) < 1e-12
            assert abs(bottom - j) < 1e-12


class TestSymMatrix:
    def test_identity(self):
        for m in range(4):
            assert sym_matrix(IDENTITY, m) == [
                [1 if i == j else 0 for j in range(m + 1)] for i in range(m + 1)
            ]

    def test_m_one_is_the_matrix(self):
        gamma = GroupElement(2, 1, 1, 1)
        assert sym_matrix(gamma, 1) == [[2, 1], [1, 1]]

    def test_translation_is_unipotent_binomial(self):
        assert sym_matrix(T, 2) == [[1, 1, 1], [0, 1, 2], [0, 0, 1]]

    def test_against_tensor_power_oracle(self):
        rng = random.Random(59)
        elements = [T, S, S * T, T * S, GroupElement(2, 1, 1, 1), GroupElement(1, -1, 2, -1)]
        for gamma in elements:
            for m in range(5):
                assert sym_matrix(gamma, m) == sym_power_by_tensors(gamma, m)

    def test_multiplicative(self):
        elements = [T, S, GroupElement(2, 1, 1, 1), GroupElement(1, -1, 2, -1)]
        for gamma in elements:
            for delta in elements:
                for m in range(4):
                    left = sym_matrix(gamma * delta, m)
                    a, b = sym_matrix(gamma, m), sym_matrix(delta, m)
                    product = [
                        [sum(a[i][k] * b[k][j] for k in range(m + 1)) for j in range(m + 1)]
                        for i in range(m + 1)
                    ]
                    assert left == product

    def test_against_the_binomial_formula(self):
        # entry (p, i) is the e2^p coefficient of (a e1 + c e2)^(m-i) (b e1 + d e2)^i
        def binomial(gamma, m):
            a, b, c, d = gamma.a, gamma.b, gamma.c, gamma.d
            return [[sum(math.comb(m - i, p - q) * a ** (m - i - p + q) * c ** (p - q)
                          * math.comb(i, q) * b ** (i - q) * d ** q
                          for q in range(max(0, p - m + i), min(i, p) + 1))
                     for i in range(m + 1)] for p in range(m + 1)]

        rng = random.Random(60)
        for gamma in list(default_plan().gammas) + rng.sample(det_one_elements(5), 20):
            for m in range(13):
                assert sym_matrix(gamma, m) == binomial(gamma, m)

    def test_multiplicative_at_rank_sixty(self):
        m = 60
        pairs = [(GroupElement(2, 1, 1, 1), GroupElement(1, 0, -1, 1)), (S * T, GroupElement(3, -5, -1, 2))]
        for gamma, delta in pairs:
            a, b = sym_matrix(gamma, m), sym_matrix(delta, m)
            columns = list(zip(*b))
            assert sym_matrix(gamma * delta, m) == [[sum(x * y for x, y in zip(row, col)) for col in columns]
                                                    for row in a]

    def test_each_call_returns_a_fresh_matrix(self):
        plan = default_plan()
        form = from_quasimodular(E2 ** 2 * E6, 3)
        before = check_vv(form, plan)
        for gamma in plan.gammas:
            matrix = sym_matrix(gamma, 3)
            matrix[0][0] += 7
            matrix.append([0] * 4)
            assert sym_matrix(gamma, 3) == sym_power_by_tensors(gamma, 3)
        assert check_vv(form, plan) == before

    def test_rank_is_checked_before_the_cache(self):
        sym_matrix(T, 1)
        with pytest.raises(ValueError, match="symmetric power m"):
            sym_matrix(T, True)


class TestWrapping:
    def test_round_trip(self):
        rng = random.Random(61)
        for _ in range(20):
            f = random_form(rng)
            F = from_quasimodular(f, f.depth + rng.randint(0, 2))
            assert F.source == f

    def test_depth_bound_enforced(self):
        with pytest.raises(ValueError):
            from_quasimodular(E2 * E2, 1)

    @pytest.mark.parametrize("label", [3, -4])
    def test_zero_source_needs_an_admissible_weight_label(self, label):
        zero = QuasiModularForm(0, {})
        with pytest.raises(ValueError, match=f"non-negative even integer, got {label}"):
            from_quasimodular(zero, 2, label)

    @pytest.mark.parametrize("args", [(0, 4.0), (1.0,), (True,)], ids=repr)
    def test_labels_must_be_integers(self, args):
        # a float or bool label would be written by dumps and refused by loads
        with pytest.raises(ValueError, match="must be a non-negative (even )?integer"):
            from_quasimodular(E4, *args)

    def test_rank_zero_is_scalar(self):
        F = from_quasimodular(E4, 0)
        assert F.weight == 4 and F.m == 0
        tau = complex(0.1, 1.7)
        values = F.evaluate(tau)
        assert len(values) == 1
        assert abs(values[0].value - E4.qexpansion(64).evaluate(tau).value) < 1e-12

    def test_w_type_evaluation(self):
        w = from_quasimodular(E2, 1)
        assert w.weight == 1
        tau = complex(0.3, 1.1)
        e2 = E2.qexpansion(64).evaluate(tau).value
        values = w.evaluate(tau)
        assert abs(values[0].value - (LAMBDA + e2 * tau)) < 1e-12
        assert abs(values[1].value - e2) < 1e-12

    @pytest.mark.parametrize("tau", [complex(0.3, -1.1), complex(0.3, 0.0), complex(0.3, math.nan)])
    def test_rejects_points_off_the_upper_half_plane(self, tau):
        with pytest.raises(ValueError, match="upper half-plane"):
            from_quasimodular(E2 * E4, 2).evaluate(tau)

    def test_truncation_error_counts_vanishing_components(self):
        # at precision 1 both reduced components of Delta*E2 expand to zero,
        # which the completion strips; their tails must still be counted
        F = from_quasimodular(DELTA * E2, 2)
        tau = complex(0.3, 1.1)
        aq = abs(cmath.exp(2j * math.pi * tau))
        expected = sum(
            abs(LAMBDA) ** r * math.comb(2 - r, i) * abs(tau) ** (2 - r - i) * aq / (1 - aq)
            for i in range(3)
            for r in range(2)
        )
        tail = sum(e.truncation_error for e in F.evaluate(tau, 1))
        assert tail == pytest.approx(expected, rel=1e-12, abs=0)

    def test_padding_zero_is_summed_once_per_point(self, monkeypatch):
        # at precision 4 the completion of E2*Delta^6 keeps one zero coefficient,
        # and Yhat^1 pads with the kept zero series of that precision
        qseries._zero.cache_clear()
        F = from_quasimodular(E2 * DELTA ** 6, 1)
        sums = []
        float_coeffs = qseries.QSeries._float_coeffs
        monkeypatch.setattr(qseries.QSeries, "_float_coeffs", lambda s: sums.append(s) or float_coeffs(s))
        values = [F.evaluate(complex(0.3, 1.1), 4) for _ in range(5)]
        assert len(sums) == 2 and all(v == values[0] for v in values)


class TestModularity:
    def test_battery(self):
        plan = default_plan()
        battery = [
            from_quasimodular(E4, 0),
            from_quasimodular(E2, 1),
            from_quasimodular(E2 * E2, 2),
            from_quasimodular(E2 * E4, 3),
            from_quasimodular(E2 * E2 * E6 - 3 * E4 * E6, 4),
        ]
        for F in battery:
            residuals = check_vv(F, plan)
            assert max_relative(residuals) < plan.tolerance, str(F)


class TestHolwtComponents:
    def test_w_type_top_component_is_one(self):
        w = from_quasimodular(E2, 1)
        assert holwt_component(w, 1, 16) == completion(ONE, 16)

    def test_modular_source_concentrates_at_zero(self):
        F = from_quasimodular(E4, 3)
        assert holwt_component(F, 0, 16) == completion(E4, 16)
        for s in (1, 2, 3):
            assert holwt_component(F, s, 16).is_zero

    def test_e2_squared_middle(self):
        F = from_quasimodular(E2 * E2, 2)
        assert holwt_component(F, 1, 16) == 2 * completion(E2, 16)

    def test_out_of_range(self):
        F = from_quasimodular(E4, 1)
        with pytest.raises(ValueError):
            holwt_component(F, 2)
        with pytest.raises(ValueError):
            holwt_component(F, -1)


class TestEmbedding:
    def test_embed_preserves_source(self):
        F = from_quasimodular(E4, 0)
        G = embed_i(F)
        assert G.m == 1 and G.source == E4

    def test_image_test_of_embeddings(self):
        rng = random.Random(67)
        for _ in range(20):
            f = random_form(rng)
            F = from_quasimodular(f, f.depth)
            assert image_test(embed_i(F))

    def test_w_type_is_not_an_embedding(self):
        assert not image_test(from_quasimodular(E2, 1))

    def test_depth_below_rank_is_an_embedding(self):
        assert image_test(from_quasimodular(E4 * E2, 2))

    def test_m_zero_rejected(self):
        with pytest.raises(ValueError):
            image_test(from_quasimodular(E4, 0))

    def test_constructive_equivalence(self):
        rng = random.Random(71)
        for _ in range(30):
            f = random_form(rng)
            m = f.depth + rng.randint(0, 2)
            F = from_quasimodular(f, m)
            if m == 0:
                continue
            if image_test(F):
                preimage = from_quasimodular(f, m - 1)
                assert embed_i(preimage) == F
            else:
                # any preimage would need source depth <= m - 1, but the
                # source is shared by embedding
                assert f.depth == m

    def test_embedding_evaluates_as_multiplication_by_tau_one(self):
        # multiplying by (tau, 1) = tau e1 + e2 in symmetric coordinates
        rng = random.Random(73)
        tau = complex(0.3, 1.1)
        for _ in range(5):
            f = random_form(rng, max_weight=12, max_depth=4)
            F = from_quasimodular(f, f.depth)
            lifted = embed_i(F)
            base = [e.value for e in F.evaluate(tau)]
            lifted_values = [e.value for e in lifted.evaluate(tau)]
            m = F.m
            expected = [0j] * (m + 2)
            for i, v in enumerate(base):
                expected[i] += tau * v      # tau * e1 * e1^(m-i) e2^i
                expected[i + 1] += v        # e2 * e1^(m-i) e2^i
            for got, want in zip(lifted_values, expected):
                assert abs(got - want) < 1e-9 * max(1.0, abs(want))


class TestWBasis:
    def test_e2_squared(self):
        F = from_quasimodular(E2 * E2, 2)
        assert w_decompose(F) == [QuasiModularForm(0, {}), QuasiModularForm(0, {}), ONE]

    def test_modular_source(self):
        F = from_quasimodular(E4, 2)
        parts = w_decompose(F)
        assert parts[0] == E4 and parts[1].is_zero and parts[2].is_zero

    def test_w_type(self):
        assert w_decompose(from_quasimodular(E2, 1)) == [QuasiModularForm(0, {}), ONE]

    def test_compose_places_source(self):
        zero = QuasiModularForm(0, {})
        F = w_compose([zero, zero, E4])
        assert F.source == E4 * E2 ** 2
        # E4 sits at slot t = 2, so the weight label is 4 + 2*2 = 8
        assert F.weight_label == 8 and F.m == 2

    def test_round_trips(self):
        rng = random.Random(79)
        for _ in range(25):
            f = random_form(rng)
            F = from_quasimodular(f, f.depth + rng.randint(0, 2))
            assert w_compose(w_decompose(F), m=F.m, weight_label=F.weight_label) == F

    def test_weight_bookkeeping_error(self):
        with pytest.raises(ValueError):
            w_compose([ONE, QuasiModularForm(0, {})], m=1, weight_label=2)

    def test_depth_zero_required(self):
        with pytest.raises(ValueError):
            w_compose([E2, QuasiModularForm(0, {})])

    @pytest.mark.parametrize("m", [None, 0, 2])
    def test_no_parts_is_refused_as_such(self, m):
        with pytest.raises(ValueError, match="^need at least one w-basis part, got an empty list$"):
            w_compose([], m)

    @pytest.mark.parametrize(
        "m, label, name",
        [(0, True, "weight label"), (0, 4.0, "weight label"), (0, 3, "weight label"), (0, -4, "weight label"),
         (True, None, "rank parameter m"), (0.0, None, "rank parameter m"), (-1, None, "rank parameter m")],
    )
    def test_arguments_follow_the_integer_rule(self, m, label, name):
        # checked before the parts, so True is never read as weight 1
        with pytest.raises(ValueError, match=f"{name} must be a non-negative (even )?integer"):
            w_compose([E4], m, label)

    def test_quotient_recovery(self):
        # with vanishing higher parts, the top holomorphic component
        # recovers the top w-coefficient
        parts = [QuasiModularForm(0, {}), E6, QuasiModularForm(0, {})]
        F = w_compose(parts, m=2, weight_label=8)
        top = F.depth
        assert top == 1
        assert holwt_component(F, top, 16) == completion(parts[top], 16)

    def test_collapse_binomial_identity(self):
        # sum_r binom(r,t) binom(j,r) (-1)^(r-t) = delta_{j,t}, the identity
        # behind the coefficientwise w-basis collapse
        from math import comb

        for t in range(9):
            for j in range(9):
                total = sum(
                    comb(r, t) * comb(j, r) * (-1) ** (r - t) for r in range(t, j + 1)
                )
                assert total == (1 if j == t else 0)


class TestIotaLift:
    def test_degree_zero(self):
        F = iota_lift(ONE, 0, 3)
        assert F.source == ONE

    def test_e4(self):
        F = iota_lift(E4, 1, 2)
        assert F.source == E4 * E2
        assert F.depth == 1
        assert F.source.reduced_component(1) == E4

    def test_e6_depth_two(self):
        F = iota_lift(E6, 2, 3)
        assert F.source.reduced_component(2) == E6

    def test_bounds(self):
        with pytest.raises(ValueError):
            iota_lift(E4, 3, 2)
        with pytest.raises(ValueError):
            iota_lift(E2, 1, 2)

    @pytest.mark.parametrize(
        "p, m, name",
        [(-1, 2, "filtration degree p"), (1.0, 2, "filtration degree p"), (True, 2, "filtration degree p"),
         (0, -1, "rank parameter m"), (0, 2.0, "rank parameter m"), (0, False, "rank parameter m")],
    )
    def test_arguments_follow_the_integer_rule(self, p, m, name):
        with pytest.raises(ValueError, match=f"{name} must be a non-negative integer"):
            iota_lift(E4, p, m)


class TestProduct:
    def test_w_squared(self):
        w = from_quasimodular(E2, 1)
        ww = vv_product(w, w)
        assert ww.m == 2 and ww.source == E2 * E2

    def test_unit(self):
        rng = random.Random(83)
        unit = from_quasimodular(ONE, 0)
        for _ in range(10):
            f = random_form(rng)
            F = from_quasimodular(f, f.depth)
            assert vv_product(F, unit) == F

    def test_direct_limit_compatibility(self):
        rng = random.Random(89)
        for _ in range(20):
            f, g = random_form(rng), random_form(rng)
            F = from_quasimodular(f, f.depth)
            G = from_quasimodular(g, g.depth)
            H = vv_product(F, G)
            assert vv_product(embed_i(F), G) == embed_i(H)
            assert vv_product(F, embed_i(G)) == embed_i(H)

    def test_filtration_subadditive(self):
        rng = random.Random(97)
        for _ in range(10):
            F = from_quasimodular(random_form(rng), 7)
            G = from_quasimodular(random_form(rng), 7)
            assert vv_product(F, G).depth <= F.depth + G.depth


class TestDimensions:
    def test_rank_zero_column(self):
        for k in range(0, 25, 2):
            assert dim_vv(k, 0) == dim_modular(k)

    @pytest.mark.parametrize(
        "label, m, name",
        [(4, True, "rank parameter m"), (4, -1, "rank parameter m"),
         (4.0, 1, "weight label"), (3, 1, "weight label"), (5, 1, "weight label"),
         (-2, 1, "weight label"), (3, 0, "weight label"), (4, 1.0, "rank parameter m")],
    )
    def test_arguments_follow_the_integer_rule(self, label, m, name):
        messages = set()
        for function in (dim_vv, basis_vv, certify_dim_vv):
            with pytest.raises(ValueError, match=f"{name} must be a non-negative (even )?integer") as info:
                function(label, m)
            messages.add(str(info.value))
        assert len(messages) == 1

    def test_slots_stop_at_half_the_weight(self):
        # a slot t holds weight k - 2t, so no work grows with m past k/2
        start = time.perf_counter()
        assert dim_vv(24, 10 ** 9) == certify_dim_vv(24, 10 ** 6) == len(basis_vv(24, 10 ** 6)) == 19
        assert time.perf_counter() - start < 1.0

    def test_spot_values(self):
        assert dim_vv(12, 2) == 4
        assert dim_vv(4, 2) == 2

    def test_certified_ranks(self):
        for k in range(0, 49, 2):
            for m in range(7):
                assert certify_dim_vv(k, m) == dim_vv(k, m)

    @pytest.mark.parametrize("m", [0, 2])
    @pytest.mark.parametrize("k", [192, 204, 240, 300])
    def test_certified_ranks_at_high_weight(self, k, m):
        assert certify_dim_vv(k, m) == dim_vv(k, m)

    def test_certify_ranks_integer_rows(self, monkeypatch):
        calls = []
        original = linalg.rank

        def spy(rows):
            calls.append(rows)
            return original(rows)

        monkeypatch.setattr(linalg, "rank", spy)
        k, m = 12, 3
        assert certify_dim_vv(k, m) == dim_vv(k, m)
        # one rank per slot t <= min(m, k/2), of the slot-t forms' Yhat^t
        # coefficients at the Sturm precision (k - 2t) // 12 + 1 of weight k - 2t
        assert len(calls) == m + 1
        for t, rows in enumerate(calls):
            assert len(rows) == dim_modular(k - 2 * t)
            assert all(type(x) is int for row in rows for x in row)
            assert {len(row) for row in rows} == {(k - 2 * t) // 12 + 1}
        assert sum(map(len, calls)) == dim_vv(k, m)

    @pytest.mark.parametrize("k", range(0, 97, 2))
    def test_slot_sum_is_the_stacked_rank(self, k):
        # the stacked matrix of the expansions of every component of every
        # w-basis form at N = k // 12 + 1, ranked whole by the oracle
        n = k // 12 + 1
        for m in range(13):
            slots = range(min(m, k // 2) + 1)
            rows = [[x for r in slots for x in F.source.reduced_component(r).qexpansion(n).numerators]
                    for F in basis_vv(k, m)]
            assert certify_dim_vv(k, m) == exact_rank(rows) == dim_vv(k, m), m

    @pytest.mark.parametrize("k", range(0, 97, 2))
    def test_slot_forms_complete_to_their_monomial(self, k):
        # what certify_dim_vv ranks: the slot-t form E2^t E4^a E6^b has
        # completion degree t and Yhat^t coefficient qexp(E4^a E6^b)
        for t in range(min(12, k // 2) + 1):
            for a, b in monomial_basis(k - 2 * t):
                for n in ((k - 2 * t) // 12 + 1, 64):
                    full = completion(monomial(t, a, b), n)
                    assert full.degree == t, (t, a, b, n)
                    assert full.coefficient(t) == monomial(0, a, b).qexpansion(n), (t, a, b, n)

    def test_certify_builds_no_form(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("certify_dim_vv built a completion or a QuasiModularForm")

        monkeypatch.setattr(vectorvalued, "completion", refuse)
        monkeypatch.setattr(almostholo, "completion", refuse)
        monkeypatch.setattr(QuasiModularForm, "__init__", refuse)
        monkeypatch.setattr(QuasiModularForm, "_from_valid", refuse)
        for k, m in ((48, 6), (96, 12)):
            assert certify_dim_vv(k, m) == dim_vv(k, m)

    def test_basis_matches_independent_rank(self):
        k, m, n = 12, 2, 12
        rows = []
        for F in basis_vv(k, m):
            row = []
            for r in range(m + 1):
                row.extend(F.source.reduced_component(r).qexpansion(n).coeffs)
            rows.append(row)
        assert exact_rank(rows) == dim_vv(k, m) == 4

    def test_basis_is_the_lifts_of_the_monomials(self):
        for k in range(0, 49, 2):
            for m in range(7):
                lifts = [iota_lift(E4 ** a * E6 ** b, t, m)
                         for t in range(min(m, k // 2) + 1) for (a, b) in monomial_basis(k - 2 * t)]
                assert basis_vv(k, m) == lifts


class TestDerivativeLiftConsistency:
    def test_components_of_derivatives(self):
        from qmforms import derivative_lift

        for g in (E4, E6):
            for p in range(4):
                d = g
                for _ in range(p):
                    d = d.derive()
                F = from_quasimodular(d, p + 1)
                assert F.source.components() == derivative_lift(g, p)
