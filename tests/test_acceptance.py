"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
import time
from fractions import Fraction
from math import comb

from qmforms import (
    DELTA,
    E2,
    E4,
    E6,
    NotHolomorphicError,
    QuasiModularForm,
    check_quasimodular,
    check_scalar,
    check_vv,
    completion,
    component_forms,
    certify_dim_vv,
    default_plan,
    derivative_lift,
    dim_modular,
    dim_vv,
    embed_i,
    from_quasimodular,
    image_test,
    lower_op,
    max_relative,
    recognize,
    reconstruct,
    w_compose,
    w_decompose,
    weight_op,
)

from _oracles import all_monomials, random_form

TOLERANCE = 1e-8


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {name}: {status}{suffix}")
    assert ok, f"criterion {number} failed: {name}{suffix}"


def monomial_battery(max_weight):
    forms = []
    for weight in range(0, max_weight + 1, 2):
        for (a, b, c) in all_monomials(weight):
            forms.append(QuasiModularForm(weight, {(a, b, c): 1}))
    return forms


def mixed_battery(rng, count, max_weight=24, max_depth=6):
    forms = monomial_battery(16)
    while len(forms) < count:
        forms.append(random_form(rng, max_weight=max_weight, max_depth=max_depth))
    return forms


def test_criterion_01_normalization_self_test():
    plan = default_plan()
    start = time.perf_counter()
    residuals = check_quasimodular(E2, plan)
    elapsed = time.perf_counter() - start
    worst = max_relative(residuals)
    report(
        1,
        "normalization self-test on E2",
        worst < TOLERANCE and elapsed < 1.0,
        f"max residual {worst:.3e}, {elapsed:.2f}s",
    )


def test_criterion_02_almost_holomorphic_weight_two_law():
    plan = default_plan()
    star = completion(E2, plan.precision)
    residuals = check_scalar(star.evaluate, 2, plan, label="completion(E2)")
    worst = max_relative(residuals)
    report(2, "completion(E2) satisfies the weight-2 law", worst < TOLERANCE, f"max residual {worst:.3e}")


def test_criterion_03_vector_valued_battery():
    plan = default_plan()
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for f in monomial_battery(16):
        for m in range(f.depth, f.depth + 3):
            residuals = check_vv(from_quasimodular(f, m), plan)
            worst = max(worst, max_relative(residuals))
            count += 1
    elapsed = time.perf_counter() - start
    report(
        3,
        "vector-valued modularity battery (weights <= 16)",
        worst < TOLERANCE and elapsed < 30.0,
        f"{count} forms, max residual {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_04_exact_round_trips():
    rng = random.Random(2024)
    battery = mixed_battery(rng, 120)
    ok = True
    for f in battery:
        n = 64
        if reconstruct(component_forms(f, n)) != f.qexpansion(n):
            ok = False
        F = from_quasimodular(f, f.depth + 1)
        if F.source != f:
            ok = False
        if from_quasimodular(F.source, F.m) != F:
            ok = False
        if w_compose(w_decompose(F), m=F.m, weight_label=F.weight_label) != F:
            ok = False
        if recognize(f.qexpansion(n), f.weight, f.depth) != f:
            ok = False
    report(4, "round trips are exact (zero tolerance)", ok, f"{len(battery)} forms")


def test_criterion_05_nested_components():
    rng = random.Random(2025)
    checked = 0
    ok = True
    for _ in range(200):
        f = random_form(rng, max_weight=24, max_depth=6)
        for r in range(f.depth + 1):
            for s in range(f.depth - r + 2):
                lhs = f.reduced_component(r).reduced_component(s)
                rhs = comb(r + s, r) * f.reduced_component(r + s)
                if lhs != rhs:
                    ok = False
        checked += 1
    report(5, "nested component identity", ok, f"{checked} random forms")


def test_criterion_06_product_structure():
    rng = random.Random(2026)
    ok = True
    for _ in range(100):
        f = random_form(rng, max_weight=16, max_depth=5)
        g = random_form(rng, max_weight=16, max_depth=5)
        h = f * g
        for t in range(h.depth + 1):
            convolution = QuasiModularForm(0, {})
            for r in range(t + 1):
                convolution = convolution + f.reduced_component(r) * g.reduced_component(t - r)
            if h.reduced_component(t) != convolution:
                ok = False
        F = from_quasimodular(f, f.depth)
        G = from_quasimodular(g, g.depth)
        H = F * G
        if embed_i(F) * G != embed_i(H) or F * embed_i(G) != embed_i(H):
            ok = False
    report(6, "component convolution and direct-limit compatibility", ok, "100 random pairs")


def test_criterion_07_sl2_relations():
    ok = True
    # determine the [lower, derive] constant from three probes
    constants = set()
    for f in (E2, E4, E2 * E2):
        bracket = f.derive().lower() - f.lower().derive()
        ratios = {key: value / f.monomials[key] for key, value in bracket.monomials.items()}
        if set(bracket.monomials) != set(f.monomials) or len(set(ratios.values())) != 1:
            ok = False
            continue
        constants.add(next(iter(ratios.values())) / f.weight)
    if constants != {Fraction(1, 12)}:
        ok = False
    for f in monomial_battery(16):
        # [H, D] = 2D
        if weight_op(f.derive()) - weight_op(f).derive() != 2 * f.derive():
            ok = False
        # [H, lower] = -2 lower
        if weight_op(f.lower()) - weight_op(f).lower() != -2 * f.lower():
            ok = False
        # [lower, D] = H / 12
        if f.derive().lower() - f.lower().derive() != weight_op(f) / 12:
            ok = False
    rng = random.Random(2027)
    for _ in range(25):
        f = random_form(rng, max_weight=20, max_depth=5)
        if lower_op(completion(f, 32)) != completion(f.lower(), 32):
            ok = False
    report(7, "sl2 commutators and intertwining", ok, "c = 1/12 pinned by brute force")


def test_criterion_08_derivative_lift():
    ok = True
    for g in (E4, E6, DELTA, E4 * E6):
        d = g
        for p in range(4):
            if derivative_lift(g, p) != d.components():
                ok = False
            d = d.derive()
    report(8, "derivative lift matches repeated differentiation", ok, "g in {E4, E6, Delta, E4*E6}, p <= 3")


def test_criterion_09_dimension_formula():
    ok = dim_vv(12, 2) == 4
    checked = 0
    for k in range(0, 25, 2):
        for m in range(5):
            expected = sum(dim_modular(k - 2 * t) for t in range(m + 1) if k - 2 * t >= 0)
            if dim_vv(k, m) != expected or certify_dim_vv(k, m) != expected:
                ok = False
            checked += 1
    report(9, "dimension formula with certified basis ranks", ok, f"{checked} (k, m) pairs")


def test_criterion_10_image_criterion():
    rng = random.Random(2028)
    ok = not image_test(from_quasimodular(E2, 1))  # negative witness
    count = 0
    while count < 100:
        f = random_form(rng)
        m = f.depth + rng.randint(0, 2)
        if m == 0:
            continue
        F = from_quasimodular(f, m)
        if image_test(F):
            preimage = from_quasimodular(f, m - 1)
            if embed_i(preimage) != F:
                ok = False
        else:
            if f.depth != m:  # no preimage can exist exactly when depth = m
                ok = False
        count += 1
    report(10, "image criterion matches constructive pre-images", ok, "100 random forms + w witness")


def test_criterion_11_negative_controls():
    plan = default_plan()
    residuals = check_scalar(E2.qexpansion(plan.precision).evaluate, 2, plan, label="E2 as scalar")
    scalar_fails = max_relative(residuals) > 1e-3

    parts = component_forms(E2 * E2 * E4, 32)
    parts[1] = completion(E6, 32)  # right weight, wrong content
    try:
        reconstruct(parts)
        reconstruct_fails = False
    except NotHolomorphicError:
        reconstruct_fails = True
    report(
        11,
        "negative controls fail as required",
        scalar_fails and reconstruct_fails,
        f"scalar residual {max_relative(residuals):.3e}, corrupted tuple raises",
    )
