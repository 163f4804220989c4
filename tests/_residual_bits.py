"""A fixed battery of numeric checks and the SHA-256 of its residual bits,
and the SHA-256 of the evaluator values beneath them.

Two random forms of each weight 4, 6, ..., 22 (fixed seed) are checked on
``default_plan()``: under ``check_vv`` at m = d, d + 1 and d + 2 for their
depth d, under ``check_quasimodular``, and under ``check_scalar``, whose
law only the depth-0 forms obey (the others, and E2, are negative controls).
Every residual's ``absolute``, ``relative`` and ``truncation_error`` enter
the hash as ``float.hex``, and every check's verdict as PASS or FAIL, so a
change to any residual bit changes the hash.

The second hash takes the same forms at the plan's 21 points (its three base
points and their images under its six group elements): the value and the
``truncation_error`` of ``QSeries.evaluate`` on each form's q-expansion, of
``AlmostHolomorphicForm.evaluate`` on its completion, and of every component
of ``VectorValuedForm.evaluate`` at m = d, d + 1 and d + 2, each as
``float.hex``.

The census checks every true monomial E2^a E4^b E6^c of weight 4, 6, ..., 32
the same way, under ``check_vv`` at m = a, a + 1 and a + 2 and under
``check_quasimodular`` (808 checks), and counts the FAILs, which a true form
shows only through float64 rounding or truncation (ROADMAP items 5 and 8).

The battery needs neither pytest nor mpmath.  Run as a script, it prints both
hashes and the census's FAIL count, so that interpreters without the test
dependencies can be compared::

    PYTHONPATH=src python tests/_residual_bits.py
"""

import hashlib
import random
from fractions import Fraction

from qmforms import (
    E2,
    QuasiModularForm,
    all_within,
    check_quasimodular,
    check_scalar,
    check_vv,
    completion,
    default_plan,
    from_quasimodular,
)

SEED = 2013


def _monomials(weight):
    """Every exponent triple (a, b, c) with 2a + 4b + 6c = weight."""
    return [(a, b, (weight - 2 * a - 4 * b) // 6)
            for a in range(weight // 2 + 1) for b in range((weight - 2 * a) // 4 + 1)
            if (weight - 2 * a - 4 * b) % 6 == 0]


def battery_forms():
    """Two forms of each weight 4..22 with up to three terms and small
    nonzero rational coefficients, drawn from ``SEED``."""
    rng = random.Random(SEED)
    forms = []
    for weight in range(4, 23, 2):
        keys = _monomials(weight)
        for _ in range(2):
            chosen = rng.sample(keys, min(len(keys), rng.randint(1, 3)))
            forms.append(QuasiModularForm(weight, {
                key: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 2, 3)))
                for key in chosen
            }))
    return forms


def battery_checks():
    """``(name, residuals)`` for every check of the battery, in a fixed
    order; a name holds the check and the form's index in ``battery_forms``."""
    plan = default_plan()
    for i, form in enumerate(battery_forms()):
        for m in range(form.depth, form.depth + 3):
            yield f"check_vv {i} m={m}", check_vv(from_quasimodular(form, m), plan)
        yield f"check_quasimodular {i}", check_quasimodular(form, plan)
        yield f"check_scalar {i}", check_scalar(form.qexpansion(plan.precision).evaluate, form.weight, plan)
    yield "check_scalar E2", check_scalar(E2.qexpansion(plan.precision).evaluate, 2, plan)


def battery_sha256():
    """The SHA-256 of every check's name, verdict and residual bits."""
    digest = hashlib.sha256()
    tolerance = default_plan().tolerance
    for name, residuals in battery_checks():
        verdict = "PASS" if all_within(residuals, tolerance) else "FAIL"
        digest.update(f"{name} {verdict}\n".encode())
        for r in residuals:
            digest.update(f"{r.absolute.hex()} {r.relative.hex()} {r.truncation_error.hex()}\n".encode())
    return digest.hexdigest()


def plan_points(plan):
    """The plan's base points, then each one's images under its group elements."""
    return list(plan.taus) + [gamma.act(tau) for tau in plan.taus for gamma in plan.gammas]


def evaluator_sha256():
    """The SHA-256 of every evaluator value and tail bound of the battery forms."""
    digest = hashlib.sha256()
    plan = default_plan()
    n = plan.precision
    for i, form in enumerate(battery_forms()):
        vvs = [from_quasimodular(form, m) for m in range(form.depth, form.depth + 3)]
        for tau in plan_points(plan):
            digest.update(f"form {i} tau {tau.real.hex()} {tau.imag.hex()}\n".encode())
            values = [form.qexpansion(n).evaluate(tau), completion(form, n).evaluate(tau)]
            values += [e for vv in vvs for e in vv.evaluate(tau, n)]
            for e in values:
                digest.update(f"{e.value.real.hex()} {e.value.imag.hex()} {e.truncation_error.hex()}\n".encode())
    return digest.hexdigest()


def census_failures():
    """How many census checks of true monomials FAIL on ``default_plan()``."""
    plan = default_plan()
    failures = 0
    for weight in range(4, 33, 2):
        for a, b, c in _monomials(weight):
            form = QuasiModularForm(weight, {(a, b, c): 1})
            checks = [check_vv(from_quasimodular(form, m), plan) for m in range(a, a + 3)]
            failures += sum(not all_within(residuals, plan.tolerance)
                            for residuals in checks + [check_quasimodular(form, plan)])
    return failures


if __name__ == "__main__":
    print(battery_sha256())
    print(evaluator_sha256())
    print(census_failures())
