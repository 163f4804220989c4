"""Floating-point verification of the transformation laws.

The checks compare both sides of the scalar, quasi-modular, and
vector-valued functional equations on a fixed sample of group elements and
base points, and report absolute and relative residuals per sample.
``default_plan()`` is the one fixed sample, with tolerance 1e-8 and 64
coefficients; ``_replace`` on it makes a checked plan with others.  All
sample points keep Im tau >= 0.3 and all images keep Im(gamma tau) >= 0.25.
For true forms of weight 4 to 22, the weights the bench ``verify`` workload
checks, 64 coefficients then keep truncation far below the 1e-8 tolerance.
Higher weights may need more: ``E4^10`` (weight 40) leaves an exact residual
of 6.2e-8 at 64 coefficients (ROADMAP items 5 and 8).  Float64 rounding
alone FAILs true forms from weight 24 on, and ``check_vv`` of
``from_quasimodular(E4, m)`` from m = 36 on (ROADMAP items 5 and 9), and
it refuses a rank whose weights leave float64 at some sample.

Each law has a half that no form enters: the images gamma tau and the
factors j(gamma, tau)^w.  They are built once per plan points and elements
and weight w (``_images``, at most ``CACHE_KEYS`` keys, the least recently
used out first) and serve all three checks: ``check_scalar`` at the weight,
``check_vv`` at k - m and ``check_quasimodular`` at each k - r, r <= depth,
through one table of rows per weight and depth (``_quasimodular_rows``).
"""

import cmath
import json
import math
from collections import namedtuple
from functools import lru_cache
from itertools import product

from .almostholo import completion
from .qseries import CACHE_KEYS, DEFAULT_PRECISION, LAMBDA, Evaluation, _evaluations, _powers, _precision, _row_sums
from .vectorvalued import IDENTITY, GroupElement, S, T, _sym_rows

MIN_IM_TAU = 0.3
MIN_IM_IMAGE = 0.25
DEFAULT_TOLERANCE = 1e-8


class SamplePlan(namedtuple("SamplePlan", "taus gammas tolerance precision")):
    """Sample points, group elements, tolerance, and expansion precision.

    The points and elements are kept as tuples, so a plan is hashable and its
    ``(taus, gammas)`` can key the tables its checks share."""

    __slots__ = ()

    def __new__(cls, taus, gammas, tolerance=DEFAULT_TOLERANCE, precision=DEFAULT_PRECISION):
        self = super().__new__(cls, tuple(taus), tuple(gammas), tolerance, precision)
        if not self.taus or not self.gammas:
            raise ValueError("a sample plan needs at least one tau and one gamma")
        # written so that NaN fails every comparison
        if not 0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")
        _precision(self.precision)
        for tau in self.taus:
            if not (cmath.isfinite(tau) and complex(tau).imag >= MIN_IM_TAU):
                raise ValueError(f"sample point {tau} must be finite with Im tau >= {MIN_IM_TAU}")
        for gamma in self.gammas:
            for tau in self.taus:
                image = gamma.act(complex(tau))
                if not image.imag >= MIN_IM_IMAGE:
                    raise ValueError(f"image {gamma}*{tau} has Im = {image.imag:.4f} < {MIN_IM_IMAGE}")
        return self

    @classmethod
    def _make(cls, iterable):
        # namedtuple builds through tuple.__new__, and its _replace through
        # _make; both must pass the checks above
        return cls(*iterable)


@lru_cache(maxsize=None)
def default_plan():
    """The standard plan: three base points, six group elements, the tolerance
    ``DEFAULT_TOLERANCE`` and ``DEFAULT_PRECISION`` coefficients.

    The six elements are T, S, S*T, T*S^-1, [[2,1],[1,1]] and the lower
    unipotent [[1,0],[-1,1]]; every det-one matrix with |c| >= 2 would push
    some image below Im = 0.25 at these base points, so all elements here
    have c in {0, 1, -1}.  The immutable plan is built once; ``_replace``
    gives a checked plan with another tolerance or precision.
    """
    taus = (complex(0.3, 1.1), complex(-0.4, 0.9), complex(0.1, 1.7))
    gammas = (
        T,
        S,
        S * T,
        T * S.inverse(),
        GroupElement(2, 1, 1, 1),
        GroupElement(1, 0, -1, 1),
    )
    return SamplePlan(taus=taus, gammas=gammas)


class Residual(namedtuple("Residual", "form gamma tau absolute relative truncation_error")):
    """Residual of one functional-equation sample."""

    __slots__ = ()

    def to_json(self):
        def sig12(x):
            return float(f"{x:.12g}")

        return {
            "form": self.form,
            "gamma": [self.gamma.a, self.gamma.b, self.gamma.c, self.gamma.d],
            "tau": [sig12(self.tau.real), sig12(self.tau.imag)],
            "absolute": sig12(self.absolute),
            "relative": sig12(self.relative),
            "truncation_error": sig12(self.truncation_error),
        }

    def json_line(self):
        return json.dumps(self.to_json(), sort_keys=True)


def max_relative(residuals):
    return max((r.relative for r in residuals), default=0.0)


def all_within(residuals, tolerance):
    return all(r.relative < tolerance for r in residuals)


def _call_evaluator(evaluator, tau):
    result = evaluator(tau)
    if isinstance(result, Evaluation):
        return result
    return Evaluation(complex(result), 0.0)


@lru_cache(maxsize=CACHE_KEYS)
def _images(taus, gammas, weight):
    """The half of a law at ``weight`` that no form enters: per group element,
    per base point, the image gamma tau and the factor j(gamma, tau)^weight.
    A weight whose factor leaves float64 at some sample, |weight ln|j|| >
    1023 ln 2, is refused, and its refusal not kept."""
    logs = [math.log(abs(gamma.j(tau))) for gamma in gammas for tau in taus]
    span = 1023 * math.log(2)
    top = math.floor(span / max(logs)) if max(logs) > 0 else math.inf
    bottom = -math.floor(span / -min(logs)) if min(logs) < 0 else -math.inf
    if not bottom <= weight <= top:
        raise ValueError(
            f"weight {weight} is outside {bottom}..{top}, the weights this sample plan can check"
        )
    return tuple(tuple((gamma.act(tau), gamma.j(tau) ** weight) for tau in taus) for gamma in gammas)


@lru_cache(maxsize=CACHE_KEYS)
def _quasimodular_rows(taus, gammas, weight, depth):
    """Per (gamma, tau), the image gamma tau and one ``_row_sums`` row of the
    weights j^(weight-r) (c LAMBDA)^r of fhat_r, r <= depth, from ``_images``."""
    tables = [_images(taus, gammas, weight - r) for r in range(depth + 1)]
    c_powers = [_powers(gamma.c * LAMBDA, depth) for gamma in gammas]
    # samples[r] is (gamma tau, j^(weight-r)) at one base point
    return tuple((samples[0][0], (tuple((r, j * c) for r, ((_, j), c) in enumerate(zip(samples, powers))),))
                 for powers, *rows in zip(c_powers, *tables) for samples in zip(*rows))


@lru_cache(maxsize=CACHE_KEYS)
def _largest_rank(taus, gammas):
    """The largest m whose Sym^m(gamma) entries, <= max(|a|+|c|, |b|+|d|)^m, and
    ``_component_rows`` weights at points and images, <= max(2, 1 + |tau|)^m, are < 2^1024."""
    growth = [2] + [max(abs(g.a) + abs(g.c), abs(g.b) + abs(g.d)) for g in gammas]
    growth += [1 + abs(g.act(complex(tau))) for g in (IDENTITY,) + gammas for tau in taus]
    return math.ceil(1024 * math.log(2) / math.log(max(growth))) - 1


def _residuals(plan, label, sides):
    """One residual per (gamma, tau) of the plan, in the Euclidean norm.

    ``sides`` yields, gamma by gamma and tau by tau within, the left-hand
    ``(value, tail)`` pairs, the automorphy factor and the right-hand pairs
    before that factor, as many as on the left.  The law is lhs_i = factor *
    rhs_i, and the truncation error of the sample is sum lhs_i.tail +
    |factor| sum rhs_i.tail, added left to right (``sum`` of floats compensates).
    """
    out = []
    for (gamma, tau), (lhs, factor, rhs) in zip(product(plan.gammas, plan.taus), sides):
        diffs, norms, left, right = [], [], 0.0, 0.0
        for (x, left_tail), (y, right_tail) in zip(lhs, rhs):
            y = factor * y
            diffs.append(abs(x - y))
            norms.append(abs(y))
            left += left_tail
            right += right_tail
        absolute = math.hypot(*diffs)
        error = left + abs(factor) * right
        out.append(Residual(label, gamma, tau, absolute, absolute / max(1.0, math.hypot(*norms)), error))
    return out


def check_scalar(evaluator, weight, plan, label="scalar form"):
    """Residuals of f(gamma tau) = j^weight f(tau) over the plan."""
    images = _images(plan.taus, plan.gammas, weight)
    bases = [_call_evaluator(evaluator, tau) for tau in plan.taus]
    sides = (([_call_evaluator(evaluator, image)], factor, [base])
             for row in images for (image, factor), base in zip(row, bases))
    return _residuals(plan, label, sides)


def check_quasimodular(form, plan, label=None):
    """Residuals of the depth-d law
    f(gamma tau) = sum_r j^(k-r) c^r LAMBDA^r fhat_r(tau)."""
    rows = _quasimodular_rows(plan.taus, plan.gammas, form.weight, form.depth)
    full = completion(form, plan.precision)
    expansions = [full.coefficient(r) for r in range(form.depth + 1)]
    bases = [_evaluations(expansions, tau) for tau in plan.taus] * len(plan.gammas)
    sides = (([expansions[0].evaluate(image)], 1, _row_sums(row, base)) for (image, row), base in zip(rows, bases))
    return _residuals(plan, str(form) if label is None else label, sides)


def check_vv(form, plan, label=None):
    """Residuals of F(gamma tau) = j^(k-m) Sym^m(gamma) F(tau) in the
    Euclidean norm."""
    k, m, n = form.weight_label, form.m, plan.precision
    if m > (top := _largest_rank(plan.taus, plan.gammas)):
        raise ValueError(f"rank {m} is above {top}, the largest rank this sample plan can check")
    images = _images(plan.taus, plan.gammas, k - m)
    bases = [form.evaluate(tau, n) for tau in plan.taus]
    sym = [_sym_rows(gamma, m) for gamma in plan.gammas]
    sides = ((form.evaluate(image, n), factor, _row_sums(rows, base))
             for rows, row in zip(sym, images) for (image, factor), base in zip(row, bases))
    return _residuals(plan, str(form) if label is None else label, sides)
