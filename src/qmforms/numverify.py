"""Floating-point verification of the transformation laws.

The checks compare both sides of Shimura's rank-m law on a fixed sample of
group elements and base points, and report absolute and relative residuals
per sample.  ``default_plan()`` is the one fixed sample, with tolerance 1e-8
and 64 coefficients; ``_replace`` on it makes a checked plan with others.
All sample points keep Im tau >= 0.3 and all images keep Im(gamma tau) >=
0.25, where 64 coefficients keep the truncation of true forms of weight 4 to
22 far below 1e-8, but not of ``E4^10``, 6.2e-8 (ROADMAP items 5 and 8); the
q-series sums round past 1e-8 on some from weight 22 on (item 5).

The rank-m form of f is the binary form P_tau(X, Y) = sum_r LAMBDA^r fhat_r(tau)
(tau X + Y)^(m-r) X^r, and Sym^m(gamma) acts by P -> P(aX + cY, bX + dY).  Both
sides of P_(gamma tau) = j^(k-m) Sym^m(gamma) P_tau are evaluated at (w, 1) for
the (m+1)-th roots of unity w, a DFT that is unitary over sqrt(m + 1), so the
residual is the Euclidean norm of the component difference (Parseval).  At
m = 0 the one point w = 0 gives the depth-d law of ``check_quasimodular``,
and with one component the scalar law f(gamma tau) = j^k f(tau) of
``check_scalar``.  All three checks are ``_check_law``, one loop over the
samples and their points.  Each distinct point of the sample is evaluated
once.  A q-series is 1-periodic, so ``check_vv`` and ``check_quasimodular``
read the left side of a sample at the image of gamma's coset T^n gamma
(``_coset_image``): 12 points of ``default_plan()``, not 21.  ``check_scalar``
reads an opaque evaluator, which need not be periodic, at the literal gamma
tau, and the outer factors of every law keep the literal image.
"""

import cmath
import json
import math
from collections import namedtuple
from functools import lru_cache
from itertools import product

from .almostholo import completion
from .qseries import CACHE_KEYS, DEFAULT_PRECISION, LAMBDA, Evaluation, _evaluations, _precision
from .vectorvalued import GroupElement, S, T

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
    """The largest relative residual, NaN if any is NaN, and 0.0 for none."""
    relatives = [r.relative for r in residuals]
    return math.nan if any(map(math.isnan, relatives)) else max(relatives, default=0.0)


def all_within(residuals, tolerance):
    return all(r.relative < tolerance for r in residuals)


def _call_evaluator(evaluator, tau):
    result = evaluator(tau)
    if isinstance(result, Evaluation):
        return result
    return Evaluation(complex(result), 0.0)


def _coset_image(gamma, tau):
    """The point gamma' tau for gamma = +-T^n gamma', with c' > 0 and 0 <= a' < c', or tau itself
    if c = 0 (gamma' = 1).  A 1-periodic function takes there its value at gamma tau, and as the
    point is computed from the integers of gamma', every element of +-T^n gamma gives its bits."""
    a, b, c, d = (gamma.a, gamma.b, gamma.c, gamma.d) if gamma.c > 0 else (-gamma.a, -gamma.b, -gamma.c, -gamma.d)
    if not c:
        return tau
    n = a // c
    return ((a - n * c) * tau + (b - n * d)) / (c * tau + d)


@lru_cache(maxsize=CACHE_KEYS)
def _images(taus, gammas, weight, periodic):
    """The half of a law at ``weight`` that no form enters: the distinct points whose values it
    reads, base points first, and per sample (gamma, tau) the index of the point of its left side,
    that of tau and the factor j(gamma, tau)^weight.  The left side is read at gamma tau itself, or
    for ``periodic`` values (q-series, 1-periodic) at its ``_coset_image``, which T^n gamma shares,
    so on ``default_plan()`` 12 points serve the 18 samples, not 21.  A weight whose factor leaves
    float64 at some sample, |weight ln|j|| > 1023 ln 2, is refused, and its refusal not kept."""
    logs = [math.log(abs(gamma.j(tau))) for gamma in gammas for tau in taus]
    span = 1023 * math.log(2)
    top = math.floor(span / max(logs)) if max(logs) > 0 else math.inf
    bottom = -math.floor(span / -min(logs)) if min(logs) < 0 else -math.inf
    if not bottom <= weight <= top:
        raise ValueError(
            f"weight {weight} is outside {bottom}..{top}, the weights this sample plan can check"
        )
    image = _coset_image if periodic else GroupElement.act
    samples = list(product(gammas, taus))
    lefts = [image(gamma, tau) for gamma, tau in samples]
    index = {point: i for i, point in enumerate(dict.fromkeys([*taus, *lefts]))}
    return tuple(index), tuple((index[left], index[tau], gamma.j(tau) ** weight)
                               for left, (gamma, tau) in zip(lefts, samples))


@lru_cache(maxsize=CACHE_KEYS)
def _largest_rank(taus, gammas):
    """The largest m whose outer factors in ``_law_points``, |u|^m <= (1 + |gamma tau|)^m, are < 2^1024."""
    growth = max(1 + abs(gamma.act(complex(tau))) for gamma in gammas for tau in taus)
    return math.ceil(1024 * math.log(2) / math.log(growth)) - 1


@lru_cache(maxsize=CACHE_KEYS)
def _law_points(taus, gammas, m):
    """Per sample (gamma, tau), one row (z, z', outer, |z|, |z'|, |outer|) at each point w of the rank-m
    law, the (m+1)-th roots of unity (w = 0 at m = 0): with u = gamma tau * w + 1, z = LAMBDA w / u,
    z' = LAMBDA (a w + c) / (j u) and outer = u^m / sqrt(m + 1)."""
    ws = [cmath.rect(1.0, 2 * math.pi * i / (m + 1)) for i in range(m + 1)] if m else [0j]
    samples = []
    for gamma, tau in product(gammas, taus):
        rows = []
        for w in ws:
            u = gamma.act(tau) * w + 1
            z, z2 = LAMBDA * w / u, LAMBDA * (gamma.a * w + gamma.c) / (gamma.j(tau) * u)
            outer = u ** m / math.sqrt(m + 1)
            rows.append((z, z2, outer, abs(z), abs(z2), abs(outer)))
        samples.append(tuple(rows))
    return tuple(samples)


def _check_law(values, weight, m, plan, label, periodic=False):
    """Residuals of the rank-m law at weight k of the form whose fhat_0..fhat_d at a point ``values``
    gives as ``Evaluation``s of one length: at each point of ``_law_points``, lhs = outer * sum_r
    fhat_r(gamma tau) z^r against rhs = j^k (outer * sum_r fhat_r(tau) z'^r), each sum by Horner's
    rule from the top.  The residual is the Euclidean norm of lhs - rhs over max(1, ||rhs||).  The
    fhat_r share one tail, so a side's tail at a point is |outer| sum_r |z|^r tail, and the truncation
    error is the left tails plus |j^k| times the right ones, each added left to right (``sum`` of
    floats compensates).  ``values`` is called once per distinct point of ``_images`` (the coset
    images for ``periodic`` values), and only after the rank and weight refusals."""
    if m > (top := _largest_rank(plan.taus, plan.gammas)):
        raise ValueError(f"rank {m} is above {top}, the largest rank this sample plan can check")
    points, samples = _images(plan.taus, plan.gammas, weight, periodic)
    evaluated = [values(point) for point in points]
    out = []
    try:
        for (gamma, tau), (image, base, factor), rows in zip(product(plan.gammas, plan.taus), samples,
                                                             _law_points(plan.taus, plan.gammas, m)):
            lhs, rhs = evaluated[image], evaluated[base]
            # fhat_d on both sides, then fhat_(d-1)..fhat_0 in pairs; every fhat_r has the tail of fhat_0
            tops = lhs[-1].value, rhs[-1].value
            left_tail, right_tail = lhs[0].truncation_error, rhs[0].truncation_error
            lower = [(x.value, y.value) for x, y in zip(lhs[-2::-1], rhs[-2::-1])]
            diffs, norms, left, right = [], [], 0.0, 0.0
            for z, z2, outer, size, size2, bound in rows:
                (x, y), s, s2 = tops, left_tail, right_tail
                for v, v2 in lower:
                    x, y, s, s2 = x * z + v, y * z2 + v2, s * size + left_tail, s2 * size2 + right_tail
                x, y = outer * x, factor * (outer * y)
                diffs.append(abs(x - y))
                norms.append(abs(y))
                left += bound * s
                right += bound * s2
            absolute, norm = math.hypot(*diffs), math.hypot(*norms)
            relative = absolute / max(1.0, norm) if norm < math.inf else math.nan
            out.append(Residual(label, gamma, tau, absolute, relative, left + abs(factor) * right))
        if all(math.isfinite(r.relative) for r in out):
            return out
    except (OverflowError, ZeroDivisionError):  # |x| of a complex x, or z = LAMBDA w / u at u = 0
        pass
    raise ValueError(f"the rank-{m} law of {label} leaves the float64 range |x| < 2^1024 on this sample plan")


def _completion_values(form, precision):
    """The ``Evaluation``s of fhat_0..fhat_d of ``form`` at a point, from its completion at ``precision``."""
    return lambda tau: _evaluations(completion(form, precision).coeffs, tau)


def check_scalar(evaluator, weight, plan, label="scalar form"):
    """Residuals of f(gamma tau) = j^weight f(tau) over the plan: the rank-0 law of one component."""
    return _check_law(lambda tau: [_call_evaluator(evaluator, tau)], weight, 0, plan, label)


def check_quasimodular(form, plan, label=None):
    """Residuals of the depth-d law f(gamma tau) = sum_r j^(k-r) (c LAMBDA)^r fhat_r(tau)."""
    return _check_law(_completion_values(form, plan.precision), form.weight, 0, plan,
                      str(form) if label is None else label, periodic=True)


def check_vv(form, plan, label=None):
    """Residuals of F(gamma tau) = j^(k-m) Sym^m(gamma) F(tau) in the Euclidean norm."""
    return _check_law(_completion_values(form.source, plan.precision), form.weight_label, form.m, plan,
                      str(form) if label is None else label, periodic=True)
