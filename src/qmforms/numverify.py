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
samples and their points, and each law's plan side (its rank and weight
limits, its points and its rows) is one table, ``_law_table``, built once per
plan, m and kind of values.  Each distinct point of the sample is evaluated
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
def _law_table(taus, gammas, m, periodic):
    """The half of the rank-m law that no form enters, built once per plan.  A rank whose outer factors
    |u|^m <= (1 + |gamma tau|)^m could reach 2^1024 is refused before any point w is built, and the
    refusal not kept.  Otherwise the table holds:
    - the weights (bottom, top) whose factor j(gamma, tau)^weight stays in float64 at every sample,
      |weight ln|j|| <= 1023 ln 2;
    - the distinct points whose values the law reads, base points first.  The left side of a sample
      is read at gamma tau itself, or for ``periodic`` values (q-series, 1-periodic) at its
      ``_coset_image``, which T^n gamma shares, so on ``default_plan()`` 12 points serve the 18
      samples, not 21;
    - per sample (gamma, tau): gamma, tau, the index of its left point, that of tau, and one row
      (z, z', outer, |z|, |z'|, |outer|) at each point w of the law, the (m+1)-th roots of unity
      (w = 0 at m = 0), with u = gamma tau * w + 1, z = LAMBDA w / u, z' = LAMBDA (a w + c) / (j u)
      and outer = u^m / sqrt(m + 1).  A plan with a point where u = 0 has no samples (None)."""
    samples = list(product(gammas, taus))
    images = [gamma.act(tau) for gamma, tau in samples]
    if m > (top := math.ceil(1024 * math.log(2) / math.log(max(1 + abs(image) for image in images))) - 1):
        raise ValueError(f"rank {m} is above {top}, the largest rank this sample plan can check")
    logs = [math.log(abs(gamma.j(tau))) for gamma, tau in samples]
    span = 1023 * math.log(2)
    weights = (-math.floor(span / -min(logs)) if min(logs) < 0 else -math.inf,
               math.floor(span / max(logs)) if max(logs) > 0 else math.inf)
    lefts = [_coset_image(gamma, tau) for gamma, tau in samples] if periodic else images
    index = {point: i for i, point in enumerate(dict.fromkeys([*taus, *lefts]))}
    ws = [cmath.rect(1.0, 2 * math.pi * i / (m + 1)) for i in range(m + 1)] if m else [0j]
    table = []
    try:
        for (gamma, tau), image, left in zip(samples, images, lefts):
            rows = []
            for w in ws:
                u = image * w + 1
                z, z2 = LAMBDA * w / u, LAMBDA * (gamma.a * w + gamma.c) / (gamma.j(tau) * u)
                outer = u ** m / math.sqrt(m + 1)
                rows.append((z, z2, outer, abs(z), abs(z2), abs(outer)))
            table.append((gamma, tau, index[left], index[tau], tuple(rows)))
    except ZeroDivisionError:  # z = LAMBDA w / u at u = 0
        return weights, tuple(index), None
    return weights, tuple(index), tuple(table)


def _check_law(values, weight, m, plan, label, periodic=False):
    """Residuals of the rank-m law at weight k of the form whose fhat_0..fhat_d at a point ``values``
    gives as ``Evaluation``s of one length: at each row of the plan's ``_law_table``, lhs = outer *
    sum_r fhat_r(gamma tau) z^r against rhs = j^k (outer * sum_r fhat_r(tau) z'^r), each sum by
    Horner's rule from the top.  The residual is the Euclidean norm of lhs - rhs over max(1, ||rhs||).
    The fhat_r share one tail, so a side's tail at a point is |outer| sum_r |z|^r tail, and the
    truncation error is the left tails plus |j^k| times the right ones, each added left to right
    (``sum`` of floats compensates).  The rank is refused first (by the table), then a weight outside
    the table's range, then a law that leaves float64; ``values`` is called once per distinct point
    of the table (the coset images for ``periodic`` values), and only after the first two."""
    (bottom, top), points, samples = _law_table(plan.taus, plan.gammas, m, periodic)
    if not bottom <= weight <= top:
        raise ValueError(f"weight {weight} is outside {bottom}..{top}, the weights this sample plan can check")
    if samples is not None:
        evaluated = [values(point) for point in points]
        out = []
        try:
            for gamma, tau, image, base, rows in samples:
                lhs, rhs, factor = evaluated[image], evaluated[base], gamma.j(tau) ** weight
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
        except OverflowError:  # |x| of a complex x
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
