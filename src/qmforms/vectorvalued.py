"""Vector-valued modular forms with the symmetric-power representation.

A rank parameter m fixes the representation Sym^m of the standard action on
column vectors; the representation space has the basis e1^(m-i) e2^i for
i = 0..m.  A ``VectorValuedForm`` wraps a quasi-modular source f of weight k
and depth <= m; the vector-valued object of weight k - m is

    F(tau) = sum_r f_r(tau) (tau, 1)^(m-r) (1, 0)^r,

with true components f_r = LAMBDA^r fhat_r.  All other bases (the
holomorphic-weight components, the w-basis) are derived views of the source,
so every conversion is exact.
"""

from itertools import groupby
from math import comb

from . import linalg
from .almostholo import _component_values, _graded_weight, _lowered, completion
from .qseries import DEFAULT_PRECISION, LAMBDA, _natural, _powers, _weighted_value
from .quasimodular import E2, QuasiModularForm, _candidate_keys, _monomial_series, monomial

_set = object.__setattr__


class GroupElement:
    """An immutable integer matrix [[a, b], [c, d]] of determinant one."""

    __slots__ = ("a", "b", "c", "d", "_hash")

    def __init__(self, a, b, c, d):
        if any(type(x) is not int for x in (a, b, c, d)):
            raise ValueError(f"entries of [[{a}, {b}], [{c}, {d}]] must be integers")
        if a * d - b * c != 1:
            raise ValueError(f"determinant of [[{a}, {b}], [{c}, {d}]] must be 1")
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)
        _set(self, "d", d)
        # kept: every plan table is keyed by a tuple of elements, which CPython re-hashes on each lookup
        _set(self, "_hash", hash((a, b, c, d)))

    def __setattr__(self, name, *value):
        raise AttributeError(f"GroupElement is immutable: cannot set or delete '{name}'")

    __delattr__ = __setattr__

    def _key(self):
        return (self.a, self.b, self.c, self.d)

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, GroupElement) else NotImplemented

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"GroupElement(a={self.a!r}, b={self.b!r}, c={self.c!r}, d={self.d!r})"

    def act(self, tau):
        """Moebius action (a*tau + b)/(c*tau + d)."""
        return (self.a * tau + self.b) / (self.c * tau + self.d)

    def j(self, tau):
        """Factor of automorphy c*tau + d."""
        return self.c * tau + self.d

    def __mul__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return GroupElement(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self):
        return GroupElement(self.d, -self.b, -self.c, self.a)

    def __str__(self):
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


IDENTITY = GroupElement(1, 0, 0, 1)
T = GroupElement(1, 1, 0, 1)
S = GroupElement(0, -1, 1, 0)


def sym_matrix(gamma, m):
    """Integer matrix of Sym^m(gamma) on the basis e1^(m-i) e2^i.

    gamma sends e1 to a*e1 + c*e2 and e2 to b*e1 + d*e2; the matrix is
    exactly multiplicative: sym_matrix(g*h) = sym_matrix(g) @ sym_matrix(h).
    Column i holds the coefficients of (a + c x)^(m-i) (b + d x)^i in x, for e2.
    """
    columns = []
    for i in range(_natural(m, "the symmetric power m") + 1):
        column = [1] + [0] * m
        for u, v in [(gamma.a, gamma.c)] * (m - i) + [(gamma.b, gamma.d)] * i:
            column = [u * x + v * y for x, y in zip(column, [0] + column)]
        columns.append(column)
    return [list(row) for row in zip(*columns)]


class VectorValuedForm:
    """A rank-(m+1) modular object built from a quasi-modular source."""

    __slots__ = ("source", "m", "weight_label")

    def __init__(self, source, m, weight_label=None):
        _natural(m, "the rank parameter m")
        if source.depth > m:
            raise ValueError(f"source depth {source.depth} exceeds the rank parameter m={m}")
        if weight_label is None:
            weight_label = source.weight
        elif not source.is_zero and weight_label != source.weight:
            raise ValueError(f"weight label {weight_label} contradicts the source weight {source.weight}")
        self.source = source
        self.m = m
        self.weight_label = _natural(weight_label, "weight label", even=True)

    @property
    def weight(self):
        """The weight of the vector-valued transformation law: k - m."""
        return self.weight_label - self.m

    @property
    def depth(self):
        return self.source.depth

    def __eq__(self, other):
        return (
            isinstance(other, VectorValuedForm)
            and self.m == other.m
            and self.weight_label == other.weight_label
            and self.source == other.source
        )

    def __hash__(self):
        return hash((self.m, self.weight_label, self.source))

    def __mul__(self, other):
        if not isinstance(other, VectorValuedForm):
            return NotImplemented
        return vv_product(self, other)

    def evaluate(self, tau, precision=DEFAULT_PRECISION):
        """One ``Evaluation`` per component in the basis e1^(m-i) e2^i.

        Component i is sum_r LAMBDA^r fhat_r(tau) binom(m-r, i) tau^(m-r-i)
        over r = 0..min(depth, m-i), from (tau, 1) = tau*e1 + e2 and (1, 0) = e1.
        """
        tau, depth, m = complex(tau), self.depth, self.m
        values = _component_values(self.source, precision, tau)
        lam_powers = _powers(LAMBDA, depth)
        # by **: repeated multiplication (_powers) rounds differently
        tau_powers = [tau ** e for e in range(m + 1)]
        return tuple(_weighted_value([lam_powers[r] * comb(m - r, i) * tau_powers[m - r - i]
                                      for r in range(min(depth, m - i) + 1)], values) for i in range(m + 1))

    def __str__(self):
        return f"VV(m={self.m}, k={self.weight_label}, source={self.source})"

    __repr__ = __str__


def from_quasimodular(form, m, weight_label=None):
    """Wrap a quasi-modular form of depth <= m as a rank-(m+1) object."""
    return VectorValuedForm(form, m, weight_label)


def holwt_component(form, s, precision=DEFAULT_PRECISION):
    """The weight-(k-2s) almost holomorphic component of the expansion in
    the basis (tau,1)^(m-s) (conj tau, 1)^s; zero beyond the depth.  It is
    the completion of fhat_s, delta^s/s! of the source's completion, with
    Yhat^t coefficient binom(s + t, t) qexp(fhat_(s+t))."""
    if _natural(s, "component index") > form.m:
        raise ValueError(f"component index {s} outside 0..{form.m}")
    return _lowered(completion(form.source, precision), s)


def embed_i(form):
    """Multiplication by (tau, 1): same source, rank parameter m + 1."""
    return VectorValuedForm(form.source, form.m + 1, form.weight_label)


def image_test(form):
    """Whether the form is in the image of the rank-raising embedding,
    i.e. the top holomorphic-weight component vanishes."""
    if form.m == 0:
        raise ValueError("the image test needs m >= 1")
    return form.source.depth <= form.m - 1


def w_decompose(form):
    """Coefficients (g_0, ..., g_m) of the source as a polynomial in E2.

    Each g_t is modular of weight k - 2t; in the basis built from the
    weight-one vector w these are exactly the expansion coefficients.
    """
    return [form.source.e2_coefficient(t) for t in range(form.m + 1)]


def w_compose(parts, m=None, weight_label=None):
    """Inverse of ``w_decompose``: assemble sum_t g_t E2^t at rank m."""
    if weight_label is not None:
        _natural(weight_label, "weight label", even=True)
    parts = list(parts)
    if not parts:
        raise ValueError("need at least one w-basis part, got an empty list")
    m = len(parts) - 1 if m is None else _natural(m, "the rank parameter m")
    if len(parts) != m + 1:
        raise ValueError(f"need m + 1 = {m + 1} parts, got {len(parts)}")
    for t, part in enumerate(parts):
        if part.depth > 0:
            raise ValueError(f"part {t} has depth {part.depth}; w-basis parts must be modular")
    k = _graded_weight(parts, weight_label)
    source = sum((part * E2 ** t for t, part in enumerate(parts)), QuasiModularForm(0, {}))
    return VectorValuedForm(source, m, 0 if k is None else k)


def iota_lift(modular_form, p, m):
    """Lift of a weight-(k-2p) modular form to filtration degree p at rank m
    (source g * E2^p)."""
    if _natural(p, "filtration degree p") > _natural(m, "the rank parameter m"):
        raise ValueError(f"filtration degree p={p} exceeds the rank parameter m={m}")
    if modular_form.depth > 0:
        raise ValueError("iota_lift needs a modular (depth-0) input")
    return VectorValuedForm(modular_form * E2 ** p, m)


def vv_product(left, right):
    """Product in the direct limit: sources multiply, ranks add."""
    return VectorValuedForm(
        left.source * right.source,
        left.m + right.m,
        left.weight_label + right.weight_label,
    )


def _w_basis(weight_label, m):
    """The keys (t, a, b) of the w-basis forms E2^t E4^a E6^b of weight k, slot t <= min(m, k/2)
    first: the candidates of ``recognize`` at depth bound m.  A slot t holds weight k - 2t."""
    _natural(weight_label, "weight label", even=True)
    _natural(m, "the rank parameter m")
    return _candidate_keys(weight_label, m)


def dim_vv(weight_label, m):
    """Dimension of the holomorphic forms of rank m and weight k - m:
    the sum of the scalar dimensions in weights k - 2t for the slots
    t <= min(m, k/2)."""
    return len(_w_basis(weight_label, m))


def basis_vv(weight_label, m):
    """The w-basis forms: lifts of the monomial bases in each filtration
    slot t <= min(m, k/2)."""
    return [iota_lift(monomial(0, a, b), t, m) for t, a, b in _w_basis(weight_label, m)]


def certify_dim_vv(weight_label, m):
    """Sum over the slots t <= min(m, k/2) of the exact rank of the slot-t
    w-basis forms' Yhat^t completion coefficients.

    Equality with ``dim_vv`` certifies the dimension formula.  The slot-t form
    E2^t E4^a E6^b has Yhat^t coefficient qexp(E4^a E6^b), which has integer
    coefficients, and a lower slot's form has no Yhat^t part.  So the stacked
    matrix of all components is block-triangular by slot, its rank at least
    the sum of the block ranks, and a sum equal to its row count ``dim_vv``
    proves full row rank.  No block's rank exceeds its row count, so equality
    at m certifies every m' <= m too.  By Sturm's bound block t, of weight
    k - 2t, needs precision (k - 2t) // 12 + 1.
    """
    return sum(
        linalg.rank([_monomial_series(0, a, b, (weight_label - 2 * t) // 12 + 1).numerators for _, a, b in keys])
        for t, keys in groupby(_w_basis(weight_label, m), lambda key: key[0])
    )
