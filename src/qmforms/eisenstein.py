"""Level-one Eisenstein series, the discriminant, and dimension counts.

Conventions: E2 = 1 - 24 sum sigma_1(n) q^n, E4 = 1 + 240 sum sigma_3(n) q^n,
E6 = 1 - 504 sum sigma_5(n) q^n, Delta = (E4^3 - E6^2)/1728, whose series
``delta_series`` reads off the form ``quasimodular.DELTA``.  Dimensions of
the classical spaces M_k are obtained by counting monomials E4^a E6^b, so the
dimension and the constructed basis can never disagree.
"""

from .qseries import DEFAULT_PRECISION, QSeries, _natural, _prefix_cache

_EISENSTEIN_FACTOR = {2: -24, 4: 240, 6: -504}


@_prefix_cache
def eisenstein_series(weight, precision=DEFAULT_PRECISION, /):
    """The q-expansion of E2, E4 or E6 to the requested precision."""
    if weight not in _EISENSTEIN_FACTOR:
        raise ValueError(f"no Eisenstein generator of weight {weight}")
    factor = _EISENSTEIN_FACTOR[weight]
    coeffs = [0] * precision
    for d in range(1, precision):
        term = factor * d ** (weight - 1)  # d contributes to sigma(n) for each multiple n
        for n in range(d, precision, d):
            coeffs[n] += term
    coeffs[0] = 1
    return QSeries._from_ints(coeffs)


def delta_series(precision=DEFAULT_PRECISION):
    """The discriminant cusp form (E4^3 - E6^2)/1728: the expansion of ``DELTA``."""
    from .quasimodular import DELTA  # quasimodular imports this module

    return DELTA.qexpansion(precision)


def monomial_basis(weight):
    """All (a, b) with 4a + 6b = weight, in lexicographic order.

    The monomials E4^a E6^b form a basis of the weight-``weight`` modular
    forms for the full modular group.
    """
    if _natural(weight, "weight") % 2:
        return []
    basis = []
    for a in range(weight // 4 + 1):
        rest = weight - 4 * a
        if rest % 6 == 0:
            basis.append((a, rest // 6))
    return basis


def dim_modular(weight):
    """Dimension of the modular forms of the given weight (level one)."""
    return len(monomial_basis(weight))


def dim_cusp(weight):
    """Dimension of the cusp forms: one less than a nonzero dim_modular, as
    each nonzero space holds one form (E_k, or a constant) that is no cusp form."""
    return max(dim_modular(weight) - 1, 0)
