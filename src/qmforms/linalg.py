"""Exact linear algebra over Q for integer matrices and right-hand sides:
the rows are eliminated modulo a prime near 2^61 (the first of ``PRIMES``
that certifies the rank) to find pivots, and the square pivot system is
solved by Dixon's p-adic lifting with the minor's inverse modulo p and
rational reconstruction (Dixon, Numer. Math. 40, 1982; von zur Gathen and
Gerhard, *Modern Computer Algebra*, ch. 5).  Every answer is checked exactly
in integers, so a prime dividing a minor costs the next prime, never a wrong
result.  Integers go in and come out: callers clear denominators (a Fraction
in the matrix or the right-hand side is a ``TypeError``), and a solution is
integer numerators over one positive denominator.

The factorization depends on the matrix alone, so ``solve_unique`` keeps it
(``_factor``, at most ``CACHE_KEYS`` matrices, the least recently used
dropped first): the certified pivot rows, the prime and the pivot minor's
inverse modulo it.  Solving the same matrix again only lifts the new
right-hand side and checks it on every row.
"""

from functools import lru_cache
from math import isqrt
from operator import mul

from .qseries import CACHE_KEYS

#: the primes tried in turn, fixed so that every run is reproducible
PRIMES = tuple(2 ** 61 - d for d in (1, 31, 45, 229, 259, 283, 339, 391))


class UnderdeterminedSystem(ValueError):
    """The coefficient matrix does not have full column rank."""


class InconsistentSystem(ValueError):
    """The right-hand side is not in the column span."""


def _dot(u, v):
    return sum(map(mul, u, v))


def _eliminate(rows, ncols, p):
    """``(row index, pivot column, reduced row)`` for the first ``ncols``
    rows independent modulo p, pivoting in the first ``ncols`` columns.  A
    reduced row is 1 at its pivot and 0 at every earlier pivot's column."""
    pivots = []
    for i, row in enumerate(rows):
        v = [x % p for x in row]
        for _, c, r in pivots:
            # reducing only the factor keeps entries below (1 + #pivots) p^2
            if f := v[c] % p:
                v = [x - f * y for x, y in zip(v, r)]
        c = next((c for c in range(ncols) if v[c] % p), None)
        if c is not None:
            inv = pow(v[c], -1, p)
            pivots.append((i, c, [x * inv % p for x in v]))
            if len(pivots) == ncols:
                break
    return pivots


def _candidates(residues, modulus):
    """Rationals congruent to ``residues``, as numerators over one common
    denominator: the least integers, then the rational reconstruction with
    both bounds sqrt(modulus / 2)."""
    yield [r - modulus if 2 * r > modulus else r for r in residues], 1
    bound, nums, den = isqrt(modulus // 2), [], 1
    for residue in residues:
        # half-extended Euclid on residue * den keeps later denominators small
        r0, r1, t0, t1 = modulus, residue * den % modulus, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        nums, den = [n * abs(t1) for n in nums] + [r1 if t1 > 0 else -r1], den * abs(t1)
    yield nums, den


def _inverse(a, p):
    """The inverse modulo p of a square integer matrix ``a`` invertible
    modulo p, as rows, by eliminating [a | I]."""
    n = len(a)
    rows = _eliminate([[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(a)], n, p)
    # a second pass, last pivot first, clears each pivot column everywhere else
    rows = _eliminate([r for _, _, r in reversed(rows)], n, p)
    return [r[n:] for _, _, r in sorted(rows, key=lambda pivot: pivot[1])]


def _lift(a, c, b, p):
    """``(numerators, denominator)`` with a x = b exactly, for a square
    integer matrix ``a``, its inverse ``c`` modulo p and an integer column
    ``b``: each digit d = c r mod p of the residual r, first b, sets
    r <- (r - a d) / p, and the candidates of x = sum p^i d_i are checked
    exactly after 2, 4, 8, ... digits.  As b - a x = p^i r, a zero residual
    ends the lift with x itself."""
    x, r, modulus, tries = [0] * len(a), b, 1, p * p
    while True:
        digit = [_dot(row, r) % p for row in c]
        x = [y + modulus * d for y, d in zip(x, digit)]
        modulus *= p
        if modulus == tries:
            for nums, den in _candidates(x, modulus):
                if all(_dot(row, nums) == den * y for row, y in zip(a, b)):
                    return nums, den
            tries *= tries
        r = [(y - _dot(row, digit)) // p for row, y in zip(a, r)]
        if not any(r):
            return x, 1


def _certified_pivots(rows, ncols):
    """``(pivots, p)`` from ``_eliminate(rows, ncols, p)`` at the first prime
    p whose pivot count r is the exact rank of the first ``ncols`` columns.
    r is exact when full; otherwise each other row, written as a combination
    of the pivot rows by a lift with the pivot minor's inverse and checked
    exactly in those columns, proves rank <= r, and a failed check moves on
    to the next prime."""
    for p in PRIMES:
        pivots = _eliminate(rows, ncols, p)
        if len(pivots) == min(len(rows), ncols):
            return pivots, p
        used = {i for i, _, _ in pivots}
        basis = [[rows[i][j] for i, _, _ in pivots] for j in range(ncols)]
        minor = [basis[c] for _, c, _ in pivots]
        inverse = _inverse(minor, p)
        for row in (row for i, row in enumerate(rows) if i not in used):
            nums, den = _lift(minor, inverse, [row[c] for _, c, _ in pivots], p)
            if any(_dot(nums, col) != den * x for x, col in zip(row, basis)):
                break
        else:
            return pivots, p
    raise ArithmeticError(f"every one of {len(PRIMES)} primes divides a minor")


def rank(rows):
    """Exact rank of a list of rows of ints."""
    return len(_certified_pivots(rows, len(rows[0]) if rows else 0)[0])


@lru_cache(maxsize=CACHE_KEYS)
def _factor(rows):
    """``(pivots, p, inverse)`` for the integer matrix ``rows`` (a tuple of
    tuples): the indices of the pivot rows of a certified pivot search, its
    prime and the pivot minor's inverse modulo p, ``None`` below full
    column rank."""
    ncols = len(rows[0])
    pivots, p = _certified_pivots(rows, ncols)
    pivots = tuple(i for i, _, _ in pivots)
    inverse = tuple(map(tuple, _inverse([rows[i] for i in pivots], p))) if len(pivots) == ncols else None
    return pivots, p, inverse


def solve_unique(rows, rhs):
    """The unique x with M x = rhs as ``(nums, den)``, x = nums / den with
    den > 0, for M a list of rows of ints and rhs a list of ints (else
    ``TypeError``): from the pivot rows' square system, checked on every row
    as M nums = den rhs in integers.  Raises ``UnderdeterminedSystem`` if M
    lacks full column rank and ``InconsistentSystem`` if no solution exists."""
    if len(rows) != len(rhs):
        raise ValueError("matrix and right-hand side sizes differ")
    # a Fraction or float would pass // and % and never stop lifting
    if any(type(y) is not int for y in rhs):
        raise TypeError("the right-hand side must hold ints; clear its denominators first")
    if not rows:
        raise UnderdeterminedSystem("empty system")
    pivots, p, inverse = _factor(tuple(map(tuple, rows)))
    if inverse is None:
        raise UnderdeterminedSystem(f"rank {len(pivots)} < {len(rows[0])} unknowns at this precision")
    nums, den = _lift([rows[i] for i in pivots], inverse, [rhs[i] for i in pivots], p)
    # the pivot system's solution is unique, so one failed row proves inconsistency
    if any(_dot(row, nums) != den * y for row, y in zip(rows, rhs)):
        raise InconsistentSystem("no exact solution")
    return nums, den
