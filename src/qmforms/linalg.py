"""Exact linear algebra over Q for integer matrices: the rows are eliminated
modulo a prime near 2^61 (the first of ``PRIMES`` that certifies the rank)
to find pivots; the square pivot system is solved by a Newton-lifted
inverse modulo p^(2^k) and rational reconstruction (Dixon, Numer. Math. 40,
1982; von zur Gathen and Gerhard, *Modern Computer Algebra*, ch. 5).  Every
answer is checked exactly in integers, so a prime dividing a minor costs the
next prime, never a wrong result.  A right-hand side may hold Fractions; the
matrix's rows are ints, with the denominators cleared by the caller.

The factorization depends on the matrix alone, so ``solve_unique`` keeps it
(``_factor``, at most ``CACHE_KEYS`` matrices, the least recently used
dropped first): the certified pivot rows, the prime and the pivot minor's
inverse modulo it.  Solving the same matrix again only lifts the new
right-hand side and checks it on every row.
"""

from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm
from operator import mul

from .qseries import CACHE_KEYS

#: the primes tried in turn, fixed so that every run is reproducible
PRIMES = tuple(2 ** 61 - d for d in (1, 31, 45, 229, 259, 283, 339, 391))


class UnderdeterminedSystem(ValueError):
    """The coefficient matrix does not have full column rank."""


class InconsistentSystem(ValueError):
    """The right-hand side is not in the column span."""


def _scaled_row(row):
    """``(scale, row times scale as ints)`` for the least common denominator
    of ``row``'s entries, ints or Fractions; ``(1, row)`` itself when all its
    entries are ints."""
    if all(type(x) is int for x in row):
        return 1, row
    # unpack a set, not a generator: a tuple grown by resizing bypasses the tuple
    # free list when made but joins it when freed, and peak RSS grows with it
    scale = lcm(*{x.denominator for x in row})
    if scale == 1:
        return 1, [x.numerator for x in row]
    return scale, [x.numerator * (scale // x.denominator) for x in row]


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


def _square_solve(a, columns, p, c=None):
    """One ``(numerators, denominator)`` solving a x = b exactly per b in
    ``columns``, for a square integer matrix ``a`` invertible modulo p, with
    ``c`` its inverse modulo p if already known.  The inverse C modulo
    M = p^(2^k) gives x modulo M and, by one correction step, modulo M^2; a
    candidate is kept once a x = b holds exactly.  Otherwise
    C <- C (2I - a C) = C - M C (a C - I) / M, and M is squared."""
    if c is None:
        c = _inverse(a, p)
    modulus, solutions = p, [None] * len(columns)
    while True:
        square = modulus * modulus
        for k, b in enumerate(columns):
            if solutions[k] is None:
                x = [_dot(row, b) % modulus for row in c]
                residual = [(y - _dot(row, x)) // modulus for row, y in zip(a, b)]
                x = [y + modulus * (_dot(row, residual) % modulus) for y, row in zip(x, c)]
                for nums, den in _candidates(x, square):
                    if all(_dot(row, nums) == den * y for row, y in zip(a, b)):
                        solutions[k] = nums, den
                        break
        if all(solutions):
            return solutions
        error = [[(_dot(row, col) % square - (i == j)) // modulus for j, col in enumerate(zip(*c))]
                 for i, row in enumerate(a)]
        step = [[_dot(row, col) % modulus for col in zip(*error)] for row in c]
        c = [[(x - modulus * y) % square for x, y in zip(u, v)] for u, v in zip(c, step)]
        modulus = square


def _certified_pivots(rows, ncols):
    """``(pivots, p)`` from ``_eliminate(rows, ncols, p)`` at the first prime
    p whose pivot count r is the exact rank of the first ``ncols`` columns.
    r is exact when full; otherwise each other row, written as a combination
    of the pivot rows by a square solve on the pivot minor and checked
    exactly in those columns, proves rank <= r, and a failed check moves on
    to the next prime."""
    for p in PRIMES:
        pivots = _eliminate(rows, ncols, p)
        if len(pivots) == min(len(rows), ncols):
            return pivots, p
        used = {i for i, _, _ in pivots}
        others = [row for i, row in enumerate(rows) if i not in used]
        basis = [[rows[i][j] for i, _, _ in pivots] for j in range(ncols)]
        solutions = _square_solve([basis[c] for _, c, _ in pivots],
                                  [[row[c] for _, c, _ in pivots] for row in others], p)
        if all(_dot(nums, col) == den * x for row, (nums, den) in zip(others, solutions)
               for x, col in zip(row, basis)):
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
    """The unique x with M x = rhs as Fractions, M a list of rows of ints and
    rhs of ints or Fractions, from the pivot rows' square system, checked on
    every row in integers.  Raises ``UnderdeterminedSystem`` if M lacks full
    column rank and ``InconsistentSystem`` if no solution exists."""
    if len(rows) != len(rhs):
        raise ValueError("matrix and right-hand side sizes differ")
    if not rows:
        raise UnderdeterminedSystem("empty system")
    pivots, p, inverse = _factor(tuple(map(tuple, rows)))
    if inverse is None:
        raise UnderdeterminedSystem(f"rank {len(pivots)} < {len(rows[0])} unknowns at this precision")
    # clearing the denominators of rhs scales x alike
    scale, rhs = _scaled_row(rhs)
    [(nums, den)] = _square_solve([rows[i] for i in pivots], [[rhs[i] for i in pivots]], p, inverse)
    # the pivot system's solution is unique, so one failed row proves inconsistency
    if any(_dot(row, nums) != den * y for row, y in zip(rows, rhs)):
        raise InconsistentSystem("no exact solution")
    return [Fraction(n, den * scale) for n in nums]
