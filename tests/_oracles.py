"""Independent oracles used by the tests.

Everything here is deliberately computed without the package's own series
or polynomial arithmetic: divisor sums by trial division, the discriminant
by the eta product, high-precision evaluation by mpmath, ranks by sympy
(or by elimination modulo a prime that none of the package's primes equal,
when that rank is full).
"""

import cmath
import math
from fractions import Fraction

import mpmath


def sigma(n, k):
    """Sum of k-th powers of the divisors of n, by trial division."""
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def eisenstein_by_divisors(weight, precision):
    """Coefficient list of E2/E4/E6 straight from the divisor sums."""
    factor = {2: -24, 4: 240, 6: -504}[weight]
    return [Fraction(1)] + [
        Fraction(factor) * sigma(n, weight - 1) for n in range(1, precision)
    ]


def mul_lists(a, b):
    """Cauchy product of coefficient lists, truncated to the shorter one."""
    n = min(len(a), len(b))
    out = [Fraction(0)] * n
    for i in range(n):
        if a[i]:
            for j in range(n - i):
                if b[j]:
                    out[i + j] += a[i] * b[j]
    return out


def convolution(a, b):
    """The int coefficients of a*b below q^len(a), by the schoolbook double loop."""
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def pow_list(a, exponent):
    out = [Fraction(1)] + [Fraction(0)] * (len(a) - 1)
    for _ in range(exponent):
        out = mul_lists(out, a)
    return out


def delta_by_eta(precision):
    """Discriminant coefficients via q * prod (1 - q^n)^24.

    The Euler product is expanded with the pentagonal-number theorem, a
    route independent of the Eisenstein series.
    """
    euler = [Fraction(0)] * precision
    euler[0] = Fraction(1)
    m = 1
    while True:
        p1 = m * (3 * m - 1) // 2
        p2 = m * (3 * m + 1) // 2
        if p1 >= precision and p2 >= precision:
            break
        sign = Fraction(-1 if m % 2 else 1)
        if p1 < precision:
            euler[p1] += sign
        if p2 < precision:
            euler[p2] += sign
        m += 1
    piece = pow_list(euler, 24)
    return [Fraction(0)] + piece[: precision - 1]


def mp_eval(coeffs, tau, dps=40):
    """High-precision evaluation of a truncated q-expansion."""
    with mpmath.workdps(dps):
        q = mpmath.e ** (2j * mpmath.pi * mpmath.mpmathify(tau))
        total = mpmath.mpc(0)
        qn = mpmath.mpc(1)
        for c in coeffs:
            if c:
                total += mpmath.mpf(c.numerator) / c.denominator * qn
            qn *= q
        return complex(total)


def ascending_complex_sum(coeffs, tau):
    """Double-precision value and tail estimate |q|^N / (1 - |q|) of a
    truncated q-expansion, summed as one complex multiply-add per nonzero
    coefficient in ascending n, with q^n by repeated multiplication: the
    rounding that the evaluator's separate real and imaginary sums keep."""
    q = cmath.exp(2j * math.pi * tau)
    total, qn = 0j, 1 + 0j
    for c in coeffs:
        if c:
            total += float(c) * qn
        qn *= q
    aq = abs(q)
    return total, aq ** len(coeffs) / (1.0 - aq)


def plain_float_sum(values):
    """Floats added one by one from 0.0, left to right, with no compensation
    (``sum`` of floats compensates from Python 3.12 on)."""
    total = 0.0
    for x in values:
        total += x
    return total


#: a prime that is not one of ``linalg.PRIMES`` (those lie near 2^61)
ORACLE_PRIME = 2 ** 31 - 1


def rank_mod(rows, p):
    """Rank modulo the prime p of a list of rows of ints, by Gaussian
    elimination: each row is reduced by the pivot rows before it."""
    pivots = []
    for row in rows:
        v = [x % p for x in row]
        for c, r in pivots:
            if f := v[c]:
                v = [(x - f * y) % p for x, y in zip(v, r)]
        c = next((c for c, x in enumerate(v) if x), None)
        if c is not None:
            inverse = pow(v[c], -1, p)
            pivots.append((c, [x * inverse % p for x in v]))
    return len(pivots)


def exact_rank(rows):
    """Rank over Q of rows of ints or Fractions (independent of the package
    linear algebra).  Each row is scaled to integers; a full rank modulo
    ``ORACLE_PRIME`` is the rank over Q (a minor nonzero modulo p is nonzero),
    and sympy decides every other case."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    if not rows:
        return 0
    shape = (len(rows), len(rows[0]))
    scaled = []
    for row in rows:
        den = math.lcm(*(x.denominator for x in row))
        scaled.append([x.numerator * (den // x.denominator) for x in row])
    if rank_mod(scaled, ORACLE_PRIME) == min(shape):
        return min(shape)
    return DomainMatrix([[QQ(x) for x in row] for row in scaled], shape, QQ).rank()


def exact_solve(rows, rhs):
    """The unique solution of M x = rhs as Fractions via sympy, or None when
    the system is inconsistent (independent of the package linear algebra)."""
    from sympy import Matrix, Rational

    def rational(x):
        return Rational(x.numerator, x.denominator)

    matrix = Matrix([[rational(x) for x in row] for row in rows])
    try:
        solution, params = matrix.gauss_jordan_solve(Matrix([rational(b) for b in rhs]))
    except ValueError:
        return None
    if params:
        raise ValueError("the system has no unique solution")
    return [Fraction(int(v.p), int(v.q)) for v in solution]


def solved(rows, rhs):
    """``linalg.solve_unique(rows, rhs)`` as a list of Fractions, after checking
    its ``(nums, den)`` in plain integers: den is a positive int, nums one int
    per column, and M nums = den rhs on every row."""
    from qmforms.linalg import solve_unique

    nums, den = solve_unique(rows, rhs)
    assert type(den) is int and den > 0
    assert len(nums) == len(rows[0]) and all(type(n) is int for n in nums)
    assert all(sum(a * n for a, n in zip(row, nums)) == den * y for row, y in zip(rows, rhs))
    return [Fraction(n, den) for n in nums]


def kron(a, b):
    """Kronecker product of integer matrices as nested lists."""
    return [
        [a_ij * b_kl for a_ij in row_a for b_kl in row_b]
        for row_a in a
        for row_b in b
    ]


def det_one_elements(bound):
    """Every ``GroupElement`` with entries in -bound..bound."""
    from qmforms import GroupElement

    span = range(-bound, bound + 1)
    return [GroupElement(a, b, c, d) for a in span for b in span for c in span for d in span if a * d - b * c == 1]


def sym_power_by_tensors(gamma, m):
    """Matrix of the m-th symmetric power built from the m-fold tensor power.

    Basis e1^(m-i) e2^i; the representative tensor of index i has its last i
    slots equal to e2, and the tensor image is projected by counting e2's.
    """
    matrix2 = [[gamma.a, gamma.b], [gamma.c, gamma.d]]
    if m == 0:
        return [[1]]
    power = matrix2
    for _ in range(m - 1):
        power = kron(power, matrix2)
    out = [[0] * (m + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        column = sum(1 << bit for bit in range(i))  # last i slots are e2
        for row_index in range(1 << m):
            out[bin(row_index).count("1")][i] += power[row_index][column]
    return out


def all_monomials(weight, max_depth=None):
    """All exponent triples (a, b, c) with 2a + 4b + 6c = weight."""
    if max_depth is None:
        max_depth = weight // 2
    keys = []
    for a in range(min(max_depth, weight // 2) + 1):
        rest = weight - 2 * a
        for b in range(rest // 4 + 1):
            if (rest - 4 * b) % 6 == 0:
                keys.append((a, b, (rest - 4 * b) // 6))
    return keys


def random_form(rng, max_weight=24, max_depth=6, max_terms=4):
    """A random nonzero quasi-modular form with small rational coefficients."""
    from qmforms import QuasiModularForm

    while True:
        weight = 2 * rng.randint(1, max_weight // 2)
        keys = all_monomials(weight, max_depth)
        if not keys:
            continue
        chosen = rng.sample(keys, k=min(len(keys), rng.randint(1, max_terms)))
        monomials = {}
        for key in chosen:
            numerator = rng.randint(-9, 9)
            if numerator == 0:
                continue
            monomials[key] = Fraction(numerator, rng.choice([1, 1, 1, 2, 3]))
        if monomials:
            return QuasiModularForm(weight, monomials)
