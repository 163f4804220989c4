import math
import random
import time
from fractions import Fraction

import pytest

from qmforms import linalg
from qmforms.linalg import PRIMES, InconsistentSystem, UnderdeterminedSystem, rank, solve_unique
from qmforms.qseries import CACHE_KEYS

from _oracles import exact_rank, exact_solve, solved


@pytest.fixture(autouse=True)
def cold_factor_cache():
    """Start each test with ``_factor`` empty: a matrix that an earlier test
    solved would be served without any elimination."""
    linalg._factor.cache_clear()


def integral(rhs, x):
    """``rhs`` as ints, times the least common denominator of its entries,
    and the solution ``x`` times the same factor."""
    scale = math.lcm(*(Fraction(y).denominator for y in rhs))
    return [int(scale * y) for y in rhs], [scale * v for v in x]


def random_matrix(rng, nrows, ncols, rank_bound=None):
    """Small-entry integer matrix; with ``rank_bound`` a product of two
    random factors, so its rank is at most that bound."""
    def entries(n, m):
        return [[rng.randint(-12, 12) for _ in range(m)] for _ in range(n)]

    if rank_bound is None:
        return entries(nrows, ncols)
    left, right = entries(nrows, rank_bound), entries(rank_bound, ncols)
    return [
        [sum(left[i][t] * right[t][j] for t in range(rank_bound)) for j in range(ncols)]
        for i in range(nrows)
    ]


class TestRank:
    @pytest.mark.parametrize(
        "nrows, ncols, rank_bound",
        [(9, 4, None), (4, 9, None), (7, 7, None), (8, 6, 3), (5, 9, 2), (6, 6, 1)],
    )
    def test_matches_sympy(self, nrows, ncols, rank_bound):
        rng = random.Random(nrows * 100 + ncols * 10 + (rank_bound or 0))
        for _ in range(5):
            rows = random_matrix(rng, nrows, ncols, rank_bound)
            assert rank(rows) == exact_rank(rows)

    def test_all_zero(self):
        assert rank([[0] * 5 for _ in range(3)]) == 0

    def test_empty(self):
        assert rank([]) == 0
        assert rank([[], []]) == 0

    def test_input_is_not_modified(self):
        rows = [[2, 4], [1, 3]]
        assert rank(rows) == 2
        assert rows == [[2, 4], [1, 3]]

    def test_integer_rows_are_used_as_they_are(self, monkeypatch):
        rows = [[2, 4, 6], [1, 3, 5]]
        assert rank(rows) == 2 and rows == [[2, 4, 6], [1, 3, 5]]
        # callers clear the denominators of their rows: a Fraction row is refused
        with pytest.raises(TypeError):
            rank([[Fraction(1, 2), 3], [1, 1]])
        with pytest.raises(TypeError):
            solve_unique([[Fraction(1, 2)], [1]], [1, 2])

        def lift(*args):
            raise AssertionError("lifted a right-hand side that is not all ints")

        # and so do the right-hand sides: // and % would take a Fraction or a
        # float and never stop lifting, so it is refused before any lift
        monkeypatch.setattr(linalg, "_lift", lift)
        for entry in (Fraction(1, 2), Fraction(4, 2), 2.0, True):
            with pytest.raises(TypeError):
                solve_unique([[1, 0], [0, 1], [1, 1]], [1, entry, 3])


class TestSolveUnique:
    def test_unique_solution(self):
        rng = random.Random(5)
        rows = random_matrix(rng, 9, 5)
        x = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(5)]
        rhs, x = integral([sum(a * b for a, b in zip(row, x)) for row in rows], x)
        assert solved(rows, rhs) == x

    def test_square_integer_system(self):
        assert solved([[2, 1], [1, 3]], [3, 5]) == [Fraction(4, 5), Fraction(7, 5)]

    def test_answer_is_integers_over_a_positive_denominator(self):
        # x = (-1/2, 1/3): the sign stays on the numerator
        rows, rhs = [[2, 0], [0, 3], [2, 3], [-6, 6]], [-1, 1, 0, 5]
        nums, den = solve_unique(rows, rhs)
        assert all(type(n) is int for n in [*nums, den]) and den > 0
        assert [sum(a * n for a, n in zip(row, nums)) for row in rows] == [den * y for y in rhs]
        assert solved(rows, rhs) == [Fraction(-1, 2), Fraction(1, 3)]

    def test_errors_are_unchanged(self):
        assert issubclass(UnderdeterminedSystem, ValueError) and issubclass(InconsistentSystem, ValueError)
        with pytest.raises(UnderdeterminedSystem, match=r"^rank 1 < 2 unknowns at this precision$"):
            solve_unique([[1, 2], [2, 4]], [1, 2])
        with pytest.raises(InconsistentSystem, match=r"^no exact solution$"):
            solve_unique([[1, 0], [0, 1], [1, 1]], [1, 1, 3])

    def test_rank_deficient_is_underdetermined(self):
        rows = random_matrix(random.Random(6), 6, 4, rank_bound=3)
        with pytest.raises(UnderdeterminedSystem):
            solve_unique(rows, [0] * 6)

    def test_underdetermined_system_is_eliminated_once(self, monkeypatch):
        calls = []
        eliminate = linalg._eliminate

        def recording(rows, ncols, p):
            calls.append(len(rows))
            return eliminate(rows, ncols, p)

        monkeypatch.setattr(linalg, "_eliminate", recording)
        rows = random_matrix(random.Random(6), 6, 4, rank_bound=3)
        with pytest.raises(UnderdeterminedSystem, match="rank 3 < 4"):
            solve_unique(rows, [0] * 6)
        # the square solves of the rank certificate eliminate only the 3x3 pivot minor
        assert calls.count(6) == 1

    def test_wide_is_underdetermined(self):
        with pytest.raises(UnderdeterminedSystem):
            solve_unique([[1, 2, 3]], [1])

    def test_empty_is_underdetermined(self):
        with pytest.raises(UnderdeterminedSystem):
            solve_unique([], [])

    def test_rhs_outside_span_is_inconsistent(self):
        with pytest.raises(InconsistentSystem):
            solve_unique([[1, 0], [0, 1], [1, 1]], [1, 1, 3])

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            solve_unique([[1, 0], [0, 1]], [1])


def big_system(rng, nrows, ncols, bits, cleared=False):
    """A random integer system ``(rows, x, rhs)`` with entries of about
    ``bits`` bits and its solution ``x``; with ``cleared`` each row is a row
    of rationals times their least common denominator, so its entries share
    large factors.  The first column is a multiple of the denominator of
    ``x[0]``, so the integer ``rhs`` leaves that denominator in ``x[0]``, as a
    rule, and the solve needs rational reconstruction."""
    def row():
        entries = [rng.randrange(-2 ** bits, 2 ** bits) for _ in range(ncols)]
        if not cleared:
            return entries
        dens = [rng.randrange(1, 2 ** 20) for _ in entries]
        scale = math.lcm(*dens)
        return [n * (scale // d) for n, d in zip(entries, dens)]

    rows = [row() for _ in range(nrows)]
    x = [Fraction(rng.randrange(-2 ** bits, 2 ** bits), rng.randrange(1, 2 ** 40))
         for _ in range(ncols)]
    for row in rows:
        row[0] *= x[0].denominator
    rhs, x = integral([sum(a * b for a, b in zip(row, x)) for row in rows], x)
    return rows, x, rhs


class TestSolveUniqueMatchesSympy:
    @pytest.mark.parametrize(
        "nrows, ncols, cleared", [(12, 6, False), (20, 9, False), (7, 7, False), (10, 5, True)]
    )
    def test_consistent_tall_system(self, nrows, ncols, cleared):
        rng = random.Random(nrows * 100 + ncols)
        for _ in range(3):
            rows, x, rhs = big_system(rng, nrows, ncols, 110, cleared)
            assert x[0].denominator > 1
            assert solved(rows, rhs) == exact_solve(rows, rhs) == x

    @pytest.mark.parametrize("nrows, ncols, cleared", [(12, 6, False), (10, 5, True)])
    def test_inconsistent_tall_system(self, nrows, ncols, cleared):
        rng = random.Random(nrows * 100 + ncols + 1)
        for row in range(nrows):
            rows, _, rhs = big_system(rng, nrows, ncols, 110, cleared)
            rhs[row] += 1
            assert exact_solve(rows, rhs) is None
            with pytest.raises(InconsistentSystem):
                solve_unique(rows, rhs)

    def test_ten_thousand_bit_numerator_in_under_a_second(self):
        rows, _, _ = big_system(random.Random(3), 10, 6, 30)
        rhs, x = ten_thousand_bit_system(rows)
        start = time.perf_counter()
        assert solved(rows, rhs) == x
        assert time.perf_counter() - start < 1.0

    def test_candidates_are_tried_after_2_4_8_digits(self, monkeypatch):
        moduli = []
        candidates = linalg._candidates

        def recording(residues, modulus):
            moduli.append(modulus)
            return candidates(residues, modulus)

        monkeypatch.setattr(linalg, "_candidates", recording)
        rows, _, _ = big_system(random.Random(3), 10, 6, 30)
        rhs, x = ten_thousand_bit_system(rows)
        assert solved(rows, rhs) == x
        p = linalg._factor(tuple(map(tuple, rows)))[1]
        # 2^8 digits of about 61 bits are the first to exceed twice the 10 001-bit solution
        assert moduli == [p ** 2 ** k for k in range(1, 9)]

    def test_zero_residual_ends_the_lift(self, monkeypatch):
        moduli = []
        candidates = linalg._candidates

        def recording(residues, modulus):
            moduli.append(modulus)
            return candidates(residues, modulus)

        monkeypatch.setattr(linalg, "_candidates", recording)
        p = PRIMES[0]
        assert solved([[1]], [p ** 5 + 3]) == [p ** 5 + 3]
        # the sixth digit leaves residual 0: no try at p^8
        assert moduli == [p ** 2, p ** 4]


def ten_thousand_bit_system(rows):
    """An integer right-hand side for ``rows`` (six columns) and its solution,
    whose first entry has more than 10 000 bits."""
    x = [Fraction(3 ** 6310, 7), Fraction(-5), Fraction(1, 11), 0, Fraction(-(2 ** 9999), 3), 1]
    rhs, x = integral([sum(a * b for a, b in zip(row, x)) for row in rows], x)
    assert x[0].numerator.bit_length() > 10000
    return rhs, x


def recording_eliminations(monkeypatch):
    """The list that each later ``_eliminate`` call appends its row count to."""
    calls = []
    eliminate = linalg._eliminate

    def recording(rows, ncols, p):
        calls.append(len(rows))
        return eliminate(rows, ncols, p)

    monkeypatch.setattr(linalg, "_eliminate", recording)
    return calls


class TestFactorCache:
    @pytest.mark.parametrize("cleared", [False, True])
    def test_new_rhs_is_only_lifted(self, monkeypatch, cleared):
        rng = random.Random(41 + cleared)
        rows, x, rhs = big_system(rng, 12, 6, 110, cleared)
        assert solved(rows, rhs) == x
        calls = recording_eliminations(monkeypatch)
        for _ in range(3):
            x = [Fraction(rng.randrange(-2 ** 90, 2 ** 90), rng.randrange(1, 2 ** 30)) for _ in range(6)]
            rhs, x = integral([sum(a * b for a, b in zip(row, x)) for row in rows], x)
            assert solved(rows, rhs) == exact_solve(rows, rhs) == x
        assert solved(rows, [0] * 12) == [0] * 6
        assert calls == []
        assert linalg._factor.cache_info().hits == 4

    def test_hit_still_raises(self, monkeypatch):
        rows, _, rhs = big_system(random.Random(43), 10, 5, 110, cleared=True)
        solve_unique(rows, rhs)
        deficient = random_matrix(random.Random(6), 6, 4, rank_bound=3)
        with pytest.raises(UnderdeterminedSystem, match="rank 3 < 4"):
            solve_unique(deficient, [0] * 6)
        calls = recording_eliminations(monkeypatch)
        rhs[4] += 1
        with pytest.raises(InconsistentSystem):
            solve_unique(rows, rhs)
        with pytest.raises(UnderdeterminedSystem, match="rank 3 < 4"):
            solve_unique(deficient, [1] * 6)
        assert calls == []

    def test_primes_are_read_at_call_time(self, monkeypatch):
        rows = TestUnluckyPrime.ROWS
        monkeypatch.setattr(linalg, "PRIMES", (TestUnluckyPrime.P,))
        with pytest.raises(ArithmeticError):
            solve_unique(rows, [2, 2, 4])
        # a failed factorization is not kept
        monkeypatch.undo()
        assert solved(rows, [2, 2, 4]) == [2, 0]

    def test_keeps_at_most_cache_keys_matrices(self):
        assert linalg._factor.cache_info().maxsize == CACHE_KEYS


class TestUnluckyPrime:
    # every 2x2 minor of [[1, 1], [1, 1 + p], [2, 2 + p]] is divisible by p = PRIMES[0]
    P = PRIMES[0]
    ROWS = [[1, 1], [1, 1 + P], [2, 2 + P]]

    def test_solution_is_right(self):
        x = [Fraction(2, 3), Fraction(-7, 5)]
        rhs, x = integral([sum(a * b for a, b in zip(row, x)) for row in self.ROWS], x)
        assert solved(self.ROWS, rhs) == x
        with pytest.raises(InconsistentSystem):
            solve_unique(self.ROWS, [rhs[0], rhs[1], rhs[2] + 1])
        # every 2x2 minor is +-p, so an integer right-hand side may leave p as a denominator
        assert solved(self.ROWS, [1, 2, 3]) == [1 - Fraction(1, self.P), Fraction(1, self.P)]

    def test_rank_is_right(self):
        assert rank(self.ROWS) == exact_rank(self.ROWS) == 2
        # singular modulo p, and not full: the row combinations prove rank 2
        square = [[*row, 0] for row in self.ROWS]
        assert rank(square) == exact_rank(square) == 2

    def test_the_unlucky_prime_alone_certifies_nothing(self, monkeypatch):
        monkeypatch.setattr(linalg, "PRIMES", (self.P,))
        with pytest.raises(ArithmeticError):
            rank(self.ROWS)
        with pytest.raises(ArithmeticError):
            solve_unique(self.ROWS, [0, 0, 0])

    def test_small_forced_primes_match_sympy(self, monkeypatch):
        used = []
        eliminate = linalg._eliminate

        def recording(rows, ncols, p):
            used.append(p)
            return eliminate(rows, ncols, p)

        monkeypatch.setattr(linalg, "_eliminate", recording)
        monkeypatch.setattr(linalg, "PRIMES", (2, 3) + PRIMES)
        rng = random.Random(17)
        for _ in range(20):
            rows = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(6)]
            assert rank(rows) == exact_rank(rows)
            x = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)]
            rhs, x = integral([sum(a * b for a, b in zip(row, x)) for row in rows], x)
            if exact_rank(rows) == 4:
                assert solved(rows, rhs) == x
        assert 3 in used and PRIMES[0] in used


class TestRankCertificate:
    def test_deficient_rank_is_proved_by_row_combinations(self, monkeypatch):
        inverses, lifts = [], []
        inverse, lift = linalg._inverse, linalg._lift

        def recording_inverse(a, p):
            inverses.append(len(a))
            return inverse(a, p)

        def recording_lift(a, c, b, p):
            lifts.append(len(a))
            return lift(a, c, b, p)

        monkeypatch.setattr(linalg, "_inverse", recording_inverse)
        monkeypatch.setattr(linalg, "_lift", recording_lift)
        rng = random.Random(23)
        left = [[rng.randrange(-2 ** 100, 2 ** 100) for _ in range(3)] for _ in range(8)]
        right = [[rng.randrange(-2 ** 100, 2 ** 100) for _ in range(6)] for _ in range(3)]
        rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
        assert rank(rows) == exact_rank(rows) == 3
        # one inverse of the 3x3 pivot minor, then one lift for each of the 5 other rows
        assert inverses == [3] and lifts == [3] * 5
        rows[7][5] += 1
        assert rank(rows) == exact_rank(rows) == 4

    def test_zero_rows_are_combinations_of_nothing(self):
        assert rank([[0, 0], [0, 0], [0, 0]]) == 0
        assert rank([[0, 0, 0], [0, 1, 0], [0, 2, 0]]) == 1
