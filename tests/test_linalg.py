import random
from fractions import Fraction

import pytest

from qmforms.linalg import InconsistentSystem, UnderdeterminedSystem, rank, solve_unique

from _oracles import exact_rank


def random_matrix(rng, nrows, ncols, rank_bound=None):
    """Small-entry rational matrix; with ``rank_bound`` a product of two
    random factors, so its rank is at most that bound."""
    def entries(n, m):
        return [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)]
                for _ in range(n)]

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
        rows = [[Fraction(2), Fraction(4)], [Fraction(1), Fraction(3)]]
        assert rank(rows) == 2
        assert rows == [[2, 4], [1, 3]]


class TestSolveUnique:
    def test_unique_solution(self):
        rng = random.Random(5)
        rows = random_matrix(rng, 9, 5)
        x = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(5)]
        rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
        assert solve_unique(rows, rhs) == x

    def test_square_integer_system(self):
        assert solve_unique([[2, 1], [1, 3]], [3, 5]) == [Fraction(4, 5), Fraction(7, 5)]

    def test_rank_deficient_is_underdetermined(self):
        rows = random_matrix(random.Random(6), 6, 4, rank_bound=3)
        with pytest.raises(UnderdeterminedSystem):
            solve_unique(rows, [0] * 6)

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
