"""Dense exact linear algebra over the rationals (small systems only)."""

from fractions import Fraction


class UnderdeterminedSystem(ValueError):
    """The coefficient matrix does not have full column rank."""


class InconsistentSystem(ValueError):
    """The right-hand side is not in the column span."""


def _row_reduce(work, ncols):
    """Gauss-Jordan elimination in place on the first ``ncols`` columns.

    Pivot rows end up first, normalized and cleared above and below; extra
    columns (an augmented right-hand side) are carried along.  Returns the
    pivot columns in order.
    """
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        if r == len(work):
            break
        pivot = next((i for i in range(r, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = 1 / work[r][col]
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                factor = work[i][col]
                work[i] = [x - factor * y for x, y in zip(work[i], work[r])]
        pivots.append(col)
    return pivots


def rank(rows):
    """Rank of a matrix given as a list of rows of Fractions."""
    work = [list(map(Fraction, row)) for row in rows]
    if not work:
        return 0
    return len(_row_reduce(work, len(work[0])))


def solve_unique(rows, rhs):
    """Solve M x = rhs for the unique x, exactly.

    ``rows`` is the matrix M as a list of rows.  Raises
    ``UnderdeterminedSystem`` if M lacks full column rank and
    ``InconsistentSystem`` if no solution exists.
    """
    nrows = len(rows)
    if nrows != len(rhs):
        raise ValueError("matrix and right-hand side sizes differ")
    if nrows == 0:
        raise UnderdeterminedSystem("empty system")
    ncols = len(rows[0])
    work = [list(map(Fraction, row)) + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    pivots = _row_reduce(work, ncols)
    if len(pivots) < ncols:
        raise UnderdeterminedSystem(
            f"rank {len(pivots)} < {ncols} unknowns at this precision"
        )
    if any(work[i][ncols] for i in range(ncols, nrows)):
        raise InconsistentSystem("no exact solution")
    return [work[i][ncols] for i in range(ncols)]
