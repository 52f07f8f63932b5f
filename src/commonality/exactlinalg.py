"""Dense exact linear algebra over the rationals.

Just enough for the certificate checks: ranks and unique solutions of
small systems, with every entry a Fraction so there is no tolerance to
argue about.  Pivoting picks the first nonzero entry in the column, which
keeps runs deterministic.
"""

from __future__ import annotations

from fractions import Fraction


def _copy(rows):
    out = [[Fraction(x) for x in row] for row in rows]
    if out:
        width = len(out[0])
        if any(len(row) != width for row in out):
            raise ValueError("rows of unequal length")
    return out


def _eliminate(a, b=None):
    """Gauss-Jordan elimination in place on a, with the same row operations
    applied to the right-hand side b when given.  Each pivot column ends up
    zero outside its pivot row; returns the pivot columns in row order."""
    m = len(a)
    n = len(a[0]) if m else 0
    pivots = []
    for col in range(n):
        r = len(pivots)
        if r == m:
            break
        piv = None
        for i in range(r, m):
            if a[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        if b is not None:
            b[r], b[piv] = b[piv], b[r]
        inv = a[r][col]
        for i in range(m):
            if i != r and a[i][col] != 0:
                f = a[i][col] / inv
                for j in range(col, n):
                    a[i][j] -= f * a[r][j]
                if b is not None:
                    b[i] -= f * b[r]
        pivots.append(col)
    return pivots


def rank(rows) -> int:
    """Rank of a matrix given as a list of rows."""
    return len(_eliminate(_copy(rows)))


def solve_unique(rows, rhs) -> list[Fraction]:
    """Solve A x = b exactly.

    Requires the solution to exist and be unique (A of full column rank);
    raises ValueError otherwise.  A may have more rows than columns.
    """
    a = _copy(rows)
    if len(a) != len(rhs):
        raise ValueError("%d rows but %d right-hand sides" % (len(a), len(rhs)))
    n = len(a[0]) if a else 0
    b = [Fraction(x) for x in rhs]
    pivots = _eliminate(a, b)
    if len(pivots) < n:
        raise ValueError("solution is not unique: column rank %d < %d" % (len(pivots), n))
    if any(x != 0 for x in b[len(pivots):]):
        raise ValueError("system is inconsistent")
    x = [Fraction(0)] * n
    for row_idx, col in enumerate(pivots):
        x[col] = b[row_idx] / a[row_idx][col]
    return x


def mat_vec(rows, x) -> list[Fraction]:
    """Exact matrix-vector product."""
    out = []
    for row in rows:
        if len(row) != len(x):
            raise ValueError("row of length %d against a vector of length %d" % (len(row), len(x)))
        acc = Fraction(0)
        for a, b in zip(row, x):
            acc += Fraction(a) * Fraction(b)
        out.append(acc)
    return out
