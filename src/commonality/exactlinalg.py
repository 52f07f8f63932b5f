"""Dense exact linear algebra over the rationals.

Just enough for the certificate checks: ranks and products of small
systems, with every entry a Fraction so there is no tolerance to argue
about.  Pivoting picks the first nonzero entry in the column, which
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


def _eliminate(a):
    """Gauss-Jordan elimination in place on a: each pivot column ends up
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
        inv = a[r][col]
        for i in range(m):
            if i != r and a[i][col] != 0:
                f = a[i][col] / inv
                for j in range(col, n):
                    a[i][j] -= f * a[r][j]
        pivots.append(col)
    return pivots


def rank(rows) -> int:
    """Rank of a matrix given as a list of rows."""
    return len(_eliminate(_copy(rows)))


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
