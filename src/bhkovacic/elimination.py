"""Fraction-free exact linear algebra: Bareiss elimination, determinants,
and nullspaces in integers, and the leading minors of a tridiagonal matrix.

The systems arrive as integer rows; a caller with rational rows scales
them first (the oracles take the common denominator out of their explicit
systems).  The single-step Bareiss scheme then keeps every intermediate
entry an exact integer (each is a minor of the input), and nullspace
vectors are back-substituted in integers too, so zero tests and signs are
never in doubt and no ``Fraction`` is ever built.

One elimination loop, :func:`_echelon`, serves both: the nullspace
back-substitutes from its rows, and the determinant is its last pivot
times the sign of its row swaps, or 0 when a column has no pivot.  An
update that maps a zero entry to zero is skipped, and a row with a zero in
the pivot column waits, unscaled, until a step reads it: a tridiagonal
system takes O(n) row updates and O(n^2) steps, a dense one O(n^3).
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, List, Sequence

__all__ = ["bareiss_determinant", "nullspace", "tridiag_minors"]


def tridiag_minors(diag: Iterable, offprod: Iterable) -> Iterator:
    """Leading principal minors D_1, D_2, ... of a tridiagonal matrix.

    D_{k+1} = diag[k] D_k - offprod[k] D_{k-1}, offprod[k] = lower(k)
    upper(k-1), D_0 = 1, D_{-1} = 0.  Ring-neutral (int, Fraction, Poly)
    and division-free, so integer entries give exact integer minors.
    """
    d_prev, d_cur = 0, 1
    for a, b in zip(diag, offprod):
        d_prev, d_cur = d_cur, a * d_cur - b * d_prev
        yield d_cur


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("fraction-free elimination lost exactness")
    return q


def _bareiss_step(target: List[int], pivot_row: List[int], pivot: int, prev: int, start: int):
    """One Bareiss row update in place: target[j] <- (pivot target[j] -
    target[start] pivot_row[j]) / prev for j >= start, each division exact.

    An entry the update maps from 0 to 0 is skipped: target[j] = 0 with
    factor = target[start] = 0 or pivot_row[j] = 0.  With factor = 0 the
    update only scales the row's nonzero entries by pivot / prev."""
    factor = target[start]
    for j in range(start, len(target)):
        t = target[j]
        if factor and pivot_row[j]:
            t = pivot * t - factor * pivot_row[j]
        elif t:
            t *= pivot
        else:
            continue
        q, r = divmod(t, prev)
        if r:
            raise ArithmeticError("fraction-free elimination lost exactness")
        target[j] = q


def bareiss_determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix (fraction-free); the
    0 x 0 determinant is 1, as for :meth:`Recurrence3.det`.

    The echelon form's last pivot is the determinant up to the sign of its
    row swaps; a column without a pivot makes the matrix singular."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    if n == 0:
        return 1
    rows, pivots, sign = _echelon(matrix)
    return sign * rows[-1][-1] if len(pivots) == n else 0


def _echelon(matrix: Sequence[Sequence[int]]) -> tuple:
    """Fraction-free row echelon of integer rows: (the nonzero rows, their
    pivot columns, the sign of the row swaps).

    Each column's pivot is its first nonzero entry at or below the next
    pivot row, swapped up only when it lies lower; the rows below with a
    nonzero entry in the column are then eliminated by :func:`_bareiss_step`.
    A row with a zero there is left alone: step k would only scale it by
    p_k / p_(k-1), and these factors telescope, so a row that has taken s
    steps is eliminated divided by p_s, or scaled by p_(k-1) / p_s when it
    becomes the pivot row.  Each division is exact, as each entry is a minor,
    and checked."""
    m = [list(row) for row in matrix]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    if any(len(row) != n_cols for row in m):
        raise ValueError("rows differ in length")
    pivots = []
    p = [1]  # p[k]: the pivot of step k
    done = [0] * n_rows  # the steps each row has taken
    sign = 1
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
            done[r], done[pivot_row] = done[pivot_row], done[r]
            sign = -sign
        if done[r] != r:  # a step against a zero row only scales
            _bareiss_step(m[r], [0] * n_cols, p[r], p[done[r]], c)
        pivot = m[r][c]
        for i in range(r + 1, n_rows):
            if m[i][c]:
                _bareiss_step(m[i], m[r], pivot, p[done[i]], c)
                done[i] = r + 1
        p.append(pivot)
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m[:r], pivots, sign


def nullspace(rows: Sequence[Sequence[int]]) -> List[List[int]]:
    """Basis of the right nullspace of integer rows, one vector per free column.

    Each vector is back-substituted in integers: before the pivot entry p of a
    row is solved from acc, the sum of the row's later terms, the partial
    vector is scaled by |p| / gcd(acc, p), which makes the division exact.
    The entry of the free column starts at 1 and is only ever scaled up,
    and every later entry stays 0, so it is the highest-index nonzero entry
    and positive.  Divided by the gcd of its entries, the vector is the one
    primitive vector of its solution line with that sign.
    """
    if not rows:
        return []
    n_cols = len(rows[0])
    echelon, pivots, _ = _echelon(rows)
    free_cols = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for free in free_cols:
        vec = [0] * n_cols
        vec[free] = 1
        # back-substitute pivot rows bottom-up
        for row_idx in range(len(pivots) - 1, -1, -1):
            c = pivots[row_idx]
            row = echelon[row_idx]
            acc = sum(row[j] * vec[j] for j in range(c + 1, n_cols) if vec[j])
            pivot = row[c]
            scale = abs(pivot) // math.gcd(acc, pivot)
            if scale != 1:
                vec = [v * scale for v in vec]
                acc *= scale
            vec[c] = _exact_div(-acc, pivot)
        g = math.gcd(*vec)
        basis.append([v // g for v in vec])
    return basis
