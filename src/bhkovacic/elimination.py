"""Fraction-free exact linear algebra: Bareiss elimination, determinants,
and nullspaces over the rationals, and the leading minors of a
tridiagonal matrix.

Rows are scaled to integers first; the single-step Bareiss scheme then
keeps every intermediate entry an exact integer (each is a minor of the
input), so zero tests and signs are never in doubt.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, List, Sequence

from .algebra import Rational

__all__ = ["integerize_rows", "bareiss_determinant", "nullspace", "tridiag_minors"]


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


def integerize_rows(rows: Sequence[Sequence[Rational]]) -> List[List[int]]:
    """Scale each row by the lcm of its denominators (nullspace-preserving)."""
    out = []
    for row in rows:
        row = [Fraction(v) for v in row]
        den = 1
        for v in row:
            den = den * v.denominator // math.gcd(den, v.denominator)
        out.append([int(v * den) for v in row])
    return out


def bareiss_determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix (fraction-free)."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = _exact_div(pivot * m[i][j] - m[i][k] * m[k][j], prev)
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def _echelon(matrix: List[List[int]]) -> tuple:
    """Fraction-free row echelon; returns (rows, pivot column list)."""
    m = [list(row) for row in matrix]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    pivots = []
    prev = 1
    r = 0
    for c in range(n_cols):
        pivot_row = None
        for i in range(r, n_rows):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pivot = m[r][c]
        for i in range(r + 1, n_rows):
            fi = m[i][c]
            for j in range(c, n_cols):
                m[i][j] = _exact_div(pivot * m[i][j] - fi * m[r][j], prev)
        prev = pivot
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m[:r], pivots


def nullspace(rows: Sequence[Sequence[Rational]]) -> List[List[Rational]]:
    """Basis of the right nullspace, one vector per free column.

    Vectors are returned over Fraction, normalized to primitive integer
    entries with the highest-index nonzero entry positive.
    """
    if not rows:
        return []
    n_cols = len(rows[0])
    echelon, pivots = _echelon(integerize_rows(rows))
    free_cols = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for free in free_cols:
        vec = [Fraction(0)] * n_cols
        vec[free] = Fraction(1)
        # back-substitute pivot rows bottom-up
        for row_idx in range(len(pivots) - 1, -1, -1):
            c = pivots[row_idx]
            row = echelon[row_idx]
            acc = Fraction(0)
            for j in range(c + 1, n_cols):
                if row[j] and vec[j]:
                    acc += Fraction(row[j]) * vec[j]
            vec[c] = -acc / row[c]
        basis.append(_primitive(vec))
    return basis


def _primitive(vec: List[Fraction]) -> List[Fraction]:
    den = 1
    for v in vec:
        den = den * v.denominator // math.gcd(den, v.denominator)
    ints = [int(v * den) for v in vec]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    if g == 0:
        return [Fraction(0)] * len(vec)
    lead = next(v for v in reversed(ints) if v != 0)
    if lead < 0:
        g = -g
    return [Fraction(v, g) for v in ints]
