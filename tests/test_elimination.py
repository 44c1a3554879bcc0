"""Fraction-free elimination against a plain rational-arithmetic oracle."""

import math
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from bhkovacic import elimination
from bhkovacic.auxode import candidate_rows, family_equation
from bhkovacic.elimination import (
    _bareiss_step,
    _echelon,
    bareiss_determinant,
    nullspace,
    tridiag_minors,
)
from bhkovacic.kovacic import family_by_label


def det_oracle(matrix):
    """Textbook Gaussian elimination over Fraction."""
    n = len(matrix)
    m = [[F(v) for v in row] for row in matrix]
    det = F(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return F(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    return det


square_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


@given(square_matrices)
@settings(max_examples=120, deadline=None)
def test_bareiss_matches_oracle(matrix):
    assert bareiss_determinant(matrix) == det_oracle(matrix)


@st.composite
def sparse_matrices(draw, square=True, max_n=7, max_width=2):
    """Banded integer matrices with random zeros in the band: by default
    diagonal, tridiagonal or pentadiagonal, and dense once the width
    reaches n - 1; optionally with a zero leading pivot (a swap when a row
    below has a nonzero there) and an all-zero row."""
    n_rows = draw(st.integers(1, max_n))
    n_cols = n_rows if square else draw(st.integers(1, max_n))
    width = draw(st.integers(0, max_width))
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    m = [
        [draw(entry) if abs(i - j) <= width else 0 for j in range(n_cols)]
        for i in range(n_rows)
    ]
    if draw(st.booleans()):
        m[0][0] = 0
        if n_rows > 1 and width and draw(st.booleans()):
            m[1][0] = draw(st.integers(1, 9))
    if draw(st.booleans()):
        m[draw(st.integers(0, n_rows - 1))] = [0] * n_cols
    return m


@given(sparse_matrices())
@settings(max_examples=200, deadline=None)
def test_bareiss_matches_oracle_on_sparse_matrices(matrix):
    assert bareiss_determinant(matrix) == det_oracle(matrix)


@given(sparse_matrices(max_n=13, max_width=12))
@settings(max_examples=60, deadline=None)
def test_bareiss_matches_oracle_up_to_the_cross_check_size(matrix):
    # the scan's cross-checks take determinants of up to 13 x 13 systems
    # (d <= 12); banded and dense matrices of that size
    assert bareiss_determinant(matrix) == det_oracle(matrix)


@pytest.mark.parametrize(
    "matrix",
    [
        # one swap: column 0's pivot lies in row 2
        [[0, 0, 2], [0, 3, 5], [7, 1, 4]],
        # three swaps: each of columns 0..2 finds its pivot one row lower
        [[0, 0, 0, 2], [3, 1, 0, 0], [0, 5, 0, 1], [4, 0, 7, 0]],
    ],
)
def test_bareiss_sign_after_an_odd_number_of_swaps(matrix):
    rows, pivots, sign = _echelon(matrix)
    assert sign == -1 and pivots == list(range(len(matrix)))
    assert bareiss_determinant(matrix) == det_oracle(matrix) == sympy.Matrix(matrix).det()
    assert bareiss_determinant(matrix) == -rows[-1][-1] != 0


@pytest.mark.parametrize("matrix", [[[1, 2, 3], [4, 5, 6]], [[1, 2], [3]], [[1, 2]]])
def test_bareiss_refuses_a_matrix_that_is_not_square(matrix):
    with pytest.raises(ValueError, match="not square"):
        bareiss_determinant(matrix)


def test_bareiss_step_checks_every_division_it_does_not_skip():
    # factor 0: entry 0 stays 0 unexamined, entry 1 scales to 3 * 1, which
    # prev = 2 does not divide
    with pytest.raises(ArithmeticError):
        _bareiss_step([0, 1, 0], [3, 5, 7], pivot=3, prev=2, start=0)
    # factor 1: entry 1 is 0 in both rows and skipped, entry 2 updates to
    # 2 * 1 - 1 * 1 = 1, which prev = 3 does not divide
    with pytest.raises(ArithmeticError):
        _bareiss_step([1, 0, 1], [2, 0, 1], pivot=2, prev=3, start=0)
    # exact updates, with the skipped entries left at 0
    target = [0, 0, 4, 0, 6]
    _bareiss_step(target, [3, 5, 0, 0, 7], pivot=3, prev=2, start=0)
    assert target == [0, 0, 6, 0, 9]
    target = [2, 0, 4, 0]
    _bareiss_step(target, [3, 0, 5, 7], pivot=3, prev=1, start=0)
    assert target == [0, 0, 2, -14]


def test_bareiss_empty_matrix_is_one():
    # the 0 x 0 determinant, as Recurrence3.det(0) returns it
    assert bareiss_determinant([]) == 1


def eager_echelon(matrix):
    """The eager elimination loop that lazy scaling replaced: every row below
    each pivot takes a Bareiss step, divided by the previous pivot, so a
    row with a zero in the pivot column is scaled at every step.  The
    reference for :func:`_echelon`."""
    m = [list(row) for row in matrix]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    pivots = []
    sign = 1
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
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
            sign = -sign
        pivot = m[r][c]
        for i in range(r + 1, n_rows):
            _bareiss_step(m[i], m[r], pivot, prev, c)
        prev = pivot
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m[:r], pivots, sign


@st.composite
def echelon_inputs(draw, max_n=8):
    """Rectangular integer matrices, dense or sparse, with some columns
    zeroed and optionally a zero leading entry above a nonzero one (a
    forced swap)."""
    n_rows, n_cols = draw(st.integers(1, max_n)), draw(st.integers(1, max_n))
    entry = st.one_of(st.just(0), st.integers(-9, 9)) if draw(st.booleans()) else st.integers(-9, 9)
    m = [[draw(entry) for _ in range(n_cols)] for _ in range(n_rows)]
    for c in draw(st.sets(st.integers(0, n_cols - 1), max_size=n_cols // 2)):
        for row in m:
            row[c] = 0
    if n_rows > 1 and draw(st.booleans()):
        c = draw(st.integers(0, n_cols - 1))
        m[0][c], m[1][c] = 0, draw(st.integers(1, 9))
    return m


@given(st.one_of(echelon_inputs(), sparse_matrices(square=False, max_n=9, max_width=3)))
@settings(max_examples=200, deadline=None)
def test_echelon_matches_the_eager_loop(matrix):
    assert _echelon(matrix) == eager_echelon(matrix)
    if len(matrix) == len(matrix[0]):
        assert bareiss_determinant(matrix) == sympy.Matrix(matrix).det()


@pytest.mark.parametrize(
    "label, l, ds", [("G3", 2, (4, 12)), ("E7", 3, (8, 12)), ("G7", 4, (120, 121))]
)
def test_echelon_matches_the_eager_loop_on_candidate_systems(label, l, ds):
    # the scan's cross-check systems and G7's at its special frequency,
    # square and with the extra row of the brute-force nullspace
    fam = family_by_label(label)
    eq = family_equation(label)
    for d in ds:
        rows, _ = candidate_rows(eq.at(l, (d - fam.degree[0]) / fam.degree[1]), d)
        for system in (rows[:-1], rows):
            assert _echelon(system) == eager_echelon(system), (d, len(system))


def test_tridiagonal_elimination_takes_linear_row_updates(monkeypatch):
    # the eager loop takes a Bareiss step on every row below each pivot,
    # n(n-1)/2 = 1770 of them here; a row is touched only when a step reads it
    n = 60
    matrix = [[0] * n for _ in range(n)]
    for i in range(n):
        matrix[i][i] = 3 + i % 5
        if i:
            matrix[i][i - 1], matrix[i - 1][i] = -1 - i % 3, 2
    steps = []

    def counted(*args):
        steps.append(args)
        return _bareiss_step(*args)

    monkeypatch.setattr(elimination, "_bareiss_step", counted)
    diag = [matrix[i][i] for i in range(n)]
    offprod = [matrix[i][i - 1] * matrix[i - 1][i] if i else 0 for i in range(n)]
    assert bareiss_determinant(matrix) == list(tridiag_minors(diag, offprod))[-1]
    assert len(steps) <= 2 * n
    monkeypatch.undo()
    assert _echelon(matrix) == eager_echelon(matrix)


@pytest.mark.parametrize("rows", [[[1, 2], [3]], [[1], [2, 3]]])
def test_ragged_rows_are_refused(rows):
    with pytest.raises(ValueError, match="rows differ in length"):
        nullspace(rows)
    with pytest.raises(ValueError, match="rows differ in length"):
        _echelon(rows)


def integer_rows(matrix):
    """Each row times the lcm of its denominators: the same nullspace."""
    rows = []
    for row in matrix:
        den = math.lcm(*(F(v).denominator for v in row))
        rows.append([int(v * den) for v in row])
    return rows


rect_matrices = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda shape: st.lists(
        st.lists(
            st.fractions(min_value=-6, max_value=6, max_denominator=4),
            min_size=shape[1],
            max_size=shape[1],
        ),
        min_size=shape[0],
        max_size=shape[0],
    )
)


@given(rect_matrices)
@settings(max_examples=120, deadline=None)
def test_nullspace_vectors_annihilate(matrix):
    basis = nullspace(integer_rows(matrix))
    n_cols = len(matrix[0])
    # rank-nullity, with sympy's rank as an independent oracle
    assert len(basis) == n_cols - sympy.Matrix(matrix).rank()
    for vec in basis:
        assert any(v != 0 for v in vec)
        for row in matrix:
            assert sum(F(a) * b for a, b in zip(row, vec)) == 0


def fraction_nullspace(matrix):
    """The nullspace by back-substitution over Fraction, made primitive with
    its highest-index nonzero entry positive: the reference for the
    integer back-substitution."""
    n_cols = len(matrix[0])
    m = sympy.Matrix(matrix).rref()
    pivots = list(m[1])
    echelon = [[F(int(v.p), int(v.q)) for v in m[0].row(i)] for i in range(len(pivots))]
    basis = []
    for free in (c for c in range(n_cols) if c not in pivots):
        vec = [F(0)] * n_cols
        vec[free] = F(1)
        for i in range(len(pivots) - 1, -1, -1):
            c = pivots[i]
            acc = sum((echelon[i][j] * vec[j] for j in range(c + 1, n_cols)), F(0))
            vec[c] = -acc / echelon[i][c]
        den = math.lcm(*(v.denominator for v in vec))
        ints = [int(v * den) for v in vec]
        g = math.gcd(*ints)
        if next(v for v in reversed(ints) if v) < 0:
            g = -g
        basis.append([v // g for v in ints])
    return basis


def _rank(vectors):
    return sympy.Matrix(vectors).rank() if vectors else 0


@given(rect_matrices)
@settings(max_examples=120, deadline=None)
def test_integer_nullspace_matches_rational_and_sympy(matrix):
    basis = nullspace(integer_rows(matrix))
    assert all(type(v) is int for vec in basis for v in vec)
    assert basis == fraction_nullspace(matrix)
    # the same space as sympy's basis: equal dimension, and stacking the two
    # adds no rank
    theirs = [list(v) for v in sympy.Matrix(matrix).nullspace()]
    assert len(basis) == len(theirs) == _rank(basis) == _rank(basis + theirs)


@given(sparse_matrices(square=False))
@settings(max_examples=150, deadline=None)
def test_nullspace_matches_sympy_on_sparse_matrices(matrix):
    basis = nullspace(matrix)
    assert basis == fraction_nullspace(matrix)
    theirs = [list(v) for v in sympy.Matrix(matrix).nullspace()]
    assert len(basis) == len(theirs) == _rank(basis) == _rank(basis + theirs)


def test_nullspace_known():
    # x + y + z = 0, x - z = 0  ->  span of (1, -2, 1)
    basis = nullspace([[1, 1, 1], [1, 0, -1]])
    assert len(basis) == 1
    v = basis[0]
    assert [v[0], v[1], v[2]] == [F(1), F(-2), F(1)]


def test_zero_pivot_column_handled():
    # first column identically zero; determinant 0, nullspace contains e1
    matrix = [[0, 1, 2], [0, 3, 4], [0, 5, 6]]
    assert bareiss_determinant(matrix) == 0
    basis = nullspace(matrix)
    assert len(basis) == 1 and basis[0][0] == 1
