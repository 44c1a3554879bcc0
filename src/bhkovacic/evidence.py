"""Non-existence evidence for the families G3, E3 and E7, and the exact
S3 contradiction record.

A degree-d polynomial candidate of one of these families fixes the
frequency through the family's degree form (G3: s = (d+3)/2, E3:
s = (d+2)/2, E7: s = d/2) and leads to a (d+1) x (d+1) tridiagonal
homogeneous system, rows 0..d of the r-frame recurrence about r = 0 of
the auxiliary equation, with leading minors
D_{k+1} = diag(k) D_k - offprod(k) D_{k-1}.  The entries are taken from
the auxiliary equation with s symbolic and turned once per family into
integer polynomials in k and d; a (family, l) column lowers diag's
constant term by the multipole offset of l.  A scan cell (:func:`_cell`)
evaluates them at its d, then walks k = 0..d advancing diag(k) and
offprod(k) by forward differences (Knuth, TAOCP vol. 2, 4.6.4) while it
runs the recurrence and tests the signs in the same loop: every D_n is a
plain integer and no step divides, so a sign is never in doubt.
:func:`det_sequence` is the reference for that loop: it evaluates every
entry on its own and keeps the whole minor sequence from
:func:`~bhkovacic.elimination.tridiag_minors`, the engine that also
evaluates the Hautot determinants.
A nonzero full determinant D_{d+1} rules the candidate out; the observed
pattern is sgn(D_{d+1}) = (-1)^(d+1) across the scanned grid.  Cells whose
intermediate minors break the alternation (E7 does this for d > l(l+1))
are flagged and settled by the full determinant and, at small degree, by
the brute-force nullspace oracle.

A scan's verdicts are signs only, while :func:`_cell`'s minors grow to
thousands of bits.  So without ``--out`` the scan proves each family's
verdicts once, with diag's constant term lowered by a free m >= 0, as
integer polynomials with no negative coefficient.  :func:`_tail_certified`
proves a ratio bound that keeps every minor past a block start at one
sign, for every k and d.  :func:`_certificate` proves the prefix up to the
block start: G3 and E3 have a_0 = -diag(0) > 0 everywhere (k0 = 0), and
E7's cells with a_0 = 2 + m - d <= 0, that is d = 2 + m + j, start their
block at k0 = 2 (offprod(2) = 0, E_1 = -j, E_2 = (m+2)^2 = l^2 (l+1)^2).
On a family's lowest multipole m covers every l >= min_l, so for G3, E3
and E7 every D_{d+1} is nonzero, and there is no degree-d candidate, at
every l >= min_l and every d >= 0.  :func:`_runs` turns the certificate
into a column's verdicts, runs of d split where a_0 changes sign, in
integer arithmetic alone: a column costs the same at any d_max, and every
one of the default grid's 29,559 cells is run-decided.  Cells below k0
and every cell of a family with no certificate run :func:`_cell` to the
end.  The exact cells, the cross-checks and all of S3 stay bounded
evidence.  ``--out``, :func:`cross_check_cell` and :func:`det_sequence`
keep the exact minors: ``--out`` records D_{d+1} and the magnitude index
of every cell, and the scan's cross-checks hold each sampled cell's
verdict, run-decided or not, to the exact one.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
from fractions import Fraction
from itertools import zip_longest
from math import comb
from typing import NamedTuple, Optional, Sequence

from .algebra import Poly, Rational, horner, int_to_str, rat_to_str, rational_roots
from .auxode import (
    brute_force_polynomial_solutions,
    candidate_rows,
    family_equation,
    multipole_offset,
    solve_low_degree,
)
from .elimination import bareiss_determinant, nullspace, tridiag_minors
from .kovacic import Family, family_by_label
from .master import PerturbationKind, UsageError

__all__ = [
    "SCAN_FAMILIES",
    "DetSequence",
    "det_sequence",
    "scan",
    "ScanReport",
    "cross_check_cell",
    "s3_nonexistence",
    "S3Record",
    "degree_to_s",
]

SCAN_FAMILIES = ("G3", "E3", "E7")


def degree_to_s(family: str, d: int) -> Rational:
    """The frequency pinned by a degree-d candidate of the family."""
    if family not in SCAN_FAMILIES:
        raise ValueError(f"scan covers {SCAN_FAMILIES}, not {family}")
    degree = family_by_label(family).degree
    return (d - degree[0]) / degree[1]


# one grid per family serves every l of a scan, in each worker too
@functools.lru_cache(maxsize=None)  # bounded: twenty n=1 labels; any other raises
def _column(label: str) -> tuple:
    """(diag, offprod) of the family labelled ``label``: the two entries
    at its lowest multipole as integer grids in k and d.

    grid[i][j] multiplies k^i d^j.  The entries are those of the symbolic
    r-frame recurrence about r = 0 of :func:`family_equation`, with
    offprod(k) = lower(k) upper(k-1), at the s that a degree-d candidate
    pins; l moves only diag's k^0 d^0 term (:func:`_column_at`).
    """
    eq = family_equation(label)
    fam = eq.family
    rec = eq.recurrence(fam.kind.min_l)
    l0, l1 = rec.lower_k
    u0, u1, u2 = rec.upper_k
    p0, p1, p2 = u0 - u1 + u2, u1 - 2 * u2, u2  # upper(k - 1)
    offprod = (l0 * p0, l0 * p1 + l1 * p0, l0 * p2 + l1 * p1, l1 * p2)
    return _in_degree(rec.diag_k, fam), _in_degree(offprod, fam)


def _column_at(label: str, l: int) -> tuple:
    """The (family, l) column: the family's grid with diag's k^0 d^0
    coefficient lowered by the multipole offset of l."""
    m = multipole_offset(family_by_label(label), l)
    ((c, *c_d), *c_k), offprod = _column(label)
    return ((c - m, *c_d), *c_k), offprod


def _in_degree(entries, fam: Family) -> tuple:
    """Polynomials in s, with s = (d - a)/b from the degree form d = a + b s,
    as integer coefficient tuples in d.  A degree form with b = 0 pins no
    frequency and raises ValueError."""
    a, b = fam.degree[0], fam.degree[1]
    if b == 0:
        raise ValueError(f"the degree of {fam.label} does not depend on s: no candidate pins s")
    grid = [(Poly.zero() + e).shift(-a / b).scale_variable(1 / b).coeffs for e in entries]
    if any(c.denominator != 1 for coeffs in grid for c in coeffs):
        raise ArithmeticError(f"{fam.label} recurrence entries are not integral in d")
    return tuple(tuple(map(int, coeffs)) for coeffs in grid)


def _cell_entries(column: tuple, d: int) -> tuple:
    """diag[k] and offprod[k], k = 0..d, of the column's degree-d cell."""
    (d0, d1, d2), (o0, o1, o2, o3) = ([horner(c, d) for c in grid] for grid in column)
    ks = range(d + 1)
    diag = [d0 + k * (d1 + k * d2) for k in ks]
    offprod = [o0 + k * (o1 + k * (o2 + k * o3)) for k in ks]
    return diag, offprod


class DetSequence(NamedTuple):
    """One scan cell: the minor sequence D_0..D_{d+1} and its sign verdicts."""

    family: str
    l: int
    s: Rational
    d: int
    values: tuple  # D_0 .. D_{d+1}
    sign_pattern_ok: bool  # sgn(D_k) = (-1)^k for every k >= 1
    final_sign_ok: bool  # sgn(D_{d+1}) = (-1)^(d+1)

    @property
    def D_last(self) -> int:
        return self.values[-1]


def det_sequence(family: str, l: int, d: int) -> DetSequence:
    """The reference cell: every entry evaluated on its own, every minor kept."""
    if d < 0:
        raise ValueError("degree bound must be non-negative")
    s = degree_to_s(family, d)  # a family outside the scan has no grid
    values = (1, *tridiag_minors(*_cell_entries(_column_at(family, l), d)))
    return DetSequence(
        family=family,
        l=l,
        s=s,
        d=d,
        values=values,
        sign_pattern_ok=all(v != 0 and (v > 0) == (n % 2 == 0) for n, v in enumerate(values)),
        final_sign_ok=values[-1] != 0 and (values[-1] > 0) == (d % 2 == 1),
    )


def _cell(column: tuple, d: int) -> tuple:
    """(sign_pattern_ok, final_sign_ok, D_last, mag_from) of the column's degree-d cell.

    sign_pattern_ok: sgn(D_n) = (-1)^n for n = 1..d+1; final_sign_ok: the
    same for n = d+1; D_last = D_{d+1}; mag_from: the smallest n0 with
    |D_n| strictly increasing for n >= n0 (an observed property of the
    grid, logged in ``--out`` records and never asserted).

    One loop over k = 0..d.  It runs E_n = (-1)^n D_n, which obeys
    E_{k+1} = -diag(k) E_k - offprod(k) E_{k-1}, so the expected pattern
    is E_n > 0 and |D_n| = E_n on it.  a = -diag(k) (degree 2 in k) and
    b = offprod(k) (degree 3) are advanced by their forward differences:
    five integer additions per step, no per-entry evaluation and no list.
    """
    (d0, d1, d2), (o0, o1, o2, o3) = ([horner(c, d) for c in grid] for grid in column)
    a, a1, a2 = -d0, -d1 - d2, -2 * d2
    b, b1, b2, b3 = o0, o1 + o2 + o3, 2 * o2 + 6 * o3, 6 * o3
    sign_ok = True
    mag_from = 0
    E_prev, E = 0, 1  # E_{-1}, E_0
    top = 1  # |D_n| of the latest minor
    for n in range(1, d + 2):
        E_prev, E = E, a * E - b * E_prev
        if E > 0:
            if E <= top:
                mag_from = n
            top = E
        else:
            sign_ok = False
            if -E <= top:
                mag_from = n
            top = -E
        a += a1
        a1 += a2
        b += b1
        b1 += b2
        b2 += b3
    return sign_ok, E > 0, E if d % 2 else -E, mag_from


# The longest prefix :func:`_certificate` carries while it looks for a
# family's block start; E7's is 2, and G3 and E3 need none.
_BLOCK_START_MAX = 8


def _certificate(column: tuple) -> Optional[tuple]:
    """(k0, sign_ok): the block start and the sign pattern of the cells from
    the cut on (:func:`_runs`), in this column and in every column with
    diag's constant term lowered by any m >= 0; None where the family is
    not proved this way, and its cells run :func:`_cell`.

    In :func:`_cell`'s variables a block start k0 <= d has a_{k0} > 0,
    E_{k0} != 0 and b_{k0} E_{k0-1} = 0: then r_{k0} = a_{k0}, and past it
    :func:`_tail_certified` keeps every minor at the sign of E_{k0}.
    Lowered by m, a_0 = -diag(0) must read alpha + m + beta d.  Where
    beta >= 0 and alpha > 0, a_0 > 0 at every cell: (0, True).  Where
    beta = -1, the cells d = alpha + m + j, j >= 0, have a_0 = -j; their
    E_1..E_{k0} (:func:`_prefix`) run to the first k0 with
    b_{k0} E_{k0-1} = 0 identically and E_{k0} > 0, and
    :func:`_no_negative` proves each E_n positive at every (m, j) or at
    none.  sign_ok says whether all are positive.  A block on a negative
    E_{k0} is not taken: its cells are final-sign violations, which the
    report names each with its D_{d+1}.
    """
    if not _tail_certified(column):
        return None
    alpha, beta, *rest = (-c for c in (*column[0][0], 0, 0))
    if any(rest):
        return None
    if beta >= 0 and alpha > 0:
        return 0, True
    if beta != -1:
        return None
    E_prev, sign_ok = [Poly.one()], True
    for k, (E, b) in enumerate(_prefix(column, alpha), 1):
        coeffs = [c for P in E for c in P.num]
        positive = bool(E) and E[0][0] > 0 and _no_negative(coeffs)
        if not (positive or _no_negative(-c for c in coeffs)):
            return None
        sign_ok = sign_ok and positive
        if positive and not any(_product(b, E_prev)):
            return k, sign_ok
        E_prev = E
    return None


def _prefix(column: tuple, alpha: int):
    """Yield (E_k, b_k), k = 1.._BLOCK_START_MAX, at the cells d = alpha + m + j
    of the column with diag's constant term lowered by m, each a list of
    integer Polys in m, entry e the coefficient of j^e.

    As in :func:`_cell`, E_{k+1} = a_k E_k - b_k E_{k-1} from E_{-1} = 0
    and E_0 = 1, with a_k = m - diag(k) and b_k = offprod(k).
    """
    diag, offprod = column

    def entry(grid: tuple, k: int) -> list:
        # the grid's entry at this k, a polynomial in d = alpha + m + j
        return _on_orthant([Poly((horner(c, k),)) for c in zip_longest(*grid, fillvalue=0)], alpha)

    E_prev, E, b = [], [Poly.one()], entry(offprod, 0)
    for k in range(1, _BLOCK_START_MAX + 1):
        a = _difference([Poly.x()], entry(diag, k - 1))
        E_prev, E = E, _difference(_product(a, E), _product(b, E_prev))
        b = entry(offprod, k)
        yield E, b


def _runs(certificate: tuple, column: tuple, d_max: int) -> list:
    """[(lo, hi, verdict)] covering d = 0..d_max in order, for a column
    whose family has the :func:`_certificate` ``certificate`` = (k0, sign_ok).

    verdict is the (sign_pattern_ok, final_sign_ok) of every cell lo..hi,
    or None for cells that :func:`_cell` decides one at a time.  The cut is
    d = -diag's constant term, alpha + m: cells below it have a_0 > 0 and
    are clean, and cells from it on have the certificate's verdict, except
    those below k0, which run exactly.
    """
    k0, sign_ok = certificate
    (row0, *_), _ = column
    cut = min(max(-sum(row0[:1]), 0), d_max + 1)
    start = min(max(cut, k0), d_max + 1)
    runs = ((0, cut - 1, (True, True)), (cut, start - 1, None), (start, d_max, (sign_ok, True)))
    return [run for run in runs if run[0] <= run[1]]


def _no_negative(coeffs) -> bool:
    """Whether no coefficient is negative.  A polynomial with none is
    non-negative wherever every variable is, a positivity test in the sense
    of Polya."""
    return min(coeffs, default=0) >= 0


def _product(P: list, Q: list) -> list:
    """The product of two polynomials given as lists of Polys, entry e the
    coefficient of the second variable's e-th power."""
    out = [Poly.zero()] * (len(P) + len(Q) - 1)
    for p, X in enumerate(P):
        for q, Y in enumerate(Q):
            out[p + q] += X * Y
    return out


def _difference(P: list, Q: list) -> list:
    """P - Q for two polynomials given as lists of Polys, as :func:`_product`."""
    return [X - Y for X, Y in zip_longest(P, Q, fillvalue=Poly.zero())]


def _tail_polynomials(column: tuple) -> tuple:
    """(A, F, G) of the column with k = 1 + i and d = k + j, each a list of
    integer Polys in i, entry e the coefficient of j^e.

    A(k, d) = -diag(k) and F(k, d) = A(k-1, d) A(k, d) - 4 offprod(k) are
    the two sides of the ratio-bound checks a_k > 0 and 4 b_k <= a_{k-1} a_k
    (:func:`_tail_certified`), and G(k, d) = A(k-1, d) + A(k, d).  Lowering
    diag's constant term by m turns A into A + m and F into F + m G + m^2.
    """
    diag, offprod = ([Poly(c) for c in zip_longest(*grid, fillvalue=0)] for grid in column)
    A = [-P for P in diag]  # Polys in k, entry q the coefficient of d^q
    A_prev = [P.shift(-1) for P in A]
    F = _difference(_product(A_prev, A), [4 * P for P in offprod])
    G = [P + Q for P, Q in zip(A_prev, A)]
    return tuple(_on_orthant(P, 1) for P in (A, F, G))


def _on_orthant(P: list, start: int) -> list:
    """P(start + i, start + i + j) for P(k, d) given as Polys in k, entry q
    the coefficient of d^q: (k + j)^q expanded by the binomial theorem, then
    k = start + i."""
    return [
        sum(comb(q, e) * P[q] * Poly.monomial(q - e) for q in range(e, len(P))).shift(start)
        for e in range(len(P))
    ]


def _tail_certified(column: tuple) -> bool:
    """Whether the ratio bound holds at every k >= 1 and d >= k, in this
    column and in every column with diag's constant term lowered by any
    m >= 0, so that every cell's minors past its block start keep one sign.

    In :func:`_cell`'s variables a_k = -diag(k), b_k = offprod(k) and
    r_k = E_{k+1}/E_k = a_k - b_k/r_{k-1}.  The checks are

        a_k > 0  and  4 b_k <= a_{k-1} a_k,   k0 < k <= d,

    from a block start k0 with r_{k0} = a_{k0} (:func:`_cell`).  By
    induction r_k >= a_k/2 > 0: r_{k0} = a_{k0}, and for b_k > 0,
    b_k/r_{k-1} <= 2 b_k/a_{k-1} <= a_k/2, while b_k <= 0 gives r_k >= a_k.
    So every E_n with n > k0 has the sign of E_{k0}.  This is the classical
    lower bound on the tails of a continued fraction (Wall, *Analytic Theory
    of Continued Fractions*, 1948).

    With i, j, m >= 0 the checks read A + m > 0 and F + m G + m^2 >= 0 at
    k = 1 + i, d = 1 + i + j (:func:`_tail_polynomials`).  Both hold when
    A's constant term is positive and no coefficient of A, F or G is
    negative (:func:`_no_negative`).  On a family's :func:`_column`, its
    lowest multipole, m runs over the multipole offsets of every
    l >= min_l.  A family that fails the test is not refuted; its cells run
    :func:`_cell` to the end.
    """
    A, F, G = _tail_polynomials(column)
    return bool(A) and A[0][0] > 0 and _no_negative(c for P in (*A, *F, *G) for c in P.num)


def default_l_range(family: str, l_max: int) -> range:
    return range(PerturbationKind.from_label(family).min_l, l_max + 1)


class ScanReport:
    """The aggregates of a scan or of one column; :meth:`absorb` appends a column."""

    def __init__(self, families: tuple, l_max: int, d_max: int, cells: int = 0):
        self.families: tuple = families
        self.l_max: int = l_max
        self.d_max: int = d_max
        self.cells: int = cells
        self.final_sign_violations: list = []
        self.flagged: list = []  # intermediate-sign cells
        self.flagged_count: int = 0
        self.flags_resolved_nonzero: bool = True  # every flagged cell still has D_last != 0
        self.cross_checks: list = []
        self.cross_checks_ok: bool = True

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    @property
    def all_final_signs_ok(self) -> bool:
        return not self.final_sign_violations

    @property
    def first_failure(self) -> Optional[dict]:
        """The first failing cell in scan order: a final-sign violation, or
        else a cross-check whose determinants disagree or whose nullspace is
        nontrivial; None when neither failed."""
        for family, l, d, _ in self.final_sign_violations[:1]:
            return {"check": "final_sign", "family": family, "l": l, "d": d}
        for check in self.cross_checks:
            if _check_failed(check):
                return {"check": "cross_check", **{k: check[k] for k in ("family", "l", "d")}}
        return None

    def absorb(self, part: ScanReport) -> None:
        """Append the aggregates of the next column in scan order, keeping
        the first 32 flagged cells."""
        self.cells += part.cells
        self.final_sign_violations.extend(part.final_sign_violations)
        self.flagged.extend(part.flagged[: 32 - len(self.flagged)])
        self.flagged_count += part.flagged_count
        self.flags_resolved_nonzero &= part.flags_resolved_nonzero
        self.cross_checks.extend(part.cross_checks)
        self.cross_checks_ok &= part.cross_checks_ok


# The scan cross-checks every fourth cell up to d = 12, the 236 checks its
# default report is pinned to; the oracles' cost no longer sets the bound
# (Bareiss takes about 2 ms on G7's 122 x 122 system at l = 4).
_CROSS_CHECK_D_MAX = 12


def cross_check_cell(family: str, l: int, d: int) -> dict:
    """Bareiss determinant of the explicit system vs the engine's D_{d+1}.

    The system is built on the scan family's one equation,
    :func:`family_equation` of its label.  Its d+1 integer rows are the
    rational rows times one factor den, so the determinant is divided by
    den ** (d + 1).  At d <= 8 the same rows plus row d+1 give the
    brute-force nullspace.  Both oracles are held to :func:`_cell`'s exact
    loop, whose signs it records: :func:`_scan_group` holds its run verdicts to them.
    """
    s = degree_to_s(family, d)  # a family outside the scan has no grid
    rows, den = candidate_rows(family_equation(family).at(l, s), d)
    det = Fraction(bareiss_determinant(rows[:-1]), den ** (d + 1))
    sign_ok, final_ok, D_last, _ = _cell(_column_at(family, l), d)
    nullspace_dim = len(nullspace(rows)) if d <= 8 else None
    return {
        "family": family,
        "l": l,
        "d": d,
        "recurrence_det": D_last,
        "bareiss_det": det,
        "agree": Fraction(D_last) == det,
        "nullspace_dim": nullspace_dim,
        "sign_ok": sign_ok,
        "final_sign_ok": final_ok,
    }


def _check_failed(check: dict) -> bool:
    return not check["agree"] or check["nullspace_dim"] not in (0, None)


def _scan_group(family: str, l: int, d_max: int, want_cells: bool, certificate) -> tuple:
    """(ScanReport, text) of one (family, l) column; picklable.

    ``family`` is a scan family's label: its grid comes from
    :func:`_column` and the equation of its cross-checks from
    :func:`family_equation`, each built once per family in each process.
    The part names its column as families = (family,) and
    l_max = l, and keeps at most 8 flagged cells; text is the column's
    ``--out`` records in d order as JSON joined by ",\n", or None without
    ``want_cells``.  ``certificate`` is the family's :func:`_certificate`,
    proved once by :func:`scan` for every l: where it is not None,
    :func:`_runs` decides whole runs of d at once, so a column's cost does
    not grow with d_max; the cells it leaves, and every cell of a family
    with no certificate, are one :func:`_cell` call each.  Each sampled
    cross-check holds the cell's verdict, run-decided or not, to the exact
    loop's signs, with D_{d+1} != 0 where no D_{d+1} was computed.  With
    ``want_cells`` :func:`scan` passes no certificate and every cell is
    exact, since each record carries D_{d+1} and its magnitude index.
    """
    column = _column_at(family, l)
    part = ScanReport(families=(family,), l_max=l, d_max=d_max, cells=d_max + 1)
    records = [] if want_cells else None
    for lo, hi, verdict in _runs(certificate, column, d_max) if certificate else [(0, d_max, None)]:
        if verdict:  # every cell lo..hi, with D_{d+1} != 0 proved and not computed
            decided = [(lo, hi, *verdict, None, None)]
        else:
            decided = ((d, d, *_cell(column, d)) for d in range(lo, hi + 1))
        for first, last, sign_ok, final_ok, D_last, mag_from in decided:
            for d in range(first + -first % 4, min(last, _CROSS_CHECK_D_MAX) + 1, 4):
                check = cross_check_cell(family, l, d)
                exact = check["recurrence_det"]
                check["agree"] &= (sign_ok, final_ok) == (check["sign_ok"], check["final_sign_ok"])
                check["agree"] &= D_last == exact or exact != 0
                part.cross_checks.append(check)
            cells = range(first, last + 1)
            if not final_ok:
                part.final_sign_violations.extend((family, l, d, D_last) for d in cells)
            if not sign_ok:
                part.flagged_count += len(cells)
                part.flags_resolved_nonzero &= D_last != 0
                part.flagged.extend((family, l, d) for d in cells[: 8 - len(part.flagged)])
            if want_cells:
                records.append(
                    {
                        "family": family,
                        "l": l,
                        "s": rat_to_str(degree_to_s(family, first)),
                        "d": first,
                        "sign_ok": sign_ok,
                        "final_sign_ok": final_ok,
                        "D_last": int_to_str(D_last),
                        "mag_increasing_from": mag_from,
                    }
                )
    part.cross_checks_ok = not any(map(_check_failed, part.cross_checks))
    return part, ",\n".join(map(json.dumps, records)) if want_cells else None


def scan(
    families: Sequence[str] = SCAN_FAMILIES,
    l_max: int = 20,
    d_max: int = 500,
    out: Optional[str] = None,
) -> ScanReport:
    """Aggregate the determinant-sign evidence over the grid.

    Streams every (family, l, d) cell; intermediate-sign violations are
    flagged and resolved by the full determinant (a nonzero D_{d+1} rules
    out the candidate regardless of interior minors).  Without ``out`` each
    family's verdicts are proved once, on its lowest multipole and so for
    every l >= min_l (:func:`_certificate`); in a family with a
    certificate, :func:`_runs` decides whole runs of d, and every other
    cell runs its exact minors (:func:`_scan_group`).  Cells with
    d <= _CROSS_CHECK_D_MAX are sampled and cross-checked against a direct
    fraction-free determinant of the explicit system, and at very small d
    against the brute-force nullspace.  With ``out`` set, one JSON record per cell is written there
    in grid order, one column at a time, so memory holds one column's
    records and does not grow with the grid; the file is opened before any
    cell is computed, and one that cannot be opened raises UsageError.

    Grid columns are independent.  With ``out``, a grid of at least
    _POOL_MIN_STEPS exact recurrence steps fans them out across one process
    per usable CPU, at most one per column; a smaller grid, and any scan
    without ``out``, runs serially.  Results are taken in (family, l)
    order, so the report and the file do not depend on it.  A grid with no
    cell (negative ``d_max``, or no l in range) raises UsageError: a scan
    that examined nothing must not pass.
    """
    families = tuple(families)
    unknown = [f for f in families if f not in SCAN_FAMILIES]
    if unknown:
        raise UsageError(f"scan covers {SCAN_FAMILIES}, not {unknown}")
    want_cells = out is not None
    grid = [(family, l) for family in families for l in default_l_range(family, l_max)]
    if d_max < 0 or not grid:
        raise UsageError(f"empty scan grid: families {families}, l <= {l_max}, d <= {d_max}")
    certificates = {f: None if want_cells else _certificate(_column(f)) for f in families}
    jobs = [(family, l, d_max, want_cells, certificates[family]) for family, l in grid]
    steps = len(jobs) * (d_max + 1) * (d_max + 2) // 2  # exact, as --out runs every cell
    workers = _worker_count(len(jobs), _usable_cpus(), steps) if want_cells else 1
    report = ScanReport(families=families, l_max=l_max, d_max=d_max)
    with contextlib.ExitStack() as stack:
        try:
            sink = stack.enter_context(open(out, "w")) if want_cells else None
        except OSError as exc:
            raise UsageError(f"cannot write {out}: {exc.strerror or exc}") from None
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            columns = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map
        else:
            columns = map
        sep = "[\n"
        for part, text in columns(_scan_group, *zip(*jobs)):
            report.absorb(part)
            if sink:
                sink.write(sep + text)
                sep = ",\n"
        if sink:
            sink.write("\n]\n")
    return report


# A scan with --out runs serially below this much work, because starting the
# pool (importing concurrent.futures and forking the workers) costs about
# what it saves.  The unit is one exact recurrence step: a column costs
# (d_max+1)(d_max+2)/2 of them.  The scan() call, best of 7 fresh
# interpreters on 2 vCPUs (Python 3.11), serial / 2 workers: 88k steps
# (l <= 6, d <= 100) 0.061/0.078 and 0.060/0.071 s; 170k (d <= 140)
# 0.180/0.149, 0.091/0.092 and 0.097/0.100 s; 345k (d <= 200) 0.197/0.199,
# 0.168/0.153 and 0.189/0.144 s.  So the pool pays from about 200,000 exact
# steps, and the default grid with --out takes it.
# A scan without --out is serial at any size: its runs decide a certified
# column at a cost that does not grow with d_max, and the pool lost on every
# grid tried.  Median of 10 alternated fresh interpreters, same machine,
# serial / 2 workers: l <= 20, d <= 500 (29,559 cells) 0.035/0.100 s;
# l <= 20, d <= 2000 0.042/0.093 s; l <= 30, d <= 1000 0.057/0.143 s;
# l <= 60, d <= 100,000 (17,900,179 cells) 0.136/0.251 s.
_POOL_MIN_STEPS = 200_000


def _usable_cpus() -> Optional[int]:
    """The CPUs this process may run on: its affinity set where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count()


def _worker_count(columns: int, cpus: Optional[int], steps: int) -> int:
    """The scan's worker processes: min(cpus, columns), or 1 below _POOL_MIN_STEPS steps."""
    if steps < _POOL_MIN_STEPS:
        return 1
    return max(1, min(cpus or 1, columns))


# ---------------------------------------------------------------------------
# S3: exact non-existence
# ---------------------------------------------------------------------------


class S3Record(NamedTuple):
    """Outcome of the S3 non-existence argument.

    A degree 2s-1 polynomial solution must terminate the Frobenius series
    in both the r and the w frame, and the two leading coefficients of the
    same polynomial written in either frame must be compatible.  The
    r-frame termination ratio is -s/(l(l+1) + 4s^2).  If the w-frame ratio
    carried the same denominator ("matched" variant), compatibility would
    force s into {0, 1/2}, both inadmissible: s = 0 gives a negative
    degree and the s = 1/2 degree-0 candidate has no solution of its
    candidate system.
    The w-frame termination row actually has diagonal -(l(l+1) + 2s), and
    with that ratio the leading-order compatibility holds identically
    (both numerators are -s), so it carries no constraint and is not
    recorded; the exact sweep of the full linear systems is the
    load-bearing evidence.
    """

    matched_ratio_solution_set: tuple  # the same for every l
    half_s_degree0_fails: bool
    oracle_all_trivial: bool
    oracle_cells: int

    @property
    def all_ok(self) -> bool:
        return (
            self.matched_ratio_solution_set == (Fraction(0), Fraction(1, 2))
            and self.half_s_degree0_fails
            and self.oracle_all_trivial
        )


def _ratio_system_polynomial() -> Poly:
    """Numerator of the combined ratio/compatibility condition, in s, in
    the matched variant (:class:`S3Record`).

    The r-frame termination ratio is t1 = -s / (L + 4 s^2) and the matched
    w-frame ratio t2 = -s / (L + 4 s^2); compatibility of the two leading
    coefficients requires t1 = 1 / (2(1 - 2s) + 1/t2).  Clearing
    denominators leaves

        N1 (2(1-2s) N2 + D2) - D1 N2,

    with t1 = N1/D1, t2 = N2/D2.  N1 = N2 = -s and D1 = D2, so L cancels
    and the numerator is 2 s^2 (1 - 2s) at every l."""
    s = Poly.x()
    return 2 * (1 - 2 * s) * s * s


def s3_nonexistence(two_s_max: int, l_max: int) -> S3Record:
    """Assemble the S3 record: exact ratio algebra plus the oracle sweep."""
    if two_s_max < 2:
        raise ValueError("the sweep needs 2s >= 2")
    if l_max < 0:
        raise ValueError("the sweep needs l_max >= 0")
    eq = family_equation("S3")

    l_checked = range(l_max + 1)
    solution_set = tuple(rational_roots(_ratio_system_polynomial()))

    # the s = 1/2 survivor would need a degree-0 polynomial solution
    half_fails = all(
        not solve_low_degree(eq, 0, l=l, s_fixed=Fraction(1, 2))
        for l in l_checked
    )

    oracle_all_trivial = True
    cells = 0
    for two_s in range(2, two_s_max + 1):
        s = Fraction(two_s, 2)
        d = two_s - 1
        for l in l_checked:
            basis = brute_force_polynomial_solutions(eq.at(l, s), d)
            cells += 1
            if basis:
                oracle_all_trivial = False
    return S3Record(
        matched_ratio_solution_set=solution_set,
        half_s_degree0_fails=half_fails,
        oracle_all_trivial=oracle_all_trivial,
        oracle_cells=cells,
    )
