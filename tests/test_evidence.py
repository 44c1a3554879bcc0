"""Determinant-sign evidence and the S3 non-existence record."""

import itertools
import json
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhkovacic import auxode, evidence
from bhkovacic.algebra import Poly, rational_roots
from bhkovacic.auxode import (
    brute_force_polynomial_solutions,
    candidate_rows,
    chandrasekhar_coeffs,
    chandrasekhar_r_frame,
    family_equation,
    recurrence,
)
from bhkovacic.elimination import bareiss_determinant, tridiag_minors
from bhkovacic.evidence import (
    SCAN_FAMILIES,
    ScanReport,
    _cell,
    _cell_entries,
    _certificate,
    _column,
    _column_at,
    _prefix,
    _ratio_system_polynomial,
    _runs,
    _scan_group,
    _tail_certified,
    _tail_polynomials,
    _worker_count,
    cross_check_cell,
    default_l_range,
    degree_to_s,
    det_sequence,
    s3_nonexistence,
    scan,
)
from bhkovacic.kovacic import family_by_label
from bhkovacic.master import special_frequency


# the published degree formulas G3: s = (d+3)/2, E3: s = (d+2)/2, E7: s = d/2
TWO_S_OFFSET = {"G3": 3, "E3": 2, "E7": 0}


def _candidate_ode(label, l, d):
    """The family's auxiliary equation at the frequency its degree-d candidate pins."""
    fam = family_by_label(label)
    s = (d - fam.degree[0]) / fam.degree[1]
    return family_equation(label).at(l, s)


def _direct_det(ode, size):
    """Exact determinant of rows 0..size-1 of the candidate system, by Bareiss.

    Each integer row is the rational row times the one factor den, which
    is divided back out.
    """
    rows, den = candidate_rows(ode, size - 1)
    return F(bareiss_determinant(rows[:-1]), den**size)


def _engine_minors(label, l, d):
    return list(tridiag_minors(*_cell_entries(_column_at(label, l), d)))


def test_degree_to_s():
    for family, offset in TWO_S_OFFSET.items():
        assert all(2 * degree_to_s(family, d) == d + offset for d in range(20))
    assert degree_to_s("G3", 1) == 2
    assert degree_to_s("G3", 0) == F(3, 2)
    assert degree_to_s("E3", 4) == 3
    assert degree_to_s("E7", 6) == 3
    with pytest.raises(ValueError):
        degree_to_s("S3", 1)


def test_g3_example_sequence():
    seq = det_sequence("G3", 2, 1)  # s = 2
    assert seq.values[0] == 1  # empty determinant
    assert seq.values[1] == -20
    assert seq.values[2] == 420
    assert seq.sign_pattern_ok and seq.final_sign_ok


@pytest.mark.parametrize("family, d", [("G3", -1), ("E7", -3)])
def test_det_sequence_refuses_a_negative_degree(family, d):
    # a cell with no row examines nothing and must not report a pass
    with pytest.raises(ValueError, match="degree bound must be non-negative"):
        det_sequence(family, 2, d)


def test_sequence_matches_direct_determinants():
    # engine minors vs fraction-free determinants for every n <= 12
    for family, l, d in (("G3", 2, 12), ("E3", 1, 12), ("E7", 1, 12), ("E7", 2, 9)):
        ode = _candidate_ode(family, l, d)
        seq = det_sequence(family, l, d)
        assert seq.values[0] == 1
        for n in range(1, d + 2):
            assert F(seq.values[n]) == _direct_det(ode, n), (family, l, d, n)


def _published_entries(family, l, d):
    """diag(n) and offprod(n), n = 0..d, from the published two-term recurrences

        G3: D_{n+1} = (n^2 + 5n - 4sn + 6 - L - 10s) D_n - 2ns(n+4)(2s-2-n) D_{n-1}
        E3: D_{n+1} = (n^2 + 3n - 4sn + 2 - L -  6s) D_n - 2ns(n+2)(2s-1-n) D_{n-1}
        E7: D_{n+1} = (n^2 -  n - 4sn     - L +  2s) D_n - 2ns(n-2)(2s+1-n) D_{n-1}

    with L = l(l+1), written in the integer ss = 2s.
    """
    L = l * (l + 1)
    ss = d + TWO_S_OFFSET[family]
    ns = range(d + 1)
    if family == "G3":
        diag = [n * n + 5 * n - 2 * ss * n + 6 - L - 5 * ss for n in ns]
        offprod = [n * ss * (n + 4) * (ss - 2 - n) for n in ns]
    elif family == "E3":
        diag = [n * n + 3 * n - 2 * ss * n + 2 - L - 3 * ss for n in ns]
        offprod = [n * ss * (n + 2) * (ss - 1 - n) for n in ns]
    else:
        diag = [n * n - n - 2 * ss * n - L + ss for n in ns]
        offprod = [n * ss * (n - 2) * (ss + 1 - n) for n in ns]
    return diag, offprod


def test_engine_entries_match_published_recurrences():
    # every entry of the acceptance grid (l <= 20, d <= 500) that the scan
    # derives from the auxiliary equation equals the published formula
    for family in SCAN_FAMILIES:
        for l in default_l_range(family, 20):
            column = _column_at(family, l)
            for d in range(501):
                entries = _cell_entries(column, d)
                assert entries == _published_entries(family, l, d), (family, l, d)


@pytest.mark.parametrize("label", ["G3", "E3", "E7", "S3", "G7"])
def test_family_grid_at_l_matches_the_equation_built_at_l(label):
    # one grid per family, lowered by the multipole offset, against the
    # recurrence of the equation built at each l <= 20 and the pinned s
    fam = family_by_label(label)
    eq = family_equation(label)
    a, b = fam.degree[0], fam.degree[1]
    for l in range(fam.kind.min_l, 21):
        column = _column_at(label, l)
        for d in (0, 1, 7, 30):
            rec, den = recurrence(eq.at(l, (d - a) / b))
            ks = range(d + 1)
            expected = (
                [F(rec.diag(k), den) for k in ks],
                [F(rec.lower(k) * rec.upper(k - 1), den**2) for k in ks],
            )
            assert _cell_entries(column, d) == expected, (l, d)


def test_g7_positive_control():
    # the G7 candidate of degree d = 2s + 1 exists exactly at the
    # algebraically special s, so the engine's full determinant vanishes there
    for l in range(2, 6):
        d = int(2 * special_frequency(l)) + 1
        assert _engine_minors("G7", l, d)[-1] == 0, l
    # and next to it the engine agrees with Bareiss, and is nonzero
    for l in range(2, 6):
        d = int(2 * special_frequency(l)) + 1
        for near in (d - 1, d + 1):
            D_last = _engine_minors("G7", l, near)[-1]
            assert D_last != 0
            assert D_last == _direct_det(_candidate_ode("G7", l, near), near + 1), (l, near)
    # and at s* the brute-force nullspace is one line, spanned by
    # Chandrasekhar's polynomial in the r frame
    for l in (2, 3, 4):
        d = int(2 * special_frequency(l)) + 1
        basis = brute_force_polynomial_solutions(_candidate_ode("G7", l, d), d)
        P_w = chandrasekhar_coeffs(l)
        target = chandrasekhar_r_frame(l, P_w.den, P_w.num[-1])
        assert len(basis) == 1, l
        assert basis[0] * target.leading() == target * basis[0].leading(), l


def test_planted_diagonal_error_is_the_scans_first_failure(monkeypatch):
    # one cleared diagonal entry of one explicit system is off by one: its
    # cross-check disagrees, and the scan names that cell first
    planted_cell = ("E3", 2, 8)
    real_at, real_rows = auxode.FamilyEquation.at, evidence.candidate_rows
    built = {}  # id of each equation built -> (family label, l)

    def recorded_at(eq, l, s):
        ode = real_at(eq, l, s)
        built[id(ode)] = (eq.family.label, l)
        return ode

    def planted_rows(ode, d):
        rows, den = real_rows(ode, d)
        if (*built[id(ode)], d) == planted_cell:
            rows[4][4] += 1
        return rows, den

    monkeypatch.setattr(auxode.FamilyEquation, "at", recorded_at)
    monkeypatch.setattr(evidence, "candidate_rows", planted_rows)
    report = scan(families=SCAN_FAMILIES, l_max=3, d_max=12)
    failed = [c for c in report.cross_checks if not c["agree"]]
    assert [(c["family"], c["l"], c["d"]) for c in failed] == [planted_cell]
    assert failed[0]["bareiss_det"] != failed[0]["recurrence_det"]
    assert not report.cross_checks_ok
    assert report.all_final_signs_ok
    assert report.first_failure == {"check": "cross_check", "family": "E3", "l": 2, "d": 8}


def test_s3_engine_matches_bareiss():
    assert _engine_minors("S3", 0, 3)[-1] == 3216
    for l, d in ((0, 3), (1, 5), (2, 8), (3, 11)):
        minors = _engine_minors("S3", l, d)
        ode = _candidate_ode("S3", l, d)
        for n in (1, d // 2 + 1, d + 1):
            assert minors[n - 1] == _direct_det(ode, n), (l, d, n)


def test_scan_builds_each_column_once(monkeypatch):
    # one grid serves every l of a family
    _column.cache_clear()
    report = scan(families=("G3",), l_max=3, d_max=12)
    assert len(report.cross_checks) == 2 * 4
    assert _column.cache_info().misses == 1


def test_scan_certifies_each_family_once(monkeypatch, tmp_path):
    # one proof per family on its lowest multipole serves every l: 3 on the
    # verify-all grid (17 columns) and 3 on the default grid (59 columns);
    # --out runs every cell exactly and needs no certificate
    certify = evidence._certificate
    calls = []

    def counted(column):
        calls.append(column)
        return certify(column)

    monkeypatch.setattr(evidence, "_certificate", counted)
    scan(l_max=6, d_max=100)
    assert calls == [_column(family) for family in SCAN_FAMILIES]
    scan()
    assert len(calls) == 6
    scan(l_max=6, d_max=100, out=str(tmp_path / "cells.json"))
    assert len(calls) == 6


@pytest.mark.parametrize("label", ["G1", "G4", "G5", "G8", "E1", "E4", "E5", "E8", "S1", "S4"])
def test_column_refuses_a_degree_form_with_slope_zero(label):
    # d = a for every s: no candidate pins a frequency, so there is no grid in d
    with pytest.raises(ValueError, match=f"degree of {label} does not depend on s"):
        _column(label)


def test_cross_check_cell_example():
    check = cross_check_cell("E7", 1, 2)
    assert check["agree"]
    assert check["recurrence_det"] == -24
    assert check["nullspace_dim"] == 0


def _lying_run(monkeypatch, d_lie, verdict):
    """Make _runs decide the cell d_lie alone, with ``verdict``."""
    runs = evidence._runs

    def lying(certificate, column, d_max):
        for lo, hi, decided in runs(certificate, column, d_max):
            if not lo <= d_lie <= hi:
                yield lo, hi, decided
                continue
            if lo < d_lie:
                yield lo, d_lie - 1, decided
            yield d_lie, d_lie, verdict
            if d_lie < hi:
                yield d_lie + 1, hi, decided

    monkeypatch.setattr(evidence, "_runs", lying)


def test_cross_check_holds_the_walk_to_the_exact_cell(monkeypatch):
    # E7 at l = 2, d = 8 > l(l+1) has a broken interior pattern; a run
    # verdict that calls it clean fails the scan's cross-check there, while
    # cross_check_cell alone compares its oracles with the exact loop only
    certificate = _certificate(_column("E7"))
    assert _scan_group("E7", 2, 12, False, certificate)[0].cross_checks_ok
    _lying_run(monkeypatch, 8, (True, True))
    part, _ = _scan_group("E7", 2, 12, False, certificate)
    assert [check["agree"] for check in part.cross_checks] == [True, True, False, True]
    assert all(check["recurrence_det"] == check["bareiss_det"] for check in part.cross_checks)
    assert not part.cross_checks_ok
    assert cross_check_cell("E7", 2, 8)["agree"]


def test_cross_check_refuses_an_early_exit_on_a_zero_determinant(monkeypatch):
    # _PLANTED_ZERO has D_{d+1} = 0 in every cell, so no run may decide
    # one, even with the exact signs; it has no certificate, so the runs
    # that lie about d = 4 are planted on a column with no run decided
    column = _PLANTED_ZERO
    monkeypatch.setattr(evidence, "_column_at", lambda fam, l: column)
    monkeypatch.setattr(evidence, "candidate_rows", lambda ode, d: _tridiagonal_rows(column, d))
    assert _tail_certified(column) and _certificate(column) is None
    agree = [check["agree"] for check in _scan_group("G3", 2, 12, False, None)[0].cross_checks]
    assert agree == [True] * 4
    monkeypatch.setattr(evidence, "_runs", lambda certificate, column, d_max: [(0, d_max, None)])
    _lying_run(monkeypatch, 4, (False, False))
    part, _ = _scan_group("G3", 2, 12, False, (0, True))
    assert [check["agree"] for check in part.cross_checks] == [True, False, True, True]


def _tridiagonal_rows(column, d):
    """The column's degree-d system laid out as candidate_rows lays out its
    rows 0..d+1, with den = 1: D_{k+1} = diag(k) D_k - offprod(k) D_{k-1}."""
    diag, offprod = _cell_entries(column, d)
    rows = [[0] * (d + 1) for _ in range(d + 2)]
    for m in range(d + 1):
        rows[m][m] = diag[m]
        if m:
            rows[m][m - 1], rows[m - 1][m] = offprod[m], 1
    return rows, 1


def test_cross_check_catches_a_false_certificate(monkeypatch):
    # _PLANTED as a system of its own: Bareiss agrees with the recurrence,
    # and the column does not certify, so no run is decided.  Certified
    # falsely, a_0 = 10 puts every cell in one clean run with k0 = 0, where
    # the exact loop flags d = 8 and d = 12
    monkeypatch.setattr(evidence, "_column", lambda label: _PLANTED)
    monkeypatch.setattr(evidence, "_column_at", lambda fam, l: _PLANTED)
    monkeypatch.setattr(evidence, "candidate_rows", lambda ode, d: _tridiagonal_rows(_PLANTED, d))
    report = scan(families=("G3",), l_max=2, d_max=12)
    assert [check["agree"] for check in report.cross_checks] == [True] * 4
    monkeypatch.setattr(evidence, "_tail_certified", lambda column: True)
    report = scan(families=("G3",), l_max=2, d_max=12)
    # the bound holds up to k = 5, so d = 4 is still right
    assert [check["agree"] for check in report.cross_checks] == [True, True, False, False]
    assert all(check["recurrence_det"] == check["bareiss_det"] for check in report.cross_checks)
    assert report.first_failure == {"check": "cross_check", "family": "G3", "l": 2, "d": 8}


def test_cross_check_cell_builds_its_system_once(monkeypatch):
    # one recurrence serves the Bareiss determinant and, at d <= 8, the
    # brute-force nullspace
    real_recurrence = auxode.recurrence
    calls = []

    def counted(*args):
        calls.append(args)
        return real_recurrence(*args)

    monkeypatch.setattr(auxode, "recurrence", counted)
    check = cross_check_cell("G3", 2, 4)
    assert len(calls) == 1
    assert check == {
        "family": "G3",
        "l": 2,
        "d": 4,
        "recurrence_det": -134180865,
        "bareiss_det": F(-134180865),
        "agree": True,
        "nullspace_dim": 0,
        "sign_ok": True,
        "final_sign_ok": True,
    }


def _assert_mag_index(values, n0):
    """n0 is where |D_n| starts to increase strictly for good."""
    assert all(abs(values[k]) > abs(values[k - 1]) for k in range(n0 + 1, len(values)))
    assert n0 == 0 or abs(values[n0]) <= abs(values[n0 - 1])


def test_magnitude_log_matches_sequence():
    # logged observation only; the kernel's index agrees with the stored minors
    for family, l, d in (("G3", 3, 25), ("E7", 2, 30)):
        n0 = _cell(_column_at(family, l), d)[3]
        _assert_mag_index(det_sequence(family, l, d).values, n0)


def _reference(values, d):
    """(sign_ok, final_ok, D_last, mag_from) recomputed from D_0..D_{d+1}."""
    D_last = values[-1]
    mag_from = max(
        (n for n in range(1, len(values)) if abs(values[n]) <= abs(values[n - 1])), default=0
    )
    return (
        all(v != 0 and (v > 0) == (n % 2 == 0) for n, v in enumerate(values)),
        D_last != 0 and (D_last > 0) == (d % 2 == 1),
        D_last,
        mag_from,
    )


def test_cell_matches_reference_on_scan_families():
    # every G3/E3/E7 cell at l <= 6, d <= 100 against det_sequence
    interior_zero = False
    for family in SCAN_FAMILIES:
        for l in default_l_range(family, 6):
            column = _column_at(family, l)
            for d in range(101):
                seq = det_sequence(family, l, d)
                expected = _reference(seq.values, d)
                assert expected[:3] == (seq.sign_pattern_ok, seq.final_sign_ok, seq.D_last)
                assert _cell(column, d) == expected, (family, l, d)
                interior_zero = interior_zero or 0 in seq.values[1:-1]
    assert interior_zero  # the E7 first minor vanishes at d = l(l+1)
    assert det_sequence("E7", 2, 6).values[1] == 0


def test_cell_matches_reference_on_s3_and_g7():
    # the engine's other columns, including the G7 cell whose D_last is 0
    special = {l: int(2 * special_frequency(l)) + 1 for l in (2, 3, 4)}
    columns = [("S3", l, 40) for l in (0, 1, 3)] + [("G7", l, d + 2) for l, d in special.items()]
    for family, l, d_max in columns:
        column = _column_at(family, l)
        for d in range(d_max + 1):
            values = (1, *tridiag_minors(*_cell_entries(column, d)))
            assert _cell(column, d) == _reference(values, d), (family, l, d)
            if family == "G7" and d == special[l]:
                assert values[-1] == 0


_coeffs = st.lists(st.integers(-3, 3), min_size=0, max_size=3).map(tuple)


@given(
    st.tuples(_coeffs, _coeffs, _coeffs),
    st.tuples(_coeffs, _coeffs, _coeffs, _coeffs),
    st.integers(0, 40),
)
@settings(max_examples=300, deadline=None)
def test_cell_matches_reference_on_random_columns(diag, offprod, d):
    # small coefficients make zero minors and broken signs common
    column = (diag, offprod)
    values = (1, *tridiag_minors(*_cell_entries(column, d)))
    assert _cell(column, d) == _reference(values, d)


def _scan_cell(certificate, column, d):
    """Cell d as the scan decides it: its run's (*verdict, None, None), or
    _cell where no run decides it or there is no certificate."""
    for lo, hi, verdict in _runs(certificate, column, d) if certificate else ():
        if lo <= d <= hi and verdict:
            return (*verdict, None, None)
    return _cell(column, d)


def _run_verdicts(certificate, column, d_max):
    """The run verdict of each cell d = 0..d_max, None where _cell decides it;
    the runs cover 0..d_max in order."""
    verdicts = []
    for lo, hi, verdict in _runs(certificate, column, d_max):
        assert lo == len(verdicts) and lo <= hi
        verdicts += [verdict] * (hi + 1 - lo)
    assert len(verdicts) == d_max + 1
    return verdicts


def _assert_walk_decides_like_cell(family, ls, d_max):
    # the family has a certificate, a run decides every cell, and its
    # verdict is the full loop's signs with D_last != 0
    certificate = _certificate(_column(family))
    assert certificate, family
    for l in ls:
        column = _column_at(family, l)
        for d, verdict in enumerate(_run_verdicts(certificate, column, d_max)):
            sign_ok, final_ok, D_last, _ = _cell(column, d)
            assert verdict == (sign_ok, final_ok), (family, l, d)
            assert D_last != 0, (family, l, d)


@pytest.mark.parametrize("family", SCAN_FAMILIES)
def test_cell_signs_decide_the_verify_all_grid_like_cell(family):
    # every G3/E3/E7 cell at l <= 6, d <= 100: no cell runs to the end
    _assert_walk_decides_like_cell(family, default_l_range(family, 6), 100)


@pytest.mark.parametrize("family", SCAN_FAMILIES)
def test_cell_signs_decide_the_acceptance_grid_edges_like_cell(family):
    # the lowest and the highest l of the acceptance grid, d <= 500
    lowest = default_l_range(family, 20)[0]
    _assert_walk_decides_like_cell(family, (lowest, 20), 500)


def test_cell_signs_block_start_of_e7():
    # a_0 = l(l+1) - d: E7 starts its block at k0 = 0 below d = l(l+1), and
    # at k0 = 2 from there on (offprod(2) = 0), through an exact zero or
    # negative first minor and E_2 = (l(l+1))^2
    certificate = _certificate(_column("E7"))
    assert certificate == (2, False)
    column = _column_at("E7", 2)
    assert _runs(certificate, column, 40) == [(0, 5, (True, True)), (6, 40, (False, True))]
    assert _cell(column, 5)[:2] == (True, True)
    assert _cell(column, 6)[:2] == (False, True)  # D_1 = 0
    assert _cell(column, 7)[:2] == (False, True)  # D_1 > 0
    assert [det_sequence("E7", 2, d).values[2] for d in (6, 7, 40)] == [36] * 3


def _counted_horner(monkeypatch):
    """Count the evaluations of the column's polynomials."""
    real, calls = evidence.horner, []

    def counted(coeffs, x):
        calls.append(x)
        return real(coeffs, x)

    monkeypatch.setattr(evidence, "horner", counted)
    return calls


# a_k = 3 - d + k + 2 k d and offprod(k) = -k d^2: A = 5 + 4i + 2i^2 + j + 2ij,
# F and G have no negative coefficient, so the column's tail certifies,
# while a_0 = 3 - d turns zero at d = 3 and negative after it
_PLANTED_A0_SIGN = (((-3, 1), (-1, -2), ()), ((), (0, 0, -1), (), ()))


def test_runs_split_where_a0_changes_sign():
    # the cut d = -diag's constant term splits 0..d_max into the cells with
    # a_0 > 0, all clean, and those with a_0 <= 0, which take the
    # certificate's verdict from k0 on and run _cell below it
    for c in range(-7, 8):
        column = (((c, -1), (-1,), ()), ((), (), (), ()))
        for k0 in range(4):
            for sign_ok in (True, False):
                for d_max in (0, 1, 5, 9):
                    expected = [
                        (True, True) if c + d < 0 else None if d < k0 else (sign_ok, True)
                        for d in range(d_max + 1)
                    ]
                    assert _run_verdicts((k0, sign_ok), column, d_max) == expected
    # b_k = -k d^2 never vanishes identically, so no block starts, and
    # _PLANTED_A0_SIGN gets no certificate and runs every cell exactly
    assert _tail_certified(_PLANTED_A0_SIGN)
    assert all(any(b) for _, b in _prefix(_PLANTED_A0_SIGN, 3))
    assert _certificate(_PLANTED_A0_SIGN) is None


@pytest.mark.parametrize("family,l", [("G3", 2), ("E7", 2)])
def test_scan_group_cost_does_not_grow_with_d_max(monkeypatch, family, l):
    # a column with a certificate evaluates the same polynomials at
    # d_max = 100 and at d_max = 100,000: none but the seven of each of the
    # four sampled cross-checks' exact cells (d = 0, 4, 8, 12), since the
    # family's prefix is proved once, not per column
    certificate = _certificate(_column(family))
    counts = []
    for d_max in (100, 100_000):
        with monkeypatch.context() as m:
            calls = _counted_horner(m)
            part, _ = _scan_group(family, l, d_max, False, certificate)
        assert part.cells == d_max + 1 and part.cross_checks_ok
        assert len(part.cross_checks) == 4
        counts.append(len(calls))
    assert counts == [4 * 7] * 2


# a_k = -diag(k) >= 1 on the sampled range keeps the runs deciding often;
# offprod takes either sign and is zero on whole ranges
_positive = st.lists(st.integers(-3, 0), min_size=1, max_size=3).map(
    lambda c: (c[0] - 1, *c[1:])
)


def _offset_column(label, m):
    """The family's grid with diag's k^0 d^0 coefficient lowered by any m."""
    ((c, *c_d), *c_k), offprod = _column(label)
    return ((c - m, *c_d), *c_k), offprod


def _perturbed_column(label, where, by):
    """The family's grid with one coefficient moved by ``by``: ``where``
    picks it among every coefficient of diag and offprod."""
    grids = [[list(row) for row in grid] for grid in _column(label)]
    cells = [(g, i, j) for g in (0, 1) for i, row in enumerate(grids[g]) for j in range(len(row))]
    g, i, j = cells[where % len(cells)]
    grids[g][i][j] += by
    return tuple(tuple(map(tuple, grid)) for grid in grids)


# E7's grid at offsets m >= -2 certifies, and its cells with
# a_0 = 2 + m - d <= 0 start their blocks at k0 = 2 (m > -2, with the cell
# d = 1 below k0 at m = -1) or find none (m = -2, E_2 = (m + 2)^2 = 0);
# E7 with one coefficient moved often keeps its tail and sometimes its
# certificate
_random_column = st.one_of(
    st.tuples(
        st.one_of(
            st.tuples(_positive, _positive, _positive),
            st.tuples(_coeffs, _coeffs, _coeffs),
        ),
        st.tuples(_coeffs, _coeffs, _coeffs, _coeffs),
    ),
    st.integers(-2, 40).map(lambda m: _offset_column("E7", m)),
    st.builds(
        _perturbed_column,
        st.just("E7"),
        st.integers(0, 12),  # E7 has 13 coefficients
        st.integers(-3, 3).filter(bool),
    ),
)


@given(_random_column, st.integers(0, 40))
@settings(max_examples=400, deadline=None)
def test_cell_signs_agree_with_cell_where_they_decide(column, d):
    # a run is decided only in a column with a certificate; there, where it
    # decides a cell, it gives the exact signs of a cell with D_{d+1} != 0
    certificate = _certificate(column)
    sign_ok, final_ok, D_last, mag_from = _scan_cell(certificate, column, d)
    if D_last is None:
        assert certificate
        exact = _cell(column, d)
        assert (sign_ok, final_ok) == exact[:2]
        assert exact[2] != 0
        assert mag_from is None


@given(_random_column, st.integers(0, 40))
@settings(max_examples=400, deadline=None)
def test_certified_walk_is_the_full_walk(column, d):
    # where the column has a certificate, deciding a cell by its run loses
    # no decision: the result is the full loop's, without D_last and
    # mag_from where a run decided it
    early, exact = _scan_cell(_certificate(column), column, d), _cell(column, d)
    assert early in (exact, (*exact[:2], None, None))


@given(_random_column, st.integers(0, 40))
@settings(max_examples=200, deadline=None)
def test_run_decided_column_reports_like_exact_cells(column, d_max):
    # a certified column's report, flagged cells, violations and
    # cross-checks included, is the report of its cells run one by one
    certificate = _certificate(column)
    if not certificate:
        return
    with pytest.MonkeyPatch.context() as m:
        m.setattr(evidence, "_column_at", lambda fam, l: column)
        m.setattr(evidence, "candidate_rows", lambda ode, d: _tridiagonal_rows(column, d))
        assert _scan_group("G3", 2, d_max, False, None) == _scan_group(
            "G3", 2, d_max, False, certificate
        )


# a_k = 10 and offprod(k) = k^2: 4 offprod(k) <= a_{k-1} a_k up to k = 5 only,
# and the true ratios turn negative at k = 7
_PLANTED = (((-10,), (), ()), ((), (), (1,), ()))


# a_k = 2k - 1 and offprod = -1: A = 1 + 2i and F = 3 + 4i^2, so the tail
# certifies.  E_1 = -1, E_2 = 0 and E_3 = -1: every cell is a final-sign
# violation, so every cell runs the loop to the end, to be reported with
# its D_{d+1}; a_0 = -1 at every d, so there is no certificate
_PLANTED_NEGATIVE = (((1,), (-2,), ()), ((-1,), (), (), ()))

# a_0 = m - d and a_1 = 1 + m, offprod(k) = 2k - k^2: at d = m + j, E_1 = -j
# and E_2 = -1 - (1 + m) j < 0, with offprod(2) = 0, a block on a negative
# minor (F is negative at k = 1, so the tail does not certify)
_PLANTED_NEGATIVE_BLOCK = (((0, 1), (-1, -1), ()), ((), (2,), (-1,), ()))


def test_cell_signs_decide_a_negative_block(monkeypatch):
    # a block that starts on a negative minor makes every cell a final-sign
    # violation, which the report names with its D_{d+1}: no certificate
    # takes it, even with the tail granted, so _cell decides each cell
    assert _tail_certified(_PLANTED_NEGATIVE)
    assert _cell(_PLANTED_NEGATIVE, 1)[2] == 0
    monkeypatch.setattr(evidence, "_tail_certified", lambda column: True)
    (E_1, _), (E_2, b_2) = itertools.islice(_prefix(_PLANTED_NEGATIVE_BLOCK, 0), 2)
    assert _by_monomial(E_1) == {(0, 1): -1}
    assert _by_monomial(E_2) == {(0, 0): -1, (0, 1): -1, (1, 1): -1} and not any(b_2)
    for column in (_PLANTED_NEGATIVE, _PLANTED_NEGATIVE_BLOCK):
        assert _certificate(column) is None
        for d in range(20):
            exact = _cell(column, d)
            assert exact[:2] == (False, False)
            assert _scan_cell(_certificate(column), column, d) == exact, d


# a_k = k and offprod = 0: A = 1 + i and F = i + i^2 certify, but E_1 = a_0 = 0
# and every later minor is 0, so no block starts and no run is decided
_PLANTED_ZERO = (((0,), (-1,), ()), ((), (), (), ()))


@pytest.mark.parametrize(
    "column", [_PLANTED_ZERO, _PLANTED_NEGATIVE], ids=["gives_up", "violation"]
)
def test_scan_group_falls_back_to_cell_where_the_walk_does_not_settle(monkeypatch, column):
    # the tail of either column certifies, but a_0 <= 0 at every d gives
    # neither a certificate: on the first each cell reports its exact
    # D_last = 0, and the second's cells are final-sign violations, each
    # reported with its exact D_last
    assert _tail_certified(column) and _certificate(column) is None
    monkeypatch.setattr(evidence, "_column_at", lambda fam, l: column)
    part, _ = _scan_group("G3", 2, 20, False, _certificate(column))
    assert part.flagged_count == 21
    assert not part.flags_resolved_nonzero
    assert [(d, D_last) for *_, d, D_last in part.final_sign_violations] == [
        (d, _cell(column, d)[2]) for d in range(21)
    ]


# a_k = 1 - 2d + 2k + 4kd and offprod(k) = -2k d^2: the tail certifies, and
# a_0 = 1 - 2d has slope -2
_PLANTED_BETA_2 = (((-1, 2), (-2, -4), ()), ((), (0, 0, -2), (), ()))


def _planted_a0_quadratic():
    """G3 with a_0 = 15 + 5d + d^2: positive, but not linear in d."""
    (row0, *rows), offprod = _column("G3")
    return ((*row0, -1), *rows), offprod


def _planted_e7_sign():
    """E7 with the sign of diag's k^2 coefficient flipped: the tail still
    certifies, and E_2 = (m + 2)^2 - 2j takes both signs."""
    (*rows, (c,)), offprod = _column("E7")
    return (*rows, (-c,)), offprod


@pytest.mark.parametrize(
    "column",
    [
        _PLANTED_BETA_2,
        _planted_a0_quadratic(),
        _PLANTED_ZERO,
        _PLANTED_NEGATIVE,
        _PLANTED_A0_SIGN,
        _planted_e7_sign(),
    ],
    ids=["beta_minus_2", "quadratic_a0", "alpha_zero", "alpha_negative", "no_block", "e7_sign"],
)
def test_certificate_refuses_a_prefix_it_cannot_prove(monkeypatch, column):
    # each tail certifies, but the prefix is not proved for every m: a_0 is
    # not alpha + m + beta d with beta = -1, or beta >= 0 and alpha > 0, or
    # no block starts on a minor of one sign; the scan decides no run
    assert _tail_certified(column)
    assert _certificate(column) is None
    runs = []
    monkeypatch.setattr(evidence, "_column", lambda label: column)
    monkeypatch.setattr(evidence, "_column_at", lambda fam, l: column)
    monkeypatch.setattr(evidence, "_runs", lambda *args: runs.append(args))
    assert scan(families=("G3",), l_max=2, d_max=20).cells == 21
    assert runs == []


def test_certificate_checks_the_slope_before_the_prefix(monkeypatch):
    # the cut d = alpha + m is where a_0 changes sign only at slope -1: a
    # column of slope -2 is refused even with a prefix whose first minor
    # starts a block of positive sign
    monkeypatch.setattr(evidence, "_prefix", lambda column, alpha: iter([([Poly.one()], [])]))
    assert _certificate(_column("E7")) == (1, True)
    assert _certificate(_PLANTED_BETA_2) is None


def test_certificate_refuses_a_minor_of_both_signs(monkeypatch):
    # E_1 = 1 - j is positive at j = 0 only, so no one sign pattern holds
    # for the cells before the block, even where a positive E_2 starts one
    prefix = [([Poly.one(), -Poly.one()], [Poly.one()]), ([Poly.one()], [])]
    monkeypatch.setattr(evidence, "_prefix", lambda column, alpha: iter(prefix))
    assert _certificate(_column("E7")) is None
    prefix[0] = ([Poly.zero(), -Poly.one()], [Poly.one()])  # E_1 = -j
    assert _certificate(_column("E7")) == (2, False)


def test_e7_prefix_matches_sympy():
    # E7 at d = 2 + m + j, the cells with a_0 = 2 + m - d <= 0, from the
    # family grid with diag's constant term lowered by a symbol m:
    # E_1 = a_0 = -j, b_2 = offprod(2) = 0 and E_2 = a_1 E_1 - b_1 = (m+2)^2
    import sympy

    k, d, j, m = sympy.symbols("k d j m")
    diag, offprod = (_grid_value(grid, k, d) for grid in _column("E7"))
    a, b = m - diag, offprod
    at = {d: 2 + m + j}
    E_1 = sympy.expand(a.subs(k, 0).subs(at))
    E_2 = sympy.expand((a.subs(k, 1) * a.subs(k, 0) - b.subs(k, 1)).subs(at))
    b_2 = sympy.expand(b.subs(k, 2).subs(at))
    assert (E_1, b_2, sympy.factor(E_2)) == (-j, 0, (m + 2) ** 2)

    def by_monomial(e):
        return {(p, q): int(c) for (p, q), c in sympy.Poly(e, m, j).as_dict().items()}

    (engine_E_1, _), (engine_E_2, engine_b_2) = itertools.islice(_prefix(_column("E7"), 2), 2)
    assert _by_monomial(engine_E_1) == by_monomial(E_1)
    assert _by_monomial(engine_E_2) == by_monomial(E_2)
    assert not any(engine_b_2)
    assert _certificate(_column("E7")) == (2, False)


def _family_cell(family, l, d):
    """(family, l, d) drawn with l >= min_l."""
    return family, max(l, family_by_label(family).kind.min_l), d


def _e7_cells(ls, below):
    """E7 cells (l, d <= 3,000) with d below l(l+1), or from it on."""

    def cells(l):
        L = l * (l + 1)
        d = st.integers(0, min(L, 3001) - 1) if below else st.integers(L, 3000)
        return st.tuples(st.just("E7"), st.just(l), d)

    return ls.flatmap(cells)


@given(
    st.one_of(
        st.builds(
            _family_cell, st.sampled_from(SCAN_FAMILIES), st.integers(0, 200), st.integers(0, 3000)
        ),
        # E7 on either side of d = l(l+1), where its interior pattern breaks
        _e7_cells(st.integers(1, 200), below=True),
        _e7_cells(st.integers(1, 54), below=False),
    )
)
@settings(max_examples=60, deadline=None)
def test_certified_verdict_holds_beyond_the_grid(cell):
    # the family's one certificate decides the cell at l <= 200, d <= 3,000,
    # with the signs of the full loop, and a nonzero D_{d+1}
    family, l, d = cell
    column = _column_at(family, l)
    verdicts = _run_verdicts(_certificate(_column(family)), column, d)
    sign_ok, final_ok, D_last, _ = _cell(column, d)
    assert verdicts[d] == (sign_ok, final_ok), cell
    assert D_last != 0, cell
    if family == "E7":
        assert sign_ok == (d < l * (l + 1)), cell


def _grid_value(grid, k, d):
    """sum grid[p][q] k^p d^q, evaluated directly."""
    return sum(c * k**p * d**q for p, row in enumerate(grid) for q, c in enumerate(row))


def _by_monomial(P):
    """{(power of i, power of j): c} of an engine polynomial given as Polys
    in i, entry e the coefficient of j^e."""
    assert all(Q.den == 1 for Q in P)
    return {(a, e): c for e, Q in enumerate(P) for a, c in enumerate(Q.num) if c}


@pytest.mark.parametrize("family", [*SCAN_FAMILIES, "G7", "S3"])
def test_tail_polynomials_match_sympy(family):
    # diag's constant term lowered by a symbol m and k = 1 + i, d = 1 + i + j:
    # A = A_0 + m and F = F_0 + m G + m^2 with the engine's A_0, F_0 and G;
    # no coefficient in (m, i, j) is negative exactly for the scan families,
    # so their ratio bound holds at every l >= min_l, and G7 and S3 are refused
    import sympy

    k, d, i, j, m = sympy.symbols("k d i j m")
    column = _column(family)
    diag, offprod = (_grid_value(grid, k, d) for grid in column)
    A = m - diag
    F = A.subs(k, k - 1) * A - 4 * offprod
    shift = {k: 1 + i, d: 1 + i + j}
    A, F = (sympy.Poly(sympy.expand(e.subs(shift, simultaneous=True)), m, i, j) for e in (A, F))

    def in_m(poly, power):
        return {(a, b): int(c) for (e, a, b), c in poly.as_dict().items() if e == power}

    engine_A, engine_F, engine_G = map(_by_monomial, _tail_polynomials(column))
    assert A.degree(m) == 1 and F.degree(m) == 2
    assert in_m(A, 0) == engine_A and in_m(A, 1) == {(0, 0): 1}
    assert in_m(F, 0) == engine_F and in_m(F, 1) == engine_G and in_m(F, 2) == {(0, 0): 1}
    positive = A.as_dict().get((0, 0, 0), 0) > 0 and min(A.coeffs() + F.coeffs()) >= 0
    assert positive == (family in SCAN_FAMILIES) == _tail_certified(column)


def _planted_diag_sign():
    """G3 at l = 2 with the sign of diag's k d coefficient flipped: A(k, d)
    then falls with k d, and its shift has a negative coefficient."""
    (row0, (c, c_d), row2), offprod = _column_at("G3", 2)
    return (row0, (c, -c_d), row2), offprod


def test_tail_certificate_refuses_planted_columns(monkeypatch):
    # _PLANTED: F = 100 - 4k^2 shifts to 96 - 8i - 4i^2
    assert _tail_polynomials(_PLANTED) == ([Poly([10])], [Poly([96, -8, -4])], [Poly([20])])
    planted = _planted_diag_sign()
    assert planted != _column_at("G3", 2)
    A = [c for P in _tail_polynomials(planted)[0] for c in P.num]
    assert A[0] > 0 and min(A) < 0
    runs = []

    for column in (_PLANTED, planted):
        assert not _tail_certified(column)
        monkeypatch.setattr(evidence, "_column", lambda label: column)
        monkeypatch.setattr(evidence, "_column_at", lambda fam, l: column)
        with monkeypatch.context() as m:
            m.setattr(evidence, "_runs", lambda *args: runs.append(args))
            report = scan(families=("G3",), l_max=2, d_max=40)
        assert report.cells == 41 and runs == []  # no run was decided
    # a false certificate on _PLANTED would hide its broken interior signs
    monkeypatch.setattr(evidence, "_column_at", lambda fam, l: _PLANTED)
    with_walk = _scan_group("G3", 2, 40, False, None)
    assert _scan_group("G3", 2, 40, False, (0, True))[0].flagged_count < with_walk[0].flagged_count


def test_tail_certificate_refuses_a_negative_g():
    # a_k = 3 - d + k + k d and offprod(k) = -k d^2: A and F have no negative
    # coefficient, so the bound holds in this column, but G = 6 + 3i + 2i^2
    # - j + 2ij has one, so the test cannot extend it to every lowered
    # constant term of diag, and the column is refused
    column = (((-3, 1), (-1, -1), ()), ((), (0, 0, -1), (), ()))
    A, F, G = map(_by_monomial, _tail_polynomials(column))
    assert min(A.values()) > 0 and min(F.values()) > 0
    assert G == {(0, 0): 6, (1, 0): 3, (2, 0): 2, (0, 1): -1, (1, 1): 2}
    assert not _tail_certified(column)


def test_every_default_column_certifies():
    # a column that fell back to its full tail walk would only run slower,
    # so the count is pinned
    columns = [
        _column_at(family, l)
        for family in SCAN_FAMILIES
        for l in default_l_range(family, 20)
    ]
    assert len(columns) == 59
    assert sum(map(_tail_certified, columns)) == 59


@given(
    st.sampled_from(SCAN_FAMILIES),
    st.integers(0, 10**4),
    st.integers(1, 10**5),
    st.integers(1, 10**5),
)
@settings(max_examples=300, deadline=None)
def test_tail_checks_hold_beyond_the_default_grid(family, l, x, y):
    # the family certificate's two checks, a_k > 0 and 4 b_k <= a_{k-1} a_k,
    # at any l <= 10^4 and 1 <= k <= d <= 10^5, far past the scanned grid
    l = max(l, family_by_label(family).kind.min_l)
    k, d = sorted((x, y))
    diag, offprod = _column_at(family, l)
    A = -_grid_value(diag, k, d)
    assert A > 0, (family, l, k, d)
    assert -_grid_value(diag, k - 1, d) * A - 4 * _grid_value(offprod, k, d) >= 0, (family, l, k, d)


@given(st.sampled_from(SCAN_FAMILIES), st.integers(0, 200), st.integers(0, 400))
@settings(max_examples=60, deadline=None)
def test_ratio_bound_holds_on_exact_minors(family, l, d):
    # r_k = E_{k+1}/E_k >= a_k/2 from the block start k0 on, with
    # E_n = (-1)^n D_n from det_sequence taken in the sign of E_{k0}
    l = max(l, family_by_label(family).kind.min_l)
    E = [(-1) ** n * v for n, v in enumerate(det_sequence(family, l, d).values)]
    diag, offprod = _column_at(family, l)
    a = [-_grid_value(diag, k, d) for k in range(d + 1)]
    b = [_grid_value(offprod, k, d) for k in range(d + 1)]
    k0 = next(k for k in range(d + 1) if a[k] > 0 and E[k] and (k == 0 or b[k] * E[k - 1] == 0))
    sign = 1 if E[k0] > 0 else -1
    for k in range(k0, d + 1):
        assert 2 * sign * E[k + 1] >= a[k] * sign * E[k] > 0, (family, l, d, k)


def test_far_e7_column_certifies_and_scans_like_cell():
    # E7 at l = 60, L = l(l+1) = 3660: the column certifies, so two runs
    # decide its 3,662 cells; the cells' full loops would take about 6.7
    # million steps.  d = L and L + 1 break the interior pattern
    L = 60 * 61
    column = _column_at("E7", 60)
    certificate = _certificate(_column("E7"))
    assert _tail_certified(column)
    part, _ = _scan_group("E7", 60, L + 1, False, certificate)
    assert part.cells == L + 2
    assert not part.final_sign_violations
    assert part.flagged == [("E7", 60, L), ("E7", 60, L + 1)]
    assert part.cross_checks_ok
    assert _runs(certificate, column, L + 1) == [(0, L - 1, (True, True)), (L, L + 1, (False, True))]
    for d in (0, 1, 2, 3000, L, L + 1):
        sign_ok, final_ok, D_last, _ = _cell(column, d)
        assert _scan_cell(certificate, column, d) == (sign_ok, final_ok, None, None), d
        assert D_last != 0, d


def test_scan_reaches_d_max_100000_at_l_60():
    # 179 columns and 17,900,179 cells, each run-decided: no violation, and
    # the 716 sampled cells agree with both oracles
    report = scan(l_max=60, d_max=100_000)
    assert report.cells == 179 * 100_001
    assert report.all_final_signs_ok
    assert report.flags_resolved_nonzero
    assert len(report.cross_checks) == 179 * 4 and report.cross_checks_ok


def test_e7_intermediate_zero_is_flagged_not_fatal():
    # at d = l(l+1) the first minor vanishes; the full determinant decides
    seq = det_sequence("E7", 1, 2)
    assert seq.values[1] == 0
    assert not seq.sign_pattern_ok
    assert seq.final_sign_ok and seq.D_last == -24


def test_scan_small_grid():
    report = scan(l_max=4, d_max=40)
    assert report.all_final_signs_ok
    assert report.cross_checks_ok
    assert report.flags_resolved_nonzero
    assert report.cells == (3 + 4 + 4) * 41  # G3: l=2..4, E3/E7: l=1..4


def test_scan_g3_full_pattern_small():
    # G3 and E3 satisfy even the intermediate pattern on the sampled grid
    for family, lmin in (("G3", 2), ("E3", 1)):
        for l in range(lmin, 6):
            for d in (0, 1, 5, 17, 40):
                assert det_sequence(family, l, d).sign_pattern_ok, (family, l, d)


def test_g3_special_frequency_cells():
    # the algebraically special G3 cells d = 2s - 3 stay nonzero
    for l in (2, 3, 4, 5):
        s = special_frequency(l)
        d = int(2 * s - 3)
        seq = det_sequence("G3", l, d)
        assert seq.final_sign_ok and seq.D_last != 0


def test_scan_report_streaming(tmp_path):
    out = tmp_path / "cells.json"
    report = scan(families=("G3",), l_max=2, d_max=5, out=str(out))
    cells = json.loads(out.read_text())
    assert len(cells) == report.cells == 6
    seq0 = det_sequence("G3", 2, 0)
    mag_from = _cell(_column_at("G3", 2), 0)[3]
    _assert_mag_index(seq0.values, mag_from)
    assert cells[0] == {
        "family": "G3",
        "l": 2,
        "s": "3/2",
        "d": 0,
        "sign_ok": True,
        "final_sign_ok": True,
        "D_last": str(seq0.D_last),
        "mag_increasing_from": mag_from,
    }
    for cell in cells:
        _assert_mag_index(det_sequence("G3", 2, cell["d"]).values, cell["mag_increasing_from"])


def test_scan_refuses_unwritable_out_before_any_cell(monkeypatch, tmp_path):
    import bhkovacic.evidence as evidence

    def no_cells(*args):
        raise AssertionError("a cell was computed before the sink was opened")

    monkeypatch.setattr(evidence, "_cell", no_cells)
    for out in (tmp_path / "missing" / "cells.json", tmp_path):
        with pytest.raises(ValueError, match="cannot write"):
            scan(families=("G3",), l_max=2, d_max=5, out=str(out))


def test_scan_report_names_its_first_failure():
    report = ScanReport(families=SCAN_FAMILIES, l_max=4, d_max=8)
    assert report.first_failure is None
    report.cross_checks = [
        {"family": "G3", "l": 2, "d": 0, "agree": True, "nullspace_dim": 0},
        {"family": "G3", "l": 2, "d": 4, "agree": True, "nullspace_dim": 1},
        {"family": "E3", "l": 1, "d": 0, "agree": False, "nullspace_dim": 0},
    ]
    assert report.first_failure == {"check": "cross_check", "family": "G3", "l": 2, "d": 4}
    report.final_sign_violations = [("E3", 2, 7, 5), ("E7", 1, 3, 0)]
    assert report.first_failure == {"check": "final_sign", "family": "E3", "l": 2, "d": 7}


def test_scan_empty_family_list():
    # a grid with no column examined nothing, so it is refused, not passed
    with pytest.raises(ValueError):
        scan(families=(), l_max=4, d_max=10)
    with pytest.raises(ValueError):
        scan(families=("G3",), l_max=1, d_max=10)
    with pytest.raises(ValueError):
        scan(l_max=4, d_max=-1)
    with pytest.raises(ValueError):
        scan(families=("G7",), l_max=4, d_max=10)


def test_scan_caps_flagged_cells_per_column_and_overall():
    report = scan(families=("E7",), l_max=6, d_max=100)
    assert report.flagged_count == 494
    assert len(report.flagged) == 32
    assert [l for _, l, _ in report.flagged] == [1] * 8 + [2] * 8 + [3] * 8 + [4] * 8


def test_scan_report_absorbs_columns_in_order():
    report = ScanReport(families=SCAN_FAMILIES, l_max=2, d_max=3)
    first = ScanReport(("E7",), l_max=1, d_max=3, cells=4)
    first.cross_checks = [{"d": 0}]
    first.flagged = [("E7", 1, d) for d in range(30)]
    first.flagged_count = 30
    second = ScanReport(("E7",), l_max=2, d_max=3, cells=4)
    second.cross_checks = [{"d": 4}]
    second.flagged = [("E7", 2, d) for d in range(5)]
    second.flagged_count = 5
    second.final_sign_violations = [("E7", 2, 3, 0)]
    second.flags_resolved_nonzero = second.cross_checks_ok = False
    report.absorb(first)
    report.absorb(second)
    assert report.cells == 8 and report.flagged_count == 35
    assert report.flagged == first.flagged + second.flagged[:2]
    assert report.final_sign_violations == [("E7", 2, 3, 0)]
    assert report.cross_checks == [{"d": 0}, {"d": 4}]
    assert not report.flags_resolved_nonzero and not report.cross_checks_ok
    report.absorb(first)  # a passing column does not clear a failure
    assert not report.flags_resolved_nonzero and not report.cross_checks_ok


def test_worker_count_follows_the_grid_and_cpus():
    # a pure function of (columns, cpus, steps): no process is started.
    # Serial below the constant, one process per CPU above it, at most one
    # per column
    small, large = evidence._POOL_MIN_STEPS - 1, evidence._POOL_MIN_STEPS
    for cpus in (None, 1, 4):
        assert _worker_count(columns=5, cpus=cpus, steps=small) == 1
    assert _worker_count(columns=5, cpus=4, steps=large) == 4
    assert _worker_count(columns=3, cpus=4, steps=large) == 3
    assert _worker_count(columns=5, cpus=1, steps=large) == 1
    assert _worker_count(columns=5, cpus=None, steps=large) == 1
    # in exact steps, the --out unit: the verify-all grid (17 columns,
    # d <= 100) stays serial, and the default evidence grid (59 columns,
    # d <= 500) takes every CPU
    assert _worker_count(columns=17, cpus=64, steps=17 * 101 * 102 // 2) == 1
    assert _worker_count(columns=59, cpus=2, steps=59 * 501 * 502 // 2) == 2


def test_usable_cpus_is_the_affinity_set_or_the_cpu_count(monkeypatch):
    monkeypatch.setattr(evidence.os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    monkeypatch.setattr(evidence.os, "cpu_count", lambda: 7)
    assert evidence._usable_cpus() == 3
    monkeypatch.delattr(evidence.os, "sched_getaffinity")  # not on every OS
    assert evidence._usable_cpus() == 7


class _CountedPool(ProcessPoolExecutor):
    """A ProcessPoolExecutor that records the pools a scan starts."""

    started = []

    def __init__(self, max_workers):
        self.started.append(max_workers)
        super().__init__(max_workers=max_workers)


@pytest.fixture
def counted_pool(monkeypatch):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _CountedPool)
    _CountedPool.started = []
    return _CountedPool.started


def test_scan_takes_the_pool_by_default_above_the_constant(monkeypatch, tmp_path, counted_pool):
    # the grid has 5 columns and 5 * 31 * 32 / 2 = 2,480 exact steps
    monkeypatch.setattr(evidence, "_usable_cpus", lambda: 2)
    runs = []
    for threshold in (evidence._POOL_MIN_STEPS, 100):
        monkeypatch.setattr(evidence, "_POOL_MIN_STEPS", threshold)
        out = tmp_path / f"cells{threshold}.json"
        report = scan(families=("E7", "G3"), l_max=3, d_max=30, out=str(out))
        runs.append((report, out.read_bytes()))
    assert counted_pool == [2]  # only the run past the lowered constant
    serial, pooled = runs
    assert serial[0] == pooled[0]  # the whole report, field by field
    assert serial[1] == pooled[1]
    assert serial[0].cells == 5 * 31 and serial[0].flagged_count > 0


def test_verify_all_grid_scans_serially_by_default(monkeypatch, counted_pool):
    monkeypatch.setattr(evidence, "_usable_cpus", lambda: 64)
    assert scan(l_max=6, d_max=100).cells == 1717
    # 5,117 run-decided cells stay serial, though the same grid has 772,667
    # exact recurrence steps
    assert scan(l_max=6, d_max=300).cells == 5117
    assert counted_pool == []


def test_scan_without_out_is_serial_at_any_size(monkeypatch, counted_pool):
    # only an --out scan weighs its steps against the constant
    monkeypatch.setattr(evidence, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(evidence, "_POOL_MIN_STEPS", 0)
    assert scan(families=("G3",), l_max=3, d_max=10).cells == 2 * 11
    assert counted_pool == []


def test_default_grid_scans_serially_by_default(monkeypatch, counted_pool):
    monkeypatch.setattr(evidence, "_usable_cpus", lambda: 2)
    assert scan().cells == 29559
    assert counted_pool == []


def test_scan_builds_one_equation_per_family():
    # the default grid's 59 columns and 236 cross-checks share the 3
    # equations of the family_equation memo: a cold scan builds each once,
    # a warm one none, and an empty grid is refused before any
    family_equation = auxode.family_equation
    family_equation.cache_clear()
    _column.cache_clear()
    assert scan().cells == 29559
    assert family_equation.cache_info().misses == len(SCAN_FAMILIES)
    for label in SCAN_FAMILIES:
        family_equation(label)
    assert family_equation.cache_info().misses == len(SCAN_FAMILIES)
    assert scan().cells == 29559
    assert family_equation.cache_info().misses == len(SCAN_FAMILIES)
    family_equation.cache_clear()
    _column.cache_clear()
    with pytest.raises(ValueError, match="empty scan grid"):
        scan(d_max=-1)
    assert family_equation.cache_info().misses == 0


def test_scan_workers_write_integers_past_the_str_limit(
    monkeypatch, tmp_path, int_str_limit, counted_pool
):
    # G3 at l = 3 has a 649-digit D_last at d = 160: past a 640-digit limit,
    # as G3 at l = 2 passes the default 4,300 digits near d = 860
    int_str_limit(640)
    monkeypatch.setattr(evidence, "_usable_cpus", lambda: 2)
    files = []
    for threshold in (evidence._POOL_MIN_STEPS, 0):
        monkeypatch.setattr(evidence, "_POOL_MIN_STEPS", threshold)
        out = tmp_path / f"cells{threshold}.json"
        scan(families=("G3",), l_max=3, d_max=170, out=str(out))
        files.append(out.read_bytes())
    assert counted_pool == [2]  # serial, then one pool of 2
    assert files[0] == files[1]
    int_str_limit(0)
    cells = json.loads(files[0])
    assert max(len(c["D_last"]) for c in cells) > 640
    column = _column_at("G3", 3)
    assert [int(c["D_last"]) for c in cells[-3:]] == [_cell(column, d)[2] for d in (168, 169, 170)]


def test_scan_ignores_thread_env(monkeypatch, tmp_path, counted_pool):
    # the worker count follows the grid and the usable CPUs alone: a set
    # BHK_THREADS neither starts a pool below the constant nor stops one
    # above it
    monkeypatch.setattr(evidence, "_usable_cpus", lambda: 2)
    monkeypatch.setenv("BHK_THREADS", "2")
    scan(families=("G3",), l_max=3, d_max=10)
    assert counted_pool == []
    monkeypatch.setenv("BHK_THREADS", "1")
    monkeypatch.setattr(evidence, "_POOL_MIN_STEPS", 0)
    out = tmp_path / "cells.json"
    report = scan(families=("G3",), l_max=3, d_max=10, out=str(out))
    assert counted_pool == [2]
    assert report.cells == 2 * 11
    cells = json.loads(out.read_text())
    assert [c["l"] for c in cells] == [2] * 11 + [3] * 11  # deterministic merge


# ---------------------------------------------------------------------------
# S3
# ---------------------------------------------------------------------------


def test_ratio_system_polynomial():
    # matched variant: numerator 2 s^2 (1 - 2s); solution set {0, 1/2}
    s = Poly.x()
    poly = _ratio_system_polynomial()
    assert poly == Poly([0, 0, 2, -4])
    assert rational_roots(poly) == [F(0), F(1, 2)]
    for L in (0, 2, 6, 12):
        # the matched variant at this L is the same polynomial
        N, D = -s, Poly([L, 0, 4])
        assert N * ((2 * (1 - 2 * s)) * N + D) - D * N == poly
        # the direct w-frame ratio t2 = -s / (L + 2s) makes the condition
        # N1 (2(1-2s) N2 + D2) - D1 N2 vacuous, since N1 = N2 = -s
        N, D1, D2 = -s, Poly([L, 0, 4]), Poly([L, 2])
        assert (N * ((2 * (1 - 2 * s)) * N + D2) - D1 * N).is_zero()


def test_s3_record_quick():
    record = s3_nonexistence(two_s_max=10, l_max=4)
    assert record.matched_ratio_solution_set == (F(0), F(1, 2))
    assert record.half_s_degree0_fails
    assert record.oracle_all_trivial
    assert record.oracle_cells == 9 * 5
    assert record.all_ok


def test_s3_rejects_bad_bounds():
    for bounds in (
        {"two_s_max": 1, "l_max": 10},
        {"two_s_max": 40, "l_max": -1},
        {"two_s_max": 40, "l_max": -5},
    ):
        with pytest.raises(ValueError):
            s3_nonexistence(**bounds)
    assert s3_nonexistence(two_s_max=2, l_max=0).oracle_cells == 1


def test_s3_oracle_catches_planted_solution():
    # sanity for the oracle: the G8 equation at its special frequency has a
    # nontrivial nullspace, so an S3-style sweep over it would not be silent
    ode = family_equation("G8").at(2, F(4))
    assert brute_force_polynomial_solutions(ode, 1)
