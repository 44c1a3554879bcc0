"""Acceptance criteria: every released claim, checked at exact equality.

Each test prints one PASS/FAIL line (visible with ``pytest -s``); all
comparisons are exact rational equalities, with the determinant-sign scan
run at full scale (degrees 0..500).
"""

import math
import time
from fractions import Fraction as F

from bhkovacic.algebra import Poly
from bhkovacic.auxode import (
    brute_force_polynomial_solutions,
    candidate_rows,
    chandrasekhar_checks,
    chandrasekhar_coeffs,
    chandrasekhar_r_frame,
    family_equation,
    homotopic_equivalence_check,
    homotopic_shift_params,
    solve_low_degree,
    to_heun_form,
)
from bhkovacic.elimination import nullspace
from bhkovacic.evidence import cross_check_cell, s3_nonexistence, scan
from bhkovacic.hautot import (
    ObstructionError,
    det_A,
    extended_expansion,
    kummer_poly,
    phi_poly,
    recurrence_identity_suite,
)
from bhkovacic.kovacic import (
    affine_str,
    enumerate_families_n1,
    enumerate_families_n2,
    retain_families,
)
from bhkovacic.master import PerturbationKind, special_frequency

G = PerturbationKind.GRAVITATIONAL
E = PerturbationKind.ELECTROMAGNETIC
S = PerturbationKind.SCALAR


def report(number, name, ok, started):
    elapsed = time.time() - started
    print(f"ACCEPTANCE {number:>2} {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_01_family_tables():
    t0 = time.time()
    expected_counts = {G: 8, S: 4, E: 8}
    expected_retained = {G: {"G3", "G7", "G8"}, S: {"S3"}, E: {"E3", "E7"}}
    expected_rows = {
        G: [
            ("G1", "5/2", "1/2 + s", "1 - s", "-3"),
            ("G2", "5/2", "1/2 + s", "1 + s", "-3 - 2*s"),
            ("G3", "5/2", "1/2 - s", "1 - s", "-3 + 2*s"),
            ("G4", "5/2", "1/2 - s", "1 + s", "-3"),
            ("G5", "-3/2", "1/2 + s", "1 - s", "1"),
            ("G6", "-3/2", "1/2 + s", "1 + s", "1 - 2*s"),
            ("G7", "-3/2", "1/2 - s", "1 - s", "1 + 2*s"),
            ("G8", "-3/2", "1/2 - s", "1 + s", "1"),
        ],
        S: [
            ("S1", "1/2", "1/2 + s", "1 - s", "-1"),
            ("S2", "1/2", "1/2 + s", "1 + s", "-1 - 2*s"),
            ("S3", "1/2", "1/2 - s", "1 - s", "-1 + 2*s"),
            ("S4", "1/2", "1/2 - s", "1 + s", "-1"),
        ],
        E: [
            ("E1", "3/2", "1/2 + s", "1 - s", "-2"),
            ("E2", "3/2", "1/2 + s", "1 + s", "-2 - 2*s"),
            ("E3", "3/2", "1/2 - s", "1 - s", "-2 + 2*s"),
            ("E4", "3/2", "1/2 - s", "1 + s", "-2"),
            ("E5", "-1/2", "1/2 + s", "1 - s", "0"),
            ("E6", "-1/2", "1/2 + s", "1 + s", "-2*s"),
            ("E7", "-1/2", "1/2 - s", "1 - s", "2*s"),
            ("E8", "-1/2", "1/2 - s", "1 + s", "0"),
        ],
    }
    ok = True
    for kind in (G, S, E):
        families = enumerate_families_n1(kind)
        rows = [
            (f.label, *map(affine_str, (f.e0, f.e2, f.einf, f.degree)))
            for f in families
        ]
        ok = ok and len(families) == expected_counts[kind]
        ok = ok and rows == expected_rows[kind]
        retention = retain_families(families, l_max=10)
        ok = ok and set(retention.retained_labels) == expected_retained[kind]
    report(1, "n=1 family tables and retention", ok, t0)


def test_criterion_02_n2_closure():
    t0 = time.time()
    counts = {G: 9, E: 9, S: 3}
    ok = True
    for kind in (G, E, S):
        candidates, retained = enumerate_families_n2(kind)
        ok = ok and len(candidates) == counts[kind] and retained == []
    report(2, "n=2 candidates 9/9/3, none retained", ok, t0)


def test_criterion_03_g8_solution():
    t0 = time.time()
    g8 = family_equation("G8")
    ok = True
    for l in range(2, 11):
        found = solve_low_degree(g8, 1, l=l, s_fixed=None)
        expected_s = F(l * (l - 1) * (l + 1) * (l + 2), 6)
        expected_k = F(6, (l + 2) * (l - 1))
        ok = ok and found == [(expected_s, Poly([expected_k, 1]))]
    ok = ok and solve_low_degree(g8, 1, l=2, s_fixed=None) == [(F(4), Poly([F(3, 2), 1]))]
    report(3, "G8 first-order solutions (s, k) for l=2..10", ok, t0)


def test_criterion_04_chandrasekhar_l2():
    t0 = time.time()
    expected = Poly(
        [
            F(-945, 16384),
            F(1755, 8192),
            F(-405, 1024),
            F(495, 1024),
            F(-225, 512),
            F(81, 256),
            F(-3, 16),
            F(3, 32),
            F(1, 32),
            F(1, 16),
        ]
    )
    ok = chandrasekhar_coeffs(2) == expected
    report(4, "closed-form polynomial, all ten l=2 coefficients", ok, t0)


def test_criterion_05_chandrasekhar_verification():
    t0 = time.time()
    ok = True
    for l in range(2, 9):
        record = chandrasekhar_checks(l)
        ok = ok and record.all_ok
    report(5, "recurrence/ODE/integral/sign checks for l=2..8", ok, t0)


def test_criterion_06_elementary_integral():
    t0 = time.time()
    P_w = chandrasekhar_coeffs(2)
    P = chandrasekhar_r_frame(2, P_w.den, P_w.num[-1])
    ok = P[0] == F(-1164765, 16384) and P[9] == F(1, 16)
    lhs = (P.derivative() + 4 * P) * Poly([6, 4]) - 4 * P
    ok = ok and lhs == math.prod([Poly([-2, 1])] * 7, start=Poly.monomial(3))
    report(6, "elementary integral identity at l=2", ok, t0)


def test_criterion_07_hautot_determinant():
    t0 = time.time()
    ok = True
    for l in range(2, 11):
        poly = det_A(l)
        s_star = special_frequency(l)
        ok = ok and poly.eval(s_star) == 0 and poly.eval(-s_star) == 0
        ok = ok and poly.eval(s_star + 1) != 0 and poly.eval(s_star - 1) != 0
        ok = ok and poly.eval(-s_star + 1) != 0 and poly.eval(-s_star - 1) != 0
    report(7, "sufficiency determinant roots for l=2..10", ok, t0)


def test_criterion_08_extended_expansions():
    t0 = time.time()
    ok = True
    for l in range(2, 7):
        for basis in ("kummer", "laguerre"):
            ok = ok and extended_expansion(l, basis).equal
    kummer2 = extended_expansion(2, "kummer")
    ok = ok and kummer2.coefficients == (
        F(9, 4194304),
        F(-7, 4194304),
        F(-945, 32768),
        F(-945, 32768),
    )
    report(8, "extended expansions exact for l=2..6, both bases", ok, t0)


def test_criterion_09_obstruction():
    t0 = time.time()
    s = 4
    ok = True
    for n in (2 * s + 1, 2 * s):
        try:
            kummer_poly(n, 1 - 2 * s)
            ok = False
        except ObstructionError:
            pass
    # the replacements are defined and satisfy their four relations exactly
    u = Poly.x()
    top = phi_poly(1, F(s))
    flat = phi_poly(0, F(s))
    nxt = phi_poly(2, F(s))
    ok = ok and u * top.derivative() == (2 * s + 1) * top - flat
    ok = ok and u * top == -flat + (2 * s + 3) * top - (2 * s + 2) * nxt
    ok = ok and u * flat.derivative() == 2 * s * flat
    ok = ok and u * flat == (2 * s + 1) * flat - (2 * s + 1) * top
    names_ok = {r.name: r.ok for r in recurrence_identity_suite(F(s), bound=2)}
    ok = ok and all(
        names_ok[k]
        for k in ("phi_top_derivative", "phi_top_contiguous", "phi_derivative", "phi_contiguous")
    )
    report(9, "obstruction raised; phi replacements satisfy the relations", ok, t0)


def test_criterion_10_oracle_agreement():
    t0 = time.time()
    l = 2
    g7 = family_equation("G7")
    ode = g7.at(l, special_frequency(l))
    rows, _ = candidate_rows(ode, 9)
    square = rows[:-1]  # the 10 x 10 candidate system
    basis = [Poly(v) for v in nullspace(square)]
    P_w = chandrasekhar_coeffs(l)
    target = chandrasekhar_r_frame(l, P_w.den, P_w.num[-1])
    ok = len(basis) == 1
    ok = ok and basis[0] * target.leading() == target * basis[0].leading()
    ok = ok and brute_force_polynomial_solutions(ode, 9) == basis
    e7 = family_equation("E7")
    for l_em, s in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1)):
        ode = e7.at(l_em, s)
        ok = ok and brute_force_polynomial_solutions(ode, 2 * s) == []
    report(10, "brute-force nullspaces: G7 one-dimensional, E7 empty", ok, t0)


def test_criterion_11_determinant_scan():
    t0 = time.time()
    result = scan(l_max=20, d_max=500)
    ok = result.all_final_signs_ok
    ok = ok and result.cells == (19 + 20 + 20) * 501
    ok = ok and result.cross_checks_ok and len(result.cross_checks) > 0
    ok = ok and result.flags_resolved_nonzero
    # the report itself: E7 breaks its interior pattern at every d >= l(l+1),
    # and the first 32 flagged cells are eight from each of l = 1..4
    ok = ok and not result.final_sign_violations
    ok = ok and result.flagged_count == sum(501 - l * (l + 1) for l in range(1, 21)) == 6940
    ok = ok and result.flagged == [
        ("E7", l, d) for l in range(1, 5) for d in range(l * (l + 1), l * (l + 1) + 8)
    ]
    ok = ok and len(result.cross_checks) == 236
    ok = ok and all(c["agree"] and c["nullspace_dim"] in (0, None) for c in result.cross_checks)
    # the published example cell and a few explicit small-degree checks
    for family, l, d in (("G3", 2, 1), ("G3", 2, 12), ("E3", 1, 9), ("E7", 1, 2)):
        ok = ok and cross_check_cell(family, l, d)["agree"]
    report(11, "sign scan d=0..500 with fraction-free cross-checks", ok, t0)


def test_criterion_12_s3_theorem():
    t0 = time.time()
    record = s3_nonexistence(two_s_max=40, l_max=10)
    ok = record.matched_ratio_solution_set == (F(0), F(1, 2))
    ok = ok and record.half_s_degree0_fails
    ok = ok and record.oracle_all_trivial
    ok = ok and record.oracle_cells == 39 * 11
    report(12, "S3 ratio system {0, 1/2} and trivial nullspaces", ok, t0)


def test_criterion_13_homotopic_equivalences():
    t0 = time.time()
    result = homotopic_equivalence_check()
    ok = result.parameter_maps_ok and result.operator_identities_ok
    # the advertised parameter map images on the two pairs
    l, s = 2, F(4)
    g7 = to_heun_form(family_equation("G7").at(l, s))
    ok = ok and homotopic_shift_params(g7, 4).c == -5
    e7 = to_heun_form(family_equation("E7").at(1, s))
    ok = ok and homotopic_shift_params(e7, 2).c == -3
    report(13, "homotopic z-power equivalences G7->G3 and E7->E3", ok, t0)
