"""Auxiliary equations: cleared coefficients, frames, recurrences, the
closed-form polynomial, the brute-force oracle, and the homotopic maps."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bhkovacic.algebra import Poly, rational_roots
from bhkovacic.auxode import (
    AuxiliaryODE,
    FamilyEquation,
    Recurrence3,
    _free_frequency_roots,
    _recurrence3,
    brute_force_polynomial_solutions,
    candidate_rows,
    chandrasekhar_checks,
    chandrasekhar_coeffs,
    chandrasekhar_r_frame,
    family_equation,
    homotopic_equivalence_check,
    homotopic_shift_params,
    multipole_offset,
    ode_residual,
    recurrence,
    solve_low_degree,
    to_heun_form,
    to_w_frame,
    to_z_frame,
)
from bhkovacic.elimination import bareiss_determinant, nullspace
from bhkovacic.evidence import SCAN_FAMILIES, cross_check_cell, det_sequence
from bhkovacic.hautot import det_A
from bhkovacic.kovacic import family_by_label
from bhkovacic.master import special_frequency


def _ode(label, l, s):
    return family_equation(label).at(l, s)


def _r_frame(l):
    """P(r) through the public route: chandrasekhar_r_frame on P(w)'s den and top."""
    P_w = chandrasekhar_coeffs(l)
    return chandrasekhar_r_frame(l, P_w.den, P_w.num[-1])


def _rational(ode):
    """The rational recurrence of ode: the integer rows of ``recurrence`` over den."""
    rec, den = recurrence(ode)
    rows = (rec.lower_k, rec.diag_k, rec.upper_k)
    return Recurrence3(*(tuple(F(c, den) for c in row) for row in rows))


# ---------------------------------------------------------------------------
# cleared equations, coefficient by coefficient
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("l,s", [(2, 4), (3, 2), (2, F(1, 3))])
def test_g7_equation(l, s):
    L = l * (l + 1)
    ode = _ode("G7", l, s)
    assert ode.p2 == Poly([0, -2, 1])
    assert ode.p1 == Poly([6, -2 - 4 * F(s), F(s)])
    assert ode.p0 == Poly([2 - L + 6 * F(s), -F(s) * (1 + 2 * F(s))])


@pytest.mark.parametrize("l,s", [(2, 4), (4, F(3, 2))])
def test_g3_equation(l, s):
    L = l * (l + 1)
    ode = _ode("G3", l, s)
    assert ode.p1 == Poly([-10, -2 * (2 * F(s) - 3), F(s)])
    assert ode.p0 == Poly([6 - L - 10 * F(s), -F(s) * (2 * F(s) - 3)])


@pytest.mark.parametrize("l,s", [(1, 1), (3, F(5, 2))])
def test_e7_equation(l, s):
    L = l * (l + 1)
    ode = _ode("E7", l, s)
    assert ode.p1 == Poly([2, -4 * F(s), F(s)])
    assert ode.p0 == Poly([2 * F(s) - L, -2 * F(s) ** 2])


@pytest.mark.parametrize("l,s", [(1, 2), (2, F(7, 2))])
def test_e3_equation(l, s):
    # the r coefficient of p0 is -2s(s-1); the recurrence and determinant
    # data pin it (a doubled variant appears in one published display)
    L = l * (l + 1)
    ode = _ode("E3", l, s)
    assert ode.p1 == Poly([-6, -2 * (2 * F(s) - 2), F(s)])
    assert ode.p0 == Poly([2 - L - 6 * F(s), -2 * F(s) * (F(s) - 1)])


@pytest.mark.parametrize("l,s", [(0, 1), (2, 3)])
def test_s3_equation(l, s):
    L = l * (l + 1)
    ode = _ode("S3", l, s)
    assert ode.p1 == Poly([-2, 2 - 4 * F(s), F(s)])
    assert ode.p0 == Poly([-L - 2 * F(s), -F(s) * (2 * F(s) - 1)])


def test_g8_residual_of_solution_is_zero():
    ode = _ode("G8", 2, 4)
    assert ode_residual(ode, Poly([F(3, 2), 1])).is_zero()


_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=30)
_polys = st.lists(_rationals, min_size=0, max_size=6).map(Poly)


@given(_polys, _polys, _polys, st.lists(_rationals, min_size=0, max_size=9).map(Poly))
@example(Poly([0, -2, 1]), Poly([1, 2, 3]), Poly([4, 5]), Poly.zero())
@example(Poly([0, -2, 1]), Poly([1, 2, 3]), Poly([4, 5]), Poly([F(-7, 3)]))
@example(Poly([0, -2, 1]), Poly([F(1, 2), 2, 3]), Poly([4, F(5, 7)]), Poly([F(3, 2), 1]))
@example(Poly.zero(), Poly.zero(), Poly.zero(), Poly([1, 2, 3]))
@settings(max_examples=80, deadline=None)
def test_ode_residual_matches_poly_arithmetic(p2, p1, p0, P):
    # the integer convolution against the derivative formula in Poly arithmetic
    from bhkovacic.auxode import HeunForm

    reference = p2 * P.derivative().derivative() + p1 * P.derivative() + p0 * P
    assert ode_residual(AuxiliaryODE("r", p2, p1, p0), P) == reference
    a, b, c = p1[2], p1[1], p1[0]
    d, e = p0[0], p0[1]
    heun = Poly([0, -1, 1]) * P.derivative().derivative() + Poly([c, b, a]) * P.derivative()
    assert HeunForm(a, b, c, d, e).apply([P]) == [heun + Poly([d, e]) * P]


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------


def test_heun_forms():
    # (a, b, c, d, e) with L = l(l+1); c is the frame-fixed constant
    l, s = 2, F(4)
    L = l * (l + 1)
    h7 = to_heun_form(_ode("G7", l, s))
    assert h7 == (2 * s, -2 * (2 * s + 1), 3, 2 - L + 6 * s, -2 * s * (2 * s + 1))
    assert to_heun_form(_ode("G3", l, s)).c == -5
    assert to_heun_form(_ode("E7", 1, s)).c == 1
    assert to_heun_form(_ode("E3", 1, s)).c == -3
    assert to_heun_form(_ode("S3", 0, s)).c == -1


def test_z_frame_solutions_correspond():
    # P(r) solves in r iff P(2z) solves in z
    ode = _ode("G8", 2, 4)
    z_ode = to_z_frame(ode)
    P_r = Poly([F(3, 2), 1])
    P_z = P_r.scale_variable(2)  # P(2z)
    assert ode_residual(z_ode, P_z).is_zero()


# ---------------------------------------------------------------------------
# three-term recurrences
# ---------------------------------------------------------------------------


def brute_recurrence_rows(ode, coeffs, rows):
    """Oracle: residual of the series about the frame origin computed by raw
    polynomial arithmetic, then read off coefficient by coefficient."""
    P = Poly(coeffs)
    residual = ode.p2 * P.derivative().derivative() + ode.p1 * P.derivative() + ode.p0 * P
    return [residual[m] for m in range(rows)]


# (label, l, s, origin): origin 2 is the horizon, the origin of the w frame;
# an id ends in the indicial root 0 that the recurrence is taken on
ORIGIN_CASES = [
    ("G7", 2, 4, 2),
    ("G7", 3, 2, 0),
    ("S3", 0, 1, 0),
    ("S3", 2, 3, 2),
    ("E3", 1, 2, 2),
    ("E7", 1, 1, 0),
    ("G3", 2, 2, 0),
]


@pytest.mark.parametrize(
    "label,l,s,point", ORIGIN_CASES, ids=["-".join(map(str, c)) + "-0" for c in ORIGIN_CASES]
)
def test_recurrence_matches_direct_expansion(label, l, s, point):
    ode = _ode(label, l, s)
    if point == 2:
        ode = to_w_frame(ode)
    rec = _rational(ode)
    coeffs = [F(3, 2), F(-1), F(2), F(5, 7), F(1), F(-4, 3)]
    expected = brute_recurrence_rows(ode, coeffs, 8)
    assert rec.residual_rows(coeffs, 8) == expected


def test_residual_rows_of_integers_are_integers():
    # the rows past either end of the vector pad with the integer 0, so an
    # integer vector (the closed form's numerators) gives int rows throughout
    l = 3
    rec, _ = recurrence(to_w_frame(_ode("G7", l, special_frequency(l))))
    num = chandrasekhar_coeffs(l).num
    d = len(num) - 1
    rows = rec.residual_rows(num, d + 2)
    assert rows == [0] * (d + 2)
    assert all(type(v) is int for v in rows)
    rows = rec.residual_rows([1, -2, 3], 5)
    assert all(type(v) is int for v in rows) and rows[0] != 0


def test_g7_recurrence_about_horizon():
    # about r=2 with rho=0, row 0: diag = 2 - l(l+1) + 4s(1-s), upper = 2(1-2s)
    for l, s in ((2, F(4)), (3, F(5, 2))):
        rec = _rational(to_w_frame(_ode("G7", l, s)))
        L = l * (l + 1)
        assert rec.diag(0) == 2 - L + 4 * s * (1 - s)
        assert rec.upper(0) == 2 * (1 - 2 * s)
        # general rows: lower = s(n - 2(s+1)), upper = 2(1+n)(1+n-2s)
        for n in range(6):
            assert rec.lower(n) == s * (n - 2 * (s + 1))
            assert rec.diag(n) == 2 - L + n * (n - 3) - 4 * s * (s - 1)
            assert rec.upper(n) == 2 * (1 + n) * (1 + n - 2 * s)


def test_s3_recurrence_about_origin():
    # lower = s(n-2s), diag = n^2 + n - 4sn - L - 2s, upper = -2(n+1)^2
    for l, s in ((0, F(1)), (2, F(3))):
        rec = _rational(_ode("S3", l, s))
        L = l * (l + 1)
        for n in range(8):
            assert rec.lower(n) == s * (n - 2 * s)
            assert rec.diag(n) == n * n + n - 4 * s * n - L - 2 * s
            assert rec.upper(n) == -2 * (n + 1) ** 2


def test_s3_termination_rows():
    # about r=2, rho=0: the upper entry dies at n = 2s-1 and the lower at
    # n = 2s; the diagonal at n = 2s-1 is -(L + 2s)
    l, s = 2, F(3)
    L, two_s = l * (l + 1), 6
    rec = _rational(to_w_frame(_ode("S3", l, s)))
    assert rec.upper(two_s - 1) == 0
    assert rec.lower(two_s) == 0
    assert rec.diag(two_s - 1) == -(L + 2 * s)
    assert rec.upper(two_s) == 2 * (2 * s + 1)


def test_indicial_structure():
    # the indicial roots are {0, 4} at r = 0 and {0, 2s} = {0, 8} at r = 2:
    # on the root 0, upper(k) = (k+1)(beta k + c) dies at k = other root - 1
    ode = _ode("G7", 2, 4)
    assert [k for k in range(12) if _rational(ode).upper(k) == 0] == [3]
    assert [k for k in range(12) if _rational(to_w_frame(ode)).upper(k) == 0] == [7]
    # shifted by 1, the origin is r = 1, not a singular point
    shifted = AuxiliaryODE("r", ode.p2.shift(1), ode.p1.shift(1), ode.p0.shift(1))
    with pytest.raises(ValueError):
        recurrence(shifted)


@pytest.mark.parametrize(
    "p2",
    [
        Poly([1, 0, 1]),  # r^2 + 1: the origin is an ordinary point
        Poly([0, 0, 1]),  # r^2: an irregular singular point
        Poly([0, 0, 0, 1]),  # r^3
        Poly([F(1, 3)]),  # a constant
        Poly.zero(),
    ],
)
def test_recurrence_refuses_an_origin_that_is_not_regular_singular(p2):
    ode = _ode("G7", 2, 4)
    with pytest.raises(ValueError, match="not a regular singular point in frame r"):
        recurrence(ode._replace(p2=p2))


@pytest.mark.parametrize(
    "field,poly",
    [
        ("p2", Poly([0, -2, 0, 1])),  # r^3 - 2r: regular singular at 0, but cubic
        ("p1", Poly([1, 2, 3, F(1, 2)])),
        ("p0", Poly([1, 2, 3])),
    ],
)
def test_recurrence_refuses_coefficients_past_the_cleared_degrees(field, poly):
    ode = _ode("E7", 1, F(5, 2))._replace(**{field: poly})
    with pytest.raises(ValueError, match="exceed the cleared-form degrees"):
        recurrence(ode)
    with pytest.raises(ValueError, match="exceed the cleared-form degrees"):
        brute_force_polynomial_solutions(ode, 3)


# ---------------------------------------------------------------------------
# every route to an auxiliary equation checks l
# ---------------------------------------------------------------------------

# keyed by what the route does; the first three are FamilyEquation.at,
# .recurrence_at and .recurrence
ROUTES = {
    "build_auxiliary": lambda family, l: family_equation(family.label).at(l, 1),
    "integer_recurrence": lambda family, l: family_equation(family.label).recurrence_at(l, 1),
    "symbolic_recurrence": lambda family, l: family_equation(family.label).recurrence(l),
    "solve_low_degree": lambda family, l: solve_low_degree(
        family_equation(family.label), 0, l=l, s_fixed=1
    ),
    "det_sequence": lambda family, l: det_sequence(family.label, l, 0),
    "cross_check_cell": lambda family, l: cross_check_cell(family.label, l, 0),
}
SCAN_ROUTES = ("det_sequence", "cross_check_cell")
BELOW_LOWEST_MULTIPOLE = "below the lowest radiating multipole"


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("label, l", [("G8", 1), ("G3", 0), ("E7", 0)])
def test_every_route_refuses_l_below_the_lowest_multipole(route, label, l):
    family = family_by_label(label)
    if route in SCAN_ROUTES and label not in SCAN_FAMILIES:
        for any_l in (l, family.kind.min_l):  # the scan covers no l of the family
            with pytest.raises(ValueError, match="scan covers"):
                ROUTES[route](family, any_l)
        return
    with pytest.raises(ValueError, match=BELOW_LOWEST_MULTIPOLE):
        ROUTES[route](family, l)
    ROUTES[route](family, family.kind.min_l)  # the lowest multipole itself is accepted


@pytest.mark.parametrize("l", [1, 0])
def test_det_A_refuses_l_below_the_gravitational_quadrupole(l):
    with pytest.raises(ValueError, match=BELOW_LOWEST_MULTIPOLE):
        det_A(l)


# ---------------------------------------------------------------------------
# l enters through one offset: sympy derivations with L = l(l+1) a symbol
# ---------------------------------------------------------------------------

N1_LABELS = [f"{p}{i}" for p, count in (("G", 8), ("E", 8), ("S", 4)) for i in range(1, count + 1)]
BETA_AND_MIN_L = {"G": (-3, 2), "E": (0, 1), "S": (1, 0)}


def _in_sympy(p, s):
    """A Poly in s (or a rational constant) as a sympy expression in s."""
    import sympy

    coeffs = p.coeffs if isinstance(p, Poly) else (F(p),)
    return sum(sympy.Rational(c.numerator, c.denominator) * s**k for k, c in enumerate(coeffs))


def _coefficients_at(family, s, L):
    """The implementation's (p1 const, lin, quad, e, f) in sympy, at multipole L.

    f is lowered by L - L_min, the multipole offset with L a symbol.
    """
    eq = family_equation(family.label)
    p1_const, p1_lin, p1_quad, e, f = (
        _in_sympy(p, s) for p in (eq.p1_const, eq.p1_lin, eq.p1_quad, eq.e, eq.f)
    )
    min_l = family.kind.min_l
    return p1_const, p1_lin, p1_quad, e, f - (L - min_l * (min_l + 1))


@pytest.mark.parametrize("label", N1_LABELS)
def test_cleared_coefficients_match_a_sympy_derivation(label):
    # p1 and p0 from nu of the master equation and from theta, in (r, s, L)
    import sympy

    r, s, L = sympy.symbols("r s L")
    family = family_by_label(label)
    beta, min_l = BETA_AND_MIN_L[label[0]]
    nu = (s**2 / 4 * r**4 + L * r**2 + 2 * (beta - L - 1) * r + 3 - 4 * beta) / (
        r**2 * (r - 2) ** 2
    )
    e0, e2 = _in_sympy(family.e0, s), _in_sympy(family.e2, s)
    theta = e0 / r + e2 / (r - 2) + family.sign_inf * s / 2
    p1 = 2 * theta * r * (r - 2)
    p0 = r * (r - 2) * (theta**2 + sympy.diff(theta, r) - nu)
    p1_const, p1_lin, p1_quad, e, f = _coefficients_at(family, s, L)
    assert sympy.cancel(p1 - (p1_quad * r**2 + p1_lin * r + p1_const)) == 0
    assert sympy.cancel(p0 - (e * r + f)) == 0
    for l in range(min_l, min_l + 4):
        assert multipole_offset(family, l) == l * (l + 1) - min_l * (min_l + 1)


@pytest.mark.parametrize("label", N1_LABELS)
def test_symbolic_recurrence_evaluates_to_the_recurrence_at_s(label):
    eq = family_equation(label)
    min_l = eq.family.kind.min_l

    def at(entry, s):
        return entry.eval(s) if isinstance(entry, Poly) else entry

    for l in (min_l, min_l + 3):
        symbolic = eq.recurrence(l)
        for s in (1, F(7, 3)):
            rows = (symbolic.lower_k, symbolic.diag_k, symbolic.upper_k)
            expected = Recurrence3(*(tuple(at(c, s) for c in row) for row in rows))
            assert _rational(eq.at(l, s)) == expected, (l, s)


def test_g7_sufficiency_minor_holds_for_every_l():
    # det(A) = -36 (s^2 - (L(L-2)/6)^2) as a polynomial identity in (s, L)
    import sympy

    s, L = sympy.symbols("s L")
    rec = family_equation("G7").recurrence(2)
    rows = (rec.lower_k, rec.diag_k, rec.upper_k)
    lower, diag, upper = ([_in_sympy(c, s) for c in row] for row in rows)
    diag[0] -= L - 6  # the multipole offset from l = 2
    minor = sympy.expand(Recurrence3(tuple(lower), tuple(diag), tuple(upper)).det(4))
    assert sympy.expand(minor + 36 * (s**2 - (L * (L - 2) / 6) ** 2)) == 0
    for l in range(2, 6):
        assert sympy.expand(_in_sympy(det_A(l), s) - minor.subs(L, l * (l + 1))) == 0


def test_g8_solution_holds_for_every_l():
    # P = r + 6/(L-2) solves the G8 equation at s = L(L-2)/6 for every L
    import sympy

    r, L = sympy.symbols("r L")
    p1_const, p1_lin, p1_quad, e, f = _coefficients_at(family_by_label("G8"), L * (L - 2) / 6, L)
    P = r + 6 / (L - 2)
    residual = (
        r * (r - 2) * sympy.diff(P, r, 2)
        + (p1_quad * r**2 + p1_lin * r + p1_const) * sympy.diff(P, r)
        + (e * r + f) * P
    )
    assert sympy.cancel(sympy.expand((L - 2) * residual)) == 0


# ---------------------------------------------------------------------------
# fixed-degree solutions
# ---------------------------------------------------------------------------


def test_g8_solutions():
    g8 = family_equation("G8")
    for l in range(2, 11):
        ((s, P),) = solve_low_degree(g8, 1, l=l, s_fixed=None)
        assert s == special_frequency(l)
        assert P == Poly([F(6, (l + 2) * (l - 1)), 1])


def test_marginal_families_empty():
    for label, d, s_fixed in (
        ("G5", 1, None),
        ("E5", 0, None),
        ("E8", 0, None),
        ("G6", 0, F(1, 2)),
        ("G6", 1, F(0)),
        ("E6", 0, F(0)),
    ):
        fam = family_by_label(label)
        for l in range(fam.kind.min_l, fam.kind.min_l + 5):
            assert solve_low_degree(family_equation(label), d, l=l, s_fixed=s_fixed) == []


@pytest.mark.parametrize("label", ["G5", "G8", "E5", "E8"])
def test_free_frequency_families(label):
    # the degree form fixes d for every s, so s is left unknown; only G8
    # has a solution, at the algebraically special frequency
    family = family_by_label(label)
    a, b = family.degree[0], family.degree[1]
    assert b == 0 and a in (0, 1)
    eq = family_equation(label)
    for l in range(family.kind.min_l, 13):
        expected = []
        if label == "G8":
            expected = [(special_frequency(l), Poly([F(6, (l + 2) * (l - 1)), 1]))]
        assert solve_low_degree(eq, int(a), l=l, s_fixed=None) == expected


@pytest.mark.parametrize("label, d", [("G3", 1), ("E7", 0)])
def test_free_frequency_refused_where_the_degree_pins_s(label, d):
    eq = family_equation(label)
    with pytest.raises(ValueError, match="s_fixed"):
        solve_low_degree(eq, d, l=family_by_label(label).kind.min_l, s_fixed=None)


@pytest.mark.parametrize("label", ["G5", "G8", "E5", "E8"])
def test_free_frequency_condition_is_the_sympy_eliminant(label):
    # the solver roots D_(d+1) of the symbolic recurrence; sympy expands the
    # residual of a monic degree-d trial polynomial from the equation's
    # fields and eliminates its unknown coefficients: row d+1 vanishes for
    # every s, and the eliminant of rows 0..d is D_(d+1) up to a constant
    import sympy

    family = family_by_label(label)
    d = int(family.degree[0])
    s, r = sympy.symbols("s r")
    ks = sympy.symbols(f"k0:{d}")
    P = r**d + sum(k * r**i for i, k in enumerate(ks))
    for l in range(family.kind.min_l, 9):
        p1_const, p1_lin, p1_quad, e, f = _coefficients_at(family, s, l * (l + 1))
        residual = sympy.Poly(
            r * (r - 2) * sympy.diff(P, r, 2)
            + (p1_quad * r**2 + p1_lin * r + p1_const) * sympy.diff(P, r)
            + (e * r + f) * P,
            r,
        )
        rows = [residual.coeff_monomial(r**m) for m in range(d + 2)]
        assert sympy.expand(rows[d + 1]) == 0
        at_zero = {k: 0 for k in ks}
        linear = sympy.Matrix(
            [[sympy.diff(row, k) for k in ks] + [row.subs(at_zero)] for row in rows[: d + 1]]
        )
        eliminant = sympy.expand(linear.det())
        assert eliminant != 0
        rec = family_equation(label).recurrence(l)
        assert rec.lower(d + 1) == 0
        ratio = sympy.cancel(_in_sympy(rec.det(d + 1), s) / eliminant)
        assert ratio.is_number and ratio != 0, (l, ratio)


@pytest.mark.parametrize("l", [2, 3])
def test_g7_closed_form_is_its_fixed_degree_solution(l):
    # any degree: at the special frequency the degree-(2s+1) G7 system has
    # exactly one solution, the closed-form polynomial written in r
    s = special_frequency(l)
    P_r = chandrasekhar_coeffs(l).shift(-2)
    expected = [(s, P_r * (1 / P_r.leading()))]
    assert solve_low_degree(family_equation("G7"), int(2 * s + 1), l=l, s_fixed=s) == expected


def test_fixed_degree_refuses_a_space_of_solutions():
    # every field zero: r(r-2) P'' = 0 at the lowest multipole, solved by 1
    # and r, so no monic degree-1 solution is singled out
    zero = Poly.zero()
    eq = FamilyEquation(family_by_label("G8"), zero, zero, zero, zero, zero)
    with pytest.raises(NotImplementedError, match="dimension 2"):
        solve_low_degree(eq, 1, l=2, s_fixed=1)
    assert solve_low_degree(eq, 0, l=2, s_fixed=1) == [(1, Poly.one())]
    # above it f = -m = -6 alone carries l: no P of degree <= 1 solves r(r-2) P'' = 6 P
    assert solve_low_degree(eq, 1, l=3, s_fixed=F(3, 2)) == []


_S = Poly.x()


@pytest.mark.parametrize(
    "cofactor",
    [_S * _S + 4 * _S + 2, _S * _S * _S + 6 * _S * _S + 9 * _S + 3],
    ids=["roots -2+-sqrt2", "cubic, no rational root"],
)
def test_free_frequency_roots_certified_by_descartes(cofactor):
    # no rational root and no sign change: no positive root at any degree
    assert rational_roots(cofactor) == []
    assert _free_frequency_roots(Poly.zero(), (_S - 1) * cofactor) == [1]
    assert _free_frequency_roots(Poly.zero(), (_S + 2) * cofactor) == []


def test_free_frequency_roots_refuse_an_irrational_positive_root():
    with pytest.raises(NotImplementedError, match="irrational"):
        _free_frequency_roots(Poly.zero(), _S * _S - 2)


def test_free_frequency_roots_accept_a_quadratic_with_no_real_root():
    # s^2 - 3s + 5 changes sign twice but has discriminant -11
    assert _free_frequency_roots(Poly.zero(), _S * _S - 3 * _S + 5) == []
    assert _free_frequency_roots(Poly.zero(), (_S - 2) * (_S * _S - 3 * _S + 5)) == [2]


def test_s3_degree_zero_fails_at_half():
    s3 = family_equation("S3")
    for l in range(0, 6):
        assert solve_low_degree(s3, 0, l=l, s_fixed=F(1, 2)) == []


# ---------------------------------------------------------------------------
# the closed-form polynomial
# ---------------------------------------------------------------------------


def test_chandrasekhar_l2_coefficients():
    P = chandrasekhar_coeffs(2)
    assert [c for c in P.coeffs] == [
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
    # spot values quoted separately: leading, next-to-leading relation
    assert P[9] == F(1, 16)
    assert P[7] == F(3, 32)  # 3(6 sigma0 - mu2)/(sigma0^2 mu2^3) at l = 2
    assert P[0] == F(-945, 16384)


def _docstring_coeffs(l):
    """chandrasekhar_coeffs' docstring formula, evaluated term by term in Fraction."""
    sigma0 = special_frequency(l) / 2
    mu2 = F((l - 1) * (l + 2))
    four_sig = int(4 * sigma0)
    coeffs = [F(0)] * (four_sig + 2)
    coeffs[four_sig + 1] = 1 / (2 * sigma0 * mu2)
    coeffs[four_sig] = (mu2 - 3) / (sigma0 * mu2**2)
    for n in range(four_sig):
        coeffs[n] = (
            3
            * (-2 * sigma0) ** (n - four_sig - 1)
            * math.factorial(four_sig)
            * (mu2 - 6 * sigma0)
            * ((n - four_sig) * mu2 - 12 * sigma0)
            / (math.factorial(n) * (mu2 + 12 * sigma0) * sigma0 * mu2**3)
        )
    return tuple(coeffs)


@pytest.mark.parametrize("l", range(2, 7))
def test_chandrasekhar_coeffs_match_the_docstring_formula(l):
    P = chandrasekhar_coeffs(l)
    assert P.coeffs == _docstring_coeffs(l)
    assert P.den > 0 and math.gcd(P.den, *P.num) == 1


def test_chandrasekhar_r_frame_matches_shift():
    for l in (2, 3, 4):
        P_w = chandrasekhar_coeffs(l)
        assert chandrasekhar_r_frame(l, P_w.den, P_w.num[-1]) == P_w.shift(-2)


@pytest.mark.parametrize("plant", ("first", "middle", "top", "parity"))
def test_planted_sign_error_fails_sign_pattern(monkeypatch, plant):
    import bhkovacic.auxode as auxode

    P_r = _r_frame(3)
    num = list(P_r.num)
    if plant == "parity":  # the pattern (-1)^n, one off from (-1)^(n+1)
        num = [-v for v in num]
    else:
        k = {"first": 0, "middle": len(num) // 2, "top": len(num) - 1}[plant]
        num[k] = -num[k]
    monkeypatch.setattr(
        auxode, "chandrasekhar_r_frame", lambda l, den, top: Poly.from_numerators(num, P_r.den)
    )
    record = chandrasekhar_checks(3)
    assert record.recurrence_ok
    assert not record.sign_pattern_ok
    assert "sign_pattern" in record.failed_checks and not record.all_ok


def test_chandrasekhar_checks_runs_the_public_r_frame(monkeypatch):
    # P(r) of the checks comes from chandrasekhar_r_frame itself, once
    import bhkovacic.auxode as auxode

    real, calls = auxode.chandrasekhar_r_frame, []

    def counted(l, den, top):
        calls.append(l)
        return real(l, den, top)

    monkeypatch.setattr(auxode, "chandrasekhar_r_frame", counted)
    assert chandrasekhar_checks(3).all_ok
    assert calls == [3]


def test_cleared_recurrence_scales_rows():
    # the integer rows are the rational ones (test_g7_recurrence_about_horizon)
    # times den > 0, with no factor in common with den
    l, s = 2, special_frequency(2)
    L = l * (l + 1)
    rec, den = recurrence(to_w_frame(_ode("G7", l, s)))
    assert den > 0
    assert math.gcd(den, *rec.lower_k, *rec.diag_k, *rec.upper_k) == 1
    expected = {
        "lower": lambda n: s * (n - 2 * (s + 1)),
        "diag": lambda n: 2 - L + n * (n - 3) - 4 * s * (s - 1),
        "upper": lambda n: 2 * (1 + n) * (1 + n - 2 * s),
    }
    for k in range(12):
        for entry in ("lower", "diag", "upper"):
            value = getattr(rec, entry)(k)
            assert isinstance(value, int) and value == den * expected[entry](k)


def test_chandrasekhar_l2_r_frame_display():
    P = _r_frame(2)
    assert P[0] == F(-1164765, 16384)
    assert P[9] == F(1, 16)
    assert P == Poly(
        [
            F(-1164765, 16384),
            F(1941275, 8192),
            F(-388255, 1024),
            F(388255, 1024),
            F(-132149, 512),
            F(31345, 256),
            F(-40),
            F(275, 32),
            F(-35, 32),
            F(1, 16),
        ]
    )


def test_verification_record():
    for l in (2, 3):
        record = chandrasekhar_checks(l)
        assert record.all_ok and record.failed_checks == ()
        assert record.degree == int(2 * special_frequency(l) + 1)


def test_chandrasekhar_checks_hold_one_coefficient_vector_at_a_time():
    # the checks drop P(w) before they build P(r) and stream the right sides
    # of (iii), so their traced peak stays within 1.5 times the numerators
    # of P(r) alone; holding P(w), P(r) and a right side at once needs 3x
    import sys
    import tracemalloc

    l = 8
    tracemalloc.start()
    try:
        record = chandrasekhar_checks(l)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert record.all_ok
    vector = sum(sys.getsizeof(v) for v in _r_frame(l).num)
    assert vector > 2_000_000  # degree 1681: the vectors, not the set-up, set the peak
    assert peak < 1.5 * vector, (peak, vector)


def test_mutation_is_caught():
    P = chandrasekhar_coeffs(2)
    mutated = Poly([P[0] + 1] + list(P.coeffs[1:]))
    record = chandrasekhar_checks(2, P_w=mutated)
    # P(r) is not built from a P_w that fails (i), so the checks that would
    # read it fail too instead of examining nothing
    assert not record.recurrence_ok
    assert not record.ode_residual_ok
    assert not record.integral_identity_ok
    assert not record.sign_pattern_ok
    assert record.failed_checks == ("recurrence", "ode_residual", "integral_identity", "sign_pattern")


def test_planted_middle_numerator_fails_integral_identity(monkeypatch):
    # identity (iii) runs on numerators: one negated middle numerator of P(r)
    # must break it (and the r-frame residual), not only the sign pattern
    import bhkovacic.auxode as auxode

    P_r = _r_frame(3)
    num = list(P_r.num)
    num[len(num) // 2] = -num[len(num) // 2]
    monkeypatch.setattr(
        auxode, "chandrasekhar_r_frame", lambda l, den, top: Poly.from_numerators(num, P_r.den)
    )
    record = chandrasekhar_checks(3)
    assert record.recurrence_ok
    assert not record.integral_identity_ok and not record.ode_residual_ok


def test_checks_examine_the_p_r_a_caller_passes(monkeypatch):
    # a caller that built P(r) passes it and no second one is built; the
    # checks examine what was passed, so a planted P(r) fails them
    import bhkovacic.auxode as auxode

    P_w, P_r = chandrasekhar_coeffs(3), _r_frame(3)
    calls = []
    real = auxode.chandrasekhar_r_frame
    monkeypatch.setattr(auxode, "chandrasekhar_r_frame", lambda *a: calls.append(a) or real(*a))
    assert chandrasekhar_checks(3, P_w, P_r).all_ok
    num = list(P_r.num)
    num[len(num) // 2] = -num[len(num) // 2]
    record = chandrasekhar_checks(3, P_w, Poly.from_numerators(num, P_r.den))
    assert record.recurrence_ok
    assert not record.ode_residual_ok and not record.integral_identity_ok
    assert calls == []


@pytest.mark.parametrize("l", (2, 4))
def test_halved_polynomial_fails_only_the_integral_identity(l):
    # P/2 still solves the linear equation, so only the inhomogeneous
    # identity (iii) can see that the denominator is off by a factor 2
    P = chandrasekhar_coeffs(l)
    halved = Poly.from_numerators(list(P.num), 2 * P.den)
    assert halved == P * F(1, 2)
    record = chandrasekhar_checks(l, P_w=halved)
    assert record.failed_checks == ("integral_identity",)
    assert chandrasekhar_checks(l, P_w=P).all_ok


def test_integral_identity_reads_every_coefficient():
    # identity (iii) on numerators compares from the constant term up to
    # and past the top one: a right side changed at either end is refused
    from bhkovacic.auxode import _binomial_terms, _integral_identity_holds

    # s = 4, mu2 = 4, c0 = 6 in the r frame
    P = _r_frame(2)
    rhs = list(_binomial_terms(3, -2, 7, P.den))  # den r^3 (r-2)^7
    assert _integral_identity_holds(P, 4, 6, 4, rhs)
    assert _integral_identity_holds(P, 4, 6, 4, iter(rhs))
    top = len(rhs) - 1
    for k in (0, top, top + 1):  # + 1, + x^deg and + x^(deg+1), times den
        changed = rhs + [0] * (k + 1 - len(rhs))
        changed[k] += P.den
        assert not _integral_identity_holds(P, 4, 6, 4, changed)
        assert not _integral_identity_holds(P, 4, 6, 4, iter(changed))
    assert not _integral_identity_holds(P, 4, 6, 4, [v * F(1, 3) for v in rhs])


@pytest.mark.parametrize("l", (2, 3))
def test_streamed_identity_refuses_an_extra_top_coefficient(l):
    # a P with one more numerator above its top leaves a left side one
    # degree too high, which the streamed right side must not forgive
    from bhkovacic.auxode import _binomial_terms, _integral_identity_holds

    P = _r_frame(l)
    s, mu2 = int(special_frequency(l)), (l - 1) * (l + 2)
    n = 2 * s - 1

    def rhs(den):
        return _binomial_terms(3, -2, n, den)

    assert _integral_identity_holds(P, s, 6, mu2, rhs(P.den))
    extra = Poly.from_numerators([*P.num, 1], P.den)
    assert extra.degree == P.degree + 1
    assert not _integral_identity_holds(extra, s, 6, mu2, rhs(extra.den))


def test_streamed_identity_refuses_the_zero_polynomial():
    # nothing passes vacuously: an empty P against a nonzero right side fails
    from bhkovacic.auxode import _binomial_terms, _integral_identity_holds

    zero = Poly.zero()
    assert not _integral_identity_holds(zero, 4, 6, 4, _binomial_terms(3, -2, 7, zero.den))
    assert not _integral_identity_holds(zero, 4, 14, 4, _binomial_terms(7, 2, 3, zero.den))
    assert _integral_identity_holds(zero, 4, 6, 4, iter(()))


@pytest.mark.parametrize("c", (2, -2))
def test_binomial_terms_match_math_comb(c):
    from bhkovacic.auxode import _binomial_terms

    for n in range(51):
        for shift, den in ((0, 1), (3, 7), (1, 2**40 + 3)):
            expected = [0] * shift + [den * math.comb(n, k) * c ** (n - k) for k in range(n + 1)]
            assert list(_binomial_terms(shift, c, n, den)) == expected, (n, shift, den)


@pytest.mark.parametrize("l", (2, 3, 4, 5))
def test_right_side_is_built_times_den(l):
    from bhkovacic.auxode import _binomial_terms

    P_r = _r_frame(l)
    n = int(2 * special_frequency(l)) - 1
    # r^3 (r-2)^(4 sigma0 - 1), and w^(4 sigma0 - 1) (w+2)^3
    for shift, c, power in ((3, -2, n), (n, 2, 3)):
        reference = math.prod([Poly([c, 1])] * power, start=Poly.monomial(shift))
        assert reference.den == 1
        terms = list(_binomial_terms(shift, c, power, P_r.den))
        assert terms == [P_r.den * v for v in reference.num]


def test_elementary_integral_identity_l2():
    # (P' + 4P)(4r + 6) - 4P = r^3 (r-2)^7 at l = 2
    P = _r_frame(2)
    lhs = (P.derivative() + 4 * P) * Poly([6, 4]) - 4 * P
    rhs = math.prod([Poly([-2, 1])] * 7, start=Poly.monomial(3))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------


def test_oracle_g7():
    l = 2
    ode = _ode("G7", l, special_frequency(l))
    basis = brute_force_polynomial_solutions(ode, 9)
    assert len(basis) == 1
    target = _r_frame(l)
    assert basis[0] * target.leading() == target * basis[0].leading()
    # raising the degree bound does not add solutions
    basis12 = brute_force_polynomial_solutions(ode, 12)
    assert len(basis12) == 1 and basis12[0].degree == 9


def test_oracle_e7_empty():
    for l, s in ((1, 1), (1, 2), (2, 1), (2, 2)):
        ode = _ode("E7", l, s)
        assert brute_force_polynomial_solutions(ode, 2 * s) == []


def test_oracle_g8():
    ode = _ode("G8", 2, 4)
    basis = brute_force_polynomial_solutions(ode, 1)
    assert len(basis) == 1
    assert basis[0] * F(1, 2) == Poly([F(3, 2), 1])  # primitive 2r + 3


def test_degree_law():
    # polynomial solutions of the G7 equation have degree 1 + 2s exactly;
    # a lower degree bound returns nothing
    l = 2
    ode = _ode("G7", l, special_frequency(l))
    assert brute_force_polynomial_solutions(ode, 8) == []


def test_tridiagonal_system_det_matches_recurrence():
    # the (d+1) x (d+1) candidate determinant equals the minor recurrence;
    # candidate_rows gives (rows, den), integer rows 0..d+1 that are each the
    # rational row times den, so the determinant of rows 0..d is the
    # Bareiss one over den^(d+1)
    from bhkovacic.evidence import default_l_range, degree_to_s, det_sequence

    for label in ("G3", "E3", "E7"):
        eq = family_equation(label)
        for l in default_l_range(label, 4):
            for d in range(13):
                rows, den = candidate_rows(eq.recurrence_at(l, degree_to_s(label, d)), d)
                assert len(rows) == d + 2 and den > 0
                assert all(type(v) is int for row in rows for v in row)
                det = F(bareiss_determinant(rows[:-1]), den ** (d + 1))
                assert det == det_sequence(label, l, d).D_last, (label, l, d)


def _cleared_rows(ode, d):
    """candidate_rows through Fraction entries: rows 0..d+1 of the recurrence
    built on the equation's rational coefficients, each times den, the lcm
    of the entries' denominators; the reference for the integer build."""
    p2, p1, p0 = (list(p.coeffs) + [F(0)] * 3 for p in (ode.p2, ode.p1, ode.p0))
    rec = _recurrence3(p2[2], p2[1], p1[2], p1[1], p1[0], p0[1], p0[0])
    entries = (rec.lower_k, rec.diag_k, rec.upper_k)
    den = math.lcm(*(F(c).denominator for row in entries for c in row))
    rows = [[0] * (d + 1) for _ in range(d + 2)]
    for m in range(d + 2):
        if m >= 1:
            rows[m][m - 1] = rec.lower(m) * den
        if m <= d:
            rows[m][m] = rec.diag(m) * den
        if m < d:
            rows[m][m + 1] = rec.upper(m) * den
    return rows, den


@pytest.mark.parametrize("label", ["G3", "E3", "E7", "G7", "S3"])
def test_candidate_rows_match_the_cleared_recurrence(label):
    # the scan's cross-check systems (d <= 12 at each l of the verify-all
    # grid) and the frames and frequencies of the other oracles
    from bhkovacic.evidence import default_l_range

    fam = family_by_label(label)
    eq = family_equation(label)
    for l in default_l_range(label, 6) if label in SCAN_FAMILIES else range(2, 5):
        for d in range(13):
            ode = eq.at(l, (d - fam.degree[0]) / fam.degree[1])
            assert candidate_rows(recurrence(ode), d) == _cleared_rows(ode, d), (l, d)
            w_frame = to_w_frame(ode)
            assert candidate_rows(recurrence(w_frame), d) == _cleared_rows(w_frame, d)


@given(
    st.sampled_from(N1_LABELS),
    st.integers(0, 6),
    st.fractions(max_denominator=10**4),
    st.integers(0, 12),
)
@settings(max_examples=150, deadline=None)
@example("G3", 0, F(7, 2), 4)
@example("S1", 3, F(0), 0)
def test_candidate_rows_match_the_cleared_recurrence_at_any_s(label, dl, s, d):
    # every n=1 family, any multipole l >= min_l and any rational s, in the
    # three frames the recurrence is taken in
    ode = _ode(label, family_by_label(label).kind.min_l + dl, s)
    for framed in (ode, to_w_frame(ode), to_z_frame(ode)):
        assert candidate_rows(recurrence(framed), d) == _cleared_rows(framed, d), framed.frame


@given(st.sampled_from(N1_LABELS), st.integers(0, 6), st.fractions(max_denominator=10**6))
@settings(max_examples=200, deadline=None)
@example("G3", 0, F(7, 2))
@example("E7", 2, F(-5, 3))
@example("S1", 3, F(0))
def test_recurrence_at_is_the_recurrence_of_the_equation_at(label, dl, s):
    # the one integer route from the family's fields to (rec, den) against
    # the route through the AuxiliaryODE and its two normalisations, at
    # every n=1 family, any multipole l >= min_l and any rational s
    eq = family_equation(label)
    l = eq.family.kind.min_l + dl
    rec, den = eq.recurrence_at(l, s)
    assert (rec, den) == recurrence(eq.at(l, s))
    assert den > 0 and all(type(c) is int for row in (*rec, (den,)) for c in row)


@given(st.sampled_from(N1_LABELS), st.integers(0, 3), st.fractions(max_denominator=10**6))
@settings(max_examples=100, deadline=None)
def test_equation_at_s_matches_its_coefficients_evaluated_at_s(label, dl, s):
    # at() evaluates in integers; Poly.eval of each coefficient is the reference
    eq = family_equation(label)
    l = eq.family.kind.min_l + dl
    ode = eq.at(l, s)
    assert ode.p1 == Poly([eq.p1_const.eval(s), eq.p1_lin.eval(s), eq.p1_quad.eval(s)])
    assert ode.p0 == Poly([eq.f.eval(s) - multipole_offset(eq.family, l), eq.e.eval(s)])
    assert ode.p2 == Poly([0, -2, 1])


@pytest.mark.parametrize("label", N1_LABELS)
def test_equation_at_reads_int_fraction_and_string_s_alike(label):
    # the integer build against each coefficient evaluated at F(s), for s
    # given as an int, a Fraction, a string and, where exact, a float
    eq = family_equation(label)
    for l in (eq.family.kind.min_l, 7):
        for s in (0, 3, -2, F(7, 2), F(-1, 3), F(10**20 + 1, 6)):
            S = F(s)
            expected = AuxiliaryODE(
                "r",
                Poly([0, -2, 1]),
                Poly([eq.p1_const.eval(S), eq.p1_lin.eval(S), eq.p1_quad.eval(S)]),
                Poly([eq.f.eval(S) - multipole_offset(eq.family, l), eq.e.eval(S)]),
            )
            forms = [s, S, str(S)] + ([float(S)] if S.denominator in (1, 2) else [])
            for form in forms:
                assert eq.at(l, form) == expected, (l, form)
    assert eq.at(2, 1).p2 is eq.at(3, "1/2").p2  # the one shared r(r-2)
    with pytest.raises(ValueError):
        eq.at(2, "one half")
    with pytest.raises(TypeError):
        eq.at(2, None)


# ---------------------------------------------------------------------------
# homotopic substitution
# ---------------------------------------------------------------------------


def test_homotopy_parameter_maps():
    l, s = 2, F(4)
    g7 = to_heun_form(_ode("G7", l, s))
    g3 = to_heun_form(_ode("G3", l, s))
    assert homotopic_shift_params(g7, 4) == g3
    e7 = to_heun_form(_ode("E7", 1, s))
    e3 = to_heun_form(_ode("E3", 1, s))
    assert homotopic_shift_params(e7, 2) == e3
    # the advertised map images: c = 3 -> -5 and c = 1 -> -3
    assert homotopic_shift_params(g7, 1 + 3).c == -5
    assert homotopic_shift_params(e7, 1 + 1).c == -3


def test_homotopy_full_check():
    report = homotopic_equivalence_check()
    assert report.parameter_maps_ok
    assert report.operator_identities_ok
    # both pairs at every sample: l in (2, 3), s in (1, 2, 7/3)
    assert report.samples == tuple((l, F(s)) for l in (2, 3) for s in (1, 2, F(7, 3)))


def test_homotopy_catches_a_shifted_target_form(monkeypatch):
    import bhkovacic.auxode as auxode

    real = auxode.to_heun_form

    def shifted(ode):
        # the target forms G3 and E3 are the ones with c < 0 (c = -5, -3)
        h = real(ode)
        return h._replace(d=h.d + 1) if h.c < 0 else h

    monkeypatch.setattr(auxode, "to_heun_form", shifted)
    report = homotopic_equivalence_check()
    assert not report.parameter_maps_ok
    assert not report.operator_identities_ok
    assert len(report.samples) == 6


def test_homotopy_identity_substitution():
    h = to_heun_form(_ode("G7", 2, 4))
    assert homotopic_shift_params(h, 0) == h


# ---------------------------------------------------------------------------
# uniqueness of the closed form
# ---------------------------------------------------------------------------


def test_integral_identity_determines_polynomial_uniquely():
    # L(P) = (P' + 2 sigma0 P)(mu2 w + 2 mu2 + 6) - mu2 P is injective on
    # polynomials of degree <= 4 sigma0 + 1, so the coefficient identity
    # (checked elsewhere) pins the closed form as THE solution
    for l in (2, 3):
        s = special_frequency(l)
        sigma0 = s / 2
        mu2 = F((l - 1) * (l + 2))
        top = int(4 * sigma0 + 1)

        def image(j):
            basis_vec = Poly.monomial(j)
            out = (basis_vec.derivative() + 2 * sigma0 * basis_vec) * Poly(
                [2 * mu2 + 6, mu2]
            ) - mu2 * basis_vec
            return [out[m] for m in range(top + 2)]

        columns = [image(j) for j in range(top + 1)]
        matrix = [[columns[j][m] for j in range(top + 1)] for m in range(top + 2)]
        assert nullspace(matrix) == []  # trivial kernel: unique solution


def test_oracle_g7_l3():
    l = 3
    ode = _ode("G7", l, special_frequency(l))
    d = int(2 * special_frequency(l) + 1)
    basis = brute_force_polynomial_solutions(ode, d)
    assert len(basis) == 1
    target = _r_frame(l)
    assert basis[0] * target.leading() == target * basis[0].leading()


def test_exponent_at_infinity_matches_degree_formula():
    # leading balance at infinity: a rho + e = 0, so rho = -e/a equals the
    # family degree formula evaluated at the mode frequency
    for label, l, s, expected in (
        ("G7", 2, F(4), 9),
        ("G3", 2, F(4), 5),
        ("E7", 1, F(2), 4),
        ("E3", 1, F(3), 4),
        ("S3", 0, F(3), 5),
    ):
        ode = _ode(label, l, s)
        a, e = ode.p1[2], ode.p0[1]
        assert -e / a == expected
        assert family_by_label(label).degree.eval(s) == expected
