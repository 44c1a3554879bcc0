"""Special-function bases, fixed-order determinants, extended expansions."""

import math
from fractions import Fraction as F

import pytest

from bhkovacic.algebra import Poly, falling_factorial
from bhkovacic.auxode import build_auxiliary, to_heun_form, HeunForm
from bhkovacic.hautot import (
    ObstructionError,
    det_A,
    determinant_equality_check,
    extended_expansion,
    hautot_sufficiency_check,
    kummer_poly,
    laguerre_poly,
    phi_poly,
    recurrence_identity_suite,
    tridiag_coeffs,
    tridiag_det,
)
from bhkovacic.kovacic import family_by_label
from bhkovacic.master import ModeSpec, PerturbationKind, special_frequency


# ---------------------------------------------------------------------------
# bases
# ---------------------------------------------------------------------------


def test_kummer_small_cases():
    q = F(5, 2)
    assert kummer_poly(0, q).poly == Poly.one()
    assert kummer_poly(1, q).poly == Poly([1, -1 / q])


def test_kummer_series_oracle():
    # term-by-term Pochhammer construction as the independent route
    from bhkovacic.algebra import pochhammer

    n, q = 5, F(7, 3)
    expected = Poly(
        [
            pochhammer(F(-n), k) / (pochhammer(q, k) * math.factorial(k))
            for k in range(n + 1)
        ]
    )
    assert kummer_poly(n, q).poly == expected


def test_obstruction():
    s = 4
    with pytest.raises(ObstructionError):
        kummer_poly(2 * s + 1, 1 - 2 * s)  # F(-9, -7; u)
    with pytest.raises(ObstructionError):
        kummer_poly(2 * s, 1 - 2 * s)  # F(-8, -7; u)
    # the two survivors are defined
    kummer_poly(2 * s - 1, 1 - 2 * s)
    kummer_poly(2 * s - 2, 1 - 2 * s)
    # boundary: q just outside the excluded set
    kummer_poly(3, -3)
    with pytest.raises(ObstructionError):
        kummer_poly(3, -2)


def test_truncated_kummer_explicit_forms():
    # F(-(2s-1), 1-2s; u) = sum u^k/k!; the next one carries (2s-1-k)/(2s-1)
    s = 4
    F1 = kummer_poly(2 * s - 1, 1 - 2 * s).poly
    assert F1 == Poly([F(1, math.factorial(k)) for k in range(2 * s)])
    F2 = kummer_poly(2 * s - 2, 1 - 2 * s).poly
    assert F2 == Poly(
        [F(2 * s - 1 - k, (2 * s - 1) * math.factorial(k)) for k in range(2 * s - 1)]
    )


def test_laguerre_small_cases():
    a = F(7, 5)
    assert laguerre_poly(0, a).poly == Poly.one()
    assert laguerre_poly(1, a).poly == Poly([a + 1, -1])


@pytest.mark.parametrize("n", range(0, 6))
@pytest.mark.parametrize("alpha", [F(0), F(3, 2), F(-1, 3), F(5)])
def test_kummer_laguerre_bridge(n, alpha):
    # L_n^(alpha)(u) = binom(n+alpha, n) F(-n, alpha+1; u) whenever defined
    lag = laguerre_poly(n, alpha).poly
    scale = falling_factorial(n + alpha, n) / math.factorial(n)
    assert lag == scale * kummer_poly(n, alpha + 1).poly


def test_laguerre_negative_upper_closed_forms():
    # L_{2s-1}^(-2s) = -F(-(2s-1), 1-2s; u); L_{2s-2}^(-2s) = (2s-1) F(-(2s-2), ...)
    s = 4
    assert laguerre_poly(2 * s - 1, -2 * s).poly == -kummer_poly(2 * s - 1, 1 - 2 * s).poly
    assert (
        laguerre_poly(2 * s - 2, -2 * s).poly
        == (2 * s - 1) * kummer_poly(2 * s - 2, 1 - 2 * s).poly
    )


def test_phi_polynomials():
    s = F(4)
    top = phi_poly("phi_2s_plus_1", s)
    flat = phi_poly("phi_2s", s)
    u = Poly.x()
    assert flat.poly == Poly.monomial(8)
    assert top.poly == Poly.monomial(8) * (Poly.one() - u * F(1, 9))
    with pytest.raises(ValueError):
        phi_poly("phi_2s", F(1, 3))


# ---------------------------------------------------------------------------
# recurrence identities
# ---------------------------------------------------------------------------


def test_identity_suite_passes():
    results = recurrence_identity_suite(F(4), bound=4)
    assert results and all(r.ok for r in results)
    names = {r.name for r in results}
    assert {
        "kummer_derivative",
        "kummer_contiguous",
        "laguerre_derivative",
        "laguerre_contiguous",
        "phi_top_derivative",
        "phi_top_contiguous",
        "phi_derivative",
        "phi_contiguous",
        "trunc_derivative_hi",
        "trunc_contiguous_hi",
        "trunc_derivative_lo",
        "trunc_contiguous_lo",
    } <= names


def test_identity_suite_other_frequency():
    assert all(r.ok for r in recurrence_identity_suite(F(10), bound=2))


def test_phi_relations_explicit():
    # u phi'(2s) = 2s phi(2s) and u phi(2s) = (2s+1)(phi(2s) - phi(2s+1))
    s = F(4)
    u = Poly.x()
    flat = phi_poly("phi_2s", s).poly
    top = phi_poly("phi_2s_plus_1", s).poly
    assert u * flat.derivative() == 2 * s * flat
    assert u * flat == (2 * s + 1) * flat - (2 * s + 1) * top


# ---------------------------------------------------------------------------
# tridiagonal systems
# ---------------------------------------------------------------------------


def test_tridiag_coefficient_examples():
    a, b, c, d, n = F(2), F(-3), F(3), F(5), F(9)
    lower, diag, upper = tridiag_coeffs("necessary", a=a, b=b, c=c, d=d, n=n)
    assert upper(3) == 0  # (c - k) factor at k = c
    assert lower(1) == a * (1 - 1 - n)
    assert diag(2) == d + 2 * (b + 1)
    j = 3
    _, _, t_k = tridiag_coeffs("hautot_kummer", a=a, b=b, d=d, n=n, j=j)
    assert t_k(2) == (2 + 1) * (2 + 1 - n - a - b - j)
    _, _, w_k = tridiag_coeffs("hautot_laguerre", a=a, b=b, d=d, n=n, j=j)
    assert w_k(2) == (2 + 1) * (2 - n)


def test_tridiag_det_matches_cofactor_expansion():
    lower, diag, upper = tridiag_coeffs(
        "necessary", a=F(1), b=F(2), c=F(3), d=F(-1), n=F(6)
    )
    # direct 3x3 determinant
    m = [
        [diag(0), upper(0), 0],
        [lower(1), diag(1), upper(1)],
        [0, lower(2), diag(2)],
    ]
    direct = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2])
    )
    assert tridiag_det((lower, diag, upper), 3) == direct


def test_det_A_matrix_entries():
    # the 4x4 block for the G7 parameterization, at l = 2
    l = 2
    L = l * (l + 1)
    s = F(3)  # generic probe value
    lower, diag, upper = tridiag_coeffs(
        "necessary",
        a=2 * s,
        b=-2 * (2 * s + 1),
        c=F(3),
        d=2 - L + 6 * s,
        n=2 * s + 1,
    )
    assert diag(0) == 2 - L + 6 * s
    assert upper(0) == 3
    assert lower(1) == -2 * s * (2 * s + 1)
    assert diag(1) == 2 * s - L
    assert upper(1) == 4
    assert lower(2) == -4 * s * s
    assert diag(2) == -2 * s - L
    assert upper(2) == 3
    assert lower(3) == 2 * s * (1 - 2 * s)
    assert diag(3) == 2 - 6 * s - L
    # and det_A evaluated at the probe value equals the block determinant
    assert det_A(l).eval(s) == tridiag_det((lower, diag, upper), 4)


def test_det_A_roots():
    for l in range(2, 11):
        poly = det_A(l)
        s_star = special_frequency(l)
        assert poly.eval(s_star) == 0
        assert poly.eval(-s_star) == 0
        assert poly.eval(s_star + 1) != 0
        assert poly.eval(s_star - 1) != 0
        assert poly.eval(1) != 0
        # even in s; in fact exactly -36 (s^2 - s*^2)
        assert poly.degree % 2 == 0
        assert poly == Poly([36 * s_star * s_star, 0, -36])


@pytest.mark.parametrize("j", range(0, 4))
def test_determinant_equality(j):
    report = determinant_equality_check(j, trials=10)
    assert report.kummer_equal and report.laguerre_equal
    assert report.grid_points == (j + 2) ** 4


def test_equality_j0_trivial():
    # 1x1 case: all three blocks reduce to d - j n = d
    a, b, d, n = F(2), F(5), F(-7, 3), F(4)
    nec = tridiag_det(tridiag_coeffs("necessary", a=a, b=b, c=F(0), d=d, n=n), 1)
    kum = tridiag_det(tridiag_coeffs("hautot_kummer", a=a, b=b, d=d, n=n, j=0), 1)
    lag = tridiag_det(tridiag_coeffs("hautot_laguerre", a=a, b=b, d=d, n=n, j=0), 1)
    assert nec == kum == lag == d


# ---------------------------------------------------------------------------
# extended expansions
# ---------------------------------------------------------------------------


def test_expansion_l2_kummer_coefficients():
    report = extended_expansion(2, "kummer")
    assert report.equal
    assert report.coefficients == (
        F(9, 4194304),
        F(-7, 4194304),
        F(-945, 32768),
        F(-945, 32768),
    )


def test_expansion_l2_laguerre_coefficients():
    report = extended_expansion(2, "laguerre")
    assert report.equal
    B0 = F(1, 4 ** 10 * 4)
    assert report.coefficients[0] == B0
    assert report.coefficients[1] == -7 * B0
    assert report.coefficients[2] == 3 * math.factorial(8) * B0
    assert report.coefficients[3] == -F(3 * math.factorial(8), 7) * B0


@pytest.mark.parametrize("l", (2, 3, 4))
@pytest.mark.parametrize("basis", ("kummer", "laguerre"))
def test_expansions_equal(l, basis):
    report = extended_expansion(l, basis)
    assert report.equal
    assert report.difference.is_zero()


def test_expansion_homogeneity():
    # scaling A0 scales the assembled polynomial: the system is homogeneous
    report = extended_expansion(2, "kummer")
    A0, A1, A2, A3 = report.coefficients
    assert A1 * A0 == A0 * A1  # trivial sanity
    scaled = [c * 3 for c in report.coefficients]
    # re-assemble with tripled coefficients
    from bhkovacic.hautot import _phi

    s = report.s
    two_s = int(2 * s)
    terms = (
        (scaled[0], _phi(1, s)),
        (scaled[1], _phi(0, s)),
        (scaled[2], kummer_poly(two_s - 1, 1 - 2 * s).poly),
        (scaled[3], kummer_poly(two_s - 2, 1 - 2 * s).poly),
    )
    acc = Poly.zero()
    for coeff, poly in terms:
        acc = acc + coeff * poly
    assert acc.scale_variable(-s) == 3 * report.assembled


# ---------------------------------------------------------------------------
# sufficiency verdicts
# ---------------------------------------------------------------------------


def _heun(label, l, s):
    kind = {"G": PerturbationKind.GRAVITATIONAL, "E": PerturbationKind.ELECTROMAGNETIC}[
        label[0]
    ]
    fam = family_by_label(label)
    return to_heun_form(build_auxiliary(fam, ModeSpec(kind, l, s)))


def test_sufficiency_g7():
    s = special_frequency(2)
    verdict = hautot_sufficiency_check(_heun("G7", 2, s), int(2 * s + 1))
    assert verdict.applicable and verdict.satisfied and verdict.j == 3
    off = hautot_sufficiency_check(_heun("G7", 2, F(3)), 7)  # s=3, n=2s+1=7
    assert off.applicable and not off.satisfied


def test_sufficiency_g3_not_applicable():
    verdict = hautot_sufficiency_check(_heun("G3", 2, F(4)), 5)
    assert not verdict.applicable
    assert verdict.satisfied is None


def test_sufficiency_e7():
    # c = 1, det of the 2x2 block is (l(l+1))^2: satisfied only at l = 0
    s = F(3)
    point_charge = HeunForm(a=2 * s, b=-4 * s, c=F(1), d=2 * s, e=-4 * s * s)
    verdict = hautot_sufficiency_check(point_charge, int(2 * s))
    assert verdict.applicable and verdict.satisfied
    radiating = hautot_sufficiency_check(_heun("E7", 1, s), int(2 * s))
    assert radiating.applicable and not radiating.satisfied
    assert radiating.det_value == 4  # (l(l+1))^2 at l = 1


def test_sufficiency_degree_hypothesis_guard():
    with pytest.raises(ValueError):
        hautot_sufficiency_check(_heun("G7", 2, F(4)), 5)  # wrong n


def test_cross_basis_coefficient_consistency():
    # the two expansions describe the same polynomial, so their
    # coefficients are tied: A0 = (2s+1) B0, A1 = B1, A2 = -B2,
    # A3 = (2s-1) B3
    for l in (2, 3, 4):
        kummer = extended_expansion(l, "kummer")
        laguerre = extended_expansion(l, "laguerre")
        s = kummer.s
        A0, A1, A2, A3 = kummer.coefficients
        B0, B1, B2, B3 = laguerre.coefficients
        assert A0 == (2 * s + 1) * B0
        assert A1 == B1
        assert A2 == -B2
        assert A3 == (2 * s - 1) * B3
        assert kummer.assembled == laguerre.assembled
