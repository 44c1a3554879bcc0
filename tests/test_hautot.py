"""Special-function bases, fixed-order determinants, extended expansions."""

import math
import random
from fractions import Fraction as F

import pytest
import sympy

from bhkovacic.algebra import Poly, rational_roots
from bhkovacic.auxode import (
    HeunForm,
    Recurrence3,
    chandrasekhar_coeffs,
    family_equation,
    recurrence,
    to_heun_form,
    to_z_frame,
)
from bhkovacic.elimination import bareiss_determinant
from bhkovacic.hautot import (
    ObstructionError,
    _kummer_block,
    _laguerre_block,
    det_A,
    determinant_equality_check,
    extended_expansion,
    kummer_poly,
    laguerre_poly,
    phi_poly,
    recurrence_identity_suite,
)
from bhkovacic.master import special_frequency


# ---------------------------------------------------------------------------
# bases
# ---------------------------------------------------------------------------


def falling_factorial(x, k):
    """x(x-1)...(x-k+1), exact; covers the generalized binomial coefficient."""
    return math.prod((x - i for i in range(k)), start=F(1))


def pochhammer(x, k):
    """Rising factorial (x)_k = x(x+1)...(x+k-1)."""
    return math.prod((x + i for i in range(k)), start=F(1))


def test_kummer_small_cases():
    q = F(5, 2)
    assert kummer_poly(0, q) == Poly.one()
    assert kummer_poly(1, q) == Poly([1, -1 / q])


def test_kummer_series_oracle():
    # term-by-term Pochhammer construction as the independent route
    n, q = 5, F(7, 3)
    expected = Poly(
        [
            pochhammer(F(-n), k) / (pochhammer(q, k) * math.factorial(k))
            for k in range(n + 1)
        ]
    )
    assert kummer_poly(n, q) == expected


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
    F1 = kummer_poly(2 * s - 1, 1 - 2 * s)
    assert F1 == Poly([F(1, math.factorial(k)) for k in range(2 * s)])
    F2 = kummer_poly(2 * s - 2, 1 - 2 * s)
    assert F2 == Poly(
        [F(2 * s - 1 - k, (2 * s - 1) * math.factorial(k)) for k in range(2 * s - 1)]
    )


def test_laguerre_small_cases():
    a = F(7, 5)
    assert laguerre_poly(0, a) == Poly.one()
    assert laguerre_poly(1, a) == Poly([a + 1, -1])


def _laguerre_by_formula(n, alpha):
    """sum_k (-1)^k binom(n+alpha, n-k) u^k / k!, each coefficient on its own."""
    return Poly(
        [
            (-1) ** k * falling_factorial(n + alpha, n - k)
            / (math.factorial(n - k) * math.factorial(k))
            for k in range(n + 1)
        ]
    )


def test_laguerre_matches_the_coefficient_formula():
    cases = [
        (n, F(alpha))
        for n in range(8)
        for alpha in (F(3, 2), F(-1, 3), 2, 0, -1, -3, -7, -n)
    ]
    # the (degree, alpha) pairs of the Laguerre expansion; l = 6, 7 take
    # seconds through the oracle
    for l in range(2, 6):
        two_s = int(2 * special_frequency(l))
        cases += [(1, two_s), (0, two_s), (two_s - 1, -two_s), (two_s - 2, -two_s)]
    for n, alpha in cases:
        assert laguerre_poly(n, alpha) == _laguerre_by_formula(n, F(alpha)), (n, alpha)


@pytest.mark.parametrize("n", range(0, 6))
@pytest.mark.parametrize("alpha", [F(0), F(3, 2), F(-1, 3), F(5)])
def test_kummer_laguerre_bridge(n, alpha):
    # L_n^(alpha)(u) = binom(n+alpha, n) F(-n, alpha+1; u) whenever defined
    lag = laguerre_poly(n, alpha)
    scale = falling_factorial(n + alpha, n) / math.factorial(n)
    assert lag == scale * kummer_poly(n, alpha + 1)


def test_laguerre_negative_upper_closed_forms():
    # L_{2s-1}^(-2s) = -F(-(2s-1), 1-2s; u); L_{2s-2}^(-2s) = (2s-1) F(-(2s-2), ...)
    s = 4
    assert laguerre_poly(2 * s - 1, -2 * s) == -kummer_poly(2 * s - 1, 1 - 2 * s)
    assert (
        laguerre_poly(2 * s - 2, -2 * s)
        == (2 * s - 1) * kummer_poly(2 * s - 2, 1 - 2 * s)
    )


def test_phi_polynomials():
    s = F(4)
    top = phi_poly(1, s)
    flat = phi_poly(0, s)
    u = Poly.x()
    assert flat == Poly.monomial(8)
    assert top == Poly.monomial(8) * (Poly.one() - u * F(1, 9))
    with pytest.raises(ValueError):
        phi_poly(0, F(1, 3))


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
    flat = phi_poly(0, s)
    top = phi_poly(1, s)
    assert u * flat.derivative() == 2 * s * flat
    assert u * flat == (2 * s + 1) * flat - (2 * s + 1) * top


# ---------------------------------------------------------------------------
# tridiagonal systems
# ---------------------------------------------------------------------------


def test_tridiag_coefficient_examples():
    a, b, c, d, n = F(2), F(-3), F(3), F(5), F(9)
    necessary = HeunForm(a, b, c, d, -a * n).recurrence()
    assert necessary.upper(3) == 0  # (c - k) factor at k = c
    assert necessary.lower(1) == a * (1 - 1 - n)
    assert necessary.diag(2) == d + 2 * (b + 1)
    # the block systems against their factored entries, here and at random points
    rng = random.Random(3)
    points = [(a, b, d, n, 3)] + [
        (*(F(rng.randint(-30, 30), rng.randint(1, 7)) for _ in range(4)), rng.randint(0, 5))
        for _ in range(20)
    ]
    for a, b, d, n, j in points:
        kummer, laguerre = _kummer_block(a, b, d, n, j), _laguerre_block(a, b, d, n, j)
        for k in range(8):
            assert kummer.lower(k) == (k - 1 - j) * (k - 1 - n)
            assert kummer.diag(k) == laguerre.diag(k) == d - j * n + k * (
                b + 2 * j - 2 * k + 2 * n
            )
            assert kummer.upper(k) == (k + 1) * (k + 1 - n - a - b - j)
            assert laguerre.lower(k) == (k - 1 - j) * (k - n - a - b - j)
            assert laguerre.upper(k) == (k + 1) * (k - n)


def test_tridiag_det_matches_cofactor_expansion():
    rec = HeunForm(F(1), F(2), F(3), F(-1), F(-6)).recurrence()  # n = 6
    # direct 3x3 determinant
    m = [
        [rec.diag(0), rec.upper(0), 0],
        [rec.lower(1), rec.diag(1), rec.upper(1)],
        [0, rec.lower(2), rec.diag(2)],
    ]
    direct = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2])
    )
    assert rec.det(3) == direct
    assert rec.det(0) == 1


def _band_det(rec, size):
    """Bareiss determinant of the explicit size x size band matrix of rec."""
    entries = {-1: rec.lower, 0: rec.diag, 1: rec.upper}
    rows = [
        [F(entries[i - k](k)) if abs(i - k) <= 1 else F(0) for i in range(size)]
        for k in range(size)
    ]
    dens = [math.lcm(*(v.denominator for v in row)) for row in rows]
    integer_rows = [[int(v * den) for v in row] for row, den in zip(rows, dens)]
    return F(bareiss_determinant(integer_rows), math.prod(dens))


def test_det_matches_bareiss():
    rng = random.Random(7)

    def rand():
        return F(rng.randint(-20, 20), rng.randint(1, 6))

    for size in range(1, 7):
        for _ in range(5):
            rec = Recurrence3(
                lower_k=tuple(rand() for _ in range(2)),
                diag_k=tuple(rand() for _ in range(3)),
                upper_k=tuple(rand() for _ in range(3)),
            )
            assert rec.det(size) == _band_det(rec, size)
        a, b, d, n = rand(), rand(), rand(), rand()
        j = size - 1
        for block in (_kummer_block(a, b, d, n, j), _laguerre_block(a, b, d, n, j)):
            assert block.det(size) == _band_det(block, size)


@pytest.mark.parametrize(
    "label,l,s",
    [("G7", 2, F(4)), ("G7", 3, F(7, 3)), ("G3", 2, F(5, 2)), ("E7", 1, F(3)), ("E3", 2, F(2))],
)
def test_heun_recurrence_matches_z_frame(label, l, s):
    ode = family_equation(label).at(l, s)
    heun = to_heun_form(ode).recurrence()
    z_frame, den = recurrence(to_z_frame(ode))  # through Poly.scale_variable
    for k in range(10):
        assert heun.lower(k) == F(z_frame.lower(k), den)
        assert heun.diag(k) == F(z_frame.diag(k), den)
        assert heun.upper(k) == F(z_frame.upper(k), den)


def test_det_A_matrix_entries():
    # the 4x4 block for the G7 parameterization, at l = 2
    l = 2
    L = l * (l + 1)
    s = F(3)  # generic probe value
    a, n = 2 * s, 2 * s + 1
    rec = HeunForm(a, -2 * (2 * s + 1), F(3), 2 - L + 6 * s, -a * n).recurrence()
    assert rec.diag(0) == 2 - L + 6 * s
    assert rec.upper(0) == 3
    assert rec.lower(1) == -2 * s * (2 * s + 1)
    assert rec.diag(1) == 2 * s - L
    assert rec.upper(1) == 4
    assert rec.lower(2) == -4 * s * s
    assert rec.diag(2) == -2 * s - L
    assert rec.upper(2) == 3
    assert rec.lower(3) == 2 * s * (1 - 2 * s)
    assert rec.diag(3) == 2 - 6 * s - L
    # and det_A evaluated at the probe value equals the block determinant
    assert det_A(l).eval(s) == rec.det(4)


@pytest.mark.parametrize("l", range(2, 7))
def test_det_A_sympy_oracle(l):
    # the hand-written z-frame G7 block, its determinant taken by sympy
    s = sympy.Symbol("s")
    a, b, c, d, n = 2 * s, -2 * (2 * s + 1), 3, 2 - l * (l + 1) + 6 * s, 2 * s + 1

    def entry(k, i):
        if i == k - 1:
            return a * (k - 1 - n)
        if i == k:
            return d + k * (b + k - 1)
        if i == k + 1:
            return (c - k) * (k + 1)
        return 0

    det = sympy.Poly(sympy.Matrix(4, 4, entry).det(), s)
    coeffs = [F(int(v.p), int(v.q)) for v in reversed(det.all_coeffs())]
    assert det_A(l) == Poly(coeffs)
    sympy_roots = sorted(F(int(r.p), int(r.q)) for r in sympy.roots(det, filter="Q"))
    assert rational_roots(det_A(l)) == sympy_roots


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
    report = determinant_equality_check(j)
    assert report.kummer_equal and report.laguerre_equal
    assert report.grid_points == (j + 2) ** 4


def _off_by_one(builder):
    """``builder`` with the constant term of diag(k) raised by 1."""

    def skewed(a, b, d, n, j):
        rec = builder(a, b, d, n, j)
        diag = (rec.diag_k[0] + 1, *rec.diag_k[1:])
        return Recurrence3(lower_k=rec.lower_k, diag_k=diag, upper_k=rec.upper_k)

    return skewed


@pytest.mark.parametrize("name", ["kummer", "laguerre"])
def test_determinant_equality_catches_a_skewed_block(monkeypatch, name):
    import bhkovacic.hautot as hautot

    builder = f"_{name}_block"
    monkeypatch.setattr(hautot, builder, _off_by_one(getattr(hautot, builder)))
    report = determinant_equality_check(2)
    assert not report.all_ok
    assert report.kummer_equal == (name != "kummer")
    assert report.laguerre_equal == (name != "laguerre")
    basis, point, _, _ = report.witness
    assert basis == name
    assert all(type(v) is int for v in point)  # found on the integer grid


def test_determinant_equality_catches_d_off_the_diagonal(monkeypatch):
    # d planted in lower(k) leaves the d = 0 block alone, so only the guard
    # on the d = 1 build can see it
    import bhkovacic.hautot as hautot

    real = hautot._kummer_block

    def planted(a, b, d, n, j):
        rec = real(a, b, d, n, j)
        return rec._replace(lower_k=(rec.lower_k[0] + d, *rec.lower_k[1:]))

    monkeypatch.setattr(hautot, "_kummer_block", planted)
    report = determinant_equality_check(2)
    assert not report.kummer_equal and report.laguerre_equal
    assert report.grid_points == 4**4
    basis, point, expected, built = report.witness
    assert (basis, point) == ("kummer", (0, 0, 1, 0))
    assert built.lower_k[0] == expected.lower_k[0] + 1


_a, _b, _d, _n = sympy.symbols("a b d n")


def _sympy_blocks(j):
    """The necessary, Kummer and Laguerre blocks of order j+1 as sympy
    matrices, from the entry formulas of the :meth:`HeunForm.recurrence`
    (c = j, e = -a n), ``_kummer_block`` and ``_laguerre_block`` docstrings."""
    a, b, d, n = _a, _b, _d, _n

    def block_diag(k):  # shared by the Kummer and Laguerre blocks
        return d - j * n + k * (b + 2 * j - 2 * k + 2 * n)

    formulas = (  # (lower, diag, upper) of each block
        (
            lambda k: a * (k - 1) - a * n,
            lambda k: k * (k - 1 + b) + d,
            lambda k: (k + 1) * (j - k),
        ),
        (
            lambda k: (k - 1 - j) * (k - 1 - n),
            block_diag,
            lambda k: (k + 1) * (k + 1 - n - a - b - j),
        ),
        (
            lambda k: (k - 1 - j) * (k - n - a - b - j),
            block_diag,
            lambda k: (k + 1) * (k - n),
        ),
    )
    # row k holds lower(k), diag(k), upper(k) in columns k-1, k, k+1
    return [
        sympy.Matrix(j + 1, j + 1, lambda k, i: entries[i - k + 1](k) if abs(i - k) <= 1 else 0)
        for entries in formulas
    ]


@pytest.mark.parametrize("j", range(0, 4))
def test_determinant_equality_sympy_oracle(j):
    # the identity the grid proves, as polynomials in (a, b, d, n), and the two
    # facts that the grid and its d-hoisting rest on: degree <= j+1 in each
    # variable, and d on the diagonal alone, with coefficient 1
    size = j + 1
    blocks = _sympy_blocks(j)
    for block in blocks:
        for k in range(size):
            for i in range(size):
                assert sympy.diff(block[k, i], _d) == (1 if i == k else 0)
    dets = [sympy.Poly(block.det(), _a, _b, _d, _n) for block in blocks]
    assert dets[0] == dets[1] == dets[2]
    assert all(det.degree(v) <= j + 1 for det in dets for v in (_a, _b, _d, _n))
    # the oracle's polynomial is the package's determinant off the grid too
    rng = random.Random(j)
    for _ in range(3):
        a, b, d, n = (F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4))
        value = dets[0].eval({_a: a, _b: b, _d: d, _n: n})
        expected = F(int(value.p), int(value.q))
        assert HeunForm(a, b, j, d, -a * n).recurrence().det(size) == expected
        assert _kummer_block(a, b, d, n, j).det(size) == expected
        assert _laguerre_block(a, b, d, n, j).det(size) == expected


def test_equality_j0_trivial():
    # 1x1 case: all three blocks reduce to d - j n = d
    a, b, d, n = F(2), F(5), F(-7, 3), F(4)
    nec = HeunForm(a, b, F(0), d, -a * n).recurrence().det(1)
    kum = _kummer_block(a, b, d, n, 0).det(1)
    lag = _laguerre_block(a, b, d, n, 0).det(1)
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


def test_expansion_compares_with_the_given_target(monkeypatch):
    # a given target is used as it is: chandrasekhar_coeffs is not called
    import bhkovacic.hautot as hautot

    P = chandrasekhar_coeffs(3)
    real, calls = hautot.chandrasekhar_coeffs, []

    def counted(l):
        calls.append(l)
        return real(l)

    monkeypatch.setattr(hautot, "chandrasekhar_coeffs", counted)
    for basis in ("kummer", "laguerre"):
        report = extended_expansion(3, basis, target=P)
        assert report.equal and report.difference == Poly.zero()
        off = extended_expansion(3, basis, target=P * 2)
        assert not off.equal and off.difference == -P
        assert calls == []
        assert report == extended_expansion(3, basis)
        assert calls == [3]
        calls.clear()


@pytest.mark.parametrize("basis", ("kummer", "laguerre"))
def test_equal_expansion_report_holds_no_coefficient_vector(basis):
    # a passing report keeps its verdict, its four scalars and a zero
    # difference; the assembled sum and the target are gone with the call
    import sys
    import tracemalloc

    l = 6
    tracemalloc.start()
    try:
        report = extended_expansion(l, basis)
        held = tracemalloc.get_traced_memory()[0]  # what the call left allocated
    finally:
        tracemalloc.stop()
    assert report.equal and report.difference == Poly.zero()
    assert all(not isinstance(v, Poly) or v.is_zero() for v in report)
    vector = sum(sys.getsizeof(v) for v in chandrasekhar_coeffs(l).num)
    assert held * 10 < vector, (held, vector)


def test_expansion_homogeneity():
    # scaling A0 scales the assembled polynomial: the system is homogeneous
    report = extended_expansion(2, "kummer")
    A0, A1, A2, A3 = report.coefficients
    assert A1 * A0 == A0 * A1  # trivial sanity
    scaled = [c * 3 for c in report.coefficients]
    # re-assemble with tripled coefficients
    s = report.s
    two_s = int(2 * s)
    terms = (
        (scaled[0], phi_poly(1, s)),
        (scaled[1], phi_poly(0, s)),
        (scaled[2], kummer_poly(two_s - 1, 1 - 2 * s)),
        (scaled[3], kummer_poly(two_s - 2, 1 - 2 * s)),
    )
    acc = Poly.zero()
    for coeff, poly in terms:
        acc = acc + coeff * poly
    assert report.equal
    assert acc.scale_variable(-s) == 3 * chandrasekhar_coeffs(2)


def test_scalar_product_on_the_l5_kummer_terms():
    # each A_k shares a factor of hundreds of bits with the leading numerators
    # of its term, none with the last: the content is found in one step
    report = extended_expansion(5, "kummer")
    s = report.s
    two_s = int(2 * s)
    terms = (
        phi_poly(1, s),
        phi_poly(0, s),
        kummer_poly(two_s - 1, 1 - 2 * s),
        kummer_poly(two_s - 2, 1 - 2 * s),
    )
    for coeff, poly in zip(report.coefficients, terms):
        assert math.gcd(coeff.denominator, poly.num[0]).bit_length() > 500
        expected = Poly([coeff * c for c in poly.coeffs])
        for product in (coeff * poly, poly * coeff):
            assert (product.num, product.den) == (expected.num, expected.den)


def test_l5_kummer_expansion_scales_without_the_fallback(monkeypatch):
    # the content of the assembled sum scaled by -s has only the primes of
    # s (gcd(den, *num) = 1 before the scale), so the candidate is the
    # content and scale_variable never takes the full gcd chain
    import sys

    import bhkovacic.algebra as algebra

    real, callers = algebra._divide_content, []

    def counted(num, den):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(num, den)

    monkeypatch.setattr(algebra, "_divide_content", counted)
    report = extended_expansion(5, "kummer")
    assert report.equal
    assert "from_numerators" in callers  # the counter sees the kernel's calls
    assert callers.count("_scaled_primitive") == 0


# ---------------------------------------------------------------------------
# the sufficiency block minor
# ---------------------------------------------------------------------------


def _heun(label, l, s):
    return to_heun_form(family_equation(label).at(l, s))


def test_sufficiency_g7():
    # c = j = 3: the leading 4 x 4 block vanishes at the special frequency only
    special = _heun("G7", 2, special_frequency(2))
    assert special.c == 3
    assert special.recurrence().det(4) == 0
    assert _heun("G7", 2, F(3)).recurrence().det(4) != 0


def test_sufficiency_e7():
    # c = 1, det of the 2x2 block is (l(l+1))^2: zero only for the point charge
    s = F(3)
    radiating = _heun("E7", 1, s)
    assert radiating.c == 1
    assert radiating.recurrence().det(2) == 4  # (l(l+1))^2 at l = 1
    point_charge = HeunForm(a=2 * s, b=-4 * s, c=F(1), d=2 * s, e=-4 * s * s)
    assert point_charge.recurrence().det(2) == 0


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
        assert kummer.equal and laguerre.equal
        assert kummer.difference.is_zero() and laguerre.difference.is_zero()
