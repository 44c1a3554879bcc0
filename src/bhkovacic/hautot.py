"""Polynomial solutions of the confluent Heun equation via fixed-order
determinants, and the expansions they generate.

For z(z-1) P'' + (a z^2 + b z + c) P' + (d + e z) P = 0 a degree-n
polynomial solution forces e = -a n and makes the (n+1) x (n+1)
tridiagonal coefficient determinant vanish.  When c = j is a fixed
non-negative integer the matrix is block lower-triangular and the leading
(j+1) x (j+1) block det(A) = 0 is already sufficient; the resulting
polynomial is a combination of j+1 truncated Kummer functions
F(k-n, a+b+j; u) in u = a(1-z), or equally of associated Laguerre
polynomials L_{n-k}^(a+b+j-1)(u).

For the G7 equation two of the four Kummer terms are undefined (their
lower parameter 1-2s hits a non-positive integer) and are replaced by the
genuine polynomial solutions u^(2s) F(-1, 2s+1; u) and u^(2s) of the same
confluent hypergeometric equations; with that replacement the closed-form
polynomial admits both expansions, with coefficients fixed up to overall
scale, precisely at the algebraically special frequencies.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .algebra import Poly, Rational, rat_to_str
from .auxode import HeunForm, Recurrence3, chandrasekhar_coeffs, family_equation
from .master import special_frequency

__all__ = [
    "ObstructionError",
    "ExpansionReport",
    "kummer_poly",
    "laguerre_poly",
    "phi_poly",
    "recurrence_identity_suite",
    "det_A",
    "determinant_equality_check",
    "extended_expansion",
]


class ObstructionError(ValueError):
    """The truncated Kummer series is undefined: (q)_k vanishes for k <= n."""


def kummer_poly(n: int, q) -> Poly:
    """F(-n, q; u) = sum_k (-n)_k / ((q)_k k!) u^k, a degree-n polynomial.

    With q = a/b the k-th coefficient is (-1)^k C(n, k) b^k / prod_{i<k} (a + i b),
    so D = prod_{i<n} (a + i b) is a common denominator, and the integer
    numerators follow upward by the term ratio -(n-k+1) b / (k (a + (k-1) b)).
    """
    if n < 0:
        raise ValueError("truncation order must be non-negative")
    q = Fraction(q)
    if q.denominator == 1 and -(n - 1) <= q <= 0:
        raise ObstructionError(
            f"F(-{n}, {rat_to_str(q)}; u) is undefined: lower parameter hits "
            "a non-positive integer before the series truncates"
        )
    a, b = q.numerator, q.denominator
    den = math.prod(a + i * b for i in range(n))
    num = [den]
    for k in range(1, n + 1):
        num.append(-num[-1] * (n - k + 1) * b // (k * (a + (k - 1) * b)))
    return Poly.from_numerators(num, den)


def laguerre_poly(n: int, alpha) -> Poly:
    """L_n^(alpha)(u) = sum_k (-1)^k binom(n+alpha, n-k) u^k / k!.

    Exact for any rational alpha = a/b.  Over the common denominator
    b^n n! the k-th numerator is (-1)^k C(n, k) b^k prod_{i=k+1..n} (a + i b),
    built downward from (-1)^n b^n by the term ratio
    -k (a + k b) / (b (n - k + 1)), which never divides by alpha + k, so no
    alpha needs a special case.
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    alpha = Fraction(alpha)
    a, b = alpha.numerator, alpha.denominator
    num = [(-b) ** n]
    for k in range(n, 0, -1):
        num.append(-num[-1] * k * (a + k * b) // (b * (n - k + 1)))
    num.reverse()
    return Poly.from_numerators(num, b**n * math.factorial(n))


def phi_poly(j: int, s) -> Poly:
    """Replacement basis element u^(2s) F(-j, 2s+1; u), of degree 2s + j.

    A polynomial solution of the confluent hypergeometric equation at
    e = j - (2s+1).  j = 1 and j = 0 stand in for the two truncated Kummer
    terms of the G7 expansion whose lower parameter 1-2s is obstructed.
    """
    s = Fraction(s)
    two_s = int(2 * s)
    if two_s != 2 * s or two_s <= 0:
        raise ValueError("phi basis needs 2s a positive integer")
    return Poly.monomial(two_s) * kummer_poly(j, 2 * s + 1)


# ---------------------------------------------------------------------------
# recurrence identities
# ---------------------------------------------------------------------------


class IdentityResult(NamedTuple):
    name: str
    params: tuple
    ok: bool


def recurrence_identity_suite(s, bound: int) -> list:
    """Exact polynomial checks of the contiguous/derivative relations.

    Covers the generic Kummer and Laguerre relations (orders up to
    ``bound``) and the four phi / truncated-Kummer relations used by the
    extended expansion at frequency s (2s a positive integer >= 4).
    """
    s = Fraction(s)
    two_s = int(2 * s)
    if two_s != 2 * s or two_s < 4:
        raise ValueError("identity suite needs 2s an integer >= 4")
    u = Poly.x()
    results = []

    def check(name, params, lhs, rhs):
        results.append(IdentityResult(name, params, lhs == rhs))

    # generic Kummer relations, q chosen clear of the obstruction set
    for m in range(1, bound + 1):
        for q in (Fraction(5, 2), Fraction(7, 3), Fraction(m + 3)):
            Fm = kummer_poly(m, q)
            Fm_minus = kummer_poly(m - 1, q)
            Fm_plus = kummer_poly(m + 1, q)
            check(
                "kummer_derivative",
                (m, q),
                u * Fm.derivative(),
                m * Fm - m * Fm_minus,
            )
            check(
                "kummer_contiguous",
                (m, q),
                u * Fm,
                -m * Fm_minus + (2 * m + q) * Fm - (q + m) * Fm_plus,
            )

    # generic Laguerre relations
    for m in range(1, bound + 1):
        for alpha in (Fraction(3, 2), Fraction(-1, 3), Fraction(2)):
            Lm = laguerre_poly(m, alpha)
            Lm_minus = laguerre_poly(m - 1, alpha)
            Lm_plus = laguerre_poly(m + 1, alpha)
            check(
                "laguerre_derivative",
                (m, alpha),
                u * Lm.derivative(),
                m * Lm - (m + alpha) * Lm_minus,
            )
            check(
                "laguerre_contiguous",
                (m, alpha),
                u * Lm,
                (2 * m + alpha + 1) * Lm - (m + 1) * Lm_plus - (m + alpha) * Lm_minus,
            )

    # phi relations at this frequency
    phi2s1, phi2s, phi2s2 = phi_poly(1, s), phi_poly(0, s), phi_poly(2, s)
    check("phi_top_derivative", (s,), u * phi2s1.derivative(),
          (2 * s + 1) * phi2s1 - phi2s)
    check("phi_top_contiguous", (s,), u * phi2s1,
          -phi2s + (2 * s + 3) * phi2s1 - (2 * s + 2) * phi2s2)
    check("phi_derivative", (s,), u * phi2s.derivative(), 2 * s * phi2s)
    check("phi_contiguous", (s,), u * phi2s,
          (2 * s + 1) * phi2s - (2 * s + 1) * phi2s1)

    # truncated-Kummer relations at lower parameter 1 - 2s
    q = 1 - 2 * s
    F1 = kummer_poly(two_s - 1, q)
    F2 = kummer_poly(two_s - 2, q)
    F3 = kummer_poly(two_s - 3, q)
    fact = math.factorial(two_s - 1)
    check("trunc_derivative_hi", (s,), u * F1.derivative(),
          (2 * s - 1) * F1 - (2 * s - 1) * F2)
    check("trunc_contiguous_hi", (s,), u * F1,
          -(2 * s - 1) * F2 + (2 * s - 1) * F1 + phi2s * Fraction(1, fact))
    check("trunc_derivative_lo", (s,), u * F2.derivative(),
          (2 * s - 2) * F2 - (2 * s - 2) * F3)
    check("trunc_contiguous_lo", (s,), u * F2,
          -(2 * s - 2) * F3 + (2 * s - 3) * F2 + F1)
    return results


# ---------------------------------------------------------------------------
# tridiagonal determinant machinery
# ---------------------------------------------------------------------------


def _kummer_block(a, b, n, j: int) -> Recurrence3:
    """The truncated-Kummer expansion system of the c = j Heun equation,
    at d = 0; d adds to diag.

    lower(k) = (k-1-j)(k-1-n)
    diag(k)  = d - j n + k (b + 2j - 2k + 2n)
    upper(k) = (k+1)(k+1-n-a-b-j)
    """
    m = 1 - n - a - b - j
    return Recurrence3(
        lower_k=((1 + j) * (1 + n), -(2 + j + n), 1),
        diag_k=(-j * n, b + 2 * j + 2 * n, -2),
        upper_k=(m, m + 1, 1),
    )


def _laguerre_block(a, b, n, j: int) -> Recurrence3:
    """The Laguerre expansion system of the c = j Heun equation, at d = 0;
    d adds to diag.

    lower(k) = (k-1-j)(k-n-a-b-j)
    diag(k)  = d - j n + k (b + 2j - 2k + 2n)
    upper(k) = (k+1)(k-n)
    """
    p = n + a + b + j
    return Recurrence3(
        lower_k=((1 + j) * p, -(p + 1 + j), 1),
        diag_k=(-j * n, b + 2 * j + 2 * n, -2),
        upper_k=(-n, 1 - n, 1),
    )


def det_A(l: int) -> Poly:
    """The fixed 4 x 4 sufficiency determinant of the G7 form, in s.

    The leading 4 x 4 minor of the G7 recurrence about r = 0 with s
    symbolic.  In the Heun frame z = r/2 the same block has a = 2s,
    b = -2(2s+1), c = j = 3, d = 2 - l(l+1) + 6s and n = 2s + 1; the
    change of frame multiplies row k by 2^k and divides column k by 2^k, a
    diagonal similarity, so every leading minor is the same.  The result
    vanishes exactly at the algebraically special frequencies
    +-l(l-1)(l+1)(l+2)/6.  The G7 equation is the process's one build
    (:func:`~bhkovacic.auxode.family_equation`), so every l shares it.
    """
    return family_equation("G7").recurrence(l).det(4)


class EqualityReport(NamedTuple):
    grid_points: int
    kummer_equal: bool
    laguerre_equal: bool
    witness: Optional[tuple]

    @property
    def all_ok(self) -> bool:
        return self.kummer_equal and self.laguerre_equal


def determinant_equality_check(j: int) -> EqualityReport:
    """det(necessary block, c=j) == det(Kummer block) == det(Laguerre block).

    All three determinants are polynomials in (a, b, d, n) of degree at
    most j+1 in each variable, so agreement on a (j+2)^4 product grid is a
    proof of identity; the block entries are ring-neutral, so the grid runs
    in exact integers.

    Each block is built once per (a, b, n), at d = 0, and d adds to its
    diag: the Heun system takes d as the constant term of diag alone, and
    the Kummer and Laguerre builders take no d.  So :meth:`Recurrence3.dets`
    gives each block's determinants at every d of the grid.  The witness is
    (block, (a, b, d, n), necessary det, block det) of the first failure in
    (a, b, n, d) order, the Kummer block first at each point.
    """
    if j < 0:
        raise ValueError("block order j must be non-negative")
    side = j + 2
    failures = []
    for a, b, n in itertools.product(range(side), repeat=3):
        blocks = (
            HeunForm(a, b, j, 0, -a * n).recurrence(),
            _kummer_block(a, b, n, j),
            _laguerre_block(a, b, n, j),
        )
        dets = [rec.dets(j + 1, range(side)) for rec in blocks]
        for d, (nec, kummer, laguerre) in enumerate(zip(*dets)):
            for name, det in (("kummer", kummer), ("laguerre", laguerre)):
                if det != nec:
                    failures.append((name, (a, b, d, n), nec, det))
    failed = {failure[0] for failure in failures}
    return EqualityReport(
        grid_points=side**4,
        kummer_equal="kummer" not in failed,
        laguerre_equal="laguerre" not in failed,
        witness=failures[0] if failures else None,
    )


# ---------------------------------------------------------------------------
# extended expansions of the closed-form polynomial
# ---------------------------------------------------------------------------


class ExpansionReport(NamedTuple):
    """The verdict of :func:`extended_expansion`; it holds no coefficient vector
    of a passing expansion."""

    basis: str  # "kummer" or "laguerre"
    l: int
    s: Rational
    coefficients: tuple  # (A0, A1, A2, A3)
    difference: Poly  # assembled - target in w: Poly.zero() when they are equal
    equal: bool


def extended_expansion(l: int, basis: str, target: Optional[Poly] = None) -> ExpansionReport:
    """Expand the closed-form polynomial P(w) in the chosen basis, exactly.

    Kummer basis (coefficients A_k, overall scale fixed by A0):

        P(w) = A0 phi(2s+1; -sw) + A1 phi(2s; -sw)
             + A2 F(-(2s-1), 1-2s; -sw) + A3 F(-(2s-2), 1-2s; -sw)

        A0 = s^(-2-2s) (1+2s) / ((l-1)(l+2)),
        A1 = -(l^2+l+1)/(2s+1) A0,
        A2 = -3 (2s)!/(2s+1) A0,
        A3 = -(l^2+l-3) (2s)!/(2s+1) A0.

    Laguerre basis (coefficients B_k; the middle sign flips):

        P(w) = B0 (sw)^(2s) (sw + 2s+1) + B1 (sw)^(2s)
             + B2 L_{2s-1}^(-2s)(-sw) + B3 L_{2s-2}^(-2s)(-sw)

        B0 = s^(-2-2s) / ((l-1)(l+2)),
        B1 = -(l^2+l+1) B0,  B2 = 3 (2s)! B0,  B3 = -(l^2+l-3) (2s)!/(2s-1) B0.

    The assembled sum must equal the closed-form polynomial coefficient by
    coefficient; the report carries the exact verdict and the difference.
    ``target`` is that polynomial, ``chandrasekhar_coeffs(l)``, for a caller
    that holds it already; otherwise it is built once the sum is assembled.
    Each basis term is built and added into the running sum in u before the
    next one is built, and the report keeps neither the sum nor the target.
    """
    if basis not in ("kummer", "laguerre"):
        raise ValueError("basis must be 'kummer' or 'laguerre'")
    s = special_frequency(l)
    two_s = int(2 * s)
    fact = math.factorial(two_s)
    mu2 = (l - 1) * (l + 2)
    ll1 = l * l + l
    scale = Fraction(1, int(s) ** (2 + two_s))

    if basis == "kummer":
        A0 = scale * (1 + 2 * s) / mu2
        A1 = -Fraction(ll1 + 1) / (2 * s + 1) * A0
        A2 = -3 * Fraction(fact) / (2 * s + 1) * A0
        A3 = -Fraction(ll1 - 3) * fact / (2 * s + 1) * A0
        coefficients = (A0, A1, A2, A3)
        terms = (
            lambda: phi_poly(1, s),
            lambda: phi_poly(0, s),
            lambda: kummer_poly(two_s - 1, 1 - 2 * s),
            lambda: kummer_poly(two_s - 2, 1 - 2 * s),
        )
    else:
        B0 = scale / mu2
        B1 = -Fraction(ll1 + 1) * B0
        B2 = 3 * Fraction(fact) * B0
        B3 = -Fraction(ll1 - 3) * fact / (2 * s - 1) * B0
        coefficients = (B0, B1, B2, B3)
        terms = (
            lambda: Poly.monomial(two_s) * laguerre_poly(1, two_s),
            lambda: Poly.monomial(two_s) * laguerre_poly(0, two_s),
            lambda: laguerre_poly(two_s - 1, -two_s),
            lambda: laguerre_poly(two_s - 2, -two_s),
        )

    assembled = Poly.zero()
    for coeff, term in zip(coefficients, terms):
        assembled = assembled + coeff * term()  # the term is dropped once scaled
    assembled = assembled.scale_variable(-s)  # u = -s w
    if target is None:
        target = chandrasekhar_coeffs(l)
    equal = assembled == target
    return ExpansionReport(
        basis=basis,
        l=l,
        s=s,
        coefficients=coefficients,
        difference=Poly.zero() if equal else assembled - target,
        equal=equal,
    )
