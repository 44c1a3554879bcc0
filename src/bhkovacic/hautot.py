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

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra import Poly, Rational, falling_factorial, rat_to_str
from .auxode import HeunForm, chandrasekhar_coeffs
from .elimination import tridiag_minors
from .master import special_frequency

__all__ = [
    "ObstructionError",
    "KummerPoly",
    "LaguerrePoly",
    "PhiPoly",
    "ExpansionReport",
    "kummer_poly",
    "laguerre_poly",
    "phi_poly",
    "recurrence_identity_suite",
    "tridiag_coeffs",
    "tridiag_det",
    "det_A",
    "determinant_equality_check",
    "extended_expansion",
    "hautot_sufficiency_check",
    "SufficiencyVerdict",
]


class ObstructionError(ValueError):
    """The truncated Kummer series is undefined: (q)_k vanishes for k <= n."""


@dataclass(frozen=True)
class KummerPoly:
    """F(-n, q; u) = sum_k (-n)_k / ((q)_k k!) u^k, a degree-n polynomial."""

    n: int
    q: Rational
    poly: Poly


@dataclass(frozen=True)
class LaguerrePoly:
    """L_n^(alpha)(u) = sum_k (-1)^k binom(n+alpha, n-k) u^k / k!."""

    n: int
    alpha: Rational
    poly: Poly


@dataclass(frozen=True)
class PhiPoly:
    """Replacement basis element phi(m; u) = u^(2s) F(m - (2s+1), 2s+1; u).

    kind "phi_2s_plus_1" is m = 2s+1 (degree 2s+1), kind "phi_2s" is
    m = 2s (degree 2s); both are honest solutions of the confluent
    hypergeometric equations that obstruct the naive truncated series.
    """

    kind: str
    s: Rational
    poly: Poly


def kummer_poly(n: int, q) -> KummerPoly:
    if n < 0:
        raise ValueError("truncation order must be non-negative")
    q = Fraction(q)
    if q.denominator == 1 and -(n - 1) <= q <= 0:
        raise ObstructionError(
            f"F(-{n}, {rat_to_str(q)}; u) is undefined: lower parameter hits "
            "a non-positive integer before the series truncates"
        )
    coeffs = []
    term = Fraction(1)
    for k in range(n + 1):
        if k > 0:
            term = term * (-(n) + (k - 1)) / ((q + (k - 1)) * k)
        coeffs.append(term)
    return KummerPoly(n=n, q=q, poly=Poly(coeffs))


def laguerre_poly(n: int, alpha) -> LaguerrePoly:
    """Exact associated Laguerre polynomial; any rational alpha is allowed."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    alpha = Fraction(alpha)
    coeffs = [
        Fraction((-1) ** k) * falling_factorial(n + alpha, n - k)
        / (math.factorial(n - k) * math.factorial(k))
        for k in range(n + 1)
    ]
    return LaguerrePoly(n=n, alpha=alpha, poly=Poly(coeffs))


def _phi(j: int, s) -> Poly:
    """u^(2s) F(-j, 2s+1; u); polynomial solution at e = j - (2s+1)."""
    s = Fraction(s)
    two_s = int(2 * s)
    if two_s != 2 * s or two_s <= 0:
        raise ValueError("phi basis needs 2s a positive integer")
    return Poly.monomial(two_s) * kummer_poly(j, 2 * s + 1).poly


def phi_poly(kind: str, s) -> PhiPoly:
    if kind == "phi_2s_plus_1":
        return PhiPoly(kind=kind, s=Fraction(s), poly=_phi(1, s))
    if kind == "phi_2s":
        return PhiPoly(kind=kind, s=Fraction(s), poly=_phi(0, s))
    raise ValueError(f"unknown phi kind: {kind}")


# ---------------------------------------------------------------------------
# recurrence identities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityResult:
    name: str
    params: tuple
    ok: bool


def recurrence_identity_suite(s, bound: int = 4) -> list:
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
            Fm = kummer_poly(m, q).poly
            Fm_minus = kummer_poly(m - 1, q).poly
            Fm_plus = kummer_poly(m + 1, q).poly
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
            Lm = laguerre_poly(m, alpha).poly
            Lm_minus = laguerre_poly(m - 1, alpha).poly
            Lm_plus = laguerre_poly(m + 1, alpha).poly
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
    phi2s1, phi2s, phi2s2 = _phi(1, s), _phi(0, s), _phi(2, s)
    check("phi_top_derivative", (s,), u * phi2s1.derivative(),
          (2 * s + 1) * phi2s1 - phi2s)
    check("phi_top_contiguous", (s,), u * phi2s1,
          -phi2s + (2 * s + 3) * phi2s1 - (2 * s + 2) * phi2s2)
    check("phi_derivative", (s,), u * phi2s.derivative(), 2 * s * phi2s)
    check("phi_contiguous", (s,), u * phi2s,
          (2 * s + 1) * phi2s - (2 * s + 1) * phi2s1)

    # truncated-Kummer relations at lower parameter 1 - 2s
    q = 1 - 2 * s
    F1 = kummer_poly(two_s - 1, q).poly
    F2 = kummer_poly(two_s - 2, q).poly
    F3 = kummer_poly(two_s - 3, q).poly
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


def tridiag_coeffs(source: str, *, a=None, b=None, c=None, d=None, n=None, j=None):
    """Coefficient evaluators k -> (lower, diag, upper) for the three systems.

    ``necessary``        the raw power-basis system of the Heun equation
                         (R_k, S_k, T_k) with parameters (a, b, c, d, n);
    ``hautot_kummer``    the truncated-Kummer expansion system with c = j;
    ``hautot_laguerre``  the Laguerre expansion system with c = j.

    Entries may be rationals or polynomials; the formulas are ring-neutral.
    """
    if source == "necessary":
        if any(v is None for v in (a, b, c, d, n)):
            raise ValueError("necessary system needs a, b, c, d, n")
        return (
            lambda k: a * (k - 1 - n),
            lambda k: d + k * (b + k - 1),
            lambda k: (c - k) * (k + 1),
        )
    if source == "hautot_kummer":
        if any(v is None for v in (a, b, d, n, j)):
            raise ValueError("hautot_kummer system needs a, b, d, n, j")
        return (
            lambda k: (k - 1 - j) * (k - 1 - n),
            lambda k: d - j * n + k * (b + 2 * j - 2 * k + 2 * n),
            lambda k: (k + 1) * (k + 1 - n - a - b - j),
        )
    if source == "hautot_laguerre":
        if any(v is None for v in (a, b, d, n, j)):
            raise ValueError("hautot_laguerre system needs a, b, d, n, j")
        return (
            lambda k: (k - 1 - j) * (k - n - a - b - j),
            lambda k: d - j * n + k * (b + 2 * j - 2 * k + 2 * n),
            lambda k: (k + 1) * (k - n),
        )
    raise ValueError(f"unknown coefficient source: {source}")


def tridiag_det(coeffs, size: int):
    """Determinant of the leading size x size tridiagonal block.

    The last minor of :func:`~bhkovacic.elimination.tridiag_minors`; exact
    over rationals or polynomials.
    """
    lower, diag, upper = coeffs
    offprod = (lower(k) * upper(k - 1) if k else 0 for k in range(size))
    return [1, *tridiag_minors(map(diag, range(size)), offprod)][-1]


def det_A(l: int) -> Poly:
    """The fixed 4 x 4 sufficiency determinant of the G7 form, in s.

    Parameters a = 2s, b = -2(2s+1), c = j = 3, d = 2 - l(l+1) + 6s,
    n = 2s + 1, entered as polynomials in s; the result vanishes exactly
    at the algebraically special frequencies +-l(l-1)(l+1)(l+2)/6.
    """
    L = l * (l + 1)
    s = Poly.x()
    coeffs = tridiag_coeffs(
        "necessary",
        a=2 * s,
        b=-2 * (2 * s + Poly.one()),
        c=Poly.const(3),
        d=Poly.const(2 - L) + 6 * s,
        n=2 * s + Poly.one(),
    )
    return tridiag_det(coeffs, 4)


@dataclass(frozen=True)
class EqualityReport:
    j: int
    grid_side: int
    grid_points: int
    random_trials: int
    kummer_equal: bool
    laguerre_equal: bool
    witness: Optional[tuple]

    @property
    def all_ok(self) -> bool:
        return self.kummer_equal and self.laguerre_equal


def determinant_equality_check(j: int, trials: int = 10, seed: int = 0) -> EqualityReport:
    """det(necessary block, c=j) == det(Kummer block) == det(Laguerre block).

    All three determinants are polynomials in (a, b, d, n) of degree at
    most j+1 in each variable, so agreement on a (j+2)^4 product grid is a
    proof of identity; ``trials`` extra random rational points are thrown
    in as independent witnesses.
    """
    if j < 0:
        raise ValueError("block order j must be non-negative")
    side = j + 2
    rng = random.Random(seed)

    def dets_at(a, b, d, n):
        necessary = tridiag_det(
            tridiag_coeffs("necessary", a=a, b=b, c=Fraction(j), d=d, n=n), j + 1
        )
        kummer = tridiag_det(
            tridiag_coeffs("hautot_kummer", a=a, b=b, d=d, n=n, j=j), j + 1
        )
        laguerre = tridiag_det(
            tridiag_coeffs("hautot_laguerre", a=a, b=b, d=d, n=n, j=j), j + 1
        )
        return necessary, kummer, laguerre

    kummer_equal = True
    laguerre_equal = True
    witness = None
    points = [
        (Fraction(a), Fraction(b), Fraction(d), Fraction(n))
        for a in range(side)
        for b in range(side)
        for d in range(side)
        for n in range(side)
    ]
    for _ in range(max(0, trials)):
        points.append(
            tuple(Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(4))
        )
    grid_points = side ** 4
    for point in points:
        nec, kum, lag = dets_at(*point)
        if kum != nec:
            kummer_equal = False
            witness = witness or ("kummer", point, nec, kum)
        if lag != nec:
            laguerre_equal = False
            witness = witness or ("laguerre", point, nec, lag)
    return EqualityReport(
        j=j,
        grid_side=side,
        grid_points=grid_points,
        random_trials=max(0, trials),
        kummer_equal=kummer_equal,
        laguerre_equal=laguerre_equal,
        witness=witness,
    )


# ---------------------------------------------------------------------------
# extended expansions of the closed-form polynomial
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpansionReport:
    basis: str  # "kummer" or "laguerre"
    l: int
    s: Rational
    coefficients: tuple  # (A0, A1, A2, A3)
    assembled: Poly  # in w
    target: Poly  # in w
    equal: bool

    @property
    def difference(self) -> Poly:
        return self.assembled - self.target


def extended_expansion(l: int, basis: str) -> ExpansionReport:
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
    """
    if basis not in ("kummer", "laguerre"):
        raise ValueError("basis must be 'kummer' or 'laguerre'")
    s = special_frequency(l)
    if (2 * s).denominator != 1:
        raise ValueError("2s must be an integer for the factorial coefficients")
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
        terms = (
            (A0, _phi(1, s)),
            (A1, _phi(0, s)),
            (A2, kummer_poly(two_s - 1, 1 - 2 * s).poly),
            (A3, kummer_poly(two_s - 2, 1 - 2 * s).poly),
        )
        coefficients = (A0, A1, A2, A3)
    else:
        B0 = scale / mu2
        B1 = -Fraction(ll1 + 1) * B0
        B2 = 3 * Fraction(fact) * B0
        B3 = -Fraction(ll1 - 3) * fact / (2 * s - 1) * B0
        terms = (
            (B0, Poly.monomial(two_s) * laguerre_poly(1, two_s).poly),
            (B1, Poly.monomial(two_s) * laguerre_poly(0, two_s).poly),
            (B2, laguerre_poly(two_s - 1, -two_s).poly),
            (B3, laguerre_poly(two_s - 2, -two_s).poly),
        )
        coefficients = (B0, B1, B2, B3)

    assembled_u = Poly.zero()
    for coeff, poly_u in terms:
        assembled_u = assembled_u + coeff * poly_u
    assembled = assembled_u.scale_variable(-s)  # u = -s w
    target = chandrasekhar_coeffs(l)
    return ExpansionReport(
        basis=basis,
        l=l,
        s=s,
        coefficients=coefficients,
        assembled=assembled,
        target=target,
        equal=assembled == target,
    )


# ---------------------------------------------------------------------------
# sufficiency verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SufficiencyVerdict:
    applicable: bool
    satisfied: Optional[bool]
    j: Optional[int]
    det_value: Optional[Rational]
    reason: str = ""


def hautot_sufficiency_check(heun: HeunForm, n: int) -> SufficiencyVerdict:
    """Fixed-order determinant test for a degree-n polynomial solution.

    Applicable only when c = j is a non-negative integer; then demands
    e = -a n and reports whether the (j+1) x (j+1) block determinant
    vanishes.  A satisfied verdict guarantees a polynomial solution; an
    unsatisfied one leaves only the intractable complementary-block route.
    """
    c = Fraction(heun.c)
    if c.denominator != 1 or c < 0:
        return SufficiencyVerdict(
            applicable=False,
            satisfied=None,
            j=None,
            det_value=None,
            reason=f"c = {rat_to_str(c)} is not a non-negative integer",
        )
    if heun.e != -heun.a * n:
        raise ValueError("degree hypothesis violated: e must equal -a n")
    j = int(c)
    coeffs = tridiag_coeffs(
        "necessary", a=heun.a, b=heun.b, c=Fraction(j), d=heun.d, n=Fraction(n)
    )
    det = tridiag_det(coeffs, j + 1)
    return SufficiencyVerdict(
        applicable=True, satisfied=(det == 0), j=j, det_value=det
    )
