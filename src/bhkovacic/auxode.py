"""Auxiliary second-order equations for the n=1 families.

A retained family with theta = c0/r + c2/(r-2) + cinf turns the search for
Liouvillian solutions into a polynomial problem:

    P'' + 2 theta P' + (theta^2 + theta' - nu) P = 0.

Cleared of denominators this is r(r-2) P'' + p1(r) P' + p0(r) P = 0 with
p1 quadratic and p0 linear in r, because the exponents c0, c2 kill the
double poles and cinf^2 cancels the constant part of nu.  The same
equation is carried in three frames: r itself, w = r-2 and z = r/2 (the
confluent Heun normal form).

Everything here is exact.  The module provides the three-term Frobenius
recurrence of such an equation about its frame origin on the root 0, a
fraction-free brute-force nullspace oracle, a fixed-degree polynomial
solver of any degree built on those two (the frequency s given, or
unknown and found as a root of the recurrence's determinant), the
closed-form polynomial behind the second algebraically special
gravitational solution together with its verification suite, and the
homotopic z-power substitution linking the G7/G3 and E7/E3 confluent Heun
forms.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence

from .algebra import Poly, Rational, horner, rational_roots
from .elimination import nullspace, tridiag_minors
from .kovacic import Family, family_by_label, theta as theta_spec
from .master import partial_fractions, special_frequency

__all__ = [
    "AuxiliaryODE",
    "Recurrence3",
    "HeunForm",
    "FamilyEquation",
    "family_equation",
    "multipole_offset",
    "ode_residual",
    "to_w_frame",
    "to_z_frame",
    "to_heun_form",
    "recurrence",
    "solve_low_degree",
    "chandrasekhar_coeffs",
    "chandrasekhar_r_frame",
    "chandrasekhar_checks",
    "VerificationRecord",
    "candidate_rows",
    "brute_force_polynomial_solutions",
    "homotopic_equivalence_check",
]


class AuxiliaryODE(NamedTuple):
    """p2 P'' + p1 P' + p0 P = 0 in a named coordinate frame.

    Only the frame and the coefficients are kept: the equation is named by
    the (family, l, s) that :meth:`FamilyEquation.at` builds it from.
    """

    frame: str  # "r", "w" or "z"
    p2: Poly
    p1: Poly
    p0: Poly


def multipole_offset(family: Family, l: int) -> int:
    """m = l(l+1) - L_min >= 0, L_min that of the lowest multipole of the
    family's kind: the one place where l enters an auxiliary equation."""
    kind = family.kind
    min_l = kind.min_l
    if l < min_l:
        raise ValueError(
            f"l={l} below the lowest radiating multipole "
            f"{min_l} for {kind.name.lower()} modes"
        )
    return l * (l + 1) - min_l * (min_l + 1)


class FamilyEquation(NamedTuple):
    """The cleared auxiliary equation of one n=1 family, s symbolic.

    p1(r) = p1_quad r^2 + p1_lin r + p1_const and p0(r) = e r + f, each a
    Poly in s, at the lowest multipole of the family's kind.  Only f moves
    with l: nu's simple-pole coefficients carry -L/2 at r = 0 and +L/2 at
    r = 2 (L = l(l+1)), which cancel in e and leave -L in f, so at
    multipole l f is lowered by :func:`multipole_offset`, which also
    refuses l below the lowest multipole.  Built once per process by
    :func:`family_equation`, it serves every (l, s) of every check.
    """

    family: Family
    p1_const: Poly
    p1_lin: Poly
    p1_quad: Poly
    e: Poly
    f: Poly

    def at(self, l: int, s: Rational) -> AuxiliaryODE:
        """Exact cleared equation r(r-2) P'' + p1 P' + p0 P = 0 at multipole l
        and frequency s = a/b, in integers: each coefficient is evaluated
        times D = L b^n, L the lcm of their denominators and n their degree,
        as sum_k num[k] a^k b^(n-k) over one shared list of the powers.
        Every equation shares the one p2 = r(r-2)."""
        a, b = Fraction(s).as_integer_ratio()
        polys = self.p1_const, self.p1_lin, self.p1_quad, self.f, self.e
        n = max(1, *[len(p.num) for p in polys]) - 1  # all-zero fields: D stays an integer
        L = math.lcm(*[p.den for p in polys])
        powers = [a**k * b ** (n - k) for k in range(n + 1)]
        c0, c1, c2, f, e = [L // p.den * sum(map(operator.mul, p.num, powers)) for p in polys]
        D = L * b**n
        p1 = Poly.from_numerators([c0, c1, c2], D)
        p0 = Poly.from_numerators([f - multipole_offset(self.family, l) * D, e], D)
        return AuxiliaryODE("r", _R_FRAME_P2, p1, p0)

    def recurrence(self, l: int) -> Recurrence3:
        """The r-frame recurrence about r = 0 (rho = 0) at multipole l, s symbolic.

        Its entries are polynomials in s; at a given s they equal the rows
        of ``rec, den = recurrence(self.at(l, s))`` divided by den.
        """
        f = self.f - multipole_offset(self.family, l)
        # p2 = r(r-2) = r^2 - 2r
        return _recurrence3(1, -2, self.p1_quad, self.p1_lin, self.p1_const, self.e, f)


# p2 of every r-frame equation that FamilyEquation.at builds
_R_FRAME_P2 = Poly.from_numerators([0, -2, 1], 1)


# bounded: only the twenty n=1 labels are ever cached; any other label raises
@functools.lru_cache(maxsize=None)
def family_equation(label: str) -> FamilyEquation:
    """The auxiliary equation of the n=1 family labelled ``label`` with s
    symbolic, from theta and nu; built once per process."""
    family = family_by_label(label)
    kind = family.kind
    spec = theta_spec(family)
    if spec.c0.degree > 0:
        raise ValueError("e0 must be frequency-independent")
    c0, c2, cinf = spec.c0[0], spec.c2, spec.cinf
    # the simple poles of nu survive; c0, c2 and cinf cancel the rest
    nu = partial_fractions(kind, kind.min_l)
    t0 = 2 * c0 * cinf - nu.inv_r
    t2 = 2 * c2 * cinf - nu.inv_rm2
    return FamilyEquation(
        family=family,
        p1_const=Poly.const(-4 * c0),
        p1_lin=2 * c0 + 2 * c2 - 4 * cinf,
        p1_quad=2 * cinf,
        e=t0 + t2,
        f=2 * c0 * c2 - 2 * t0,
    )


def ode_residual(ode: AuxiliaryODE, P: Poly) -> Poly:
    """p2 P'' + p1 P' + p0 P, read off the equation's coefficient polynomials.

    One integer convolution on the numerators (:func:`_apply_operator`); it
    never forms the recurrence, so it checks a solution independently of it.
    """
    return _apply_operator(ode.p2, ode.p1, ode.p0, [P])[0]


def _apply_operator(p2: Poly, p1: Poly, p0: Poly, polys: Sequence[Poly]) -> list:
    """p2 P'' + p1 P' + p0 P for each P of ``polys``, in integers, one normalisation each.

    With p2, p1, p0 cleared to one denominator D (integer numerators q2,
    q1, q0) and P = sum n_k x^k / den, coefficient m of the result times
    den D is

        sum_k n_k (k (k-1) q2[m-k+2] + k q1[m-k+1] + q0[m-k]),

    a sum over the few offsets m - k at which q2, q1 or q0 has an entry,
    each term a small weight times one numerator of P.  No derivative of P
    is formed, and a zero result normalises trivially.
    """
    D = math.lcm(p2.den, p1.den, p0.den)
    q2, q1, q0 = ([v * (D // p.den) for v in p.num] for p in (p2, p1, p0))
    top = max(len(q2) - 2, len(q1) - 1, len(q0))
    # (offset, a, b, c): the weight of n_k at m = k + offset is (a (k-1) + b) k + c
    offsets = []
    for offset in range(-2, top):
        a = q2[offset + 2] if offset + 2 < len(q2) else 0
        b = q1[offset + 1] if 0 <= offset + 1 < len(q1) else 0
        c = q0[offset] if 0 <= offset < len(q0) else 0
        if a or b or c:
            offsets.append((offset, a, b, c))
    results = []
    for P in polys:
        n, size = P.num, len(P.num)
        out = []
        for m in range(size + top - 1):
            acc = 0
            for offset, a, b, c in offsets:
                k = m - offset
                if 0 <= k < size:
                    acc += ((a * (k - 1) + b) * k + c) * n[k]
            out.append(acc)
        results.append(Poly.from_numerators(out, P.den * D))
    return results


def to_w_frame(ode: AuxiliaryODE) -> AuxiliaryODE:
    """Shift r = w + 2; the horizon singular point moves to the origin."""
    if ode.frame != "r":
        raise ValueError("w frame is reached from the r frame")
    return AuxiliaryODE("w", ode.p2.shift(2), ode.p1.shift(2), ode.p0.shift(2))


def to_z_frame(ode: AuxiliaryODE) -> AuxiliaryODE:
    """Substitute r = 2z; singular points land on 0 and 1 (Heun normal form).

    With d/dr = (1/2) d/dz the cleared equation becomes
    z(z-1) p'' + (1/2) p1(2z) p' + p0(2z) p = 0.
    """
    if ode.frame != "r":
        raise ValueError("z frame is reached from the r frame")
    return AuxiliaryODE(
        "z",
        Poly([0, -1, 1]),
        ode.p1.scale_variable(2) * Fraction(1, 2),
        ode.p0.scale_variable(2),
    )


class HeunForm(NamedTuple):
    """z(z-1) P'' + (a z^2 + b z + c) P' + (d + e z) P = 0.

    The quadratic term of the P coefficient is absent by construction; a
    degree-n polynomial solution forces e = -a n.
    """

    a: Rational
    b: Rational
    c: Rational
    d: Rational
    e: Rational

    def apply(self, polys: Sequence[Poly]) -> list:
        """The operator applied to each of ``polys``, its coefficients built once."""
        return _apply_operator(
            Poly([0, -1, 1]), Poly([self.c, self.b, self.a]), Poly([self.d, self.e]), polys
        )

    def recurrence(self) -> Recurrence3:
        """The z-frame recurrence about z = 0 (rho = 0, p2 = z^2 - z).

        lower(k) = a(k-1) + e, diag(k) = k(k-1+b) + d, upper(k) =
        (k+1)(c-k); with e = -a n its leading (n+1) x (n+1) block is the
        system a degree-n polynomial solution must satisfy.
        """
        return _recurrence3(1, -1, self.a, self.b, self.c, self.e, self.d)


def to_heun_form(ode: AuxiliaryODE) -> HeunForm:
    z_ode = to_z_frame(ode) if ode.frame == "r" else ode
    if z_ode.frame != "z":
        raise ValueError("Heun form is read off the z frame")
    p1, p0 = z_ode.p1, z_ode.p0
    if p0.degree > 1:
        raise ValueError("P coefficient has a quadratic term; not confluent Heun")
    return HeunForm(a=p1[2], b=p1[1], c=p1[0], d=p0[0], e=p0[1])


class Recurrence3(NamedTuple):
    """Three-term relation for Frobenius coefficients about the frame origin.

    For P = sum lam_k t^k, row k of the residual reads lower(k) lam_{k-1}
    + diag(k) lam_k + upper(k) lam_{k+1} = 0 (lam_{-1} = 0), with

        lower(k) = a (k-1) + e
        diag(k)  = k (alpha (k-1) + b) + f
        upper(k) = (k+1)(beta k + c)

    where p2 = alpha t^2 + beta t, p1 = a t^2 + b t + c and p0 = e t + f.
    Each entry is kept as its coefficient tuple in k, lowest power first;
    the coefficients are integers (:func:`recurrence`), rationals
    (:meth:`HeunForm.recurrence`) or polynomials in s
    (:meth:`FamilyEquation.recurrence`).
    """

    lower_k: tuple
    diag_k: tuple
    upper_k: tuple

    def lower(self, k) -> Rational:
        return horner(self.lower_k, k)

    def diag(self, k) -> Rational:
        return horner(self.diag_k, k)

    def upper(self, k) -> Rational:
        return horner(self.upper_k, k)

    def residual_rows(self, coeffs: Sequence[Rational], rows: int) -> list:
        """Row values of the recurrence applied to a coefficient vector."""
        def at(k):
            return coeffs[k] if 0 <= k < len(coeffs) else 0

        return [
            self.lower(k) * at(k - 1) + self.diag(k) * at(k) + self.upper(k) * at(k + 1)
            for k in range(rows)
        ]

    def det(self, size: int):
        """Leading size x size minor of the tridiagonal matrix of rows 0..size-1.

        The last minor of :func:`~bhkovacic.elimination.tridiag_minors`
        (1 for size 0); exact over rationals or polynomials.
        """
        return [1, *tridiag_minors(*self._band(size))][-1]

    def dets(self, size: int, shifts: Iterable) -> list:
        """:meth:`det` with t added to the diagonal, for each t of ``shifts``."""
        diag, offprod = self._band(size)
        return [[1, *tridiag_minors([x + t for x in diag], offprod)][-1] for t in shifts]

    def _band(self, size: int) -> tuple:
        """(diag, offprod) of rows 0..size-1, as :func:`tridiag_minors` reads them."""
        diag = [self.diag(k) for k in range(size)]
        offprod = [self.lower(k) * self.upper(k - 1) if k else 0 for k in range(size)]
        return diag, offprod


def recurrence(ode: AuxiliaryODE) -> tuple:
    """(rec, den): the three-term recurrence of ode about its frame origin,
    on the root rho = 0, in integers.

    The rows of ``rec`` are the rational recurrence times den > 0, the
    least common denominator of its coefficients, so they are integer
    coefficient tuples in k with no factor in common with den.  They are
    built from the equation's integer numerators without a ``Fraction``.

    The origin must be a regular singular point: r = 0 in the r frame, the
    horizon in the w frame (:func:`to_w_frame`).  The branch of the other
    indicial root, P = t^m P1, is the z-power substitution that
    :func:`homotopic_equivalence_check` verifies.  Both refusals read the
    numerator tuples: p2 needs num[0] = 0 and num[1] != 0, and at most 3,
    3 and 2 numerators for p2, p1 and p0.
    """
    p2, p1, p0 = ode.p2, ode.p1, ode.p0
    n2 = p2.num
    if len(n2) < 2 or n2[0] or not n2[1]:
        raise ValueError(f"the origin is not a regular singular point in frame {ode.frame}")
    if len(n2) > 3 or len(p1.num) > 3 or len(p0.num) > 2:
        raise ValueError("coefficients exceed the cleared-form degrees")
    D = math.lcm(p2.den, p1.den, p0.den)
    q2, q1, q0 = [[v * (D // p.den) for v in p.num] + [0] * 3 for p in (p2, p1, p0)]
    rows = _recurrence3(q2[2], q2[1], q1[2], q1[1], q1[0], q0[1], q0[0])
    g = math.gcd(D, *rows.lower_k, *rows.diag_k, *rows.upper_k)
    return Recurrence3(*[tuple([c // g for c in row]) for row in rows]), D // g


def _recurrence3(alpha, beta, a, b, c, e, f) -> Recurrence3:
    """The :class:`Recurrence3` entry formulas, expanded in k; ring-neutral."""
    return Recurrence3(
        lower_k=(e - a, a),
        diag_k=(f, b - alpha, alpha),
        upper_k=(c, beta + c, beta),
    )


# ---------------------------------------------------------------------------
# fixed-degree polynomial solutions, the frequency given or unknown
# ---------------------------------------------------------------------------


def solve_low_degree(eq: FamilyEquation, d: int, l: int, s_fixed) -> List[tuple]:
    """All (s, P) with P a monic degree-d polynomial solution of eq at multipole l.

    At a frequency s the solutions of degree <= d are the nullspace of the
    candidate system (:func:`brute_force_polynomial_solutions`): one vector
    of degree d is returned made monic, none or one of lower degree gives
    no solution, and two or more raise NotImplementedError.  The frequency
    is ``s_fixed`` unless it is None.  Otherwise s is free only where the
    degree form fixes d for every s (G5, G8, E5, E8): row d+1 of the
    candidate system, lower(d+1) of the symbolic recurrence
    (:meth:`FamilyEquation.recurrence`), vanishes identically, and s ranges
    over the certified positive roots of the determinant D_(d+1) of rows
    0..d, a polynomial in s.  Where lower(d+1) does not vanish the degree
    form pins s, and ValueError asks for ``s_fixed``.
    """
    if s_fixed is not None:
        frequencies = [Fraction(s_fixed)]
    else:
        rec = eq.recurrence(l)
        frequencies = _free_frequency_roots(rec.lower(d + 1), rec.det(d + 1))
    out = []
    for s0 in frequencies:
        basis = brute_force_polynomial_solutions(eq.at(l, s0), d)
        if len(basis) > 1:
            raise NotImplementedError(
                f"the solutions of degree <= {d} form a space of dimension {len(basis)}"
            )
        out += [(s0, Poly.from_numerators(P.num, P.num[-1])) for P in basis if P.degree == d]
    return out


def _free_frequency_roots(lead: Poly, cond: Poly) -> list:
    """The certified positive roots of cond, for a lead that vanishes at every s."""
    if not lead.is_zero():
        raise ValueError("the degree form pins s for this family: pass it as s_fixed")
    if cond.is_zero():
        raise NotImplementedError("every frequency admits a polynomial solution of this degree")
    return [s0 for s0 in _certified_rational_roots(cond) if s0 > 0]


def _certified_rational_roots(p: Poly) -> list:
    """Rational roots, with a proof that no further positive real root hides in p.

    After dividing out the rational roots the cofactor must have no positive
    zero: it is a quadratic of negative discriminant, or its coefficients
    never change sign (Descartes' rule of signs).  Otherwise an exact answer
    would need algebraic numbers and we refuse loudly rather than silently
    drop a candidate frequency.
    """
    roots = rational_roots(p)
    cofactor = p
    for r0 in roots:
        while cofactor.eval(r0) == 0 and cofactor.degree > 0:
            cofactor, rem = cofactor.divmod(Poly([-r0, 1]))
            if not rem.is_zero():
                raise ArithmeticError("root division failed")
    if cofactor.degree == 2:
        a2, a1, a0 = cofactor[2], cofactor[1], cofactor[0]
        if a1 * a1 - 4 * a2 * a0 < 0:
            return roots
    if len({v > 0 for v in cofactor.num if v}) == 1:  # one sign, constants too
        return roots
    raise NotImplementedError(
        "irrational candidate frequencies are outside the exact solver's scope"
    )


# ---------------------------------------------------------------------------
# the closed-form polynomial of the second algebraically special solution
# ---------------------------------------------------------------------------


def chandrasekhar_coeffs(l: int) -> Poly:
    """Degree 4 sigma0 + 1 polynomial P(w) solving the G7 equation.

    At the algebraically special frequency s = 2 sigma0 the coefficients
    are, with mu2 = (l-1)(l+2):

        P_top   = 1 / (2 sigma0 mu2)                       (top = 4 sigma0 + 1)
        P_top-1 = (mu2 - 3) / (sigma0 mu2^2)
        P_n     = 3 (-2 sigma0)^(n-4 sigma0-1) (4 sigma0)! (mu2 - 6 sigma0)
                  [ (n - 4 sigma0) mu2 - 12 sigma0 ]
                  / ( n! (mu2 + 12 sigma0) sigma0 mu2^3 )   for n <= 4 sigma0 - 1.

    Built in integers: with N = 4 sigma0 = 2s and T_n = N! s^n / n!, the
    lower coefficients are P_n = K (-1)^(n+1) [(n-N) mu2 - 6s] T_n / s^(N+1)
    for K = 6 (mu2 - 3s) / ((mu2 + 6s) s mu2^3).  Q = gcd(N!, s^N) divides
    every T_n, so den(K) s^(N+1) / Q is a common denominator of them that
    is already close to the exact one; the numerators are built over it in
    one pass, and one normalisation removes what is left over.
    """
    s = int(special_frequency(l))  # l(l-1)(l+1)(l+2)/6 is an integer
    N = 2 * s
    mu2 = (l - 1) * (l + 2)
    top = Fraction(1, s * mu2)
    sub = Fraction(2 * (mu2 - 3), s * mu2**2)
    K = Fraction(6 * (mu2 - 3 * s), (mu2 + 6 * s) * s * mu2**3)
    fact = math.factorial(N)
    Q = math.gcd(fact, s**N)
    base = K.denominator * s ** (N + 1) // Q
    den = math.lcm(base, top.denominator, sub.denominator)
    scale = K.numerator * (den // base)
    num = [0] * (N + 2)
    T = fact // Q  # T_n / Q, from n = 0
    for n in range(N):
        term = scale * ((n - N) * mu2 - 6 * s) * T
        num[n] = term if n % 2 else -term
        T = T * s // (n + 1)
    num[N] = sub.numerator * (den // sub.denominator)
    num[N + 1] = den // top.denominator
    return Poly.from_numerators(num, den)


def _g7_ode(l: int) -> AuxiliaryODE:
    return family_equation("G7").at(l, special_frequency(l))


def chandrasekhar_r_frame(l: int, den: int, top: int) -> Poly:
    """The closed-form polynomial of :func:`chandrasekhar_coeffs` written in r,
    P(r) = P(w+2), from the denominator ``den`` and the leading numerator
    ``top`` of P(w).

    The rest comes from running the integer r-frame three-term recurrence
    of :func:`recurrence` downward from the leading coefficient (an
    O(degree) route that avoids the quadratic cost of a Taylor shift); the
    otherwise-unused bottom row of the recurrence is then checked, which
    certifies the result.  A shift by the integer 2 keeps the denominator
    of P(w), so the recurrence runs on integer numerators over it, and
    every division must be exact.  No vector of P(w) is read, so a caller
    may drop P(w) before P(r) is built.
    """
    d = int(2 * special_frequency(l) + 1)
    rec, _ = recurrence(_g7_ode(l))
    num = [0] * (d + 2)
    num[d] = top
    for m in range(d, 0, -1):
        low = rec.lower(m)
        if low == 0:
            raise ArithmeticError("unexpected zero in the downward recurrence")
        q, r = divmod(-(rec.diag(m) * num[m] + rec.upper(m) * num[m + 1]), low)
        if r:
            raise ArithmeticError("downward recurrence left the denominator of P(w)")
        num[m - 1] = q
    if rec.diag(0) * num[0] + rec.upper(0) * num[1] != 0:
        raise ArithmeticError("bottom recurrence row failed; not a solution")
    num.pop()
    return Poly.from_numerators(num, den)


class VerificationRecord(NamedTuple):
    l: int
    s: Rational
    degree: int
    recurrence_ok: bool
    ode_residual_ok: bool
    integral_identity_ok: bool
    sign_pattern_ok: bool

    @property
    def failed_checks(self) -> tuple:
        """The names of the checks that failed, in the order (i)..(iv)."""
        checks = (
            ("recurrence", self.recurrence_ok),
            ("ode_residual", self.ode_residual_ok),
            ("integral_identity", self.integral_identity_ok),
            ("sign_pattern", self.sign_pattern_ok),
        )
        return tuple(name for name, ok in checks if not ok)

    @property
    def all_ok(self) -> bool:
        return not self.failed_checks


def chandrasekhar_checks(
    l: int, P_w: Optional[Poly] = None, P_r: Optional[Poly] = None
) -> VerificationRecord:
    """Run the four exactness checks; P_w and P_r may be overridden to probe soundness.

    (i)  every row of the three-term recurrence about w=0 vanishes;
    (ii) the cleared equation has zero residual, in both the w and r frames;
    (iii) (P' + 2 sigma0 P)(mu2 r + 6) - mu2 P = r^3 (r-2)^(4 sigma0 - 1),
          checked in w (shift-free) and in r;
    (iv) the r-frame coefficients alternate: sgn(p_n) = (-1)^(n+1).

    (i) and (iv) read the integer numerators: the rows are linear and the
    denominator is positive, so zeros and signs are those of the coefficients.
    (iii) runs on the numerators too, against a right side streamed term by
    term times den (:func:`_binomial_terms`); (ii) is one integer
    convolution with the equation's coefficient polynomials
    (:func:`ode_residual`), the route independent of the recurrence.

    The checks run in w first: (i), the w-frame residual and the w side of
    (iii).  Only P_w's denominator and leading numerator are kept after
    that, and P(r) is built from them by :func:`chandrasekhar_r_frame`, so
    that one coefficient vector is held at a time (P_w itself stays alive
    only when the caller holds it).  P(r) is built only once (i) and the
    w-frame residual hold; otherwise the r-frame residual, (iii) and (iv),
    which would examine nothing, fail.  A caller that has built P(r)
    already, as ``bhk chandra`` does for its report, passes it as P_r, and
    the checks examine that vector instead of building a second one.
    """
    s = special_frequency(l)
    mu2 = (l - 1) * (l + 2)
    if P_w is None:
        P_w = chandrasekhar_coeffs(l)
    d = int(2 * s + 1)
    four_sig = d - 1  # 4 sigma0 = 2s
    ode_r = _g7_ode(l)
    ode_w = to_w_frame(ode_r)

    rec_w, _ = recurrence(ode_w)
    rec_rows = rec_w.residual_rows(P_w.num[: d + 1], d + 2)
    recurrence_ok = all(v == 0 for v in rec_rows)

    ode_residual_ok = integral_identity_ok = sign_pattern_ok = False
    if recurrence_ok and ode_residual(ode_w, P_w).is_zero():
        rhs_w = _binomial_terms(four_sig - 1, 2, 3, P_w.den)  # w^(4 sigma0 - 1) (w+2)^3
        w_identity_ok = _integral_identity_holds(P_w, int(s), 2 * mu2 + 6, mu2, rhs_w)
        den, top = P_w.den, P_w.num[-1]
        del P_w  # hold one coefficient vector at a time
        if P_r is None:
            P_r = chandrasekhar_r_frame(l, den, top)
        ode_residual_ok = ode_residual(ode_r, P_r).is_zero()
        rhs_r = _binomial_terms(3, -2, four_sig - 1, P_r.den)  # r^3 (r-2)^(4 sigma0 - 1)
        integral_identity_ok = w_identity_ok and _integral_identity_holds(
            P_r, int(s), 6, mu2, rhs_r
        )
        r_num = P_r.num[: d + 1]
        sign_pattern_ok = len(r_num) == d + 1 and all(
            v != 0 and (v > 0) == (n % 2 == 1) for n, v in enumerate(r_num)
        )
    return VerificationRecord(
        l=l,
        s=s,
        degree=d,
        recurrence_ok=recurrence_ok,
        ode_residual_ok=ode_residual_ok,
        integral_identity_ok=integral_identity_ok,
        sign_pattern_ok=sign_pattern_ok,
    )


def _integral_identity_holds(P: Poly, s: int, c0: int, mu2: int, rhs: Iterable) -> bool:
    """(P' + s P)(c0 + mu2 x) - mu2 P == rhs / den, for P = sum n_k x^k / den.

    ``rhs`` yields the right side's coefficients times den, lowest power
    first; it is read one term at a time and may be a generator.  With
    x_k = (k+1) n_(k+1) + s n_k the numerators of P' + s P, coefficient k
    of the left side times den is the integer c0 x_k + mu2 (x_(k-1) - n_k);
    it is compared with the k-th term of ``rhs``, from the constant term up
    to and past the top coefficient of either side, with no product by den.
    """
    n = P.num + (0, 0)

    def left():
        x_prev = 0
        for k in range(len(P.num) + 1):  # the left side ends at x^len(P.num)
            x = (k + 1) * n[k + 1] + s * n[k]
            yield c0 * x + mu2 * (x_prev - n[k])
            x_prev = x

    return all(a == b for a, b in itertools.zip_longest(left(), rhs, fillvalue=0))


def _binomial_terms(shift: int, c: int, n: int, den: int) -> Iterator[int]:
    """The coefficients of den x^shift (x + c)^n, lowest power first, for c != 0.

    Each term after den c^n is one exact big-by-small step from the last:
    C(n, k+1) c^(n-k-1) = C(n, k) c^(n-k) (n-k) / ((k+1) c).
    """
    yield from itertools.repeat(0, shift)
    term = den * c**n
    for k in range(n):
        yield term
        term = term * (n - k) // ((k + 1) * c)
    yield term


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------


def candidate_rows(ode: AuxiliaryODE, d: int) -> tuple:
    """(rows, den): residual rows 0..d+1 of a degree-d polynomial ansatz
    about the frame origin, in integers.

    Row m holds lower(m), diag(m) and upper(m) of the integer recurrence
    ``rec, den = recurrence(ode)`` in columns m-1, m and m+1 (those within
    0..d): the rational rows times the same positive integer den.  Each
    entry is evaluated in integers straight from its coefficient tuple in
    m (two and three coefficients), with no call per entry.  Rows 0..d are
    the square candidate system, so its rational determinant is
    ``bareiss_determinant(rows[:-1]) / den ** (d + 1)``; row d+1 vanishes
    identically exactly when d matches the family's degree formula.
    """
    if d < 0:
        raise ValueError("degree bound must be non-negative")
    rec, den = recurrence(ode)
    (l0, l1), (d0, d1, d2), (u0, u1, u2) = rec
    rows = []
    for m in range(d + 2):
        row = [0] * (d + 1)
        if m >= 1:
            row[m - 1] = l0 + l1 * m
        if m <= d:
            row[m] = d0 + (d1 + d2 * m) * m
        if m < d:
            row[m + 1] = u0 + (u1 + u2 * m) * m
        rows.append(row)
    return rows, den


def brute_force_polynomial_solutions(ode: AuxiliaryODE, d: int) -> List[Poly]:
    """Exact basis of degree <= d polynomial solutions (possibly empty).

    Solves every residual row of the ansatz sum lam_k x^k, the integer rows
    of :func:`candidate_rows` (their common factor den leaves the solutions
    alone), by fraction-free elimination in integers.
    """
    rows, _ = candidate_rows(ode, d)
    return [Poly(vec) for vec in nullspace(rows)]


# ---------------------------------------------------------------------------
# homotopic z-power substitution
# ---------------------------------------------------------------------------


def homotopic_shift_params(h: HeunForm, m: int) -> HeunForm:
    """Parameters after P = z^m P1; for m = 1 + c this preserves the class."""
    return HeunForm(
        a=h.a,
        b=h.b + 2 * m,
        c=h.c - 2 * m,
        d=h.d + m * (m - 1) + m * h.b,
        e=h.e + m * h.a,
    )


class HomotopyReport(NamedTuple):
    samples: tuple
    parameter_maps_ok: bool
    operator_identities_ok: bool


def homotopic_equivalence_check() -> HomotopyReport:
    """Exact equivalences G7 -> G3 (P = z^4 P1) and E7 -> E3 (P = z^2 P1).

    For each sampled mode, l in (2, 3) and s in (1, 2, 7/3), the
    substitution identity R_orig(z^m q) = z^m R_mapped(q) is applied to
    the monomials q = z^k, k = 0..8, and the mapped parameter tuple is
    compared with the target family's confluent Heun form.
    """
    pairs = [
        (family_equation(orig), family_equation(target), m)
        for orig, target, m in (("G7", "G3", 4), ("E7", "E3", 2))
    ]
    z_powers = [Poly.monomial(k) for k in range(max(m for *_, m in pairs) + 9)]
    params_ok = True
    identities_ok = True
    samples = []
    for l in (2, 3):
        for s in (1, 2, Fraction(7, 3)):
            for orig_eq, target_eq, m in pairs:
                orig = to_heun_form(orig_eq.at(l, s))
                target = to_heun_form(target_eq.at(l, s))
                if m != 1 + orig.c:
                    raise AssertionError("substitution power must be 1 + c")
                params_ok &= homotopic_shift_params(orig, m) == target
                images = zip(orig.apply(z_powers[m : m + 9]), target.apply(z_powers[:9]))
                identities_ok &= all(p == z_powers[m] * q for p, q in images)
            samples.append((l, Fraction(s)))
    return HomotopyReport(
        samples=tuple(samples),
        parameter_maps_ok=params_ok,
        operator_identities_ok=identities_ok,
    )
