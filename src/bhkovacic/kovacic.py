"""Kovacic's algorithm, steps 1-3, specialized to the master equation.

The pole structure of nu is the same for every mode: double poles at r=0
and r=2, and order 0 at infinity for s != 0, since nu -> s^2/4 there (in
Kovacic's convention the order at infinity is the degree of the
denominator minus that of the numerator).  Case 3 needs an order of at
least 2 at infinity, so the admissible algebraic degrees are n in {1, 2}.
:func:`exponent_sets` reads the sets for both off
:func:`~bhkovacic.master.partial_fractions` (Kovacic 1986, sections 3-4):
nu's double-pole coefficients, [sqrt(nu)]_inf = s/2 and its 1/r
coefficient at infinity.  One loop makes them the candidate families
G1..G8 / E1..E8 / S1..S4 and N2G1.., with degree forms affine in the
frequency parameter s; for n=2 the parity rule empties the retained list.

The tables depend on the perturbation kind alone: the frequency s stays
symbolic through enumeration, every exponent, degree form and theta
coefficient being a :class:`~bhkovacic.algebra.Poly` in s of degree <= 1
(printed by :func:`affine_str`), and l and a concrete rational s enter
only when a family's auxiliary equation is evaluated
(:meth:`~bhkovacic.auxode.FamilyEquation.at`).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .algebra import Poly, Rational, rat_to_str
from .master import PerturbationKind, partial_fractions

__all__ = [
    "affine_str",
    "Family",
    "ThetaSpec",
    "RetentionResult",
    "exponent_sets",
    "enumerate_families_n1",
    "family_by_label",
    "retain_families",
    "theta",
    "enumerate_families_n2",
]


def affine_str(p: Poly) -> str:
    """Print a + b*s as the family tables do: "1/2 - s", "-2*s", "1/2*s", "4"."""
    if p.degree > 1:
        raise ValueError(f"{p!r} is not affine in s")
    a, b = p[0], p[1]
    if b == 0:
        return rat_to_str(a)
    if b == 1:
        bs = "s"
    elif b == -1:
        bs = "-s"
    else:
        bs = f"{rat_to_str(b)}*s"
    if a == 0:
        return bs
    sign = "+" if b > 0 else "-"
    mag = bs.lstrip("-")
    return f"{rat_to_str(a)} {sign} {mag}"


class Family(NamedTuple):
    """One candidate exponent assignment (e0, e2, einf) with its degree form."""

    label: str
    e0: Poly  # each a Poly in s of degree <= 1
    e2: Poly
    einf: Poly
    degree: Poly  # d = n - (n/h(n)) * sum(e_c)
    n: int
    sign_inf: int  # S(einf): +1 or -1 for n=1, 0 for n=2

    @property
    def kind(self) -> PerturbationKind:
        return PerturbationKind.from_label(self.label)


class ThetaSpec(NamedTuple):
    """theta = c0/r + c2/(r-2) + cinf, the logarithmic derivative ansatz."""

    c0: Poly  # each a Poly in s of degree <= 1
    c2: Poly
    cinf: Poly


def _exact_root(p: Poly) -> Poly:
    """The square root c*s^k (c >= 0 rational) of p; any other p raises
    ArithmeticError, so no exponent is built on an inexact root."""
    if not p:
        return p
    k, odd = divmod(p.degree, 2)
    top, den = p.num[-1], p.den
    root_top, root_den = math.isqrt(max(top, 0)), math.isqrt(den)
    if odd or any(p.num[:-1]) or root_top**2 != top or root_den**2 != den:
        raise ArithmeticError(f"{p!r} is not the square of c*s^k")
    return Poly.from_numerators([0] * k + [root_top], root_den)


# n -> (base, steps, h(n)): at a double pole, Kovacic's exponents are
# base + k*sqrt(1 + 4b) for k in steps, in table row order
_CASES = {1: (Fraction(1, 2), (Fraction(1, 2), Fraction(-1, 2)), 1), 2: (2, (-2, 0, 2), 4)}


def exponent_sets(kind: PerturbationKind, n: int) -> tuple:
    """Step 2 for n in {1, 2}: the exponent sets (E0, E2, Einf) read off nu.

    At r = 0 and r = 2, with r_c = sqrt(1 + 4b_c) exact (else ArithmeticError)
    for the double-pole coefficient b_c: 1/2 + r_c/2, 1/2 - r_c/2 for n=1 and
    2 - 2r_c, 2, 2 + 2r_c for n=2, equal members once.  Einf holds
    (einf, S(einf)) pairs: 1 - alpha and 1 + alpha with signs +1 and -1 for
    n=1, alpha = b/(2[sqrt(nu)]_inf) with b nu's 1/r coefficient at infinity;
    4 - o(inf) = 4 with sign 0 for n=2.
    """
    base, steps, _ = _CASES[n]
    nu = partial_fractions(kind, kind.min_l)

    def at_pole(b: Poly) -> tuple:
        r = _exact_root(1 + 4 * b)
        return tuple(base + k * r for k in (steps if r else (0,)))

    if n == 1:
        root = _exact_root(nu.const_term)  # [sqrt(nu)]_inf = c*s^k
        b, k = nu.inv_r + nu.inv_rm2, root.degree
        if not root or any(b.num[:k]):
            raise ArithmeticError(f"{root!r} does not divide {b!r}")
        alpha = Poly.from_numerators([v * root.den for v in b.num[k:]], 2 * root.num[-1] * b.den)
        einf_set = ((1 - alpha, +1), (1 + alpha, -1))
    else:
        einf_set = ((Poly.const(4), 0),)
    return at_pole(nu.inv_r2), at_pole(nu.inv_rm2_sq), einf_set


def _families(kind: PerturbationKind, n: int) -> list:
    """Step 3a: every (e0, e2, einf) of the sets, e0 outermost, with its
    degree form d = n - (n/h(n)) * sum(e_c), labelled in that order."""
    e0_set, e2_set, einf_set = exponent_sets(kind, n)
    weight = Fraction(n, _CASES[n][2])
    prefix = kind.prefix if n == 1 else f"N2{kind.prefix}"
    weighted_e2 = [(e2, e2 * weight) for e2 in e2_set]
    weighted_inf = [(einf, sign, einf * weight) for einf, sign in einf_set]
    families = []
    for e0 in e0_set:
        d0 = n - e0 * weight
        for e2, w2 in weighted_e2:
            d02 = d0 - w2
            for einf, sign, w_inf in weighted_inf:
                label = f"{prefix}{len(families) + 1}"
                families.append(Family(label, e0, e2, einf, d02 - w_inf, n, sign))
    return families


def enumerate_families_n1(kind: PerturbationKind) -> list:
    """Step 3a for n=1: all exponent families, in table row order."""
    return _families(kind, 1)


# bounded: only the twenty n=1 labels are ever cached, a miss raises
@functools.lru_cache(maxsize=None)
def family_by_label(label: str) -> Family:
    """Look up an n=1 family by its table label."""
    for fam in enumerate_families_n1(PerturbationKind.from_label(label)):
        if fam.label == label:
            return fam
    raise KeyError(f"no n=1 family labelled {label}")


class MarginalCheck(NamedTuple):
    """One (l, s, d) verdict of the fixed-degree check on a marginal family.

    ``s`` is None when the degree form leaves the frequency free and the
    solver searched over it.
    """

    family: Family
    l: int
    s: Optional[Rational]
    d: int
    solutions: tuple  # (s, Poly) pairs found by the fixed-degree solver


class RetentionResult:
    def __init__(self):
        self.retained: list = []
        self.marginal: list = []  # MarginalCheck entries
        self.discarded: list = []

    @property
    def retained_labels(self) -> list:
        return [f.label for f in self.retained]


def _marginal_points(family: Family):
    """Non-negative (s, d) pairs reachable by a bounded-degree family.

    d = a + b*s with b <= 0: for b == 0 the degree is fixed and s is free
    (reported as s=None); for b < 0 only finitely many s >= 0 give integer
    d >= 0.  A degree that grows with s (b > 0) reaches every d, so it is
    refused rather than listed.
    """
    a, b = family.degree[0], family.degree[1]
    if b > 0:
        raise ValueError(f"the degree of {family.label} grows with s: no finite list")
    if b == 0:
        if a.denominator == 1 and a >= 0:
            return [(None, int(a))]
        return []
    points = []
    d = 0
    while True:
        s = (Fraction(d) - a) / b
        if s < 0:
            break
        points.append((s, d))
        d += 1
    return points


def retain_families(families: Sequence[Family], l_max: int = 12) -> RetentionResult:
    """Step 3b retention with the fixed-degree checks resolved.

    A family whose degree form can grow with s is retained outright.  A
    family with d < 0 for every s >= 0 is discarded.  The bounded-degree
    families are decided by solving the candidate system of each fixed
    degree d exactly (:func:`~bhkovacic.auxode.solve_low_degree`, s kept
    unknown where the degree form leaves it free), for every angular index
    up to ``l_max``: a family with an admissible s > 0 solution is
    retained, the rest are reported as checked marginal families.  An
    ``l_max`` below a marginal family's lowest multipole would check
    nothing for it and raises ValueError.
    """
    from .auxode import family_equation, solve_low_degree  # deciding verdicts needs the ODEs

    result = RetentionResult()
    for family in families:
        b = family.degree[1]
        if b > 0:
            result.retained.append(family)
            continue
        points = _marginal_points(family)
        if not points:
            result.discarded.append(family)
            continue
        if l_max < family.kind.min_l:
            raise ValueError(
                f"l_max = {l_max} checks no l of {family.label} (l >= {family.kind.min_l})"
            )
        eq = family_equation(family.label)
        found_any = False
        for s_value, d in points:
            for l in range(family.kind.min_l, l_max + 1):
                solutions = solve_low_degree(eq, d, l=l, s_fixed=s_value)
                result.marginal.append(
                    MarginalCheck(
                        family=family, l=l, s=s_value, d=d, solutions=tuple(solutions)
                    )
                )
                if solutions:
                    found_any = True
        if found_any:
            result.retained.append(family)
    return result


def theta(family: Family) -> ThetaSpec:
    """Step 3c: theta = e0/r + e2/(r-2) + S(einf) * [sqrt(nu)]_inf for a
    retained n=1 family, [sqrt(nu)]_inf = s/2 read off the same nu."""
    if family.n != 1:
        raise ValueError("theta is formed only on the n=1 branch")
    root = _exact_root(partial_fractions(family.kind, family.kind.min_l).const_term)
    return ThetaSpec(c0=family.e0, c2=family.e2, cinf=root * family.sign_inf)


def enumerate_families_n2(kind: PerturbationKind) -> tuple:
    """Step 2-3 for n=2: candidates and the (empty) retained list.

    The sets are those of :func:`exponent_sets` with einf = 4, and
    d = 2 - sum(e_c)/2.  Retention demands at least two odd exponents in a
    family; e0 and einf are always even and at most e2 can be odd, so every
    candidate is discarded, for all three kinds and every admissible s.
    """
    candidates = _families(kind, 2)
    return candidates, [f for f in candidates if _n2_retained(f)]


def _odd_constant(e: Poly) -> bool:
    return e.degree == 0 and e.den == 1 and e.num[0] % 2 != 0


def _n2_retained(family: Family) -> bool:
    # retention needs at least two odd-integer exponents; e0 and einf are
    # even constants, so even granting e2 = 2 +- 4s odd status (possible
    # when 4s is an odd integer) the odd count tops out at one
    odd = sum(_odd_constant(e) for e in (family.e0, family.einf))
    if family.e2.degree <= 0:
        odd += _odd_constant(family.e2)
    else:
        odd += 1
    return odd >= 2
