"""Kovacic's algorithm, steps 1-3, specialized to the master equation.

The pole structure of nu is the same for every mode: double poles at r=0
and r=2, and order 0 at infinity for s != 0, since nu -> s^2/4 there (in
Kovacic's convention the order at infinity is the degree of the
denominator minus that of the numerator).  Case 3 needs an order of at
least 2 at infinity, so the admissible algebraic degrees are n in {1, 2}.
For n=1 the exponent sets are the roots of e(e-1) = the double-pole
coefficients of :func:`~bhkovacic.master.partial_fractions`,
and they produce the candidate families G1..G8 / E1..E8 / S1..S4 with
degree forms d = 1 - sum(e_c), an affine function of the frequency
parameter s.  For n=2 the integrality and parity rules empty the
candidate list outright.

The tables depend on the perturbation kind alone: the frequency s stays
symbolic through enumeration, every exponent, degree form and theta
coefficient being a :class:`~bhkovacic.algebra.Poly` in s of degree <= 1
(printed by :func:`affine_str`), and l and a concrete rational s enter
only when a family's auxiliary equation is evaluated
(:meth:`~bhkovacic.auxode.FamilyEquation.at`).
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .algebra import Poly, Rational, rat_to_str
from .master import PerturbationKind

__all__ = [
    "affine_str",
    "Family",
    "ThetaSpec",
    "RetentionResult",
    "exponent_sets_n1",
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


S = Poly.x()  # the symbol s itself


class Family(NamedTuple):
    """One candidate exponent assignment (e0, e2, einf) with its degree form."""

    label: str
    e0: Poly  # each a Poly in s of degree <= 1
    e2: Poly
    einf: Poly
    degree: Poly  # d = n - (n/h(n)) * sum(e_c)
    n: int = 1
    sign_inf: int = 0  # S(einf); only meaningful for n=1

    @property
    def kind(self) -> PerturbationKind:
        return PerturbationKind.from_label(self.label)


class ThetaSpec(NamedTuple):
    """theta = c0/r + c2/(r-2) + cinf, the logarithmic derivative ansatz."""

    c0: Poly  # each a Poly in s of degree <= 1
    c2: Poly
    cinf: Poly


def exponent_sets_n1(kind: PerturbationKind) -> tuple:
    """Step 2 for n=1: exponent sets at r=0, r=2 and infinity.

    E0 = {1/2 +- sqrt(1-beta)} (one element when beta=1), E2 = {1/2 +- s},
    Einf = {1-s, 1+s} with sign map S(1-s)=+1, S(1+s)=-1.
    """
    root = kind.sqrt_one_minus_beta
    half = Fraction(1, 2)
    if root == 0:
        e0_set = (Poly.const(half),)
    else:
        e0_set = (Poly.const(half + root), Poly.const(half - root))
    e2_set = (half + S, half - S)
    einf_set = (1 - S, 1 + S)
    sign_map = {einf_set[0]: +1, einf_set[1]: -1}
    return e0_set, e2_set, einf_set, sign_map


def enumerate_families_n1(kind: PerturbationKind) -> list:
    """Step 3a for n=1: all exponent families, in table row order.

    Row order: e0 descending, then e2 with +s before -s, then einf with
    1-s before 1+s; degree d = 1 - (e0 + e2 + einf).
    """
    e0_set, e2_set, einf_set, sign_map = exponent_sets_n1(kind)
    prefix = kind.prefix
    families = []
    index = 1
    for e0 in e0_set:
        for e2 in e2_set:
            for einf in einf_set:
                degree = 1 - (e0 + e2 + einf)
                families.append(
                    Family(
                        label=f"{prefix}{index}",
                        e0=e0,
                        e2=e2,
                        einf=einf,
                        degree=degree,
                        n=1,
                        sign_inf=sign_map[einf],
                    )
                )
                index += 1
    return families


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
    families are decided by solving the degree-0/1 polynomial conditions
    exactly (s kept unknown where the degree form leaves it free), for
    every angular index up to ``l_max``: a family with an admissible
    s > 0 solution is retained, the rest are reported as checked marginal
    families.  An ``l_max`` below a marginal family's lowest multipole
    would check nothing for it and raises ValueError.
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
            if d > 1:
                raise NotImplementedError(f"marginal degree {d} > 1 for {family.label}")
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
    """Step 3c: theta = e0/r + e2/(r-2) + S(einf) * s/2 for a retained n=1 family."""
    if family.n != 1:
        raise ValueError("theta is formed only on the n=1 branch")
    if family.sign_inf not in (+1, -1):
        raise ValueError(f"family {family.label} carries no sign at infinity")
    return ThetaSpec(c0=family.e0, c2=family.e2, cinf=S * Fraction(family.sign_inf, 2))


def enumerate_families_n2(kind: PerturbationKind) -> tuple:
    """Step 2-3 for n=2: candidates and the (empty) retained list.

    E0 = {2 - 4 sqrt(1-beta), 2, 2 + 4 sqrt(1-beta)} intersected with the
    integers, E2 = {2-4s, 2, 2+4s} subject to 4s integral, Einf = {4};
    d = 2 - sum(e_c)/2.  Retention demands at least two odd exponents in a
    family; e0 and einf are always even and at most e2 can be odd, so every
    candidate is discarded, for all three kinds and every admissible s.
    """
    root = kind.sqrt_one_minus_beta
    if root == 0:
        e0_set = (Poly.const(2),)
    else:
        e0_set = (Poly.const(2 - 4 * root), Poly.const(2), Poly.const(2 + 4 * root))
    e2_set = (2 - 4 * S, Poly.const(2), 2 + 4 * S)
    einf = Poly.const(4)
    prefix = kind.prefix
    candidates = []
    index = 1
    for e0 in e0_set:
        for e2 in e2_set:
            degree = 2 - (e0 + e2 + einf) * Fraction(1, 2)
            candidates.append(
                Family(
                    label=f"N2{prefix}{index}",
                    e0=e0,
                    e2=e2,
                    einf=einf,
                    degree=degree,
                    n=2,
                )
            )
            index += 1
    retained = [f for f in candidates if _n2_retained(f)]
    return candidates, retained


def _odd_constant(e: Poly) -> bool:
    return e.degree <= 0 and e[0].denominator == 1 and e[0].numerator % 2 != 0


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
