"""Master-equation data for Schwarzschild perturbations.

The radial equation for a perturbation of kind beta (gravitational -3,
electromagnetic 0, scalar 1) in Schrodinger form y'' = nu(r) y has

    nu(r) = [ (s^2/4) r^4 + l(l+1) r^2 + 2(beta - l(l+1) - 1) r + 3 - 4 beta ]
            / ( r^2 (r-2)^2 )

with the black-hole mass scaled to 1 (a rescaling of r and s makes this
lossless; multiply r by M and divide s by M to restore general M).  The
frequency parameter s = 2 i sigma is carried as an exact rational; nu is
invariant under s -> -s so only s >= 0 matters.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import NamedTuple

from .algebra import Poly, Rational

__all__ = [
    "PerturbationKind",
    "NuFraction",
    "UsageError",
    "build_nu",
    "partial_fractions",
    "special_frequency",
]


class UsageError(ValueError):
    """An argument that no run accepts, refused where it is used and before
    any work: ``bhk`` exits 2 on it, and 1 on any other ValueError."""


class PerturbationKind(enum.Enum):
    """A perturbation kind; its value is beta.

    Each member also carries, as plain attributes, ``min_l``, its lowest
    radiating multipole (quadrupole / dipole / monopole), and ``prefix``,
    the first letter of its family labels (G, E or S).
    """

    GRAVITATIONAL = (-3, 2, "G")
    ELECTROMAGNETIC = (0, 1, "E")
    SCALAR = (1, 0, "S")

    def __new__(cls, beta: int, min_l: int, prefix: str):
        member = object.__new__(cls)
        member._value_ = beta
        member.min_l = min_l
        member.prefix = prefix
        return member

    @property
    def beta(self) -> int:
        return self.value

    @property
    def sqrt_one_minus_beta(self) -> int:
        """sqrt(1 - beta), an integer for all three kinds (2, 1, 0)."""
        return math.isqrt(1 - self.value)

    @staticmethod
    def from_label(label: str) -> "PerturbationKind":
        """The kind a family label such as "G3" or "N2E5" belongs to."""
        return _KIND_BY_PREFIX[label.removeprefix("N2")[:1]]

    @staticmethod
    def from_name(name: str) -> "PerturbationKind":
        key = name.strip().lower()
        aliases = {
            "gravitational": PerturbationKind.GRAVITATIONAL,
            "grav": PerturbationKind.GRAVITATIONAL,
            "em": PerturbationKind.ELECTROMAGNETIC,
            "electromagnetic": PerturbationKind.ELECTROMAGNETIC,
            "scalar": PerturbationKind.SCALAR,
        }
        if key not in aliases:
            raise UsageError(f"unknown perturbation kind: {name!r}")
        return aliases[key]


_KIND_BY_PREFIX = {kind.prefix: kind for kind in PerturbationKind}


class NuFraction(NamedTuple):
    """Partial fractions of nu over r^2 (r-2)^2, each coefficient a Poly in s.

    nu = const_term + inv_r2/r^2 + inv_r/r + inv_rm2_sq/(r-2)^2 + inv_rm2/(r-2)
    """

    const_term: Poly
    inv_r2: Poly
    inv_r: Poly
    inv_rm2_sq: Poly
    inv_rm2: Poly


def build_nu(kind: PerturbationKind, l: int, s: Rational) -> tuple:
    """Exact (numerator, denominator) of nu for the mode (kind, l, s)."""
    L, beta = l * (l + 1), kind.beta
    numerator = Poly([3 - 4 * beta, 2 * (beta - L - 1), L, 0, Fraction(s) ** 2 / 4])
    denominator = Poly([0, 0, 4, -4, 1])  # r^2 (r-2)^2
    return numerator, denominator


def partial_fractions(kind: PerturbationKind, l: int) -> NuFraction:
    """The one statement of nu's partial-fraction coefficients, with s symbolic.

    The double-pole coefficients fix Kovacic's exponent sets; the simple-pole
    ones enter the auxiliary equation.
    """
    L, beta = l * (l + 1), kind.beta
    s2 = Poly.monomial(2)  # s^2
    return NuFraction(
        const_term=s2 * Fraction(1, 4),
        inv_r2=Poly.const(Fraction(3 - 4 * beta, 4)),
        inv_r=Poly.const(Fraction(-2 * beta - 2 * L + 1, 4)),
        inv_rm2_sq=s2 - Fraction(1, 4),
        inv_rm2=s2 + Fraction(2 * L + 2 * beta - 1, 4),
    )


def special_frequency(l: int) -> Rational:
    """Algebraically special s = l(l-1)(l+1)(l+2)/6 for radiating gravitational modes."""
    if l < 2:
        raise UsageError(f"l must be at least 2, not {l}")
    return Fraction(l * (l - 1) * (l + 1) * (l + 2), 6)
