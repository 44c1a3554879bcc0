"""Exact rational scalars and dense univariate polynomial arithmetic.

Rationals are ``fractions.Fraction`` throughout: always reduced, positive
denominator, canonical zero.  A :class:`Poly` is a dense coefficient vector
over Fraction, index = power, with a nonzero leading coefficient (the zero
polynomial is the empty vector).  Everything is immutable and every
operation is exact; equality of polynomials is the arbiter in all
verification code built on top of this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Rational = Fraction

__all__ = [
    "Rational",
    "Poly",
    "rat_from_str",
    "rat_to_str",
    "horner",
    "falling_factorial",
    "pochhammer",
    "poly_gcd",
    "rational_roots",
]


def rat_from_str(text: str) -> Rational:
    """Parse the wire format ``"num/den"`` or ``"num"``."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def rat_to_str(value: Rational) -> str:
    """Serialize to ``"num/den"``, or ``"num"`` when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def horner(coeffs: Sequence, x, zero=0):
    """sum coeffs[i] * x**i by Horner's rule; ring-neutral (int, Fraction, Poly)."""
    acc = zero
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def falling_factorial(x: Rational, k: int) -> Rational:
    """x(x-1)...(x-k+1), exact; covers the generalized binomial coefficient."""
    acc = Fraction(1)
    for i in range(k):
        acc *= x - i
    return acc


def pochhammer(x: Rational, k: int) -> Rational:
    """Rising factorial (x)_k = x(x+1)...(x+k-1)."""
    acc = Fraction(1)
    for i in range(k):
        acc *= x + i
    return acc


class Poly:
    """Dense univariate polynomial over Fraction.

    Coefficients are stored little-endian (``coeffs[k]`` multiplies x**k)
    with trailing zeros stripped; ``Poly([])`` is the zero polynomial and
    has degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple = tuple(cs)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly(())

    @staticmethod
    def one() -> "Poly":
        return Poly((1,))

    @staticmethod
    def x() -> "Poly":
        return Poly((0, 1))

    @staticmethod
    def monomial(power: int, coeff=1) -> "Poly":
        return Poly([0] * power + [coeff])

    @staticmethod
    def const(value) -> "Poly":
        return Poly((Fraction(value),))

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, k: int) -> Rational:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def leading(self) -> Rational:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[k] + other[k] for k in range(n)])

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other) -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Poly":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        other = self._coerce(other)
        if self.is_zero() or other.is_zero():
            return Poly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divmod(self, other: "Poly") -> tuple:
        """Exact division with remainder over the rationals."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        dlead = other.leading()
        dd = other.degree
        while len(rem) - 1 >= dd and rem:
            k = len(rem) - 1 - dd
            factor = rem[-1] / dlead
            quo[k] = factor
            for j, b in enumerate(other.coeffs):
                rem[k + j] -= factor * b
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly(quo), Poly(rem)

    @staticmethod
    def _coerce(value) -> "Poly":
        if isinstance(value, Poly):
            return value
        if isinstance(value, (int, Fraction)):
            return Poly.const(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to Poly")

    # -- calculus and substitutions ----------------------------------------

    def derivative(self) -> "Poly":
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def eval(self, x) -> Rational:
        """Exact Horner evaluation."""
        return horner(self.coeffs, x, Fraction(0))

    def shift(self, c) -> "Poly":
        """Return q with q(x) = p(x + c); the basis change between frames.

        Horner form: p(x+c) is accumulated as (((a_n)(x+c) + a_{n-1})...).
        """
        c = Fraction(c)
        if c == 0:
            return self
        acc = Poly.zero()
        lin = Poly((c, 1))
        for a in reversed(self.coeffs):
            acc = acc * lin + Poly.const(a)
        return acc

    def scale_variable(self, a) -> "Poly":
        """Return q with q(x) = p(a*x)."""
        a = Fraction(a)
        power = Fraction(1)
        out = []
        for ck in self.coeffs:
            out.append(ck * power)
            power *= a
        return Poly(out)

    def content_primitive(self) -> tuple:
        """(content, primitive integer coefficient list); primitive has gcd 1."""
        if self.is_zero():
            return Fraction(0), []
        den = 1
        for c in self.coeffs:
            den = den * c.denominator // math.gcd(den, c.denominator)
        ints = [int(c * den) for c in self.coeffs]
        g = 0
        for v in ints:
            g = math.gcd(g, v)
        ints = [v // g for v in ints]
        sign = 1 if ints[-1] > 0 else -1
        return Fraction(g * sign, den), [v * sign for v in ints]

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(rat_to_str(c))
            elif k == 1:
                parts.append(f"{rat_to_str(c)}*x")
            else:
                parts.append(f"{rat_to_str(c)}*x^{k}")
        return "Poly(" + " + ".join(parts) + ")"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over the rationals (plain Euclid; no field towers)."""
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r
    if a.is_zero():
        return a
    return a * (Fraction(1) / a.leading())


def rational_roots(p: Poly) -> list:
    """All rational roots of p, each listed once, ascending.

    Rational root theorem on the primitive integer form, then exact
    verification by evaluation.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has every rational as a root")
    _, ints = p.content_primitive()
    # strip x^k factors: root 0
    roots = []
    k0 = 0
    while ints[k0] == 0:
        k0 += 1
    if k0 > 0:
        roots.append(Fraction(0))
        ints = ints[k0:]
    if len(ints) == 1:
        return sorted(roots)
    a0, an = abs(ints[0]), abs(ints[-1])
    for q in _divisors(an):
        for pnum in _divisors(a0):
            for cand in (Fraction(pnum, q), Fraction(-pnum, q)):
                if cand not in roots and p.eval(cand) == 0:
                    roots.append(cand)
    return sorted(roots)


def _divisors(n: int) -> list:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)
