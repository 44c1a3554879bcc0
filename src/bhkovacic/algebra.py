"""Exact rational scalars and dense univariate polynomial arithmetic.

Rationals are ``fractions.Fraction`` throughout: always reduced, positive
denominator, canonical zero.  A :class:`Poly` is an integer numerator
vector over one positive denominator, index = power, in canonical form
(the representation of FLINT's ``fmpq_poly``), so that its arithmetic runs
on plain integers with one normalisation per operation.  The normalisation
(:meth:`Poly.from_numerators`, and the product by a scalar) checks a
candidate content by its exact divisions instead of chaining one gcd per
coefficient: the content divides every integer combination of the
numerators, so a gcd of a few of them is a multiple of it, and one that
divides every numerator is the content itself (von zur Gathen and
Gerhard, *Modern Computer Algebra*, ch. 6).  A substitution x -> c x
knows more: the content it creates has only primes of c's numerator and
denominator, so :meth:`Poly.scale_variable` cancels it against the powers
of c as it builds them, and no full-size numerator is divided by it.
Everything is immutable and every operation is exact; equality of
polynomials is the arbiter in all verification code built on top of this
module.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Optional, Sequence

Rational = Fraction

__all__ = [
    "Rational",
    "Poly",
    "rat_from_str",
    "rat_to_str",
    "int_to_str",
    "horner",
    "rational_roots",
]


def rat_from_str(text: str) -> Rational:
    """Parse the wire format ``"num/den"`` or ``"num"``, of any size."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(_int_from_str(num), _int_from_str(den))
    return Fraction(_int_from_str(text))


def _int_from_str(text: str) -> int:
    """The inverse of :func:`int_to_str`.

    ``int`` refuses more digits than ``sys.get_int_max_str_digits()``; such
    a run of decimal digits is split into a high and a low half, parsed
    each, and joined as high * 10**k + low.
    """
    try:
        return int(text)
    except ValueError:
        digits = text.strip()
        negative = digits[:1] == "-"
        digits = digits[1:] if digits[:1] in ("-", "+") else digits
        if len(digits) < 2 or not (digits.isascii() and digits.isdigit()):
            raise
    k = len(digits) // 2
    value = _int_from_str(digits[:-k]) * 10**k + _int_from_str(digits[-k:])
    return -value if negative else value


def int_to_str(n: int) -> str:
    """The decimal digits of an integer of any size.

    ``str`` refuses an int of more than ``sys.get_int_max_str_digits()``
    digits (4,300 by default since CPython 3.11); such an n is split by a
    power of ten into two parts of about half its digits each.
    """
    try:
        return str(n)
    except ValueError:
        pass
    if n < 0:
        return "-" + int_to_str(-n)
    k = n.bit_length() * 3 // 20  # about half of n's digits: log10(2) > 0.3
    high, low = divmod(n, 10**k)
    return int_to_str(high) + int_to_str(low).zfill(k)


def rat_to_str(value: Rational) -> str:
    """Serialize to ``"num/den"``, or ``"num"`` when the denominator is 1."""
    if value.denominator == 1:
        return int_to_str(value.numerator)
    return f"{int_to_str(value.numerator)}/{int_to_str(value.denominator)}"


def horner(coeffs: Sequence, x):
    """sum coeffs[i] * x**i by Horner's rule; ring-neutral (int, Fraction, Poly)."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class Poly:
    """Dense univariate polynomial over the rationals, integer-primitive.

    p(x) = sum(num[k] x**k) / den with integer ``num`` (little-endian) and
    integer ``den`` in canonical form: den > 0, gcd(den, *num) = 1, no
    trailing zero, and the zero polynomial is ``((), 1)`` with degree -1.
    Equal polynomials therefore have equal ``(num, den)``.  ``coeffs``
    gives the coefficients as a tuple of Fraction.
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs: Iterable):
        cs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        # reduced rationals over the lcm of their denominators share no
        # factor with it, so this form is canonical once zeros are stripped
        den = math.lcm(*(c.denominator for c in cs))
        if den == 1:
            num = [c.numerator for c in cs]
        else:
            num = [c.numerator * (den // c.denominator) for c in cs]
        while num and not num[-1]:
            num.pop()
        self.num: tuple = tuple(num)
        self.den: int = den if num else 1

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_numerators(cls, num: Iterable, den: int) -> "Poly":
        """The polynomial sum(num[k] x**k) / den, for integers num[k] and den != 0.

        A list passed as ``num`` is normalised in place, so that a large
        vector is held once; pass a copy to keep the original list.

        The content gcd(den, *num) is divided out by :func:`_divide_content`.
        """
        if not isinstance(num, list):
            num = list(num)
        while num and not num[-1]:
            num.pop()
        if not num:
            return cls._canonical(num, 1)
        if den < 0:
            den = -den
            for i, v in enumerate(num):
                num[i] = -v
        return cls._canonical(num, den // _divide_content(num, den))

    @classmethod
    def _canonical(cls, num, den: int) -> "Poly":
        """Wrap a numerator vector that is already in canonical form."""
        p = object.__new__(cls)
        p.num = tuple(num)
        p.den = den
        return p

    @staticmethod
    def zero() -> "Poly":
        return Poly._canonical((), 1)

    @staticmethod
    def one() -> "Poly":
        return Poly._canonical((1,), 1)

    @staticmethod
    def x() -> "Poly":
        return Poly._canonical((0, 1), 1)

    @staticmethod
    def monomial(power: int) -> "Poly":
        return Poly._canonical((0,) * power + (1,), 1)

    @staticmethod
    def const(value) -> "Poly":
        # a reduced rational is already the canonical (num, den) of its constant
        c = value if isinstance(value, (int, Fraction)) else Fraction(value)
        return Poly._canonical((c.numerator,), c.denominator) if c else Poly.zero()

    # -- basic queries -----------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Fractions, lowest power first."""
        den = self.den
        return tuple(Fraction(v, den) for v in self.num)

    @property
    def degree(self) -> int:
        return len(self.num) - 1

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def __getitem__(self, k: int) -> Rational:
        if 0 <= k < len(self.num):
            return Fraction(self.num[k], self.den)
        return Fraction(0)

    def leading(self) -> Rational:
        if not self.num:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.num[-1], self.den)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(other)
        return NotImplemented

    def __hash__(self):
        # a constant equals the rational it holds, so it hashes as that rational
        if len(self.num) <= 1:
            return hash(self[0])
        return hash((self.num, self.den))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Poly":
        return _combine(self, self._coerce(other), 1)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._canonical([-v for v in self.num], self.den)

    def __sub__(self, other) -> "Poly":
        return _combine(self, self._coerce(other), -1)

    def __rsub__(self, other) -> "Poly":
        return _combine(self._coerce(other), self, -1)

    def __mul__(self, other) -> "Poly":
        # Gauss's lemma: the content of a product is the product of the
        # contents, so cancelling each content against the other factor's
        # denominator leaves the canonical form with no full-size gcd
        if isinstance(other, (int, Fraction)):
            if not other or not self.num:
                return Poly.zero()
            n, d = other.numerator, other.denominator
            g1 = math.gcd(n, self.den)
            n //= g1
            num = list(self.num)
            if d != 1:
                d //= _divide_content(num, d)
            if n != 1:
                num = [v * n for v in num]
            return Poly._canonical(num, self.den // g1 * d)
        other = self._coerce(other)
        a, b = self.num, other.num
        if not a or not b:
            return Poly.zero()
        g1, g2 = math.gcd(other.den, *a), math.gcd(self.den, *b)
        den = self.den // g2 * (other.den // g1)
        if g1 != 1:
            a = tuple(v // g1 for v in a)
        if g2 != 1:
            b = tuple(v // g2 for v in b)
        if len(a) < len(b):
            a, b = b, a
        # out[k] = sum_j b[j] a[k-j], one output coefficient at a time, so
        # that no partial sum vector is held beside the result
        width = len(b)
        pad = (0,) * (width - 1)
        padded = pad + a + pad
        rb = b[::-1]
        out = [sum(map(operator.mul, rb, padded[k : k + width])) for k in range(len(a) + width - 1)]
        return Poly._canonical(out, den)

    __rmul__ = __mul__

    def divmod(self, other: "Poly") -> tuple:
        """Exact division with remainder over the rationals."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(0, len(rem) - len(other.num) + 1)
        divisor = other.coeffs
        dlead = divisor[-1]
        dd = other.degree
        while len(rem) - 1 >= dd and rem:
            k = len(rem) - 1 - dd
            factor = rem[-1] / dlead
            quo[k] = factor
            for j, b in enumerate(divisor):
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
        num = self.num
        return Poly.from_numerators([k * num[k] for k in range(1, len(num))], self.den)

    def eval(self, x) -> Rational:
        """Exact value at a rational x = a/b: Horner on p(a/b) b^n in integers."""
        x = Fraction(x)
        a, b = x.numerator, x.denominator
        acc, bpow = 0, 1
        for v in reversed(self.num):
            acc = acc * a + v * bpow
            bpow *= b
        return Fraction(acc * b, self.den * bpow)  # bpow = b^(n+1)

    def shift(self, c) -> "Poly":
        """Return q with q(x) = p(x + c); the basis change between frames.

        With c = a/b and t(y) = b^n den p(y/b), which has the integer
        coefficients num[k] b^(n-k), q(x) = t(b x + a) / (b^n den): a Taylor
        shift of t by the integer a, accumulated in Horner form, then
        coefficient k times b^k.
        """
        c = Fraction(c)
        if c == 0 or not self.num:
            return self
        a, b = c.numerator, c.denominator
        out = []
        bpow = 1
        for v in reversed(self.num):
            # out <- out * (x + a) + v b^(n-k)
            out = [p + a * q for p, q in zip([0, *out], [*out, 0])]
            out[0] += v * bpow
            bpow *= b
        if b != 1:
            bpow = 1
            for k, v in enumerate(out):
                out[k] = v * bpow
                bpow *= b
        return Poly.from_numerators(out, self.den * bpow // b)

    def scale_variable(self, c) -> "Poly":
        """Return q with q(x) = p(c*x): coefficient k times a^k b^(n-k), over b^n.

        For c = a/b the scaled numerators num[k] a^k b^(n-k) over den b^n
        have a content made of primes of a and b alone: gcd(den, *num) = 1,
        so a prime that divides neither a nor b leaves some num[k], and
        with it that scaled numerator, undivided.  :func:`_scaled_primitive`
        cancels the content against the powers of a as it builds them, and
        then against the powers of b on the reversed vector over den b^n
        (the powers of b rise towards the constant term), so that no
        scaled numerator is divided by the whole content.  Its candidate
        for the content is checked by exact divisions as it goes; one that
        leaves a remainder sends the scaled vector to the full gcd chain of
        :func:`_divide_content`.
        """
        c = Fraction(c)
        num, den = self.num, self.den
        if not c or not num:
            return Poly.from_numerators(num[:1], den)
        a, b = c.numerator, c.denominator
        if a != 1:
            num, den = _scaled_primitive(num, den, a)
        if b != 1:
            rev, den = _scaled_primitive(num[::-1], den * b ** (len(num) - 1), b)
            num = rev[::-1]
        return Poly._canonical(num, den)

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


def _divide_content(num: list, den: int) -> int:
    """Divide the nonempty list num in place by g = gcd(den, *num); return g.

    g divides every integer combination of the numerators, so it divides
    the candidate c = gcd(den, last, first, sum (k+1) num[k], sum of the
    odd-index num[k]).  When every num[k] divides by c exactly, c divides g
    as well, so c is g: one gcd of five numbers and one exact division per
    coefficient, instead of a chain of one gcd per coefficient.  A nonzero
    remainder undoes the divisions and takes the full chain.
    """
    g = math.gcd(den, num[-1], num[0])
    if g != 1 and len(num) > 3:
        weighted = sum(k * v for k, v in enumerate(num, 1))
        g = math.gcd(g, weighted, sum(itertools.islice(num, 1, None, 2)))
    if g != 1:
        for i, v in enumerate(num):
            q, r = divmod(v, g)
            if r:  # g exceeds the content: restore, then the full chain
                for j in range(i):
                    num[j] *= g
                g = math.gcd(den, *num)
                for j, w in enumerate(num):
                    num[j] = w // g
                break
            num[i] = q
    return g


def _scaled_primitive(num: Sequence, den: int, a: int) -> tuple:
    """The numerators num[k] a^k / g and den / g, for g = gcd(den, *(num[k] a^k)).

    For den = d a^m with gcd(d, *num) = 1 and m <= n = len(num) - 1, g
    divides a^n.  A prime p of g divides a, or it would divide d and every
    num[k].  If p divides d, some num[k] is prime to p, and g has at most
    the k v_p(a) factors p of that num[k] a^k; if not, g has at most the
    m v_p(a) of den.  So g divides the candidate C = gcd(den, num[0], a^n),
    and C is g exactly when :func:`_cancel_powers` divides every scaled
    numerator by it.  A remainder forms the scaled numerators whole and
    sends them to :func:`_divide_content`.
    """
    n = len(num) - 1
    g = math.gcd(den, num[0], a**n)
    out = _cancel_powers(num, a, g)
    if out is None:
        powers = itertools.accumulate(itertools.repeat(a, n), operator.mul, initial=1)
        out = list(map(operator.mul, num, powers))
        return out, den // _divide_content(out, den)
    return out, den // g


def _cancel_powers(num: Sequence, a: int, C: int) -> Optional[list]:
    """The numerators num[k] a^k / C, or None when one is not an integer,
    for a C that divides a^n, n = len(num) - 1.

    G_k = C / gcd(C, a^k) and H_k = a^k / gcd(C, a^k) are coprime, so
    num[k] a^k / C = (num[k] / G_k) H_k is an integer exactly when G_k
    divides num[k]; G_(k+1) = G_k / t and H_(k+1) = H_k a / t for
    t = gcd(G_k, a).  G falls to 1 by the last k, and the numerators after
    that are products only.
    """
    out = []
    G, H = C, 1
    for v in num:
        if G == 1:
            out.append(v * H)
            H *= a
            continue
        q, r = divmod(v, G)
        if r:
            return None
        out.append(q * H)
        t = math.gcd(G, a)
        G //= t
        H *= a // t
    return out


def _combine(p: Poly, q: Poly, sign: int) -> Poly:
    """p + sign*q, each numerator vector scaled to the lcm of the denominators."""
    a, b = p.num, q.num
    g = math.gcd(p.den, q.den)
    sa, sb = q.den // g, sign * (p.den // g)
    n = min(len(a), len(b))
    if sa == 1:
        out = [x + y * sb for x, y in zip(a, b)] if sb != 1 else [x + y for x, y in zip(a, b)]
    else:
        out = [x * sa + y * sb for x, y in zip(a, b)]
    out.extend(x * sa for x in a[n:])
    out.extend(y * sb for y in b[n:])
    return Poly.from_numerators(out, p.den * sa)


def rational_roots(p: Poly) -> list:
    """All rational roots of p, each listed once, ascending.

    Rational root theorem on the primitive integer form, then exact
    verification by evaluation.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has every rational as a root")
    g = math.gcd(*p.num)
    ints = [v // g for v in p.num]
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
