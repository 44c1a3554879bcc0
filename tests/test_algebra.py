"""Exact polynomial arithmetic: examples, ring laws, substitution inverses."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhkovacic.algebra import (
    Poly,
    int_to_str,
    rat_from_str,
    rat_to_str,
    rational_roots,
)

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)
polys = st.lists(rationals, min_size=0, max_size=7).map(Poly)


def test_binomial_square():
    rm2 = Poly([-2, 1])
    assert rm2 * rm2 == Poly([4, -4, 1])


def test_additive_identity():
    p = Poly([F(1, 3), 2, 5])
    assert p + Poly.zero() == p


def test_hand_multiplication():
    # (r + 3/2)(2r) = 2 r^2 + 3 r
    assert Poly([F(3, 2), 1]) * Poly([0, 2]) == Poly([0, 3, 2])


def test_derivative_examples():
    assert Poly([4, -4, 1]).derivative() == Poly([-4, 2])
    assert Poly([7]).derivative() == Poly.zero()
    assert (Poly.monomial(9) * F(1, 16)).derivative() == Poly.monomial(8) * F(9, 16)


def test_shift_convention():
    # shift by c evaluates at x + c: x^2 with c = -2 gives (x-2)^2
    assert Poly([0, 0, 1]).shift(-2) == Poly([4, -4, 1])
    p = Poly([1, F(2, 7), 0, 3])
    assert p.shift(0) == p


def test_eval_examples():
    assert Poly([4, -4, 1]).eval(2) == 0
    assert Poly([1]).eval(F(123, 7)) == 1


def test_degree_and_zero_invariants():
    assert Poly([]).degree == -1
    assert Poly([0, 0]).is_zero()
    assert Poly([0, 1, 0]).degree == 1
    with pytest.raises(ValueError):
        Poly.zero().leading()


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_ring_laws(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + q == q + p


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_product_rule(p, q):
    lhs = (p * q).derivative()
    assert lhs == p.derivative() * q + p * q.derivative()


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_degree_of_product(p, q):
    if not p.is_zero() and not q.is_zero():
        assert (p * q).degree == p.degree + q.degree


@given(polys, rationals)
@settings(max_examples=60, deadline=None)
def test_shift_roundtrip(p, c):
    assert p.shift(c).shift(-c) == p


@given(polys, rationals, rationals)
@settings(max_examples=60, deadline=None)
def test_shift_agrees_with_eval(p, c, x):
    assert p.shift(c).eval(x) == p.eval(x + c)


@given(polys, polys)
@settings(max_examples=40, deadline=None)
def test_divmod(p, q):
    if q.is_zero():
        return
    quo, rem = p.divmod(q)
    assert quo * q + rem == p
    assert rem.is_zero() or rem.degree < q.degree


def test_rational_roots():
    p = Poly([-4, 0, 1]) * Poly([0, 0, 2])  # 2 x^2 (x-2)(x+2)
    assert rational_roots(p) == [F(-2), F(0), F(2)]
    assert rational_roots(Poly([1, 0, 1])) == []  # x^2 + 1
    assert rational_roots(Poly([F(-1, 2), 1])) == [F(1, 2)]


@given(rationals, rationals)
@settings(max_examples=60, deadline=None)
def test_fraction_always_reduced(a, b):
    # every produced rational is already in lowest terms, denominator > 0
    v = a * b + a - b
    assert v.denominator > 0
    assert math.gcd(abs(v.numerator), v.denominator) == 1


def test_rational_wire_format():
    assert rat_to_str(F(-3, 4)) == "-3/4"
    assert rat_to_str(F(8, 2)) == "4"
    assert rat_from_str("-3/4") == F(-3, 4)
    assert rat_from_str("17") == F(17)
    assert rat_from_str(rat_to_str(F(123456789, 7))) == F(123456789, 7)


def test_rat_from_str_reads_back_past_the_str_digit_limit(int_str_limit):
    # numerator and denominator of more than 9,000 digits each, coprime
    q = F(3**19000 + 2, 2**30000)
    assert min(len(int_to_str(q.numerator)), len(int_to_str(q.denominator))) > 9000
    int_str_limit(4300)  # CPython's default
    for value in (q, -q, F(q.numerator), F(-q.numerator), F(10**9000), F(-(10**9000) - 1)):
        assert rat_from_str(rat_to_str(value)) == value
    assert rat_from_str("+" + int_to_str(q.numerator)) == q.numerator
    for bad in ("1" * 5000 + "x", "1" * 5000 + "-1", "--" + "1" * 5000, "1" * 5000 + "/"):
        with pytest.raises(ValueError):
            rat_from_str(bad)


@pytest.mark.parametrize(
    "n",
    [0, -7, 10**639, 10**640 + 1, 2**20000 - 1, 10**4300 - 1, 10**4300, 7 * 10**9000 + 3],
    ids=lambda n: f"{n.bit_length()}_bits",
)
def test_int_to_str_passes_the_str_digit_limit(n, int_str_limit):
    # 10**k + small numbers need the lower part zero-filled
    q = F(-n - 1, 2**17000 + 1)
    int_str_limit(0)
    expected = str(n), str(-n), f"{q.numerator}/{q.denominator}"
    for limit in (640, 4300, 0):
        int_str_limit(limit)
        assert (int_to_str(n), int_to_str(-n), rat_to_str(q)) == expected


def test_scale_variable():
    p = Poly([1, 2, 3])
    q = p.scale_variable(F(-1, 2))  # p(-x/2)
    assert q == Poly([1, -1, F(3, 4)])


def _scaled_by_reference(p: Poly, c: F) -> Poly:
    """p(c x) through the whole scaled numerator vector and one normalisation."""
    a, b = c.numerator, c.denominator
    n = p.degree
    num = [v * a**k * b ** (n - k) for k, v in enumerate(p.num)]
    return Poly.from_numerators(num, p.den * b**n)


# numerators and denominators that carry large powers of the primes of the
# scale's numerator a and denominator b, so that the content of the scaled
# vector is large and the cancellation runs over many coefficients
_smooth = st.builds(
    lambda e2, e3, e7, unit: unit * 2**e2 * 3**e3 * 7**e7,
    st.integers(0, 40),
    st.integers(0, 25),
    st.integers(0, 12),
    st.integers(-30, 30),
)


@given(
    st.lists(_smooth, min_size=1, max_size=14).filter(lambda v: v[-1]),
    st.builds(lambda e2, e3, e5, e7: 2**e2 * 3**e3 * 5**e5 * 7**e7, *[st.integers(0, 60)] * 4),
    st.sampled_from([1, -1, 2, -2, 6, -504, 12, 21]),
    st.sampled_from([1, 2, 3, 5, 49, 10]),
)
@settings(max_examples=200, deadline=None)
def test_scale_variable_matches_the_reference_route(num, den, a, b):
    c = F(a, b)
    p = Poly.from_numerators(num, den)
    q = p.scale_variable(c)
    expected = _scaled_by_reference(p, c)
    assert (q.num, q.den) == (expected.num, expected.den)
    assert _canonical(q)


@pytest.mark.parametrize("c", [0, 1, -1, 2, -504, F(1, 3), F(-504, 5)])
def test_scale_variable_explicit_scales(c):
    # -504 = -s at l = 7; the primes 2, 3, 7 of s fill the denominator
    p = Poly.from_numerators([3**5, 2**9 * 7, -(2**4), 0, 7**3 * 5, 2**12, 1], 2**30 * 3**20 * 7**8)
    q = p.scale_variable(c)
    expected = _scaled_by_reference(p, F(c))
    assert (q.num, q.den) == (expected.num, expected.den)
    assert q == Poly([v * F(c) ** k for k, v in enumerate(p.coeffs)])
    assert Poly.zero().scale_variable(c) == Poly.zero()
    assert Poly.const(F(5, 6)).scale_variable(c) == F(5, 6)
    if c == 0:
        assert (q.num, q.den) == ((1,), 2**30 * 3**15 * 7**8)  # p(0) = 3^5 / den


def test_scale_variable_fallback_when_the_candidate_exceeds_the_content(monkeypatch):
    # p(2x) for p = (4x + x^3 + x^4) / 16: the scaled numerators
    # (0, 8, 0, 8, 16) over 16 have the content 8, but 16, the first
    # numerator 0 and 2^4 are all multiples of 16, so the candidate is 16;
    # 4 leaves a remainder at k = 1 and the scaled vector takes the full
    # gcd chain
    import bhkovacic.algebra as algebra

    num, den, a = (0, 4, 0, 1, 1), 16, 2
    assert math.gcd(den, num[0], a**4) == 16
    assert math.gcd(den, *(v * a**k for k, v in enumerate(num))) == 8
    real, calls = algebra._divide_content, []

    def counted(vec, d):
        calls.append(list(vec))
        return real(vec, d)

    monkeypatch.setattr(algebra, "_divide_content", counted)
    p = Poly._canonical(num, den)
    q = p.scale_variable(a)
    assert calls == [[0, 8, 0, 8, 16]]
    assert (q.num, q.den) == ((0, 1, 0, 1, 2), 2)
    assert q == Poly([0, F(1, 2), 0, F(1, 2), 1])
    # the same vector over 8: the candidate is the content, no fallback
    calls.clear()
    assert Poly._canonical(num, 8).scale_variable(a) == Poly([0, 1, 0, 1, 2])
    assert calls == []


# ---------------------------------------------------------------------------
# the integer-primitive representation
# ---------------------------------------------------------------------------


def _canonical(p: Poly) -> bool:
    """den > 0, gcd(den, *num) = 1, no trailing zero, Fraction coefficients."""
    return (
        p.den > 0
        and math.gcd(p.den, *p.num) == 1
        and (not p.num or p.num[-1] != 0)
        and (p.num or p.den == 1)
        and all(isinstance(v, int) for v in p.num)
        and all(isinstance(c, F) for c in p.coeffs)
        and p.coeffs == tuple(F(v, p.den) for v in p.num)
    )


def test_hash_agrees_with_eq():
    assert Poly.const(3) == 3 and hash(Poly.const(3)) == hash(3)
    assert len({Poly.const(3), 3}) == 1
    assert len({Poly.const(F(5, 7)), F(5, 7)}) == 1
    assert len({Poly.zero(), 0, F(0)}) == 1
    # one polynomial, three routes: the same (num, den) and the same hash
    routes = (
        Poly([F(1, 2), 1]),
        Poly([1, 2]) * F(1, 2),
        Poly([F(1, 6), F(1, 3)]) + Poly([F(1, 3), F(2, 3)]),  # cancels a 3
        Poly([F(3, 2), 4, 1]) - Poly([1, 3, 1]),
    )
    for p in routes:
        assert (p.num, p.den) == ((1, 2), 2)
        assert p == routes[0] and hash(p) == hash(routes[0])
    assert len(set(routes)) == 1


def test_from_numerators_normalises():
    p = Poly.from_numerators([6, -4, 2, 0, 0], -8)
    assert (p.num, p.den) == ((-3, 2, -1), 4)
    assert p == Poly([F(-3, 4), F(1, 2), F(-1, 4)])
    assert (Poly.from_numerators([0, 0], 7).num, Poly.from_numerators([0, 0], 7).den) == ((), 1)
    assert Poly.from_numerators((5,), 10) == F(1, 2)


def _content_candidate(num, den):
    """gcd(den, first, last, sum (k+1) num[k], sum of the odd-index num[k])."""
    weighted = sum(k * v for k, v in enumerate(num, 1))
    return math.gcd(den, num[0], num[-1], weighted, sum(num[1::2]))


@given(
    st.lists(st.integers(-(10**9), 10**9), min_size=1, max_size=12).filter(any),
    st.integers(1, 10**15),
    st.integers(1, 10**15),
    st.integers(1, 10**6),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_from_numerators_divides_out_the_content(vec, content, shared, cofactor, negative):
    import sympy

    # a primitive vector times a content, over a denominator that shares
    # the factor gcd(content, shared) with that content
    g = math.gcd(*vec)
    num = [content * (v // g) for v in vec]
    den = math.gcd(content, shared) * cofactor * (-1 if negative else 1)
    p = Poly.from_numerators(list(num), den)
    by_fractions = Poly([F(v, den) for v in num])
    assert (p.num, p.den) == (by_fractions.num, by_fractions.den)
    assert _canonical(p)
    # sympy: clear the denominators, split off the content, reduce it
    x = sympy.Symbol("x")
    P = sympy.Poly([sympy.Rational(v, den) for v in reversed(num)], x, domain=sympy.QQ)
    common, integral = P.clear_denoms(convert=True)
    cont, prim = integral.primitive()
    scale = sympy.Rational(cont) / common
    expected = [int(c) * int(scale.p) for c in reversed(prim.all_coeffs())]
    while expected and not expected[-1]:
        expected.pop()
    assert p.num == tuple(expected) and p.den == int(scale.q)


def test_from_numerators_fallback_when_the_candidate_exceeds_the_content():
    # 3 * (2, 0, 2, 1, 1, 1, 1, 2) over 12: the content is 3, but the first
    # and last numerators, 12 and both combinations are even, so the
    # candidate is 6; the division stops at index 3 and the entries already
    # divided are restored before the full gcd chain runs
    vec = (6, 0, 6, 3, 3, 3, 3, 6)
    assert _content_candidate(vec, 12) == 6 and math.gcd(12, *vec) == 3
    expected = Poly([F(v, 12) for v in vec])
    assert (expected.num, expected.den) == ((2, 0, 2, 1, 1, 1, 1, 2), 4)
    num = list(vec)
    p = Poly.from_numerators(num, 12)
    assert (p.num, p.den) == (expected.num, expected.den)
    assert num == list(p.num)  # normalised in place, no entry left at 2x or 1/2x
    assert Poly.from_numerators(vec, -12) == -expected  # a tuple is left as it was
    assert vec == (6, 0, 6, 3, 3, 3, 3, 6)
    # a candidate that is the content takes the one-division path
    assert Poly.from_numerators([6, 0, 6, 6], 12) == Poly([F(1, 2), 0, F(1, 2), F(1, 2)])


# sympy is a test-only oracle for the kernel; denominators up to 10^6
big_rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)
big_polys = st.lists(big_rationals, min_size=0, max_size=6).map(Poly)


def _sym(p: Poly):
    import sympy

    x = sympy.Symbol("x")
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly(coeffs or [0], x, domain=sympy.QQ)


def _from_sym(q) -> Poly:
    return Poly(F(int(c.p), int(c.q)) for c in reversed(q.all_coeffs()))


@given(big_polys, big_polys, big_rationals)
@settings(max_examples=60, deadline=None)
def test_kernel_matches_sympy(p, q, c):
    import sympy

    P, Q = _sym(p), _sym(q)
    cq = sympy.Rational(c.numerator, c.denominator)
    x = P.gen
    assert p + q == _from_sym(P + Q)
    assert p - q == _from_sym(P - Q)
    assert p * q == _from_sym(P * Q)
    assert p * c == _from_sym(P * cq)
    assert p.derivative() == _from_sym(P.diff(x))
    assert p.shift(c) == _from_sym(P.shift(cq))
    assert p.scale_variable(c) == _from_sym(P.compose(sympy.Poly(cq * x, x, domain=sympy.QQ)))
    assert p.eval(c) == F(str(P.eval(cq)))
    if not q.is_zero():
        quo, rem = p.divmod(q)
        squo, srem = sympy.div(P, Q)
        assert quo == _from_sym(squo) and rem == _from_sym(srem)


@given(big_polys, big_polys, big_rationals)
@settings(max_examples=60, deadline=None)
def test_results_are_canonical(p, q, c):
    results = [p, q, p + q, p - q, -p, p * q, p * c, c * q, p.derivative(), p.shift(c)]
    results += [p.scale_variable(c), p + c, c - p, Poly.const(c)]
    if not q.is_zero():
        results += list(p.divmod(q))
    for r in results:
        assert _canonical(r)
