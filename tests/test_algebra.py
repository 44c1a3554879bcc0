"""Exact polynomial arithmetic: examples, ring laws, substitution inverses."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhkovacic.algebra import (
    Poly,
    poly_gcd,
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
    assert Poly.monomial(9, F(1, 16)).derivative() == Poly.monomial(8, F(9, 16))


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


def test_gcd_and_rational_roots():
    p = Poly([-4, 0, 1]) * Poly([0, 0, 2])  # 2 x^2 (x-2)(x+2)
    q = Poly([-2, 1]) * Poly([3, 1])
    g = poly_gcd(p, q)
    assert g == Poly([-2, 1])
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


def test_scale_variable():
    p = Poly([1, 2, 3])
    q = p.scale_variable(F(-1, 2))  # p(-x/2)
    assert q == Poly([1, -1, F(3, 4)])
