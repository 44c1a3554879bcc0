"""Master-equation data: nu, its partial fractions, special frequencies."""

from fractions import Fraction as F

import pytest

from bhkovacic.algebra import Poly
from bhkovacic.master import (
    PerturbationKind,
    build_nu,
    partial_fractions,
    special_frequency,
)

G = PerturbationKind.GRAVITATIONAL
E = PerturbationKind.ELECTROMAGNETIC
S = PerturbationKind.SCALAR


def nu_oracle(kind, l, s):
    """Independent construction of nu straight from the potential form.

    nu = r^2/(r-2)^2 [ s^2/4 + (1 - 2/r)(L/r^2 + 2 beta/r^3) - 2/r^3 + 3/r^4 ]
    assembled with polynomial arithmetic over the common denominator.
    """
    s, L, beta = F(s), l * (l + 1), kind.beta
    r = Poly.x()
    num = (
        (s * s / 4) * r * r * r * r
        + (r - Poly.const(2)) * (L * r + Poly.const(2 * beta))
        - 2 * r
        + Poly.const(3)
    )
    den = (r * r) * (r - Poly.const(2)) * (r - Poly.const(2))
    return num, den


MODES = [
    (G, 2, 4),
    (G, 3, F(1, 2)),
    (G, 5, F(7, 3)),
    (E, 1, 1),
    (E, 4, F(5, 2)),
    (S, 0, 0),
    (S, 2, F(9, 4)),
]
MODE_IDS = [f"{kind.name}-l{l}-s{s}" for kind, l, s in MODES]


@pytest.mark.parametrize("kind, l, s", MODES, ids=MODE_IDS)
def test_build_nu_against_oracle(kind, l, s):
    num, den = build_nu(kind, l, s)
    onum, oden = nu_oracle(kind, l, s)
    assert num == onum
    assert den == oden


def test_build_nu_examples():
    num, den = build_nu(G, 2, 4)
    assert num == Poly([15, -20, 6, 0, 4])
    assert den == Poly([0, 0, 4, -4, 1])
    # scalar monopole at zero frequency: the numerator collapses to -1
    # (the linear coefficient 2[beta - l(l+1) - 1] vanishes when beta = 1, l = 0)
    num0, _ = build_nu(S, 0, 0)
    assert num0 == Poly([-1])


def test_denominator_is_always_r2_rm2_sq():
    for kind, l, s in MODES:
        _, den = build_nu(kind, l, s)
        assert den == Poly([0, 0, 4, -4, 1])


def test_parity_in_s():
    for kind, l in ((G, 2), (E, 1), (S, 0)):
        plus, _ = build_nu(kind, l, F(7, 5))
        minus, _ = build_nu(kind, l, F(-7, 5))
        assert plus == minus


def test_partial_fraction_values():
    pf = partial_fractions(G, 2)
    assert pf.inv_r2 == F(15, 4)  # (3 - 4 beta)/4 at beta = -3
    assert pf.inv_rm2_sq.eval(4) == F(63, 4)  # (4 s^2 - 1)/4 at s = 4
    assert pf.inv_rm2_sq.eval(F(1, 2)) == 0


@pytest.mark.parametrize("kind, l, s", MODES, ids=MODE_IDS)
def test_recombination(kind, l, s):
    # the partial-fraction sum and num/den differ by a numerator of degree
    # <= 4 over r^2 (r-2)^2, so agreement at five points proves the identity
    num, den = build_nu(kind, l, s)
    pf = partial_fractions(kind, l)
    const, c_r2, c_r, c_rm2_sq, c_rm2 = (
        c.eval(s)
        for c in (pf.const_term, pf.inv_r2, pf.inv_r, pf.inv_rm2_sq, pf.inv_rm2)
    )
    for r in (F(-3), F(-1, 2), F(1), F(3), F(7, 3)):
        total = const + c_r2 / r**2 + c_r / r + c_rm2_sq / (r - 2) ** 2 + c_rm2 / (r - 2)
        assert total == num.eval(r) / den.eval(r)


def test_special_frequency_values():
    assert special_frequency(2) == 4
    assert special_frequency(3) == 20
    assert special_frequency(4) == 60
    with pytest.raises(ValueError):
        special_frequency(1)


def test_special_frequency_is_even_integer():
    for l in range(2, 40):
        s = special_frequency(l)
        assert s.denominator == 1
        assert s > 0
        assert s.numerator % 2 == 0


def test_kind_parsing():
    assert PerturbationKind.from_name("em") is E
    assert PerturbationKind.from_name("Gravitational") is G
    with pytest.raises(ValueError):
        PerturbationKind.from_name("axion")


def test_kind_from_family_label():
    assert PerturbationKind.from_label("G3") is G
    assert PerturbationKind.from_label("E7") is E
    assert PerturbationKind.from_label("S3") is S
    assert PerturbationKind.from_label("N2E5") is E  # n=2 candidate labels
    with pytest.raises(KeyError):
        PerturbationKind.from_label("X1")


def test_every_family_label_maps_to_its_kind():
    # (kind, min_l, prefix) of every n=1 and n=2 label, as the tables name them
    from bhkovacic.kovacic import enumerate_families_n1, enumerate_families_n2

    expected = {G: (2, "G"), E: (1, "E"), S: (0, "S")}
    for kind, (min_l, prefix) in expected.items():
        assert (kind.min_l, kind.prefix) == (min_l, prefix)
        families = enumerate_families_n1(kind) + enumerate_families_n2(kind)[0]
        assert len(families) == {G: 17, E: 17, S: 7}[kind]
        for family in families:
            assert family.label.removeprefix("N2")[0] == prefix
            assert family.kind is kind and PerturbationKind.from_label(family.label) is kind
            assert (family.kind.min_l, family.kind.prefix) == (min_l, prefix)
    assert [k.beta for k in (G, E, S)] == [-3, 0, 1]
    assert PerturbationKind(-3) is G and PerturbationKind(0) is E and PerturbationKind(1) is S
