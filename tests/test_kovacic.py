"""Candidate families: pole data, exponent sets, tables, retention, theta."""

import hashlib
import json
from fractions import Fraction as F

import pytest

from bhkovacic import kovacic
from bhkovacic.algebra import Poly
from bhkovacic.kovacic import (
    _exact_root,
    _marginal_points,
    affine_str,
    enumerate_families_n1,
    enumerate_families_n2,
    exponent_sets,
    family_by_label,
    retain_families,
    theta,
)
from bhkovacic.master import PerturbationKind, build_nu, partial_fractions
from bhkovacic.reporting import jsonable

G = PerturbationKind.GRAVITATIONAL
E = PerturbationKind.ELECTROMAGNETIC
S = PerturbationKind.SCALAR


def _printed(sets):
    e0_set, e2_set, einf_set = sets
    return (
        [affine_str(e) for e in e0_set],
        [affine_str(e) for e in e2_set],
        [(affine_str(e), sign) for e, sign in einf_set],
    )


def test_exponent_sets():
    # Kovacic's sets as the tables state them: 1/2 +- sqrt(1-beta), 1/2 +- s
    # and 1 -+ s for n = 1; {2, 2 +- 4 sqrt(1-beta)}, {2, 2 +- 4s}, {4} for n = 2
    einf1 = [("1 - s", +1), ("1 + s", -1)]
    assert _printed(exponent_sets(G, 1)) == (["5/2", "-3/2"], ["1/2 + s", "1/2 - s"], einf1)
    assert _printed(exponent_sets(E, 1)) == (["3/2", "-1/2"], ["1/2 + s", "1/2 - s"], einf1)
    assert _printed(exponent_sets(S, 1)) == (["1/2"], ["1/2 + s", "1/2 - s"], einf1)
    e2_n2, einf2 = ["2 - 4*s", "2", "2 + 4*s"], [("4", 0)]
    assert _printed(exponent_sets(G, 2)) == (["-6", "2", "10"], e2_n2, einf2)
    assert _printed(exponent_sets(E, 2)) == (["-2", "2", "6"], e2_n2, einf2)
    assert _printed(exponent_sets(S, 2)) == (["2"], e2_n2, einf2)


def _sympy_exponent_sets(kind, n, s):
    """Kovacic's sets at one s > 0, derived by sympy from build_nu: the
    double-pole coefficients as limits, sqrt(1 + 4b), [sqrt(nu)]_inf and the
    1/r coefficient of nu at infinity."""
    import sympy

    r = sympy.symbols("r")
    numerator, denominator = build_nu(kind, kind.min_l, s)
    nu = sum(sympy.Rational(c) * r**k for k, c in enumerate(numerator.coeffs)) / sum(
        sympy.Rational(c) * r**k for k, c in enumerate(denominator.coeffs)
    )

    def at_pole(c):
        root = sympy.sqrt(1 + 4 * sympy.limit((r - c) ** 2 * nu, r, c))
        if n == 1:
            members = [sympy.Rational(1, 2) + root / 2, sympy.Rational(1, 2) - root / 2]
        else:
            members = [2 - 2 * root, 2, 2 + 2 * root]
        return list(dict.fromkeys(members))  # equal members once, in order

    sqrt_nu_inf = sympy.sqrt(sympy.limit(nu, r, sympy.oo))
    b_inf = sympy.limit(r * (nu - sqrt_nu_inf**2), r, sympy.oo)
    alpha = b_inf / (2 * sqrt_nu_inf)
    einf = [(1 - alpha, +1), (1 + alpha, -1)] if n == 1 else [(4, 0)]
    return at_pole(0), at_pole(2), einf


@pytest.mark.parametrize("n", (1, 2))
@pytest.mark.parametrize("kind", (G, S, E), ids=lambda k: k.name)
def test_exponent_sets_match_a_sympy_derivation(kind, n):
    # the sets are affine in s, so three values of s fix them
    import sympy

    e0_set, e2_set, einf_set = exponent_sets(kind, n)
    for s in (F(1, 3), F(2), F(7, 2)):
        e0_ref, e2_ref, einf_ref = _sympy_exponent_sets(kind, n, s)
        assert [sympy.Rational(e.eval(s)) for e in e0_set] == e0_ref
        assert [sympy.Rational(e.eval(s)) for e in e2_set] == e2_ref
        assert [(sympy.Rational(e.eval(s)), sign) for e, sign in einf_set] == einf_ref


def test_exact_root():
    assert _exact_root(Poly.zero()) == Poly.zero()
    assert _exact_root(Poly.const(F(16, 9))) == Poly.const(F(4, 3))
    assert _exact_root(Poly([0, 0, F(1, 4)])) == Poly([0, F(1, 2)])
    assert _exact_root(Poly([0, 0, 0, 0, 9])) == Poly([0, 0, 3])


@pytest.mark.parametrize(
    "p", [Poly([1, 0, 1]), Poly.const(2), Poly.const(-4), Poly.monomial(3)],
    ids=["s^2+1", "2", "-4", "s^3"],
)
def test_exact_root_refuses_a_non_square(p):
    with pytest.raises(ArithmeticError, match=r"is not the square of c\*s\^k"):
        _exact_root(p)


def test_an_inexact_root_refuses_the_table(monkeypatch):
    # with b = 1/4 at r = 0, 1 + 4b = 2 has no rational root: the table must
    # not be built on a rounded one
    real = kovacic.partial_fractions

    def planted(kind, l):
        return real(kind, l)._replace(inv_r2=Poly.const(F(1, 4)))

    monkeypatch.setattr(kovacic, "partial_fractions", planted)
    with pytest.raises(ArithmeticError):
        enumerate_families_n1(G)
    with pytest.raises(ArithmeticError):
        enumerate_families_n2(G)


# every row of the three tables: (label, e0, e2, einf, degree)
N1_TABLES = {
    G: [
        ("G1", "5/2", "1/2 + s", "1 - s", "-3"),
        ("G2", "5/2", "1/2 + s", "1 + s", "-3 - 2*s"),
        ("G3", "5/2", "1/2 - s", "1 - s", "-3 + 2*s"),
        ("G4", "5/2", "1/2 - s", "1 + s", "-3"),
        ("G5", "-3/2", "1/2 + s", "1 - s", "1"),
        ("G6", "-3/2", "1/2 + s", "1 + s", "1 - 2*s"),
        ("G7", "-3/2", "1/2 - s", "1 - s", "1 + 2*s"),
        ("G8", "-3/2", "1/2 - s", "1 + s", "1"),
    ],
    S: [
        ("S1", "1/2", "1/2 + s", "1 - s", "-1"),
        ("S2", "1/2", "1/2 + s", "1 + s", "-1 - 2*s"),
        ("S3", "1/2", "1/2 - s", "1 - s", "-1 + 2*s"),
        ("S4", "1/2", "1/2 - s", "1 + s", "-1"),
    ],
    E: [
        ("E1", "3/2", "1/2 + s", "1 - s", "-2"),
        ("E2", "3/2", "1/2 + s", "1 + s", "-2 - 2*s"),
        ("E3", "3/2", "1/2 - s", "1 - s", "-2 + 2*s"),
        ("E4", "3/2", "1/2 - s", "1 + s", "-2"),
        ("E5", "-1/2", "1/2 + s", "1 - s", "0"),
        ("E6", "-1/2", "1/2 + s", "1 + s", "-2*s"),
        ("E7", "-1/2", "1/2 - s", "1 - s", "2*s"),
        ("E8", "-1/2", "1/2 - s", "1 + s", "0"),
    ],
}


@pytest.mark.parametrize("kind", (G, S, E), ids=lambda k: k.name)
def test_family_tables(kind):
    families = enumerate_families_n1(kind)
    rows = [
        (f.label, *map(affine_str, (f.e0, f.e2, f.einf, f.degree))) for f in families
    ]
    assert rows == N1_TABLES[kind]


def test_family_by_label():
    rows = [row for kind in (G, S, E) for row in N1_TABLES[kind]]
    assert len(rows) == 20
    for row in rows:
        f = family_by_label(row[0])
        assert (f.label, *map(affine_str, (f.e0, f.e2, f.einf, f.degree))) == row
    for label in ("G9", "X1"):
        with pytest.raises(KeyError):
            family_by_label(label)


def test_degree_formula_invariant():
    for kind in (G, E, S):
        for f in enumerate_families_n1(kind):
            assert f.degree == 1 - (f.e0 + f.e2 + f.einf)


def test_retention():
    expected = {G: {"G3", "G7", "G8"}, E: {"E3", "E7"}, S: {"S3"}}
    checked_empty = {G: {"G5", "G6"}, E: {"E5", "E6", "E8"}, S: set()}
    discarded = {G: {"G1", "G2", "G4"}, E: {"E1", "E2", "E4"}, S: {"S1", "S2", "S4"}}
    for kind in (G, E, S):
        result = retain_families(enumerate_families_n1(kind), l_max=6)
        assert set(result.retained_labels) == expected[kind]
        assert {f.label for f in result.discarded} == discarded[kind]
        with_solutions = {
            c.family.label for c in result.marginal if c.solutions
        }
        all_checked = {c.family.label for c in result.marginal}
        assert all_checked - with_solutions == checked_empty[kind]


# sha256 of the canonical JSON of retain_families' output for the three
# kinds at l <= 12: retained and discarded labels, and all 80 marginal
# checks with their solutions, so that any moved verdict or solution shows
RETENTION_L12 = "d702067ec62e4e617e9c946e5524894ea729199f57a65ab3cc8deea47c9eb188"


def test_retention_output_is_pinned():
    payload = []
    for kind in (G, E, S):
        result = retain_families(enumerate_families_n1(kind), l_max=12)
        checks = [(c.family.label, c.l, c.s, c.d, c.solutions) for c in result.marginal]
        discarded = [f.label for f in result.discarded]
        payload.append(
            {"retained": result.retained_labels, "discarded": discarded, "marginal": checks}
        )
    assert sum(len(p["marginal"]) for p in payload) == 80
    blob = json.dumps(jsonable(payload), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == RETENTION_L12


def test_marginal_points_reported():
    result = retain_families(enumerate_families_n1(G), l_max=3)
    g6_points = {(c.s, c.d) for c in result.marginal if c.family.label == "G6"}
    assert g6_points == {(F(1, 2), 0), (F(0), 1)}
    e_result = retain_families(enumerate_families_n1(E), l_max=3)
    e6_points = {(c.s, c.d) for c in e_result.marginal if c.family.label == "E6"}
    assert e6_points == {(F(0), 0)}


def test_retention_refuses_an_l_max_that_checks_nothing():
    # below a marginal family's lowest multipole its l loop would be empty,
    # and the family would drop out of every list with no check recorded
    with pytest.raises(ValueError, match=r"l_max = 1 checks no l of G5 \(l >= 2\)"):
        retain_families(enumerate_families_n1(G), l_max=1)
    with pytest.raises(ValueError, match=r"l_max = 0 checks no l of E5 \(l >= 1\)"):
        retain_families(enumerate_families_n1(E), l_max=0)
    result = retain_families(enumerate_families_n1(G), l_max=2)
    assert result.retained_labels == ["G3", "G7", "G8"]
    assert {c.family.label for c in result.marginal} == {"G5", "G6", "G8"}
    assert {c.l for c in result.marginal} == {2}


def test_marginal_points_refuses_a_degree_that_grows_with_s():
    # d = a + b*s with b > 0 reaches every d >= 0: no finite list exists
    growing = [f for kind in (G, E, S) for f in enumerate_families_n1(kind) if f.degree[1] > 0]
    assert {f.label for f in growing} >= {"G3", "E3", "S3"}
    for family in growing:
        with pytest.raises(ValueError, match="grows with s"):
            _marginal_points(family)


def test_theta_values():
    fams = {f.label: f for f in enumerate_families_n1(G)}
    t7 = theta(fams["G7"])
    assert tuple(map(affine_str, (t7.c0, t7.c2, t7.cinf))) == ("-3/2", "1/2 - s", "1/2*s")
    t8 = theta(fams["G8"])
    assert tuple(map(affine_str, (t8.c0, t8.c2, t8.cinf))) == ("-3/2", "1/2 - s", "-1/2*s")
    sfams = {f.label: f for f in enumerate_families_n1(S)}
    t3 = theta(sfams["S3"])
    assert tuple(map(affine_str, (t3.c0, t3.c2, t3.cinf))) == ("1/2", "1/2 - s", "1/2*s")


def test_theta_reconstruction_invariant():
    for kind in (G, E, S):
        result = retain_families(enumerate_families_n1(kind), l_max=4)
        for fam in result.retained:
            spec = theta(fam)
            assert spec.c0 == fam.e0
            assert spec.c2 == fam.e2
            assert spec.cinf.eval(2) == fam.sign_inf * 1  # s/2 at s = 2


@pytest.mark.parametrize("kind", (G, S, E), ids=lambda k: k.name)
def test_exponents_are_read_off_nu(kind):
    # Kovacic step 2: e(e-1) is nu's double-pole coefficient at r = 0 and at
    # r = 2, and the rate at infinity squares to nu's constant part
    e0_set, e2_set, _ = exponent_sets(kind, 1)
    retained = retain_families(enumerate_families_n1(kind), l_max=4).retained
    for l in range(kind.min_l, kind.min_l + 4):
        nu = partial_fractions(kind, l)
        for e in e0_set:
            assert e * (e - 1) == nu.inv_r2
        for e in e2_set:
            assert e * (e - 1) == nu.inv_rm2_sq
        for fam in retained:
            assert theta(fam).cinf * theta(fam).cinf == nu.const_term


# every row of the three n=2 tables: (label, e0, e2, einf, degree)
N2_TABLES = {
    G: [
        ("N2G1", "-6", "2 - 4*s", "4", "2 + 2*s"),
        ("N2G2", "-6", "2", "4", "2"),
        ("N2G3", "-6", "2 + 4*s", "4", "2 - 2*s"),
        ("N2G4", "2", "2 - 4*s", "4", "-2 + 2*s"),
        ("N2G5", "2", "2", "4", "-2"),
        ("N2G6", "2", "2 + 4*s", "4", "-2 - 2*s"),
        ("N2G7", "10", "2 - 4*s", "4", "-6 + 2*s"),
        ("N2G8", "10", "2", "4", "-6"),
        ("N2G9", "10", "2 + 4*s", "4", "-6 - 2*s"),
    ],
    S: [
        ("N2S1", "2", "2 - 4*s", "4", "-2 + 2*s"),
        ("N2S2", "2", "2", "4", "-2"),
        ("N2S3", "2", "2 + 4*s", "4", "-2 - 2*s"),
    ],
    E: [
        ("N2E1", "-2", "2 - 4*s", "4", "2*s"),
        ("N2E2", "-2", "2", "4", "0"),
        ("N2E3", "-2", "2 + 4*s", "4", "-2*s"),
        ("N2E4", "2", "2 - 4*s", "4", "-2 + 2*s"),
        ("N2E5", "2", "2", "4", "-2"),
        ("N2E6", "2", "2 + 4*s", "4", "-2 - 2*s"),
        ("N2E7", "6", "2 - 4*s", "4", "-4 + 2*s"),
        ("N2E8", "6", "2", "4", "-4"),
        ("N2E9", "6", "2 + 4*s", "4", "-4 - 2*s"),
    ],
}


def test_n2_enumeration():
    # every row pinned, as N1_TABLES pins n = 1, so a reordered set fails
    for kind in (G, E, S):
        candidates, retained = enumerate_families_n2(kind)
        assert retained == []
        rows = [
            (f.label, *map(affine_str, (f.e0, f.e2, f.einf, f.degree))) for f in candidates
        ]
        assert rows == N2_TABLES[kind]
        for f in candidates:
            assert f.n == 2
            # degree formula for n = 2: d = 2 - sum(e)/2
            assert f.degree == 2 - (f.e0 + f.e2 + f.einf) * F(1, 2)
