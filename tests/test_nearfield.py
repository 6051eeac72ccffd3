"""Base structures: axioms, induced additions, distributive parts."""

import json
import math
import random

import pytest

import nearvec.nearfield as nearfield
from nearvec.errors import BaseMismatchError, BoundExceededError, UnsupportedBaseError
from nearvec.mult_auto import (
    ComplexEps,
    FinitePower,
    RealPower,
    as_perm,
    compose,
    enumerate_mult_autos,
    identity_auto,
)
from nearvec.nearfield import (
    COMPLEXES,
    REALS,
    ComplexField,
    Dickson9,
    GaloisField,
    RealField,
    distributive_elements,
    divisionring_transport_check,
    induced_add,
    is_nearfield_automorphism,
    scalar_group_axiom_check,
)


@pytest.fixture(scope="module")
def gf5():
    return GaloisField(5, 1)


@pytest.fixture(scope="module")
def d9():
    return Dickson9()


def test_native_arithmetic(gf5):
    two, four = gf5.from_int(2), gf5.from_int(4)
    assert gf5.add(two, four) == gf5.one
    assert gf5.add(two, gf5.zero) == two
    assert REALS.add(1.5, 2.5) == 4.0
    gf7 = GaloisField(7, 1)
    assert gf7.inv(gf7.from_int(3)) == gf7.from_int(5)
    assert gf5.inv(gf5.one) == gf5.one


def test_check_rejects_foreign_scalars(gf5):
    gf4 = GaloisField(2, 2)
    with pytest.raises(BaseMismatchError):
        gf5.check(gf4.one)
    with pytest.raises(BaseMismatchError):
        REALS.check("nope")
    with pytest.raises(BaseMismatchError):
        COMPLEXES.check([1, 2])
    assert REALS.check(3) == 3.0
    assert COMPLEXES.check(2) == 2 + 0j


@pytest.mark.parametrize("maker", [lambda: GaloisField(7, 1), Dickson9], ids=["gf7", "d9"])
def test_check_refuses_codes_outside_the_field(maker):
    # the field's own element class, and another field's of the same p and
    # n, can hold any int; only the codes 0..q-1 are elements
    base = maker()
    twin = GaloisField(base.p, base.n)
    q = base.order()
    for cls in (type(base.one), type(twin.one)):
        for code in (-1, -q, q, q + 1):
            with pytest.raises(BaseMismatchError, match="is not an element of"):
                base.check(cls(code))
        for code in (0, q - 1):
            got = base.check(cls(code))
            assert got == code and type(got) is type(base.one)


@pytest.mark.parametrize("p,n", [(2, 2), (5, 1), (7, 1), (3, 2)])
def test_scalar_group_axioms_fields(p, n):
    report = scalar_group_axiom_check(GaloisField(p, n))
    assert report.passed
    if p == 2:
        assert report.details["char2"]


def test_scalar_group_axioms_dickson(d9):
    assert scalar_group_axiom_check(d9).passed


@pytest.mark.parametrize("base", [REALS, COMPLEXES], ids=["real", "complex"])
def test_scalar_group_axioms_sampled_bases(base):
    # the first ten grid points, under the name and details check-base prints
    report = scalar_group_axiom_check(base)
    assert report.passed
    assert report.name == "scalar_group_axioms_sampled"
    assert report.details == {"points": 10}


class _SkewGF5(GaloisField):
    """GF(5) with the single product 2 . 2 changed from 4 to 3."""

    def __init__(self):
        super().__init__(5, 1)

    def mul(self, x, y):
        two = self.from_int(2)
        if x == two and y == two:
            return self.from_int(3)
        return super().mul(x, y)


class _RoundedReals(RealField):
    """Reals whose products are rounded to two decimals."""

    def mul(self, x, y):
        return round(x * y, 2)


def _located_and_serializable(report):
    assert not report.passed
    assert 0 < len(report.violations) <= 20
    assert all({"x", "pair", "triple"} & set(v) for v in report.violations)
    return json.loads(json.dumps(report.to_json()))["violations"]


def test_scalar_group_axioms_failures_are_located():
    skew = _located_and_serializable(scalar_group_axiom_check(_SkewGF5()))
    assert {v["axiom"] for v in skew} == {"associativity"}
    # (2 . 2) . 3 = 3 . 3 = 4, but 2 . (2 . 3) = 2 . 1 = 2
    assert {"axiom": "associativity", "triple": [[2], [2], [3]]} in skew
    rounded = _located_and_serializable(scalar_group_axiom_check(_RoundedReals()))
    assert len(rounded) == 20  # truncated
    assert {"axiom": "identity", "x": -math.e} in rounded
    # below the float rounding of the grid, complex triples fail associativity
    tight = _located_and_serializable(scalar_group_axiom_check(ComplexField(1e-300)))
    assert any(len(v.get("triple", ())) == 3 for v in tight)


def test_dickson_multiplication_structure(d9):
    t = GaloisField(3, 2)  # the plain GF(9) product on the same elements
    els = d9.elements()
    nz = d9.nonzero_elements()
    # coupled product: squares multiply plainly, non-squares cube the
    # other operand first
    squares = {t.mul(y, y) for y in t.nonzero_elements()}
    assert len(squares) == 4
    for a in nz:
        for b in nz:
            expected = t.mul(a, b) if a in squares else t.mul(a, t.pow(b, 3))
            assert d9.mul(a, b) == expected
    # group structure on the nonzero part
    for a in nz:
        assert d9.mul(a, d9.inv(a)) == d9.one
        for b in nz:
            for c in nz:
                assert d9.mul(d9.mul(a, b), c) == d9.mul(a, d9.mul(b, c))
    # left distributivity, the defining near-field law
    for a in els:
        for b in els:
            for c in els:
                assert d9.mul(a, d9.add(b, c)) == d9.add(d9.mul(a, b), d9.mul(a, c))
    # the multiplicative group is the quaternion one: a single involution
    involutions = [x for x in nz if d9.mul(x, x) == d9.one and x != d9.one]
    assert involutions == [d9.minus_one]


def test_distributive_elements(gf5, d9):
    assert len(distributive_elements(gf5)) == 5
    fd = distributive_elements(d9)
    assert [d9.to_int(x) for x in fd] == [0, 1, 2]
    with pytest.raises(UnsupportedBaseError):
        distributive_elements(REALS)


def test_distributive_bound_holds_after_a_kept_sweep(d9):
    q = d9.order()
    assert distributive_elements(Dickson9(), bound=q**3) == distributive_elements(d9)
    with pytest.raises(BoundExceededError):
        distributive_elements(d9, bound=q**3 - 1)


def test_induced_add_examples(gf5):
    s3 = FinitePower(gf5, 3)
    one = gf5.one
    assert induced_add(gf5, s3, one, one) == gf5.from_int(3)
    ident = identity_auto(gf5)
    for x in gf5.elements():
        for y in gf5.elements():
            assert induced_add(gf5, ident, x, y) == gf5.add(x, y)
    phi3 = RealPower(REALS, 3.0)
    assert REALS.eq(induced_add(REALS, phi3, 1.0, 1.0), 2.0 ** (1.0 / 3.0))


@pytest.mark.parametrize("exponent", [1, 3])
def test_induced_add_abelian_group_finite(gf5, exponent):
    sigma = FinitePower(gf5, exponent)
    els = gf5.elements()
    for x in els:
        assert induced_add(gf5, sigma, x, gf5.zero) == x
        for y in els:
            assert induced_add(gf5, sigma, x, y) == induced_add(gf5, sigma, y, x)
            for z in els:
                lhs = induced_add(gf5, sigma, induced_add(gf5, sigma, x, y), z)
                rhs = induced_add(gf5, sigma, x, induced_add(gf5, sigma, y, z))
                assert lhs == rhs


def test_induced_add_abelian_group_sampled_real():
    rng = random.Random(11)
    for alpha in (2.0, 3.0, 0.5):
        sigma = RealPower(REALS, alpha)
        for _ in range(400):
            x, y, z = (rng.uniform(-5, 5) for _ in range(3))
            assert REALS.eq(
                induced_add(REALS, sigma, x, y), induced_add(REALS, sigma, y, x)
            )
            lhs = induced_add(REALS, sigma, induced_add(REALS, sigma, x, y), z)
            rhs = induced_add(REALS, sigma, x, induced_add(REALS, sigma, y, z))
            assert REALS.eq(lhs, rhs)
            assert REALS.eq(induced_add(REALS, sigma, x, 0.0), x)


def test_induced_left_distributivity(d9):
    # g . (a (+)_sigma b) = g.a (+)_sigma g.b for every automorphism twist
    autos = enumerate_mult_autos(d9)[:6]
    els = d9.elements()
    for sigma in autos:
        for g in d9.nonzero_elements():
            for a in els:
                for b in els:
                    lhs = d9.mul(g, induced_add(d9, sigma, a, b))
                    rhs = induced_add(d9, sigma, d9.mul(g, a), d9.mul(g, b))
                    assert lhs == rhs


def test_is_nearfield_automorphism_examples(gf5):
    gf8 = GaloisField(2, 3)
    assert is_nearfield_automorphism(gf8, FinitePower(gf8, 2))
    assert not is_nearfield_automorphism(gf5, FinitePower(gf5, 3))
    assert is_nearfield_automorphism(REALS, RealPower(REALS, 1.0))
    assert not is_nearfield_automorphism(REALS, RealPower(REALS, 2.0))
    assert is_nearfield_automorphism(COMPLEXES, ComplexEps(COMPLEXES, 1.0))
    assert is_nearfield_automorphism(COMPLEXES, ComplexEps(COMPLEXES, 1.0, True))
    assert not is_nearfield_automorphism(COMPLEXES, ComplexEps(COMPLEXES, 2.0))


@pytest.mark.parametrize(
    "p,n", [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4), (13, 1), (2, 5)]
)
def test_power_map_fast_path_matches_exhaustive(p, n):
    # every family on a Galois field, tables included, goes through the
    # generator's exponent; the pair loop below is the oracle
    base = GaloisField(p, n)
    els = base.elements()

    def exhaustive(f):
        return all(
            f.apply(base.add(x, y)) == base.add(f.apply(x), f.apply(y))
            for x in els
            for y in els
        )

    autos = enumerate_mult_autos(base)
    second = as_perm(autos[-1])
    for auto in autos:
        table = as_perm(auto)
        for f in (auto, table, compose(table, second)):
            assert is_nearfield_automorphism(base, f) == exhaustive(f)


def test_pair_loop_charges_the_default_bound(d9, monkeypatch):
    autos = enumerate_mult_autos(d9)
    assert is_nearfield_automorphism(d9, autos[0])
    monkeypatch.setattr(nearfield, "DEFAULT_BRUTE_BOUND", 80)
    with pytest.raises(BoundExceededError, match=r"^9\^2 additivity pairs exceed the bound 80$"):
        is_nearfield_automorphism(d9, autos[0])


def test_transport_check(gf5, d9):
    assert divisionring_transport_check(gf5, FinitePower(gf5, 3)).passed
    assert divisionring_transport_check(gf5, identity_auto(gf5)).passed
    for auto in enumerate_mult_autos(d9):
        assert divisionring_transport_check(d9, auto).passed


def test_real_complex_eq_is_relative():
    r = RealField(1e-9)
    assert r.eq(1e12, 1e12 + 1.0)
    assert not r.eq(1.0, 1.0 + 1e-6)
    c = ComplexField(1e-9)
    assert not c.eq(1e12 + 0j, 1e12 + 5000j)
    assert c.eq(1e12 + 0j, 1e12 + 500j)
    assert len(c.sample_points()) == 25


def test_real_complex_eq_reads_infinity_exactly():
    inf, nan = math.inf, math.nan
    for base in (REALS, COMPLEXES):
        assert not base.eq(inf, 1) and not base.eq(1, inf) and not base.eq(inf, -inf)
        assert base.eq(inf, inf) and base.eq(-inf, -inf)
        assert not base.eq(nan, nan) and not base.eq(nan, 1)
    assert not COMPLEXES.eq(complex(inf, 1), complex(inf, 2))
    assert COMPLEXES.eq(complex(inf, 0), complex(inf, 0))


def test_base_equality_and_describe(gf5, d9):
    assert gf5 == GaloisField(5, 1)
    assert gf5 != GaloisField(7, 1)
    assert d9 == Dickson9()
    # same table, different product: never equal, in either order
    assert GaloisField(3, 2) != d9 and d9 != GaloisField(3, 2)
    assert not GaloisField(3, 2).__eq__(d9) and not d9.__eq__(GaloisField(3, 2))
    assert RealField() == RealField()
    assert RealField(1e-6) != RealField(1e-9)
    assert gf5.describe() == {"kind": "gf", "p": 5, "n": 1, "modulus": [0, 1]}
    assert d9.describe() == {"kind": "dickson9"}
    assert COMPLEXES.describe() == {"kind": "complex", "tolerance": 1e-9}
