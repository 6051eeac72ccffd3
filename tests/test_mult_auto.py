"""Automorphism application, composition, inversion, enumeration."""

import itertools
import math
import random

import pytest

import nearvec.mult_auto as mult_auto
from nearvec.errors import BaseMismatchError, NearVecError, UnsupportedBaseError
from nearvec.mult_auto import (
    ComplexEps,
    FinitePower,
    InnerAuto,
    MultAuto,
    PermAuto,
    RealPower,
    as_perm,
    compose,
    enumerate_mult_autos,
    identity_auto,
    mult_properties_check,
    same_addition,
)
from nearvec.nearfield import (
    COMPLEXES,
    REALS,
    Dickson9,
    GaloisField,
    induced_add,
    is_nearfield_automorphism,
)
from nearvec.serialize import auto_from_json


@pytest.fixture(scope="module")
def gf5():
    return GaloisField(5, 1)


@pytest.fixture(scope="module")
def gf8():
    return GaloisField(2, 3)


@pytest.fixture(scope="module")
def d9():
    return Dickson9()


@pytest.fixture(scope="module")
def d9_autos(d9):
    return enumerate_mult_autos(d9)


# -- application -------------------------------------------------------------


def test_apply_examples(gf5):
    assert RealPower(REALS, 3.0).apply(-2.0) == -8.0
    assert RealPower(REALS, 0.5).apply(9.0) == 3.0
    assert RealPower(REALS, 2.0).apply(0.0) == 0.0
    e2 = ComplexEps(COMPLEXES, 2.0)
    assert COMPLEXES.eq(e2.apply(2j), 4j)
    assert e2.apply(0j) == 0j
    inner = InnerAuto(gf5, gf5.from_int(2))
    for x in gf5.elements():
        assert inner.apply(x) == x


def test_finite_power_validation(gf5):
    with pytest.raises(NearVecError):
        FinitePower(gf5, 2)  # gcd(2, 4) != 1
    assert FinitePower(gf5, -1).alpha == 3
    assert FinitePower(gf5, 7).alpha == 3
    with pytest.raises(BaseMismatchError):
        FinitePower(REALS, 3)


def test_real_complex_validation():
    with pytest.raises(NearVecError):
        RealPower(REALS, 0.0)
    with pytest.raises(NearVecError):
        ComplexEps(COMPLEXES, 2j)
    with pytest.raises(NearVecError):
        InnerAuto(REALS, 0.0)


def test_perm_validation(d9):
    els = d9.elements()
    with pytest.raises(NearVecError):
        PermAuto(d9, {x: x for x in els[:-1]})
    swapped = {x: x for x in els}
    swapped[d9.zero], swapped[d9.one] = d9.one, d9.zero
    with pytest.raises(NearVecError):
        PermAuto(d9, swapped)
    with pytest.raises(NearVecError):  # plain ints are not elements
        PermAuto(d9, {int(x): int(x) for x in els})
    # a bijection fixing 0 and 1 that breaks the product law
    bad = {x: x for x in els}
    a, b = d9.from_int(3), d9.from_int(4)
    bad[a], bad[b] = b, a
    if any(bad[d9.mul(x, y)] != d9.mul(bad[x], bad[y]) for x in els for y in els):
        with pytest.raises(NearVecError):
            PermAuto(d9, bad)
    with pytest.raises(UnsupportedBaseError):
        as_perm(RealPower(REALS, 2.0))


# -- composition and inversion ----------------------------------------------


def test_compose_merges_exponents(gf5):
    s3 = FinitePower(gf5, 3)
    assert compose(s3, s3) == FinitePower(gf5, 1)
    assert compose(s3, identity_auto(gf5)) == s3
    merged = compose(RealPower(REALS, 2.0), RealPower(REALS, 3.0))
    assert isinstance(merged, RealPower) and merged.alpha == 6.0


def test_compose_requires_same_base(gf5, gf8):
    with pytest.raises(BaseMismatchError):
        compose(FinitePower(gf5, 3), FinitePower(gf8, 3))


@pytest.mark.parametrize(
    "a_param,b_param",
    [
        ((2.0, False), (3.0, False)),
        ((2 + 1j, False), (0.5 - 2j, True)),
        ((1.5, True), (2 - 1j, True)),
        ((-2 + 0.5j, True), (3 + 1j, False)),
    ],
)
def test_complex_compose_matches_pointwise(a_param, b_param):
    a = ComplexEps(COMPLEXES, a_param[0], a_param[1])
    b = ComplexEps(COMPLEXES, b_param[0], b_param[1])
    c = compose(a, b)
    assert isinstance(c, ComplexEps)
    for z in COMPLEXES.sample_points():
        assert COMPLEXES.eq(c.apply(z), a.apply(b.apply(z)))


def test_compose_property_finite(gf8, d9, d9_autos):
    autos8 = enumerate_mult_autos(gf8)
    for a in autos8:
        for b in autos8:
            c = compose(a, b)
            for x in gf8.elements():
                assert c.apply(x) == a.apply(b.apply(x))
    rng = random.Random(5)
    for _ in range(30):
        a, b = rng.choice(d9_autos), rng.choice(d9_autos)
        c = compose(a, b)
        assert isinstance(c, PermAuto)
        for x in d9.elements():
            assert c.apply(x) == a.apply(b.apply(x))


@pytest.mark.parametrize("name", ["d9", "gf8"])
def test_derived_tables_pass_the_full_check(request, name):
    # products and inverses skip the product-law check of PermAuto.__init__;
    # every one of them must still pass it and equal the checked table
    base = request.getfixturevalue(name)
    autos = enumerate_mult_autos(base) + [InnerAuto(base, g) for g in base.nonzero_elements()]
    tables = [as_perm(a) for a in autos]
    derived = [compose(a, b) for a in tables for b in tables]
    derived += [t.inverse() for t in tables] + [identity_auto(base)]
    for auto in derived:
        t = as_perm(auto)
        assert PermAuto(base, t.table) == t


@pytest.mark.parametrize("base", [GaloisField(2, 2), GaloisField(5, 1), Dickson9()], ids=repr)
def test_codes_are_the_images_of_the_elements(base):
    # every family's one table, whether built from apply, from the factors'
    # codes (products, inverses) or given (tables, the identity)
    els = base.elements()
    maps = enumerate_mult_autos(base) + [InnerAuto(base, g) for g in base.nonzero_elements()]
    tables = [as_perm(a) for a in maps]
    pairs = list(itertools.product(maps, tables))
    composed = [compose(a, b) for a, b in pairs]
    inverses = [a.inverse() for a in maps + tables]
    for auto in [*maps, *tables, *composed, *inverses, identity_auto(base)]:
        assert auto.codes == tuple(auto.apply(x) for x in els), auto
        t = as_perm(auto)
        assert t.codes == auto.codes and PermAuto(base, t.table) == t
    for (a, b), c in zip(pairs, composed):
        assert c.codes == tuple(a.apply(b.apply(x)) for x in els)
    for a, inv in zip(maps + tables, inverses):
        assert [inv.codes[y] for y in a.codes] == list(els)


def test_decoded_tables_keep_the_full_check(d9):
    bad = {x: x for x in d9.elements()}
    a, b = d9.from_int(2), d9.from_int(3)
    bad[a], bad[b] = b, a
    record = {"kind": "perm", "table": [[list(x.coeffs), list(y.coeffs)] for x, y in bad.items()]}
    with pytest.raises(NearVecError, match="not multiplicative"):
        auto_from_json(d9, record)


def test_inverse_examples(gf5):
    gf7 = GaloisField(7, 1)
    f5 = FinitePower(gf7, 5)
    assert f5.inverse() == f5  # 5*5 = 25 = 1 mod 6
    ident = identity_auto(gf5)
    assert ident.inverse() == ident
    e2inv = ComplexEps(COMPLEXES, 2.0).inverse()
    assert COMPLEXES.eq(e2inv.apply(4j), 2j)


def test_inverse_roundtrip(gf8, d9_autos, d9):
    for auto in enumerate_mult_autos(gf8):
        inv = auto.inverse()
        for x in gf8.elements():
            assert inv.apply(auto.apply(x)) == x
    for auto in d9_autos[:8]:
        inv = auto.inverse()
        for x in d9.elements():
            assert inv.apply(auto.apply(x)) == x
    rng = random.Random(7)
    for alpha in (2.0, -0.5, 3.25):
        auto = RealPower(REALS, alpha)
        inv = auto.inverse()
        for _ in range(100):
            x = rng.uniform(-10, 10)
            assert REALS.eq(inv.apply(auto.apply(x)), x)
    for alpha, conj in ((2.0, False), (2 + 1j, False), (3.0, True), (1 - 2j, True)):
        auto = ComplexEps(COMPLEXES, alpha, conj)
        inv = auto.inverse()
        for z in COMPLEXES.sample_points():
            assert COMPLEXES.eq(inv.apply(auto.apply(z)), z)
            assert COMPLEXES.eq(auto.apply(inv.apply(z)), z)


def test_comp_auto_normalization(gf5):
    # a comp record decodes to one automorphism: identities drop and
    # same-family factors merge
    s3 = {"kind": "fpow", "alpha": 3}
    chain = {"kind": "comp", "factors": [s3, {"kind": "fpow", "alpha": 1}, s3]}
    assert auto_from_json(gf5, chain) == identity_auto(gf5)
    powers = [{"kind": "rpow", "alpha": 2.0}, {"kind": "rpow", "alpha": 3.0}]
    mixed = auto_from_json(REALS, {"kind": "comp", "factors": powers})
    assert mixed == RealPower(REALS, 6.0)
    inv = mixed.inverse()
    for x in (0.5, -2.0, 3.0):
        assert REALS.eq(inv.apply(mixed.apply(x)), x)


# -- enumeration -------------------------------------------------------------


def test_enumeration_counts(gf5, gf8, d9_autos):
    assert [a.alpha for a in enumerate_mult_autos(gf5)] == [1, 3]
    assert len(enumerate_mult_autos(GaloisField(2, 2))) == 2
    assert len(enumerate_mult_autos(gf8)) == 6
    assert len(d9_autos) == 24
    assert len({a.codes for a in d9_autos}) == 24
    with pytest.raises(UnsupportedBaseError):
        enumerate_mult_autos(REALS)


def test_enumeration_is_kept_per_base(monkeypatch):
    first = enumerate_mult_autos(Dickson9())
    first.pop()  # a caller's list is its own
    kept = enumerate_mult_autos(Dickson9())
    assert len(kept) == 24 and kept[:-1] == first
    # the kept maps are those a fresh enumeration of another instance finds
    monkeypatch.setattr(mult_auto, "_ENUMERATED", {})
    assert enumerate_mult_autos(Dickson9()) == kept


def _order_class_search(base):
    """Reference enumeration: every bijection of the nonzero elements that
    preserves multiplicative order and every product, ordered by the
    positions of the images in element order."""
    els, nonzero = base.elements(), base.nonzero_elements()

    def order(x):
        k, acc = 1, x
        while acc != base.one:
            acc, k = base.mul(acc, x), k + 1
        return k

    by_order = {}
    for x in nonzero:
        by_order.setdefault(order(x), []).append(x)
    classes = [by_order[k] for k in sorted(by_order)]
    found = []
    for images in itertools.product(*(itertools.permutations(c) for c in classes)):
        table = {base.zero: base.zero}
        for cls, img in zip(classes, images):
            table.update(zip(cls, img))
        if all(
            table[base.mul(x, y)] == base.mul(table[x], table[y])
            for x in nonzero
            for y in nonzero
        ):
            found.append(tuple(table[x] for x in els))
    return sorted(found, key=lambda sig: tuple(els.index(v) for v in sig))


class _FieldAsGroup(GaloisField):
    """A Galois field the enumeration does not recognise as one, so its
    automorphisms come from generator images like any finite base's."""

    kind = "gf-as-group"


class _GroupZ2xZ4(_FieldAsGroup):
    """The elements of GF(9) with the product of Z2 x Z4 on the nonzero
    ones (log k stands for (k mod 2, k div 2)).  Not cyclic, and the
    generator images include bijections that break a relation, so a
    table grown along the Cayley graph must reject disagreeing paths."""

    def __init__(self):
        super().__init__(3, 2)

    def mul(self, x, y):
        if x == self.zero or y == self.zero:
            return self.zero
        a, b = self.log[x], self.log[y]
        return self.antilog[(a + b) % 2 + 2 * ((a // 2 + b // 2) % 4)]


@pytest.mark.parametrize("maker", [Dickson9, _GroupZ2xZ4], ids=["d9", "z2xz4"])
def test_enumeration_matches_order_class_search(maker):
    base = maker()
    expected = _order_class_search(base)
    assert len(expected) == {Dickson9: 24, _GroupZ2xZ4: 8}[maker]
    assert [a.codes for a in enumerate_mult_autos(base)] == expected


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (5, 2), (3, 3)])
def test_field_enumerated_as_group_gives_power_maps(p, n):
    base = _FieldAsGroup(p, n)
    autos = enumerate_mult_autos(base)
    assert all(isinstance(a, PermAuto) for a in autos)
    m = base.order() - 1
    powers = {
        tuple(base.pow(x, a) for x in base.elements())
        for a in range(1, m + 1)
        if math.gcd(a, m) == 1
    }
    assert len(autos) == len(powers)
    assert {a.codes for a in autos} == powers


def test_enumerated_autos_satisfy_properties(gf8, d9_autos):
    for auto in enumerate_mult_autos(gf8):
        assert mult_properties_check(auto).passed
    for auto in d9_autos:
        assert mult_properties_check(auto).passed


def test_properties_check_sampled():
    assert mult_properties_check(RealPower(REALS, 0.5), samples=300).passed
    assert mult_properties_check(RealPower(REALS, -2.0), samples=300).passed
    rep = mult_properties_check(ComplexEps(COMPLEXES, 2 + 1j, True), samples=300)
    assert rep.passed
    assert rep.details["pairs_checked"] >= 300


class _ShiftByOne(MultAuto):
    """x -> x + 1: fixes neither 0 nor 1 and sends the nonzero -1 to 0."""

    def apply(self, x):
        return self.base.add(x, self.base.one)


@pytest.mark.parametrize("kind", ["gf5", "real"])
def test_properties_check_reports_zero_image_as_inversion(kind, gf5):
    base = gf5 if kind == "gf5" else REALS
    rep = mult_properties_check(_ShiftByOne(base), samples=50)
    assert not rep.passed
    laws = [v["law"] for v in rep.violations]
    assert laws[:3] == ["fixes-zero", "fixes-one", "negation"]
    # per-element laws interleave, then come the pair laws
    rank = {"fixes-zero": 0, "fixes-one": 1, "negation": 2, "inversion": 2, "product": 3}
    assert [rank[law] for law in laws] == sorted(rank[law] for law in laws)
    assert ("product" in laws) == (kind == "gf5")  # the reals' 60 points fill the cap
    assert {"law": "inversion", "x": base.minus_one} in rep.violations
    assert rep.details["pairs_checked"] == (25 if kind == "gf5" else 50)
    assert len(rep.violations) == 20


def test_properties_negation_example():
    phi_half = RealPower(REALS, 0.5)
    assert phi_half.apply(-4.0) == -2.0 == -phi_half.apply(4.0)


# -- same addition -----------------------------------------------------------


def test_same_addition_examples(gf8):
    assert same_addition(FinitePower(gf8, 3), FinitePower(gf8, 6))
    assert not same_addition(FinitePower(gf8, 3), FinitePower(gf8, 1))
    a = FinitePower(gf8, 5)
    assert same_addition(a, a)
    alpha = 2 + 1j
    assert same_addition(
        ComplexEps(COMPLEXES, alpha), ComplexEps(COMPLEXES, alpha.conjugate(), True)
    )
    assert not same_addition(ComplexEps(COMPLEXES, 2.0), ComplexEps(COMPLEXES, 3.0))
    assert not same_addition(RealPower(REALS, 2.0), RealPower(REALS, 3.0))


def test_same_addition_reflexive_on_real_powers():
    # a . a^-1 can land a rounding step away from the identity exponent
    # (alpha = 0.9999999999999999 for a = 49), which still agrees with the
    # identity on the sample grid
    for a in range(1, 200):
        assert same_addition(RealPower(REALS, a), RealPower(REALS, a)), a
    assert not same_addition(RealPower(REALS, 49), RealPower(REALS, 49.5))


@pytest.mark.parametrize("maker", ["gf4", "gf5", "gf8", "d9"])
def test_same_addition_is_equivalence(maker, gf5, gf8, d9, d9_autos):
    base, autos = {
        "gf4": (GaloisField(2, 2), None),
        "gf5": (gf5, None),
        "gf8": (gf8, None),
        "d9": (d9, d9_autos),
    }[maker]
    autos = autos or enumerate_mult_autos(base)
    rel = [[same_addition(a, b) for b in autos] for a in autos]
    n = len(autos)
    for i in range(n):
        assert rel[i][i]
        for j in range(n):
            assert rel[i][j] == rel[j][i]
            for k in range(n):
                if rel[i][j] and rel[j][k]:
                    assert rel[i][k]


def test_additive_twist_preserves_induced_addition(gf8):
    # composing with an addition-preserving map never changes the induced
    # addition
    frob = FinitePower(gf8, 2)
    assert is_nearfield_automorphism(gf8, frob)
    for alpha in (1, 3, 5):
        a = FinitePower(gf8, alpha)
        twisted = compose(frob, a)
        for x in gf8.elements():
            for y in gf8.elements():
                assert induced_add(gf8, a, x, y) == induced_add(gf8, twisted, x, y)


def test_inner_auto_on_noncommutative_base(d9):
    x = d9.from_int(3)
    inner = InnerAuto(d9, x)
    assert not inner.is_identity()
    assert mult_properties_check(inner).passed
    assert inner.inverse().apply(inner.apply(x)) == x
    central = InnerAuto(d9, d9.minus_one)
    assert central.is_identity()


def test_self_cancellation_is_additive(gf5, gf8, d9, d9_autos):
    # f composed with its own inverse is the identity, which is trivially
    # addition preserving on every base
    candidates = (
        [FinitePower(gf5, 3), FinitePower(gf8, 3)]
        + d9_autos[:3]
        + [RealPower(REALS, 2.0), ComplexEps(COMPLEXES, 2 + 1j, True)]
    )
    for f in candidates:
        assert is_nearfield_automorphism(f.base, compose(f, f.inverse()))


def test_describe_roundtrip_shapes(gf5):
    assert FinitePower(gf5, 3).describe() == {"kind": "fpow", "alpha": 3}
    assert RealPower(REALS, 2.5).describe() == {"kind": "rpow", "alpha": 2.5}
    d = ComplexEps(COMPLEXES, 2 + 1j, True).describe()
    assert d == {"kind": "ceps", "alpha": [2.0, 1.0], "conj": True}
