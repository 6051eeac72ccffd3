"""Spaces: vector operations, quasi-kernel, decomposition, coproducts."""

import itertools

import pytest

from nearvec.errors import (
    BaseMismatchError,
    BoundExceededError,
    InvalidAnchorError,
    NearVecError,
    UnsupportedBaseError,
)
from nearvec.mult_auto import InnerAuto, compose, enumerate_mult_autos, identity_auto
from nearvec.nearfield import REALS, Dickson9, GaloisField
from nearvec.nvspace import (
    Partition,
    SparseVector,
    SpaceSpec,
    anchored_add,
    compatible,
    coproduct,
    decomposition_classes,
    exponent_space,
    in_quasi_kernel,
    is_regular_bruteforce,
    materialize_quasi_kernel,
    nvs_axiom_check,
    quasi_kernel_bruteforce,
    quasi_kernel_closed,
    regular_components,
    regular_decomposition,
    same_addition_classes,
)


@pytest.fixture(scope="module")
def gf5():
    return GaloisField.of(5, 1)


@pytest.fixture(scope="module")
def spec13(gf5):
    """GF(5) two axes, addition twists x^1 and x^3."""
    return exponent_space(gf5, [1, 3])


@pytest.fixture(scope="module")
def d9():
    return Dickson9()


@pytest.fixture(scope="module")
def d9_spec(d9):
    ident = identity_auto(d9)
    return SpaceSpec(d9, {"1": ident, "2": ident}, {"1": ident, "2": ident})


def ints(gf, v):
    return {k: gf.table.to_int(x) for k, x in v}


# -- vectors ------------------------------------------------------------------


def test_sparse_vector_prunes_zeros(gf5, spec13):
    v = spec13.vector({"1": gf5.zero, "2": gf5.one})
    assert v.support == ("2",)
    assert spec13.vector({}).is_zero()
    w = SparseVector({"1": 0.0, "2": 2.5})
    assert w.support == ("2",)
    assert SparseVector({"1": 1.0}) == SparseVector({"1": 1.0})
    assert hash(SparseVector({"1": 1.0})) == hash(SparseVector({"1": 1.0}))


def test_vector_rejects_bad_labels_and_scalars(spec13, gf5):
    with pytest.raises(NearVecError):
        spec13.vector({"9": gf5.one})
    with pytest.raises(BaseMismatchError):
        spec13.vector({"1": 1.0})


def test_vec_add_componentwise(gf5, spec13):
    one = gf5.one
    v = spec13.vector({"1": one, "2": one})
    assert ints(gf5, spec13.add(v, v)) == {"1": 2, "2": 3}
    assert spec13.add(v, spec13.vector({})) == v
    rs = exponent_space(REALS, [2.0])
    s = rs.add(rs.vector({"1": 3.0}), rs.vector({"1": 4.0}))
    assert REALS.eq(s.get("1"), 5.0)


def test_scalar_mul(gf5):
    spec = exponent_space(gf5, [1], [3])
    out = spec.scale(gf5.table.from_int(2), spec.vector({"1": gf5.one}))
    assert ints(gf5, out) == {"1": 3}
    v = spec.vector({"1": gf5.table.from_int(4)})
    assert spec.scale(gf5.one, v) == v
    assert spec.scale(gf5.zero, v).is_zero()
    rs = exponent_space(REALS, [1.0], [2.0])
    assert REALS.eq(rs.scale(3.0, rs.vector({"1": 2.0})).get("1"), 18.0)


def test_minus_one_gives_additive_inverse(spec13, gf5):
    for entries in itertools.product(range(5), repeat=2):
        v = spec13.vector(
            {"1": gf5.table.from_int(entries[0]), "2": gf5.table.from_int(entries[1])}
        )
        assert spec13.add(v, spec13.neg(v)).is_zero()


def test_canonical_basis(gf5, spec13):
    basis = spec13.canonical_basis()
    assert [v.support for v in basis] == [("1",), ("2",)]
    empty = SpaceSpec(gf5, {}, {})
    assert empty.canonical_basis() == []
    gf7 = GaloisField.of(7, 1)
    assert len(exponent_space(gf7, [1, 1, 1]).canonical_basis()) == 3


def test_spec_validation(gf5):
    with pytest.raises(NearVecError):
        SpaceSpec(gf5, {"1": identity_auto(gf5)}, {})
    gf7 = GaloisField.of(7, 1)
    with pytest.raises(BaseMismatchError):
        SpaceSpec(gf5, {"1": identity_auto(gf7)}, {"1": identity_auto(gf7)})


# -- label partitions ---------------------------------------------------------


def test_same_addition_classes_examples(gf5, spec13):
    assert same_addition_classes(spec13).blocks == (("1",), ("2",))
    gf4 = GaloisField.of(2, 2)
    assert same_addition_classes(exponent_space(gf4, [1, 2])).blocks == (("1", "2"),)
    assert len(same_addition_classes(exponent_space(gf5, [3]))) == 1


def test_decomposition_classes_examples(gf5):
    gf7 = GaloisField.of(7, 1)
    spec = exponent_space(gf7, [1, 5, 5])
    assert decomposition_classes(spec).blocks == (("1",), ("2", "3"))
    # commutative bases: both partitions coincide
    assert decomposition_classes(spec) == same_addition_classes(spec)


def test_decomposition_classes_inner_twist(d9):
    ident = identity_auto(d9)
    autos = enumerate_mult_autos(d9)
    inner = InnerAuto(d9, d9.table.from_int(3))
    assert not inner.is_identity()
    base_auto = autos[0]
    twisted = compose(base_auto, inner)
    spec = SpaceSpec(
        d9, {"1": base_auto, "2": twisted}, {"1": ident, "2": ident}
    )
    assert same_addition_classes(spec).blocks == (("1",), ("2",))
    assert decomposition_classes(spec).blocks == (("1", "2"),)


def test_partition_rejects_overlap():
    with pytest.raises(NearVecError):
        Partition([("1", "2"), ("2", "3")])


def test_decomposition_never_finer_than_same_addition(gf5):
    gf7 = GaloisField.of(7, 1)
    for base in (gf5, gf7):
        units = [a.alpha for a in enumerate_mult_autos(base)]
        for exps in itertools.product(units, repeat=3):
            spec = exponent_space(base, exps)
            tilde = same_addition_classes(spec)
            ddot = decomposition_classes(spec)
            for block in tilde:
                target = ddot.block_of(block[0])
                assert set(block) <= set(target)


# -- quasi-kernel -------------------------------------------------------------


def test_quasi_kernel_examples(gf5, spec13):
    closed = materialize_quasi_kernel(spec13)
    brute = quasi_kernel_bruteforce(spec13)
    assert closed == brute
    assert len(closed) == 9
    supports = {v.support for v in closed}
    assert supports == {(), ("1",), ("2",)}

    gf4 = GaloisField.of(2, 2)
    spec12 = exponent_space(gf4, [1, 2])
    assert len(quasi_kernel_bruteforce(spec12)) == 16
    assert materialize_quasi_kernel(spec12) == quasi_kernel_bruteforce(spec12)

    line = exponent_space(gf5, [3], [3])
    assert len(quasi_kernel_bruteforce(line)) == 5  # one axis is everything


def test_quasi_kernel_description(spec13):
    desc = quasi_kernel_closed(spec13)
    assert desc.classes.blocks == (("1",), ("2",))
    assert desc.allowed == {"1": None, "2": None}


def test_quasi_kernel_dickson(d9, d9_spec):
    desc = quasi_kernel_closed(d9_spec)
    assert all(len(vals) == 3 for vals in desc.allowed.values())
    closed = materialize_quasi_kernel(d9_spec, desc)
    brute = quasi_kernel_bruteforce(d9_spec)
    assert closed == brute
    assert len(brute) == 33 < 81
    x = d9.table.from_int(3)
    excluded = d9_spec.vector({"1": d9.one, "2": x})
    assert excluded not in brute
    assert not in_quasi_kernel(d9_spec, excluded)[0]


def test_in_quasi_kernel_finite(gf5, spec13):
    gf7 = GaloisField.of(7, 1)
    spec55 = exponent_space(gf7, [5, 5])
    ok, _ = in_quasi_kernel(spec55, spec55.vector({"1": gf7.one, "2": gf7.one}))
    assert ok
    ok, witness = in_quasi_kernel(
        spec13, spec13.vector({"1": gf5.one, "2": gf5.one})
    )
    assert not ok and witness is not None
    assert in_quasi_kernel(spec13, spec13.vector({}))[0]
    # one vector costs q^2 scalar pairs however large q^d is
    gf101 = GaloisField.of(101, 1)
    big = exponent_space(gf101, [1, 1, 3])
    one = gf101.one
    assert in_quasi_kernel(big, big.vector({"1": one, "2": one}))[0]
    assert not in_quasi_kernel(big, big.vector({"1": one, "3": one}))[0]


def test_in_quasi_kernel_real_witness():
    spec = exponent_space(REALS, [1.0, 2.0])
    ok, witness = in_quasi_kernel(spec, spec.vector({"1": 1.0, "2": 1.0}))
    assert not ok
    assert witness == (1.0, 1.0)
    for lam in (1.0, -2.0, 0.25):
        ok, _ = in_quasi_kernel(spec, spec.vector({"1": lam}))
        assert ok


def test_bound_exceeded(gf5):
    spec = exponent_space(gf5, [1, 1, 1])
    with pytest.raises(BoundExceededError):
        quasi_kernel_bruteforce(spec, bound=100)


# -- anchored addition --------------------------------------------------------


def test_anchored_add_examples(gf5, spec13):
    one = gf5.one
    e2 = spec13.basis_vector("2")
    assert gf5.table.to_int(anchored_add(spec13, e2, one, one)) == 3
    e1 = spec13.basis_vector("1")
    for a in gf5.elements():
        for b in gf5.elements():
            assert anchored_add(spec13, e1, a, b) == gf5.add(a, b)


def test_anchored_add_scaling_invariance(gf5, spec13):
    # scaling the anchor by any nonzero element keeps the addition (the
    # base is a field, conjugation is trivial)
    e2 = spec13.basis_vector("2")
    for gamma in gf5.nonzero_elements():
        scaled = spec13.scale(gamma, e2)
        for a in gf5.elements():
            for b in gf5.elements():
                assert anchored_add(spec13, scaled, a, b) == anchored_add(
                    spec13, e2, a, b
                )


def test_anchored_add_support_independence():
    gf4 = GaloisField.of(2, 2)
    spec = exponent_space(gf4, [1, 2])
    # (1,1) lies in the quasi-kernel; solving on either support index
    # must agree, which anchored_add verifies internally
    u = spec.vector({"1": gf4.one, "2": gf4.one})
    assert in_quasi_kernel(spec, u)[0]
    table_a = {
        (a, b): anchored_add(spec, u, a, b)
        for a in gf4.elements()
        for b in gf4.elements()
    }
    flipped = spec.vector({"2": gf4.one, "1": gf4.one})
    assert all(
        anchored_add(spec, flipped, a, b) == g for (a, b), g in table_a.items()
    )


def test_anchored_add_scaled_basis_matches_inner_twist(d9):
    # anchoring at gamma . e_j induces the addition of theta_j composed
    # with conjugation by gamma; only visible on a noncommutative base
    autos = enumerate_mult_autos(d9)
    ident = identity_auto(d9)
    spec = SpaceSpec(d9, {"1": ident, "2": autos[7]}, {"1": autos[3], "2": autos[5]})
    from nearvec.nearfield import induced_add

    for j in spec.index:
        theta = spec.theta(j)
        for gamma in d9.nonzero_elements():
            u = spec.scale(gamma, spec.basis_vector(j))
            twisted = compose(theta, InnerAuto(d9, gamma))
            for a in d9.elements():
                for b in d9.elements():
                    assert anchored_add(spec, u, a, b) == induced_add(
                        d9, twisted, a, b
                    )


def test_anchored_add_rejects_bad_anchor(gf5, spec13):
    with pytest.raises(InvalidAnchorError):
        anchored_add(spec13, spec13.vector({}), gf5.one, gf5.one)
    outside = spec13.vector({"1": gf5.one, "2": gf5.one})
    with pytest.raises(InvalidAnchorError):
        for a in gf5.elements():
            for b in gf5.elements():
                anchored_add(spec13, outside, a, b)


# -- compatibility and regularity ---------------------------------------------


def test_compatible_examples(gf5, spec13):
    e1, e2 = spec13.basis_vector("1"), spec13.basis_vector("2")
    assert not compatible(spec13, e1, e2)
    two_e1 = spec13.scale(gf5.table.from_int(2), e1)
    assert compatible(spec13, e1, two_e1)
    assert compatible(spec13, e1, e1)
    with pytest.raises(InvalidAnchorError):
        compatible(spec13, e1, spec13.vector({"1": gf5.one, "2": gf5.one}))
    with pytest.raises(UnsupportedBaseError):
        rs = exponent_space(REALS, [1.0, 2.0])
        compatible(rs, rs.basis_vector("1"), rs.basis_vector("2"))


def test_is_regular_examples(gf5, spec13):
    gf4 = GaloisField.of(2, 2)
    assert is_regular_bruteforce(exponent_space(gf4, [1, 2]))
    assert not is_regular_bruteforce(spec13)
    assert is_regular_bruteforce(exponent_space(gf5, [3]))


def test_regular_decomposition(gf5, spec13):
    blocks = regular_decomposition(spec13)
    assert [sub.index for sub, _ in blocks] == [("1",), ("2",)]
    for sub, inj in blocks:
        assert is_regular_bruteforce(sub)
        v = sub.basis_vector(sub.index[0])
        assert inj.apply(v).support == v.support
    gf4 = GaloisField.of(2, 2)
    one_block = regular_decomposition(exponent_space(gf4, [1, 2]))
    assert len(one_block) == 1 and one_block[0][0].index == ("1", "2")


def test_regular_components(gf5, spec13):
    v = spec13.vector(
        {"1": gf5.table.from_int(2), "2": gf5.table.from_int(4)}
    )
    parts = regular_components(spec13, v)
    assert [p.support for p in parts] == [("1",), ("2",)]
    acc = spec13.vector({})
    for p in parts:
        acc = spec13.add(acc, p)
    assert acc == v
    assert all(p.is_zero() for p in regular_components(spec13, spec13.vector({})))
    single = exponent_space(gf5, [3])
    w = single.vector({"1": gf5.one})
    assert regular_components(single, w) == [w]


# -- coproduct ----------------------------------------------------------------


def test_coproduct_examples(gf5):
    a = exponent_space(gf5, [1])
    b = exponent_space(gf5, [3])
    combined, injections = coproduct([a, b])
    assert combined.dim == 2
    assert combined.index == ("0.1", "1.1")
    qk = quasi_kernel_bruteforce(combined)
    assert len(qk) == 9  # two axes again
    assert materialize_quasi_kernel(combined) == qk

    empty = SpaceSpec(gf5, {}, {})
    with_empty, _ = coproduct([a, empty])
    assert with_empty.dim == a.dim

    gf7 = GaloisField.of(7, 1)
    with pytest.raises(BaseMismatchError):
        coproduct([a, exponent_space(gf7, [1])])


def test_coproduct_injections_preserve_anchored_addition(gf5):
    # the embedded copy of a quasi-kernel vector anchors the same addition
    a = exponent_space(gf5, [3])
    b = exponent_space(gf5, [1, 3])
    combined, injections = coproduct([a, b])
    for spec, inj in zip((a, b), injections):
        for u in materialize_quasi_kernel(spec):
            if u.is_zero():
                continue
            image = inj.apply(u)
            for x in gf5.elements():
                for y in gf5.elements():
                    assert anchored_add(spec, u, x, y) == anchored_add(
                        combined, image, x, y
                    )


# -- axioms -------------------------------------------------------------------


def test_nvs_axiom_check(gf5, spec13, d9_spec):
    rep = nvs_axiom_check(spec13)
    assert rep.passed
    assert rep.details["quasi_kernel_size"] == 9
    assert rep.details["space_size"] == 25
    line = exponent_space(gf5, [3])
    rep = nvs_axiom_check(line)
    assert rep.passed
    assert rep.details["quasi_kernel_size"] == rep.details["space_size"] == 5
    assert nvs_axiom_check(d9_spec).passed


def test_two_term_decomposition_reachable(gf5, spec13):
    # (1,1) is not in the quasi-kernel but is a sum of two basis vectors,
    # so closure still reaches the whole space in one round
    rep = nvs_axiom_check(spec13)
    assert rep.details["closure_rounds"] == 1
