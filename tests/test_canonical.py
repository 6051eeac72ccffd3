"""Normal forms, isomorphism verification, certificates, products."""

import itertools
import json
import random

import pytest

from nearvec.canonical import (
    IsoMap,
    basis_transport_check,
    is_multiplicative,
    normal_form_rho,
    normal_form_sigma,
    product_hypotheses,
    product_regroup,
    verify_iso,
)
from nearvec.errors import BoundExceededError
from nearvec.mult_auto import FinitePower, enumerate_mult_autos, identity_auto
from nearvec.nearfield import COMPLEXES, REALS, Dickson9, GaloisField, induced_add
from nearvec.nvspace import (
    SpaceSpec,
    anchored_add,
    exponent_space,
    materialize_quasi_kernel,
    nvs_axiom_check,
    quasi_kernel_bruteforce,
)


@pytest.fixture(scope="module")
def gf5():
    return GaloisField(5, 1)


@pytest.fixture(scope="module")
def d9():
    return Dickson9()


def test_normal_form_sigma_merges_exponents(gf5):
    spec = exponent_space(gf5, [3], [3])
    target, m = normal_form_sigma(spec)
    assert target.sigma["1"] == FinitePower(gf5, 1)  # 3*3 = 9 = 1 mod 4
    assert target.rho["1"].is_identity()
    spec2 = exponent_space(gf5, [1, 3], [3, 1])
    target2, _ = normal_form_sigma(spec2)
    assert [target2.sigma[k].alpha for k in target2.index] == [3, 3]
    ident_spec = exponent_space(gf5, [1], [1])
    t3, _ = normal_form_sigma(ident_spec)
    assert t3.sigma["1"].is_identity() and t3.rho["1"].is_identity()


def test_normal_form_rho_merges_exponents(gf5):
    spec = exponent_space(gf5, [3], [1])
    target, _ = normal_form_rho(spec)
    assert target.sigma["1"].is_identity()
    assert target.rho["1"] == FinitePower(gf5, 3)
    gf8 = GaloisField(2, 3)
    spec8 = exponent_space(gf8, [2], [3])
    target8, _ = normal_form_rho(spec8)
    assert target8.rho["1"] == FinitePower(gf8, 6)  # 2*3 mod 7


def test_verify_iso_passes_for_normal_forms(gf5):
    gf4 = GaloisField(2, 2)
    for base in (gf5, gf4):
        units = [a.alpha for a in enumerate_mult_autos(base)]
        for se in itertools.product(units, repeat=2):
            for re_ in itertools.product(units, repeat=2):
                spec = exponent_space(base, se, re_)
                for maker in (normal_form_sigma, normal_form_rho):
                    target, m = maker(spec)
                    rep = verify_iso(m)
                    assert rep.passed, (se, re_, maker.__name__)
                    assert rep.details["mode"] == "exhaustive-by-component"


def test_verify_iso_detects_corrupted_map(gf5):
    spec = exponent_space(gf5, [1, 3])
    target, m = normal_form_sigma(spec)
    # swap the two basis images across addition classes
    corrupted = IsoMap(
        spec,
        target,
        {
            "1": m.basis_images["2"],
            "2": m.basis_images["1"],
        },
    )
    rep = verify_iso(corrupted)
    assert not rep.passed
    assert any(v["law"] == "additive" for v in rep.violations)
    # the same swap with a non-unit image leaves the basis-aligned path;
    # its violations hold vector pairs instead of scalar pairs
    two = gf5.from_int(2)
    unaligned = IsoMap(
        spec,
        target,
        {
            "1": target.scale(two, m.basis_images["2"]),
            "2": m.basis_images["1"],
        },
    )
    rep2 = verify_iso(unaligned)
    assert rep2.details["mode"] == "exhaustive" and not rep2.passed
    # both reports survive json.dumps: scalars as coefficient arrays,
    # vectors as {label: scalar}
    scalar_pair = json.loads(json.dumps(rep.to_json()))["violations"][0]["pair"]
    assert all(isinstance(x, list) and len(x) == 1 for x in scalar_pair)
    vector_pair = json.loads(json.dumps(rep2.to_json()))["violations"][0]["pair"]
    assert all(isinstance(v, dict) for v in vector_pair)
    assert all(isinstance(x, list) for v in vector_pair for x in v.values())


def test_verify_iso_identity_map_full_loop(gf5):
    spec = exponent_space(gf5, [1, 3])
    two = gf5.from_int(2)
    # non-unit image value forces the all-pairs path
    images = {
        "1": spec.scale(two, spec.basis_vector("1")),
        "2": spec.basis_vector("2"),
    }
    m = IsoMap(spec, spec, images)
    rep = verify_iso(m)
    assert rep.details["mode"] == "exhaustive"
    assert rep.passed  # scaling a basis vector inside its own axis is fine


def test_verify_iso_sampled_real():
    spec = exponent_space(REALS, [2.0, 1.0])
    target, m = normal_form_sigma(spec)
    rep = verify_iso(m, trials=150, seed=3)
    assert rep.passed
    assert rep.details["mode"] == "sampled"


def test_verify_iso_sampled_detects_corrupted_map():
    spec = exponent_space(REALS, [1.0, 3.0])
    target, m = normal_form_sigma(spec)
    corrupted = IsoMap(
        spec, target, {"1": m.basis_images["2"], "2": m.basis_images["1"]}
    )
    rep = verify_iso(corrupted, trials=150, seed=3)
    assert not rep.passed
    assert rep.details == {"mode": "sampled", "checked": 300}
    assert 0 < len(rep.violations) <= 20
    additive = [
        v for v in json.loads(json.dumps(rep.to_json()))["violations"]
        if v["law"] == "additive"
    ]
    assert additive
    # each pair holds the two sampled vectors as {label: real}
    for v in additive:
        assert len(v["pair"]) == 2
        assert all(isinstance(x, float) for u in v["pair"] for x in u.values())


def _component_reference(m):
    """The per-component pairs and violations by the old loop, which calls
    ``induced_add`` and ``apply`` on every pair."""
    src, tgt = m.source, m.target
    base = src.base
    els = base.elements()
    violations = []
    pairs = 0
    for label in src.index:
        tlabel = next(iter(m.basis_images[label]))[0]
        rho_inv = src.rho[label].inverse()

        def g(x):
            return tgt.rho[tlabel].apply(rho_inv.apply(x))

        for x in els:
            for y in els:
                lhs = g(induced_add(base, src.sigma[label], x, y))
                if lhs != induced_add(base, tgt.sigma[tlabel], g(x), g(y)):
                    violations.append({"law": "additive", "label": label, "pair": (x, y)})
                pairs += 1
        for alpha in els:
            for x in els:
                lhs = g(base.mul(src.rho[label].apply(alpha), x))
                if lhs != base.mul(tgt.rho[tlabel].apply(alpha), g(x)):
                    violations.append({"law": "equivariant", "label": label, "pair": (alpha, x)})
                pairs += 1
    return pairs, violations


def _aligned_maps(spec):
    """Both normal-form maps of the space, and each with its basis images
    rotated by one label."""
    labels = spec.index
    for maker in (normal_form_sigma, normal_form_rho):
        target, m = maker(spec)
        yield m
        rotated = {k: target.basis_vector(labels[(i + 1) % len(labels)]) for i, k in enumerate(labels)}
        yield IsoMap(spec, target, rotated)


def _seeded_dickson_specs(d9, count, seed):
    rng = random.Random(seed)
    autos = enumerate_mult_autos(d9)
    for k in range(count):
        labels = [str(i) for i in range(1, 2 + k % 2 + 1)]
        yield SpaceSpec(
            d9, {i: rng.choice(autos) for i in labels}, {i: rng.choice(autos) for i in labels}
        )


def test_verify_iso_components_match_reference_loop(gf5, d9):
    pairs = list(itertools.product((1, 3), repeat=2))
    specs = [
        *(exponent_space(gf5, se, re_) for se in pairs for re_ in pairs),
        exponent_space(gf5, [3, 3, 1], [3, 1, 3]),
        *_seeded_dickson_specs(d9, 6, seed=3),
    ]
    failing = 0
    for spec in specs:
        for m in _aligned_maps(spec):
            pairs, violations = _component_reference(m)
            rep = verify_iso(m)
            assert rep.details == {"mode": "exhaustive-by-component", "checked": pairs}
            assert rep.violations == violations[:20]
            assert rep.passed == (not violations)
            failing += not rep.passed
    assert failing >= 4


def test_verify_iso_component_path_charges_bound(gf5):
    for dim in (1, 2):
        target, m = normal_form_sigma(exponent_space(gf5, [3] * dim))
        needed = 2 * dim * 5**2
        with pytest.raises(BoundExceededError):
            verify_iso(m, bound=needed - 1)
        assert verify_iso(m, bound=needed).details["checked"] == needed


def test_is_multiplicative_with_certificates(gf5):
    spec = exponent_space(gf5, [1, 3])
    ok, certs = is_multiplicative(spec)
    assert ok
    assert len(certs) == 8  # nonzero members of a 9-element quasi-kernel
    for u, sigma in certs.items():
        assert sigma is not None
        for a in gf5.elements():
            for b in gf5.elements():
                assert anchored_add(spec, u, a, b) == induced_add(gf5, sigma, a, b)


def test_is_multiplicative_dim1_identity(gf5):
    spec = exponent_space(gf5, [1])
    ok, certs = is_multiplicative(spec)
    assert ok
    assert all(s == FinitePower(gf5, 1) for s in certs.values())


def test_is_multiplicative_dickson(d9):
    autos = enumerate_mult_autos(d9)
    ident = identity_auto(d9)
    spec = SpaceSpec(
        d9, {"1": ident, "2": autos[4]}, {"1": ident, "2": ident}
    )
    ok, certs = is_multiplicative(spec)
    assert ok
    assert len(certs) == len(quasi_kernel_bruteforce(spec)) - 1
    from nearvec.mult_auto import PermAuto

    assert any(isinstance(s, PermAuto) for s in certs.values())


def _certificates_reference(spec):
    """Certificates by the old key loop: each automorphism's anchored sums
    through ``apply`` and ``base.add``, looked up with the q^2 anchored
    scalars of every nonzero member, in vector order."""
    base = spec.base
    els = base.elements()
    idx = {e: k for k, e in enumerate(els)}
    lookup = {}
    for auto in enumerate_mult_autos(base):
        inv = auto.inverse()
        key = tuple(idx[inv.apply(base.add(auto.apply(a), auto.apply(b)))] for a in els for b in els)
        lookup.setdefault(key, auto)
    brute = quasi_kernel_bruteforce(spec)
    return {
        u: lookup.get(tuple(idx[anchored_add(spec, u, a, b)] for a in els for b in els))
        for u in spec.all_vectors()
        if u in brute and not u.is_zero()
    }


def test_is_multiplicative_matches_reference_keys(d9):
    gf8, gf9 = GaloisField(2, 3), GaloisField(3, 2)
    specs = [
        exponent_space(gf8, [1, 2], [3, 1]),
        exponent_space(gf8, [3, 5], [1, 1]),
        exponent_space(gf9, [1, 3], [5, 1]),
        exponent_space(gf9, [7, 5], [1, 3]),
        *_seeded_dickson_specs(d9, 4, seed=5),
    ]
    for spec in specs:
        ok, certs = is_multiplicative(spec)
        expected = _certificates_reference(spec)
        assert list(certs) == list(expected)
        assert [a.describe() for a in certs.values()] == [a.describe() for a in expected.values()]
        assert ok == all(a is not None for a in expected.values())


def test_basis_transport(gf5):
    spec = exponent_space(gf5, [1, 3])
    target, m = normal_form_sigma(spec)
    assert basis_transport_check(m).passed
    # a map landing in a strictly smaller space cannot stay independent
    small = exponent_space(gf5, [1])
    squashed = IsoMap(
        spec, small, {"1": small.basis_vector("1"), "2": small.basis_vector("1")}
    )
    rep = basis_transport_check(squashed)
    assert not rep.passed
    assert any(v["law"] == "independent" for v in rep.violations)


def test_basis_transport_charges_bound(gf5):
    target, m = normal_form_sigma(exponent_space(gf5, [1, 3]))
    with pytest.raises(BoundExceededError, match=r"^5\^2 coefficient tuples exceed the bound 24$"):
        basis_transport_check(m, bound=24)
    assert basis_transport_check(m, bound=25).passed


def test_product_hypotheses(gf5, d9):
    rep = product_hypotheses(GaloisField(2, 3))
    assert rep.passed
    assert rep.details["induced_additions"] == 2
    assert rep.details["dimension_over_distributive"] == 1

    assert not product_hypotheses(REALS).passed
    assert not product_hypotheses(COMPLEXES).passed

    rep = product_hypotheses(d9)
    assert rep.passed
    assert rep.details["automorphisms"] == 24
    assert rep.details["distributive_size"] == 3
    assert rep.details["dimension_over_distributive"] == 2


def test_product_hypotheses_fd_shortcut_matches_scan(gf5):
    # the commutative shortcut (everything right distributive) against the
    # exhaustive scan
    from nearvec.nearfield import distributive_elements

    for base in (GaloisField(2, 2), gf5, GaloisField(3, 2)):
        assert len(distributive_elements(base)) == base.order()
        assert product_hypotheses(base).details["distributive_size"] == base.order()


# every prime power up to 32, as (p, n)
ORDERS_TO_32 = [
    (2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1),
    (2, 4), (17, 1), (19, 1), (23, 1), (5, 2), (3, 3), (29, 1), (31, 1), (2, 5),
]


def test_product_hypotheses_recounted_from_definitions(d9):
    # the report's counts against a recount: the distinct induced-addition
    # tables over every automorphism, and the right distributive elements
    # from a direct triple loop
    for base in [*(GaloisField(p, n) for p, n in ORDERS_TO_32), d9]:
        els = base.elements()
        tables = {
            tuple(induced_add(base, f, x, y) for x in els for y in els)
            for f in enumerate_mult_autos(base)
        }
        add, mul = base.add, base.mul
        distributive = [
            g
            for g in els
            if all(add(mul(a, g), mul(b, g)) == mul(add(a, b), g) for a in els for b in els)
        ]
        details = product_hypotheses(base).details
        assert details["induced_additions"] == len(tables), base
        assert details["distributive_size"] == len(distributive), base


def test_product_regroup_examples(gf5):
    a = exponent_space(gf5, [1, 3])
    b = exponent_space(gf5, [3])
    combined, partition = product_regroup([a, b])
    assert combined.dim == 3
    by_theta = {
        block: {combined.theta(k).alpha for k in block} for block in partition.blocks
    }
    assert set(map(frozenset, by_theta.values())) == {frozenset({1}), frozenset({3})}
    assert nvs_axiom_check(combined).passed

    single, part = product_regroup([a])
    assert single.dim == 2 and len(part) == 2

    gf8 = GaloisField(2, 3)
    triple, partition8 = product_regroup(
        [exponent_space(gf8, [e]) for e in (1, 2, 3)]
    )
    assert partition8.blocks == (("0.1", "1.1"), ("2.1",))
    assert nvs_axiom_check(triple).passed


def test_regrouped_product_quasi_kernel(gf5):
    a = exponent_space(gf5, [1, 3])
    b = exponent_space(gf5, [3])
    combined, _ = product_regroup([a, b])
    assert materialize_quasi_kernel(combined) == quasi_kernel_bruteforce(combined)
