"""Property tests on random small spaces and automorphisms: single-vector
membership agrees with the brute-force quasi-kernel, all-pairs
compatibility of the members agrees with the brute-force regularity test
and is invariant under scaling either vector, the materialized closed
form equals the brute-force quasi-kernel over the Galois fields, every
multiplicativity certificate reproduces the anchored addition it
certifies, membership and the anchored addition equal their vector-built
reference and the definition searched over every scalar, the generation
closure equals a full-round closure, composition, inversion and the JSON
forms of automorphisms obey their laws, spaces and vectors survive their
JSON forms, the decomposition and the qk classes follow label
permutations, restrictions, coproducts and twists by automorphisms, and
both normal forms of Dickson9 spaces verify exhaustively."""

import functools
import itertools
import json
import random
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nearvec.canonical import is_multiplicative, normal_form_rho, normal_form_sigma, verify_iso
from nearvec.errors import InvalidAnchorError
from nearvec.mult_auto import (
    ComplexEps,
    FinitePower,
    InnerAuto,
    RealPower,
    as_perm,
    compose,
    enumerate_mult_autos,
    identity_auto,
)
from nearvec.nearfield import (
    COMPLEXES,
    REALS,
    Dickson9,
    GaloisField,
    induced_add,
    is_nearfield_automorphism,
)
from nearvec.nvspace import (
    COMPLEX_MEMBERSHIP_VALUES,
    REAL_MEMBERSHIP_VALUES,
    Partition,
    SpaceSpec,
    SparseVector,
    _anchor_scalar,
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
)
from nearvec.serialize import auto_from_json, spec_from_json, vector_from_json, vector_to_json

# deterministic examples, capped so the whole file stays within a few seconds
PROPERTY_SETTINGS = settings(max_examples=8, deadline=None, derandomize=True, database=None)
SWEEP_SETTINGS = settings(max_examples=12, deadline=None, derandomize=True, database=None)
COMPOSE_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

FIELDS = {(p, n): GaloisField(p, n) for p, n in ((2, 2), (7, 1), (2, 3), (3, 2))}
D9 = Dickson9()
LISTED = {base: enumerate_mult_autos(base) for base in (FIELDS[2, 3], FIELDS[3, 2], D9)}
GF4_AUTOS = enumerate_mult_autos(FIELDS[2, 2])
# power maps of the small fields; GF(8), GF(9) and Dickson9 draw every
# form of ``finite_auto``
SWEEP_AUTOS = {base: enumerate_mult_autos(base) for base in (FIELDS[2, 2], GaloisField(5, 1), FIELDS[7, 1])}
ALL_AUTOS = {**SWEEP_AUTOS, **LISTED}
GALOIS_FIELDS = [base for base in ALL_AUTOS if base.kind == "gf"]
JSON_BASES = (FIELDS[2, 2], FIELDS[3, 2], D9, REALS, COMPLEXES)
# dyadic exponent parts, so products and inverses of the real and complex
# families are exact and law checks can compare with ==
DYADIC = (-2.0, -0.5, 0.5, 1.0, 2.0, 4.0)


@st.composite
def gf_specs(draw):
    base = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    m = base.order() - 1
    unit = st.sampled_from([a for a in range(1, m + 1) if gcd(a, m) == 1])
    labels = [str(k) for k in range(1, draw(st.integers(1, 2)) + 1)]
    sigma = {k: FinitePower(base, draw(unit)) for k in labels}
    rho = {k: FinitePower(base, draw(unit)) for k in labels}
    return SpaceSpec(base, sigma, rho)


@st.composite
def finite_auto(draw, base):
    """An automorphism of a finite base as a table, an inner twist or the
    composition of the two; on a Galois field also as a power map."""
    forms = ("perm", "inner", "comp") + (("power",) if base.kind == "gf" else ())
    form = draw(st.sampled_from(forms))
    gamma = draw(st.sampled_from(base.nonzero_elements()))
    if form == "inner":
        return InnerAuto(base, gamma)
    listed = draw(st.sampled_from(ALL_AUTOS[base]))
    if form == "power":
        return listed
    table = as_perm(listed)
    return table if form == "perm" else compose(InnerAuto(base, gamma), table)


def autos_over(base):
    if base == REALS:
        return st.builds(RealPower, st.just(REALS), st.sampled_from(DYADIC))
    if base == COMPLEXES:
        alpha = st.builds(complex, st.sampled_from(DYADIC), st.sampled_from((0.0, 0.5, -1.0)))
        return st.builds(ComplexEps, st.just(COMPLEXES), alpha, st.booleans())
    return finite_auto(base)


@st.composite
def three_autos(draw):
    """A base and three automorphisms of it."""
    base = draw(st.sampled_from([*LISTED, REALS, COMPLEXES]))
    return base, [draw(autos_over(base)) for _ in range(3)]


@st.composite
def json_specs(draw):
    """A 1-3-label space over GF(4) (power maps), GF(9) or Dickson9 (every
    form ``finite_auto`` draws), the reals or the complexes, with a vector
    of it."""
    base = draw(st.sampled_from(JSON_BASES))
    autos = st.sampled_from(GF4_AUTOS) if base == FIELDS[2, 2] else autos_over(base)
    labels = [str(k) for k in range(1, draw(st.integers(1, 3)) + 1)]
    spec = SpaceSpec(base, {k: draw(autos) for k in labels}, {k: draw(autos) for k in labels})
    if base.is_finite:
        scalar = st.sampled_from(base.elements())
    else:
        real = st.floats(-1e6, 1e6)
        scalar = real if base == REALS else st.builds(complex, real, real)
    return spec, spec.vector({k: draw(scalar) for k in labels})


@st.composite
def dickson_specs(draw):
    labels = [str(k) for k in range(1, draw(st.integers(1, 2)) + 1)]
    sigma = {k: draw(finite_auto(D9)) for k in labels}
    rho = {k: draw(finite_auto(D9)) for k in labels}
    return SpaceSpec(D9, sigma, rho)


@st.composite
def sweep_specs(draw, max_labels):
    """A space of 1 to ``max_labels`` labels over GF(4), GF(5), GF(7),
    GF(8), GF(9) or Dickson9."""
    base = draw(st.sampled_from([*SWEEP_AUTOS, *LISTED]))
    autos = st.sampled_from(SWEEP_AUTOS[base]) if base in SWEEP_AUTOS else finite_auto(base)
    # drawn down from max_labels, so most examples have several labels
    labels = [str(k) for k in range(1, max_labels - draw(st.integers(0, max_labels - 1)) + 1)]
    return SpaceSpec(base, {k: draw(autos) for k in labels}, {k: draw(autos) for k in labels})


def members_by_definition(spec):
    return [v for v in spec.all_vectors() if in_quasi_kernel(spec, v)[0]]


@SWEEP_SETTINGS
@given(sweep_specs(3))
def test_bruteforce_sweep_is_membership(spec):
    assert quasi_kernel_bruteforce(spec) == set(members_by_definition(spec))


@SWEEP_SETTINGS
@given(sweep_specs(2))
def test_bruteforce_regularity_is_all_pairs_compatibility(spec):
    # membership by definition, computed once: asking in_quasi_kernel again
    # for every pair (qk=None) takes close to a minute over these examples
    members = members_by_definition(spec)
    qk = set(members)
    nonzero = [v for v in members if not v.is_zero()]
    expected = all(compatible(spec, u, v, qk=qk) for i, u in enumerate(nonzero) for v in nonzero[i:])
    assert is_regular_bruteforce(spec) == expected


@SWEEP_SETTINGS
@given(sweep_specs(2), st.data())
def test_compatibility_is_ray_invariant(spec, data):
    members = members_by_definition(spec)
    qk = set(members)
    nonzero = [v for v in members if not v.is_zero()]
    vectors, scalars = st.sampled_from(nonzero), st.sampled_from(spec.base.nonzero_elements())
    for _ in range(4):
        u, v, a, b = data.draw(st.tuples(vectors, vectors, scalars, scalars))
        scaled = compatible(spec, spec.scale(a, u), spec.scale(b, v), qk=qk)
        assert compatible(spec, u, v, qk=qk) == scaled, (u, v, a, b)


@st.composite
def finite_specs(draw, bases):
    """A 1-3-label space over one of ``bases``, twisted by every form
    ``finite_auto`` draws."""
    base = draw(st.sampled_from(bases))
    labels = [str(k) for k in range(1, draw(st.integers(1, 3)) + 1)]
    autos = finite_auto(base)
    return SpaceSpec(base, {k: draw(autos) for k in labels}, {k: draw(autos) for k in labels})


@SWEEP_SETTINGS
@given(finite_specs(GALOIS_FIELDS))
def test_materialized_closed_form_is_bruteforce(spec):
    assert materialize_quasi_kernel(spec) == quasi_kernel_bruteforce(spec)


GF13 = GaloisField(13, 1)
DECOMPOSITION_AUTOS = {**LISTED, GF13: enumerate_mult_autos(GF13)}


@st.composite
def decomposition_specs(draw):
    """A 2-3-label space over Dickson9, GF(8), GF(9) (every form
    ``finite_auto`` draws) or GF(13) (power maps)."""
    base = draw(st.sampled_from(list(DECOMPOSITION_AUTOS)))
    autos = st.sampled_from(DECOMPOSITION_AUTOS[GF13]) if base == GF13 else finite_auto(base)
    labels = [str(k) for k in range(1, draw(st.integers(2, 3)) + 1)]
    return SpaceSpec(base, {k: draw(autos) for k in labels}, {k: draw(autos) for k in labels})


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(decomposition_specs())
def test_decomposition_blocks_are_maximal_regular(spec):
    blocks = decomposition_classes(spec).blocks
    for block in blocks:
        assert is_regular_bruteforce(spec.restrict(block)), block
    for first, second in itertools.combinations(blocks, 2):
        assert not is_regular_bruteforce(spec.restrict(first + second)), (first, second)


def test_materialize_scales_no_unconstrained_block(monkeypatch):
    calls = []
    scale = SpaceSpec.scale

    def counted(self, alpha, v):
        calls.append(alpha)
        return scale(self, alpha, v)

    monkeypatch.setattr(SpaceSpec, "scale", counted)
    assert len(materialize_quasi_kernel(exponent_space(GaloisField(2, 6), [1]))) == 64
    assert len(calls) <= 64


def check_membership_and_certificates(spec):
    brute = quasi_kernel_bruteforce(spec)
    for v in spec.all_vectors():
        assert in_quasi_kernel(spec, v)[0] == (v in brute), v
    els = spec.base.elements()
    _, certs = is_multiplicative(spec)
    assert len(certs) == len(brute) - 1
    for u, auto in certs.items():
        if auto is None:
            continue
        for a in els:
            for b in els:
                assert anchored_add(spec, u, a, b) == induced_add(spec.base, auto, a, b)


@PROPERTY_SETTINGS
@given(gf_specs())
def test_galois_membership_and_certificates(spec):
    check_membership_and_certificates(spec)


@PROPERTY_SETTINGS
@given(dickson_specs())
def test_dickson_membership_and_certificates(spec):
    check_membership_and_certificates(spec)


def applied(factors, x):
    """x under the factors, applied right to left."""
    for f in reversed(factors):
        x = f.apply(x)
    return x


@COMPOSE_SETTINGS
@given(three_autos())
def test_compose_is_associative(case):
    base, (a, b, c) = case
    left, right = compose(compose(a, b), c), compose(a, compose(b, c))
    for x in base.sample_points():
        want = applied([a, b, c], x)
        assert base.eq(left.apply(x), want) and base.eq(right.apply(x), want)


@COMPOSE_SETTINGS
@given(three_autos())
def test_compose_inverse_and_identity(case):
    base, autos = case
    e = identity_auto(base)
    for a in autos:
        assert compose(a, a.inverse()) == compose(a.inverse(), a) == e
        assert compose(a, e) == compose(e, a) == (e if a.is_identity() else a)


@COMPOSE_SETTINGS
@given(three_autos())
def test_describe_round_trip(case):
    base, autos = case
    for a in autos:
        assert auto_from_json(base, json.loads(json.dumps(a.describe()))) == a


@COMPOSE_SETTINGS
@given(three_autos(), st.integers(0, 3))
def test_comp_record_is_folded_compose(case, k):
    base, autos = case
    factors = autos[:k]
    record = {"kind": "comp", "factors": [f.describe() for f in factors]}
    decoded = auto_from_json(base, json.loads(json.dumps(record)))
    assert decoded == functools.reduce(compose, factors, identity_auto(base))
    for x in base.sample_points():
        assert base.eq(decoded.apply(x), applied(factors, x))


@COMPOSE_SETTINGS
@given(json_specs())
def test_spec_and_vector_json_round_trip(case):
    spec, v = case
    blob = spec.describe()
    again = spec_from_json(json.loads(json.dumps(blob)))
    assert again.describe() == blob
    assert vector_from_json(again, json.loads(json.dumps(vector_to_json(v)))) == v


def reference_anchor(spec, u, a, b):
    """g with a.u + b.u = g.u built from whole vectors: scale, add, solve
    on the first support label, compare g.u with the sum; None if no g."""
    base = spec.base
    w = spec.add(spec.scale(a, u), spec.scale(b, u))
    t = u.support[0]
    wt = spec.component(w, t)
    if base.is_zero(wt):
        g = base.zero
    else:
        g = spec.rho[t].inverse().apply(base.mul(wt, base.inv(u.get(t))))
    return g if spec.vectors_equal(spec.scale(g, u), w) else None


def membership_values(base):
    if base.is_finite:
        return base.elements()
    return REAL_MEMBERSHIP_VALUES if base == REALS else COMPLEX_MEMBERSHIP_VALUES


def subnormal_complex_axis():
    """One complex label with a subnormal component: 1/u overflows, the
    solved g is NaN, and only the check on the first label rejects it."""
    e = ComplexEps(COMPLEXES, 1.0)
    spec = SpaceSpec(COMPLEXES, {"1": e}, {"1": e})
    return spec, spec.vector({"1": complex(1e-310, 0.0)})


@COMPOSE_SETTINGS
@given(json_specs())
@example(subnormal_complex_axis())
def test_anchored_scalar_matches_vector_reference(case):
    spec, v = case
    values = membership_values(spec.base)
    expected = True, None
    if not v.is_zero():
        anchors = {(a, b): reference_anchor(spec, v, a, b) for a in values for b in values}
        failing = [pair for pair, g in anchors.items() if g is None]
        if failing:
            expected = False, failing[0]
        for (a, b), g in anchors.items():
            if g is None:
                with pytest.raises(InvalidAnchorError):
                    anchored_add(spec, v, a, b)
            else:
                assert repr(anchored_add(spec, v, a, b)) == repr(g), (a, b)
    assert in_quasi_kernel(spec, v) == expected


# -- the anchored scalar and the generation closure by definition -------------

# GF(4), GF(5), GF(7), GF(8) and Dickson9
ANCHOR_BASES = [base for base in ALL_AUTOS if base != FIELDS[3, 2]]


@pytest.mark.parametrize("base", ANCHOR_BASES, ids=repr)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_anchored_scalar_is_the_definition(base, data):
    # g with a.u + b.u = g.u, searched over every g on whole vectors, for a
    # member, a non-member where the space has one, and any nonzero vector
    spec = data.draw(finite_specs([base]))
    els = base.elements()
    qk = quasi_kernel_bruteforce(spec)
    nonzero = spec.all_vectors()[1:]
    outside = [v for v in nonzero if v not in qk]
    pools = [sorted(qk - {SparseVector()}), outside, nonzero]
    for u in (data.draw(st.sampled_from(pool)) for pool in pools if pool):
        multiples = {g: spec.scale(g, u) for g in els}
        first_failing = None
        for a in els:
            for b in els:
                w = spec.add(multiples[a], multiples[b])
                fits = [g for g in els if multiples[g] == w]
                assert len(fits) <= 1
                assert _anchor_scalar(spec, u, a, b) == (fits[0] if fits else None), (u, a, b)
                if not fits and first_failing is None:
                    first_failing = (a, b)
        expected = (True, None) if first_failing is None else (False, first_failing)
        assert in_quasi_kernel(spec, u) == expected
        assert (u in qk) == (first_failing is None)


def check_closure_is_full_rounds(spec):
    """``nvs_axiom_check`` against sums of quasi-kernel vectors added whole
    round by whole round until the space or a fixed point is reached."""
    qk = quasi_kernel_bruteforce(spec)
    size = spec.base.order() ** spec.dim
    closed, frontier, rounds = set(qk), set(qk), 0
    while frontier and len(closed) < size:
        fresh = {spec.add(u, w) for u in frontier for w in qk} - closed
        closed |= fresh
        frontier = fresh
        rounds += 1
    rep = nvs_axiom_check(spec)
    assert rep.details == {"space_size": size, "quasi_kernel_size": len(qk), "closure_rounds": rounds}
    generates = {"axiom": "quasi-kernel-generates", "reached": len(closed)}
    assert (generates in rep.violations) == (len(closed) < size)
    return rounds


@pytest.mark.parametrize("base", ANCHOR_BASES, ids=repr)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_generation_closure_is_the_full_round_closure(base, data):
    check_closure_is_full_rounds(data.draw(finite_specs([base])))


def test_generation_closure_takes_a_round_per_further_block():
    # x, x^3 and x^7 induce three additions on GF(11): a vector with three
    # nonzero coordinates is a sum of three quasi-kernel vectors, no fewer
    assert check_closure_is_full_rounds(exponent_space(GaloisField(11, 1), [1, 3, 7])) == 2


# -- relations between closed forms --------------------------------------------

GF65536 = GaloisField(2, 16)
UNITS_65535 = [a for a in range(1, 65535) if gcd(a, 65535) == 1]
D9_ADDITIVE = [a for a in LISTED[D9] if is_nearfield_automorphism(D9, a)]


def wide_gf_spec(rng):
    """A 60-label space over GF(2^16) whose combined twists x^(s r) fall in
    two to four addition classes: s r is a drawn class exponent times a
    power of 2, with rho = x^r for a drawn unit r."""
    classes = rng.sample(UNITS_65535, rng.randint(2, 4))
    sigma, rho = {}, {}
    for k in map(str, range(1, 61)):
        theta, r = rng.choice(classes) * 2 ** rng.randrange(16), rng.choice(UNITS_65535)
        sigma[k], rho[k] = FinitePower(GF65536, theta * pow(r, -1, 65535)), FinitePower(GF65536, r)
    return SpaceSpec(GF65536, sigma, rho)


def drawn_d9_auto(rng):
    """A Dickson9 automorphism as a table, an inner twist, or an inner
    twist composed with a table."""
    form = rng.choice(("perm", "inner", "comp"))
    inner = InnerAuto(D9, rng.choice(D9.nonzero_elements()))
    if form == "inner":
        return inner
    table = rng.choice(LISTED[D9])
    return table if form == "perm" else compose(inner, table)


def seeded_dickson_specs(seed, count=30):
    """``count`` Dickson9 spaces of 1, 2 and 3 labels in turn."""
    rng = random.Random(seed)
    specs = []
    for i in range(count):
        labels = [str(k) for k in range(1, i % 3 + 2)]
        sigma = {k: drawn_d9_auto(rng) for k in labels}
        specs.append(SpaceSpec(D9, sigma, {k: drawn_d9_auto(rng) for k in labels}))
    return specs


def _partitions(spec):
    return decomposition_classes(spec), quasi_kernel_closed(spec).classes


def _cut(partition, labels):
    """The nonempty blocks of the partition, each cut to the labels."""
    return Partition(b for b in ([k for k in block if k in labels] for block in partition) if b)


def _relabel(partition, names):
    return Partition([names[k] for k in block] for block in partition)


def check_closed_form_relations(spec, other, f, g, rng):
    """The decomposition and the qk classes follow a label permutation, a
    restriction and a coproduct, and stay under sigma_i -> f.sigma_i and
    rho_i -> rho_i.g for the near-field automorphism f."""
    labels = spec.index
    want = _partitions(spec)
    names = dict(zip(labels, rng.sample(labels, len(labels))))
    moved = SpaceSpec(
        spec.base,
        {names[k]: spec.sigma[k] for k in labels},
        {names[k]: spec.rho[k] for k in labels},
    )
    assert _partitions(moved) == tuple(_relabel(p, names) for p in want)
    keep = rng.sample(labels, rng.randint(1, len(labels)))
    assert _partitions(spec.restrict(keep)) == tuple(_cut(p, keep) for p in want)
    combined, (inside, _) = coproduct([spec, other])
    cut = tuple(_cut(p, set(inside.values())) for p in _partitions(combined))
    assert cut == tuple(_relabel(p, inside) for p in want)
    twisted = SpaceSpec(
        spec.base,
        {k: compose(f, spec.sigma[k]) for k in labels},
        {k: compose(spec.rho[k], g) for k in labels},
    )
    assert _partitions(twisted) == want


def test_wide_galois_closed_forms_obey_their_relations():
    rng = random.Random(17)
    specs = [wide_gf_spec(rng) for _ in range(3)]
    for spec, other in zip(specs, specs[1:] + specs[:1]):
        frobenius = FinitePower(GF65536, 2 ** rng.randrange(16))
        g = FinitePower(GF65536, rng.choice(UNITS_65535))
        check_closed_form_relations(spec, other, frobenius, g, rng)


def test_dickson_closed_forms_obey_their_relations():
    rng = random.Random(23)
    specs = seeded_dickson_specs(23)
    for spec, other in zip(specs, specs[1:] + specs[:1]):
        f, g = rng.choice(D9_ADDITIVE), drawn_d9_auto(rng)
        check_closed_form_relations(spec, other, f, g, rng)


def test_dickson_normal_forms_verify_exhaustively():
    for spec in seeded_dickson_specs(29):
        for normal_form in (normal_form_sigma, normal_form_rho):
            target, iso = normal_form(spec)
            report = verify_iso(iso)
            assert report.passed and report.details["mode"] == "exhaustive-by-component", spec.describe()
            assert all(target.theta(k) == spec.theta(k) for k in spec.index)


# -- vectors as sorted pair tuples --------------------------------------------

VECTOR_LABELS = ("a", "b", "c", "1", "10", "2")
VECTOR_VALUE_POOLS = (FIELDS[7, 1].elements(), (0.0, -0.0, 1.5, -2.0, 3.25))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_sparse_vector_follows_its_pruned_entries(data):
    pool = data.draw(st.sampled_from(VECTOR_VALUE_POOLS))
    pair = st.tuples(st.sampled_from(VECTOR_LABELS + (1, 2)), st.sampled_from(pool))
    first = data.draw(st.lists(pair, max_size=8))
    second = data.draw(st.one_of(st.permutations(first), st.lists(pair, max_size=8)))

    def pruned(entries):  # the reference: a dict, the last nonzero value wins
        out = {}
        for label, value in entries:
            if value != 0:
                out[str(label)] = value
        return out

    u, v = SparseVector(first), SparseVector(second)
    expected = pruned(first)
    assert (u == v) == (expected == pruned(second))
    if u == v:
        assert hash(u) == hash(v)
    assert u == SparseVector(expected) and hash(u) == hash(SparseVector(expected))
    assert list(u) == sorted(expected.items())
    assert u.entries == expected and u.entries is not u.entries
    assert u.support == tuple(sorted(expected))
    assert u.is_zero() == (not expected) and len(u) == len(expected)
    for label in VECTOR_LABELS:
        assert u.get(label) == expected.get(label)
        assert u.get(label, "absent") == expected.get(label, "absent")
    keep = data.draw(st.sets(st.sampled_from(VECTOR_LABELS)))
    assert u.restrict(keep).entries == {k: x for k, x in expected.items() if k in keep}
    inside = ", ".join(f"{k}: {x!r}" for k, x in sorted(expected.items()))
    assert repr(u) == f"SparseVector({{{inside}}})"
