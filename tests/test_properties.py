"""Property tests on random small spaces: single-vector membership agrees
with the brute-force quasi-kernel, and every multiplicativity certificate
reproduces the anchored addition it certifies."""

from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from nearvec.canonical import is_multiplicative
from nearvec.mult_auto import CompAuto, FinitePower, InnerAuto, as_perm, enumerate_mult_autos
from nearvec.nearfield import Dickson9, GaloisField, induced_add
from nearvec.nvspace import SpaceSpec, anchored_add, in_quasi_kernel, quasi_kernel_bruteforce

# deterministic examples, capped so the whole file stays within a few seconds
PROPERTY_SETTINGS = settings(max_examples=8, deadline=None, derandomize=True, database=None)

FIELDS = {(p, n): GaloisField.of(p, n) for p, n in ((2, 2), (7, 1), (2, 3), (3, 2))}
D9 = Dickson9()
D9_AUTOS = enumerate_mult_autos(D9)


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
def dickson_auto(draw):
    """One of the 24 automorphisms as a table, an inner twist or a chain."""
    form = draw(st.sampled_from(("perm", "inner", "comp")))
    gamma = draw(st.sampled_from(D9.nonzero_elements()))
    if form == "inner":
        return InnerAuto(D9, gamma)
    table = as_perm(draw(st.sampled_from(D9_AUTOS)))
    return table if form == "perm" else CompAuto(D9, [InnerAuto(D9, gamma), table])


@st.composite
def dickson_specs(draw):
    labels = [str(k) for k in range(1, draw(st.integers(1, 2)) + 1)]
    sigma = {k: draw(dickson_auto()) for k in labels}
    rho = {k: draw(dickson_auto()) for k in labels}
    return SpaceSpec(D9, sigma, rho)


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
