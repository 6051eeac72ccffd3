"""Real power twists, complex extensions, and the axis quasi-kernel."""

import json
import math
import random

import pytest

import nearvec.complexify as cx
from nearvec.complexify import (
    ComplexificationSpec,
    axis_quasi_kernel_report,
    complexify,
    conj_pair_check,
    decompose_over_real,
    minimal_poly_residual,
    reconstruct_from_real,
    restriction_agrees,
)
from nearvec.errors import NearVecError
from nearvec.mult_auto import ComplexEps, RealPower
from nearvec.nearfield import COMPLEXES, REALS
from nearvec.nvspace import exponent_space
from nearvec.serialize import complexification_from_json


def test_real_power_auto_examples():
    phi3 = RealPower(REALS, 3.0)
    assert phi3.apply(-2.0) == -8.0
    assert RealPower(REALS, 1.0).is_identity()
    assert RealPower(REALS, 0.5).apply(9.0) == 3.0
    with pytest.raises(NearVecError):
        RealPower(REALS, 0.0)


def test_complexify_construction():
    spec = complexify(ComplexificationSpec([2.0], [1.0]))
    assert spec.base == COMPLEXES
    assert spec.sigma["1"] == ComplexEps(COMPLEXES, 2.0)
    assert spec.rho["1"] == ComplexEps(COMPLEXES, 1.0)

    ident = complexify(ComplexificationSpec([1.0], [1.0]))
    assert ident.sigma["1"].is_identity()

    conj_family = complexify(ComplexificationSpec([3.0, 0.5], conj=True))
    assert all(conj_family.sigma[k].conj for k in conj_family.index)
    assert all(conj_family.rho[k].conj for k in conj_family.index)

    with pytest.raises(NearVecError):
        ComplexificationSpec([2.0, 0.0])
    with pytest.raises(NearVecError):
        ComplexificationSpec([2.0], [1.0, 1.0])


def test_cspec_json_roundtrip():
    c = ComplexificationSpec([2.0, 3.0], [1.0, 0.5], conj=True)
    assert complexification_from_json(c.to_json()).to_json() == c.to_json()


@pytest.mark.parametrize("alpha", [2.0, 0.5, -1.5, 3.0])
def test_restriction_agrees(alpha):
    rep = restriction_agrees(alpha, samples=120, seed=1)
    assert rep.passed


def test_restriction_example_values():
    eps2 = ComplexEps(COMPLEXES, 2.0)
    assert COMPLEXES.eq(eps2.apply(complex(-3.0)), complex(-9.0))
    assert COMPLEXES.eq(eps2.apply(complex(1.0)), complex(1.0))
    eps_half = ComplexEps(COMPLEXES, 0.5)
    assert COMPLEXES.eq(eps_half.apply(complex(4.0)), complex(2.0))


def test_decompose_over_real_examples():
    a, b = decompose_over_real(3 + 4j, 2.0)
    assert abs(a - math.sqrt(15)) < 1e-9
    assert abs(b - math.sqrt(20)) < 1e-9
    z = reconstruct_from_real(a, b, 2.0)
    assert abs(z - (3 + 4j)) < 1e-9

    for alpha in (2.0, 3.0, 0.5):
        ra, rb = decompose_over_real(-2.5, alpha)
        assert abs(ra - (-2.5)) < 1e-9 and rb == 0.0
    assert decompose_over_real(1j, 2.0) == (0.0, 1.0)
    assert decompose_over_real(0j, 2.0) == (0.0, 0.0)


@pytest.mark.parametrize("alpha,conj", [(2.0, False), (3.0, False), (0.5, True), (1.5, True)])
def test_decompose_roundtrip_random(alpha, conj):
    rng = random.Random(42)
    for _ in range(1000):
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if abs(z) < 1e-3:
            continue
        a, b = decompose_over_real(z, alpha, conj)
        back = reconstruct_from_real(a, b, alpha, conj)
        assert abs(back - z) <= 1e-9 * max(1.0, abs(z))


@pytest.mark.parametrize("alpha", [2.0, 3.0, 0.5, 2 + 1j])
def test_minimal_poly_residual(alpha):
    assert minimal_poly_residual(alpha) <= 1e-9
    assert minimal_poly_residual(alpha, conj=True) <= 1e-9


def test_minimal_poly_conj_preimage():
    eps3_conj = ComplexEps(COMPLEXES, 3.0, True)
    assert COMPLEXES.eq(eps3_conj.inverse().apply(1j), -1j)


@pytest.mark.parametrize("alpha", [2.0, 3.0, 1.5, 1.0])
def test_conj_pair_check(alpha):
    rep = conj_pair_check(alpha)
    assert rep.passed
    assert rep.details["unpaired_witness"] is not None


def test_conj_pair_unpaired_disagrees():
    rep = conj_pair_check(2.0)
    assert rep.to_json()["details"]["unpaired_witness"]["beta"] == [3.0, 0.0]


def test_complex_reports_are_strict_json(monkeypatch):
    # the reports hold complexes as values; to_json makes them [re, im]
    # lists, in failing reports too
    reports = [restriction_agrees(2.0, samples=20), conj_pair_check(2 + 1j)]
    monkeypatch.setattr(cx, "RealPower", lambda base, alpha: RealPower(base, alpha + 1))
    monkeypatch.setattr(cx, "_additions_agree", lambda auto1, auto2: (1j, 2 + 0j, 3j, -4j))
    reports += [restriction_agrees(2.0, samples=20), conj_pair_check(2 + 1j)]
    agree, pair, bad_agree, bad_pair = (
        json.loads(json.dumps(rep.to_json(), allow_nan=False)) for rep in reports
    )
    assert agree["passed"] and agree["details"]["alpha"] == 2.0
    assert pair["passed"] and pair["details"]["alpha"] == [2.0, 1.0]
    assert pair["details"]["unpaired_witness"]["beta"] == [3.0, 1.0]
    assert [len(z) for z in pair["details"]["unpaired_witness"]["pair"]] == [2, 2]
    assert not bad_agree["passed"]
    assert all(len(v["complex"]) == 2 for v in bad_agree["violations"])
    assert not bad_pair["passed"] and bad_pair["details"]["alpha"] == [2.0, 1.0]
    assert bad_pair["violations"] == [
        {
            "law": "paired-additions-agree",
            "pair": [[0.0, 1.0], [2.0, 0.0]],
            "lhs": [0.0, 3.0],
            "rhs": [0.0, -4.0],
        }
    ]
    assert bad_pair["details"]["unpaired_witness"]["pair"] == [[0.0, 1.0], [2.0, 0.0]]


def test_axis_quasi_kernel_reports():
    rep = axis_quasi_kernel_report([1.0, 2.0])
    assert rep.passed
    failures = rep.details["multi_support_failures"]
    all_ones = next(f for f in failures if set(f["vector"]) == {"1", "2"})
    assert all_ones["witness_pair"] == [1.0, 1.0]

    rep3 = axis_quasi_kernel_report([1.0, 2.0, 3.0])
    assert rep3.passed
    assert rep3.details["axis_vectors_checked"] == 12
    assert len(rep3.details["multi_support_failures"]) == 7

    with pytest.raises(NearVecError):
        axis_quasi_kernel_report([2.0])
    with pytest.raises(NearVecError):
        axis_quasi_kernel_report([2.0, 2.0])


def test_axis_witness_gammas():
    rep = axis_quasi_kernel_report([1.0, 2.0])
    all_ones = next(
        f
        for f in rep.details["multi_support_failures"]
        if f["vector"] == {"1": 1.0, "2": 1.0}
    )
    gammas = all_ones["required_gammas"]
    assert abs(gammas["1"] - 2.0) < 1e-9
    assert abs(gammas["2"] - math.sqrt(2)) < 1e-9


def test_real_power_space_shape():
    spec = exponent_space(REALS, [1.0, 2.0], [2.0, 1.0])
    assert spec.base == REALS
    assert isinstance(spec.sigma["1"], RealPower)
    assert spec.rho["1"].alpha == 2.0
