"""JSON round trips for bases, automorphisms, specs, and vectors."""

import json

import pytest

from nearvec.errors import NearVecError
from nearvec.mult_auto import (
    CompAuto,
    ComplexEps,
    FinitePower,
    InnerAuto,
    RealPower,
    enumerate_mult_autos,
)
from nearvec.nearfield import COMPLEXES, REALS, Dickson9, GaloisField
from nearvec.nvspace import exponent_space
from nearvec.serialize import (
    auto_from_json,
    base_from_json,
    scalar_from_json,
    scalar_to_json,
    spec_from_json,
    vector_from_json,
    vector_to_json,
)


@pytest.mark.parametrize(
    "base",
    [GaloisField.of(5, 1), GaloisField.of(2, 3), Dickson9(), REALS, COMPLEXES],
)
def test_base_roundtrip(base):
    again = base_from_json(json.loads(json.dumps(base.describe())))
    assert again == base


def test_base_modulus_mismatch_rejected():
    with pytest.raises(NearVecError):
        base_from_json({"kind": "gf", "p": 2, "n": 2, "modulus": [1, 0, 1]})
    with pytest.raises(NearVecError):
        base_from_json({"kind": "wat"})


def test_scalar_roundtrip():
    gf9 = GaloisField.of(3, 2)
    x = gf9.table.element((1, 2))
    assert scalar_from_json(gf9, scalar_to_json(gf9, x)) == x
    assert scalar_from_json(REALS, scalar_to_json(REALS, -2.5)) == -2.5
    z = complex(1.5, -2.0)
    assert scalar_from_json(COMPLEXES, scalar_to_json(COMPLEXES, z)) == z


def test_auto_roundtrip():
    gf5 = GaloisField.of(5, 1)
    d9 = Dickson9()
    autos = [
        FinitePower(gf5, 3),
        RealPower(REALS, -1.5),
        ComplexEps(COMPLEXES, 2 + 1j, True),
        enumerate_mult_autos(d9)[5],
        InnerAuto(d9, d9.table.from_int(5)),
    ]
    bases = [gf5, REALS, COMPLEXES, d9, d9]
    for auto, base in zip(autos, bases):
        again = auto_from_json(base, json.loads(json.dumps(auto.describe())))
        assert again == auto
    chain = CompAuto(REALS, [RealPower(REALS, 2.0)])
    again = auto_from_json(REALS, chain.describe())
    assert again.apply(3.0) == chain.apply(3.0)


def test_spec_and_vector_roundtrip():
    gf5 = GaloisField.of(5, 1)
    spec = exponent_space(gf5, [1, 3], [3, 1])
    again = spec_from_json(json.loads(json.dumps(spec.describe())))
    assert again.index == spec.index
    assert all(again.sigma[k] == spec.sigma[k] for k in spec.index)
    assert all(again.rho[k] == spec.rho[k] for k in spec.index)

    v = spec.vector({"1": gf5.table.from_int(2)})
    moved = vector_from_json(again, json.loads(json.dumps(vector_to_json(gf5, v))))
    assert moved == v


def test_real_spec_tolerance_override():
    spec = exponent_space(REALS, [2.0])
    blob = spec.describe()
    loose = spec_from_json(blob, tolerance=1e-3)
    assert loose.base.tolerance == 1e-3
