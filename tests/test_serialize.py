"""JSON round trips for bases, automorphisms, specs, and vectors."""

import json
import math

import pytest

from nearvec.errors import BaseMismatchError, BoundExceededError, NearVecError
from nearvec.mult_auto import (
    ComplexEps,
    FinitePower,
    InnerAuto,
    RealPower,
    as_perm,
    enumerate_mult_autos,
)
from nearvec.nearfield import COMPLEXES, REALS, ComplexField, Dickson9, GaloisField, RealField
from nearvec.nvspace import exponent_space
from nearvec.report import json_value
from nearvec.serialize import (
    auto_from_json,
    base_from_json,
    scalar_from_json,
    spec_from_json,
    vector_from_json,
    vector_to_json,
)


@pytest.mark.parametrize(
    "base",
    [GaloisField(5, 1), GaloisField(2, 3), Dickson9(), REALS, COMPLEXES],
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
    gf9 = GaloisField(3, 2)
    x = gf9.element((1, 2))
    assert scalar_from_json(gf9, json_value(x)) == x
    assert scalar_from_json(REALS, json_value(-2.5)) == -2.5
    z = complex(1.5, -2.0)
    assert scalar_from_json(COMPLEXES, json_value(z)) == z


@pytest.mark.parametrize(
    "base", [GaloisField(2, 2), GaloisField(3, 2), Dickson9(), GaloisField(2, 5)], ids=repr
)
def test_every_finite_scalar_roundtrips(base):
    # a scalar's JSON form is its coefficient array, never its integer code
    for x in base.elements():
        record = json.loads(json.dumps(json_value(x)))
        assert record == list(x.coeffs)
        assert scalar_from_json(base, record) is x


def test_auto_roundtrip():
    gf5 = GaloisField(5, 1)
    d9 = Dickson9()
    autos = [
        FinitePower(gf5, 3),
        RealPower(REALS, -1.5),
        ComplexEps(COMPLEXES, 2 + 1j, True),
        enumerate_mult_autos(d9)[5],
        InnerAuto(d9, d9.from_int(5)),
        InnerAuto(COMPLEXES, 2j),
    ]
    bases = [gf5, REALS, COMPLEXES, d9, d9, COMPLEXES]
    for auto, base in zip(autos, bases):
        again = auto_from_json(base, json.loads(json.dumps(auto.describe())))
        assert again == auto
    # a one-factor comp record decodes to its factor
    again = auto_from_json(REALS, {"kind": "comp", "factors": [{"kind": "rpow", "alpha": 2.0}]})
    assert again == RealPower(REALS, 2.0)


def test_spec_and_vector_roundtrip():
    gf5 = GaloisField(5, 1)
    spec = exponent_space(gf5, [1, 3], [3, 1])
    again = spec_from_json(json.loads(json.dumps(spec.describe())))
    assert again.index == spec.index
    assert all(again.sigma[k] == spec.sigma[k] for k in spec.index)
    assert all(again.rho[k] == spec.rho[k] for k in spec.index)

    v = spec.vector({"1": gf5.from_int(2)})
    moved = vector_from_json(again, json.loads(json.dumps(vector_to_json(v))))
    assert moved == v
    with pytest.raises(NearVecError, match="vector record has no 'entries' field"):
        vector_from_json(again, {"entires": {}})


def test_real_spec_tolerance_override():
    spec = exponent_space(REALS, [2.0])
    blob = spec.describe()
    loose = spec_from_json(blob, tolerance=1e-3)
    assert loose.base.tolerance == 1e-3


@pytest.mark.parametrize("tolerance", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("kind,field", [("real", RealField), ("complex", ComplexField)])
def test_non_finite_tolerance_refused(kind, field, tolerance):
    with pytest.raises(BaseMismatchError, match="positive and finite"):
        field(tolerance)
    with pytest.raises(BaseMismatchError, match="positive and finite"):
        base_from_json({"kind": kind, "tolerance": tolerance})


@pytest.mark.parametrize("tolerance", [0, -1])
def test_tolerance_override_is_not_read_as_absent(tolerance):
    with pytest.raises(BaseMismatchError):
        base_from_json({"kind": "real", "tolerance": 1e-3}, tolerance=tolerance)


def test_decoded_perm_tables_are_charged():
    # the q^2 product check of a decoded table counts against the bound, at
    # any depth of a comp record and in a space file; derived tables do not
    gf32 = GaloisField(2, 5)
    record = as_perm(FinitePower(gf32, 3)).describe()
    with pytest.raises(BoundExceededError, match="^32\\^2 product pairs exceed the bound 1023$"):
        auto_from_json(gf32, record, bound=1023)
    with pytest.raises(BoundExceededError):
        auto_from_json(gf32, {"kind": "comp", "factors": [record, record]}, bound=1023)
    assert auto_from_json(gf32, record, bound=1024) == as_perm(FinitePower(gf32, 3))
    spec = {"base": gf32.describe(), "index": ["1"], "sigma": {"1": record}, "rho": {"1": record}}
    with pytest.raises(BoundExceededError):
        spec_from_json(spec, bound=1023)
    assert spec_from_json(spec, bound=1024).dim == 1
    # above order 1000, q^2 exceeds the default bound
    gf1024 = GaloisField(2, 10)
    with pytest.raises(BoundExceededError, match="1024\\^2 product pairs exceed the bound 1000000"):
        auto_from_json(gf1024, as_perm(FinitePower(gf1024, 2)).describe())
