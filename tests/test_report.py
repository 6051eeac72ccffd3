"""Every checker's report is strict JSON, failing reports included."""

import json

import pytest

from nearvec.canonical import (
    IsoMap,
    basis_transport_check,
    normal_form_sigma,
    product_hypotheses,
    verify_iso,
)
from nearvec.complexify import axis_quasi_kernel_report
from nearvec.mult_auto import FinitePower, MultAuto, RealPower, identity_auto, mult_properties_check
from nearvec.nearfield import (
    REALS,
    Dickson9,
    GaloisField,
    RealField,
    divisionring_transport_check,
    scalar_group_axiom_check,
)
from nearvec.nvspace import SpaceSpec, exponent_space, nvs_axiom_check

GF5 = GaloisField(5, 1)


class _Square(MultAuto):
    """x -> x^2: a product-preserving map that is no bijection of GF(5)
    and does not commute with negation on the reals."""

    def apply(self, x):
        return self.base.mul(x, x)


class _RoundedReals(RealField):
    """Reals whose products are rounded to two decimals."""

    def mul(self, x, y):
        return round(x * y, 2)


def _swapped(m):
    """The normal-form map m with its two basis images exchanged."""
    return IsoMap(m.source, m.target, {"1": m.basis_images["2"], "2": m.basis_images["1"]})


def _unaligned(m):
    """m with the image of "1" scaled by 2: off the basis-aligned path."""
    two = m.target.base.from_int(2)
    images = {"1": m.target.scale(two, m.basis_images["2"]), "2": m.basis_images["1"]}
    return IsoMap(m.source, m.target, images)


def _squashed():
    """Both basis vectors of a plane sent to the one basis vector of a line."""
    plane, line = exponent_space(GF5, [1, 3]), exponent_space(GF5, [1])
    e = line.basis_vector("1")
    return IsoMap(plane, line, {"1": e, "2": e})


GF_MAP = normal_form_sigma(exponent_space(GF5, [1, 3]))[1]
REAL_MAP = normal_form_sigma(exponent_space(REALS, [1.0, 3.0]))[1]

# (report, whether it passes) per checker and mode
REPORTS = {
    "mult-properties-finite": (lambda: mult_properties_check(FinitePower(GF5, 3)), True),
    "mult-properties-sampled": (lambda: mult_properties_check(RealPower(REALS, 3.0), 50), True),
    "mult-properties-finite-fails": (lambda: mult_properties_check(_Square(GF5)), False),
    "mult-properties-sampled-fails": (lambda: mult_properties_check(_Square(REALS), 50), False),
    "scalar-group-finite": (lambda: scalar_group_axiom_check(GF5), True),
    "scalar-group-sampled": (lambda: scalar_group_axiom_check(REALS), True),
    "scalar-group-sampled-fails": (lambda: scalar_group_axiom_check(_RoundedReals()), False),
    "nvs-axioms": (lambda: nvs_axiom_check(exponent_space(GF5, [1, 3])), True),
    "nvs-axioms-fails": (
        lambda: nvs_axiom_check(SpaceSpec(GF5, {"1": identity_auto(GF5)}, {"1": _Square(GF5)})),
        False,
    ),
    "verify-iso-by-component": (lambda: verify_iso(GF_MAP), True),
    "verify-iso-by-component-fails": (lambda: verify_iso(_swapped(GF_MAP)), False),
    "verify-iso-exhaustive-fails": (lambda: verify_iso(_unaligned(GF_MAP)), False),
    "verify-iso-sampled": (lambda: verify_iso(REAL_MAP, trials=50), True),
    "verify-iso-sampled-fails": (lambda: verify_iso(_swapped(REAL_MAP), trials=50), False),
    "basis-transport": (lambda: basis_transport_check(GF_MAP), True),
    "basis-transport-fails": (lambda: basis_transport_check(_squashed()), False),
    "divisionring-transport": (
        lambda: divisionring_transport_check(GF5, FinitePower(GF5, 3)),
        True,
    ),
    "product-hypotheses-gf": (lambda: product_hypotheses(GaloisField(2, 3)), True),
    "product-hypotheses-real": (lambda: product_hypotheses(REALS), False),
    "product-hypotheses-dickson9": (lambda: product_hypotheses(Dickson9()), True),
    "axis-quasi-kernel": (lambda: axis_quasi_kernel_report([1.0, 2.0, 3.0]), True),
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_is_strict_json(name):
    make, passes = REPORTS[name]
    rep = make()
    assert rep.passed is passes
    record = json.loads(json.dumps(rep.to_json(), allow_nan=False))
    assert record["passed"] is passes
    assert bool(record["violations"]) is not passes
