"""JSON forms of bases, scalars, automorphisms, specs, vectors, and
complexification files.

Bases are tagged records: {"kind": "gf", "p", "n", "modulus"} |
{"kind": "real"|"complex", "tolerance"} | {"kind": "dickson9"}.  Galois
scalars are coefficient arrays (constant term first), reals are numbers,
complexes are [re, im] pairs.  Automorphisms: {"kind": "fpow"|"rpow",
"alpha"} | {"kind": "ceps", "alpha": [re, im], "conj"} | {"kind": "perm",
"table": [[in, out], ...]} | {"kind": "inner", "gamma"}; the input-only
{"kind": "comp", "factors": [...]} decodes to the composition of its
factors, applied right to left, which is again one of the other kinds.  A
space file is {"base", "index", "sigma", "rho"}; a vector is {"entries":
{label: scalar}}; a complexification file is {"T": [...], "S": [...] |
null, "conj": bool}.  ``report.json_value`` encodes the same scalar and
vector forms inside outputs and report records.
"""

import functools
import sys

from .complexify import ComplexificationSpec
from .errors import NearVecError, charge
from .galois import _check_order
from .mult_auto import (
    ComplexEps,
    FinitePower,
    InnerAuto,
    PermAuto,
    RealPower,
    compose,
    identity_auto,
)
from .nearfield import (
    DEFAULT_BRUTE_BOUND,
    DEFAULT_TOLERANCE,
    ComplexField,
    Dickson9,
    GaloisField,
    RealField,
)
from .nvspace import SparseVector, SpaceSpec
from .report import json_value


def _record(obj, what):
    if not isinstance(obj, dict):
        raise NearVecError(f"{what} is not a JSON object: {obj!r}")
    return obj


def _list(obj, what):
    if not isinstance(obj, (list, tuple)):
        raise NearVecError(f"{what} is not a list: {obj!r}")
    return obj


def _integer(obj, what):
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise NearVecError(f"{what} is not an integer: {obj!r}")
    return obj


def _number(obj, what):
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise NearVecError(f"{what} is not a number: {obj!r}")
    return obj


def _real(obj, what):
    """A finite float: NaN, the infinities and integers beyond the float
    range are refused, so no decoded value prints as a non-JSON token."""
    if not abs(_number(obj, what)) <= sys.float_info.max:  # NaN fails this too
        raise NearVecError(f"{what} is not a finite number in the float range")
    return float(obj)


def _reals(obj, what):
    return [_real(x, what) for x in _list(obj, what)]


def _boolean(obj, what):
    if not isinstance(obj, bool):
        raise NearVecError(f"{what} is not a boolean: {obj!r}")
    return obj


def _field(obj, key, what):
    if key not in obj:
        raise NearVecError(f"{what} record has no {key!r} field")
    return obj[key]


def _complex(obj, what):
    """A number or an [re, im] pair."""
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        return complex(_real(obj[0], what), _real(obj[1], what))
    return complex(_real(obj, what))


def base_from_json(obj, tolerance=None, bound=None):
    """The base a record describes.  With a ``bound``, a Galois field is
    refused before its tables are built when the two sweeps over its q^3
    element triples that ``check-base`` runs (associativity and the
    distributive elements) exceed it."""
    obj = _record(obj, "base")
    kind = obj.get("kind")
    if kind == "gf":
        p, n = (_integer(_field(obj, key, "base"), key) for key in ("p", "n"))
        if bound is not None:
            q = _check_order(p, n)
            charge(2 * q**3, bound, f"2*{q}^3 triples")
        base = GaloisField(p, n)
        given = obj.get("modulus")
        if given is not None and [
            _integer(c, "modulus") for c in _list(given, "modulus")
        ] != list(base.modulus):
            raise NearVecError(
                f"modulus {given} does not match the deterministic table "
                f"{list(base.modulus)}"
            )
        return base
    if kind == "dickson9":
        return Dickson9()
    if kind in ("real", "complex"):
        if tolerance is None:  # the field refuses one not positive and finite
            tolerance = _number(obj.get("tolerance", DEFAULT_TOLERANCE), "tolerance")
        return (RealField if kind == "real" else ComplexField)(tolerance)
    raise NearVecError(f"unknown base kind {kind!r}")


def scalar_from_json(base, obj):
    if base.kind in ("gf", "dickson9"):
        return base.element([_integer(c, "scalar") for c in _list(obj, "scalar")])
    if base.kind == "real":
        return _real(obj, "scalar")
    if base.kind == "complex":
        return _complex(obj, "scalar")
    raise NearVecError(f"cannot decode scalar for {base!r}")


def auto_from_json(base, obj, bound=DEFAULT_BRUTE_BOUND):
    """The automorphism a record describes; a ``perm`` table's q^2 product
    check, at any depth of a ``comp``, is refused beyond ``bound``."""
    obj = _record(obj, "automorphism")
    kind = obj.get("kind")
    if kind == "fpow":
        return FinitePower(base, _integer(_field(obj, "alpha", kind), "alpha"))
    if kind == "rpow":
        return RealPower(base, _real(_field(obj, "alpha", kind), "alpha"))
    if kind == "ceps":
        alpha = _complex(_field(obj, "alpha", kind), "alpha")
        return ComplexEps(base, alpha, _boolean(obj.get("conj", False), "conj"))
    if kind == "perm":
        pairs = [_list(pair, "perm entry") for pair in _list(_field(obj, "table", kind), "table")]
        if any(len(pair) != 2 for pair in pairs):
            raise NearVecError("perm entries must be [in, out] pairs")
        table = {scalar_from_json(base, x): scalar_from_json(base, y) for x, y in pairs}
        return PermAuto(base, table, bound)
    if kind == "inner":
        return InnerAuto(base, scalar_from_json(base, _field(obj, "gamma", kind)))
    if kind == "comp":
        factors = [
            auto_from_json(base, f, bound) for f in _list(_field(obj, "factors", kind), "factors")
        ]
        return functools.reduce(compose, factors) if factors else identity_auto(base)
    raise NearVecError(f"unknown automorphism kind {kind!r}")


def spec_from_json(obj, tolerance=None, bound=DEFAULT_BRUTE_BOUND) -> SpaceSpec:
    """The space a record describes; ``bound`` goes to ``auto_from_json``."""
    obj = _record(obj, "space")
    base = base_from_json(_field(obj, "base", "space"), tolerance=tolerance)
    index = [str(k) for k in _list(_field(obj, "index", "space"), "index")]
    sigma, rho = (_record(_field(obj, key, "space"), key) for key in ("sigma", "rho"))
    spec = SpaceSpec(
        base,
        {k: auto_from_json(base, _field(sigma, k, "sigma"), bound) for k in index},
        {k: auto_from_json(base, _field(rho, k, "rho"), bound) for k in index},
    )
    if list(spec.index) != sorted(index):
        raise NearVecError("index does not match sigma/rho labels")
    return spec


def vector_to_json(v: SparseVector):
    return {"entries": json_value(v)}


def vector_from_json(spec: SpaceSpec, obj) -> SparseVector:
    entries = _record(_field(_record(obj, "vector"), "entries", "vector"), "entries")
    return spec.vector({k: scalar_from_json(spec.base, x) for k, x in entries.items()})


def complexification_from_json(obj) -> ComplexificationSpec:
    obj = _record(obj, "complexification")
    S = obj.get("S")
    return ComplexificationSpec(
        _reals(_field(obj, "T", "complexification"), "T"),
        None if S is None else _reals(S, "S"),
        _boolean(obj.get("conj", False), "conj"),
    )
