"""JSON forms of bases, scalars, automorphisms, specs, and vectors.

Bases are tagged records: {"kind": "gf", "p", "n", "modulus"} |
{"kind": "real"|"complex", "tolerance"} | {"kind": "dickson9"}.  Galois
scalars are coefficient arrays (constant term first), reals are numbers,
complexes are [re, im] pairs.  Automorphisms: {"kind": "fpow"|"rpow",
"alpha"} | {"kind": "ceps", "alpha": [re, im], "conj"} | {"kind": "perm",
"table": [[in, out], ...]} | {"kind": "inner", "gamma"} | {"kind": "comp",
"factors": [...]}.  A space file is {"base", "index", "sigma", "rho"}; a
vector is {"entries": {label: scalar}}.
"""

from .errors import NearVecError
from .mult_auto import (
    CompAuto,
    ComplexEps,
    FinitePower,
    InnerAuto,
    PermAuto,
    RealPower,
)
from .nearfield import (
    ComplexField,
    Dickson9,
    GaloisField,
    RealField,
)
from .nvspace import SparseVector, SpaceSpec


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


def _real(obj, what):
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise NearVecError(f"{what} is not a number: {obj!r}")
    return float(obj)


def _complex(obj, what):
    """A number or an [re, im] pair."""
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        return complex(_real(obj[0], what), _real(obj[1], what))
    return complex(_real(obj, what))


def base_from_json(obj, tolerance=None):
    obj = _record(obj, "base")
    kind = obj.get("kind")
    if kind == "gf":
        base = GaloisField.of(_integer(obj["p"], "p"), _integer(obj["n"], "n"))
        given = obj.get("modulus")
        if given is not None and [
            _integer(c, "modulus") for c in _list(given, "modulus")
        ] != list(base.table.modulus):
            raise NearVecError(
                f"modulus {given} does not match the deterministic table "
                f"{list(base.table.modulus)}"
            )
        return base
    if kind == "dickson9":
        return Dickson9()
    if kind in ("real", "complex"):
        tolerance = tolerance or _real(obj.get("tolerance", 1e-9), "tolerance")
        return (RealField if kind == "real" else ComplexField)(tolerance)
    raise NearVecError(f"unknown base kind {kind!r}")


def scalar_to_json(base, x):
    if hasattr(x, "coeffs"):
        return list(x.coeffs)
    if isinstance(x, complex):
        return [x.real, x.imag]
    return x


def scalar_from_json(base, obj):
    if base.kind in ("gf", "dickson9"):
        return base.table.element([_integer(c, "scalar") for c in _list(obj, "scalar")])
    if base.kind == "real":
        return _real(obj, "scalar")
    if base.kind == "complex":
        return _complex(obj, "scalar")
    raise NearVecError(f"cannot decode scalar for {base!r}")


def auto_from_json(base, obj):
    obj = _record(obj, "automorphism")
    kind = obj.get("kind")
    if kind == "fpow":
        return FinitePower(base, _integer(obj["alpha"], "alpha"))
    if kind == "rpow":
        return RealPower(base, _real(obj["alpha"], "alpha"))
    if kind == "ceps":
        alpha = _complex(obj["alpha"], "alpha")
        return ComplexEps(base, alpha, bool(obj.get("conj", False)))
    if kind == "perm":
        pairs = [_list(pair, "perm entry") for pair in _list(obj["table"], "table")]
        if any(len(pair) != 2 for pair in pairs):
            raise NearVecError("perm entries must be [in, out] pairs")
        table = {scalar_from_json(base, x): scalar_from_json(base, y) for x, y in pairs}
        return PermAuto(base, table)
    if kind == "inner":
        return InnerAuto(base, scalar_from_json(base, obj["gamma"]))
    if kind == "comp":
        factors = _list(obj["factors"], "factors")
        return CompAuto(base, [auto_from_json(base, f) for f in factors])
    raise NearVecError(f"unknown automorphism kind {kind!r}")


def spec_from_json(obj, tolerance=None) -> SpaceSpec:
    obj = _record(obj, "space")
    base = base_from_json(obj["base"], tolerance=tolerance)
    index = [str(k) for k in _list(obj["index"], "index")]
    sigma, rho = _record(obj["sigma"], "sigma"), _record(obj["rho"], "rho")
    spec = SpaceSpec(
        base,
        {k: auto_from_json(base, sigma[k]) for k in index},
        {k: auto_from_json(base, rho[k]) for k in index},
    )
    if list(spec.index) != sorted(index):
        raise NearVecError("index does not match sigma/rho labels")
    return spec


def vector_to_json(base, v: SparseVector):
    return {"entries": {k: scalar_to_json(base, x) for k, x in v}}


def vector_from_json(spec: SpaceSpec, obj) -> SparseVector:
    entries = _record(_record(obj, "vector")["entries"], "entries")
    return spec.vector({k: scalar_from_json(spec.base, x) for k, x in entries.items()})
