"""Real and complex instances, and complexification of real spaces.

The real base has one sign-preserving power automorphism per nonzero
exponent, and distinct exponents induce distinct additions, so a product of
axes with pairwise distinct exponents has a quasi-kernel made of the axes
alone; ``axis_quasi_kernel_report`` demonstrates that at any finite size
with explicit failing scalar pairs for cross-axis vectors.

A real space with power twists extends to a complex one by replacing each
real power with the modulus-power map on the complexes, either as is or
with the unit part conjugated; the two choices are both implemented and
neither is treated as canonical.  Restricted to real inputs the extension
agrees with the real power map, the extension has degree two with basis
{1, preimage of i}, and squaring that basis element and adding one (in the
induced addition) lands exactly on zero.
"""

import random

from .errors import NearVecError
from .mult_auto import ComplexEps, RealPower
from .nearfield import COMPLEXES, REALS, ComplexField, RealField, induced_add
from .nvspace import SpaceSpec, _anchor_scalar, exponent_space, in_quasi_kernel
from .report import Report


def real_power_auto(alpha, base: RealField = None) -> RealPower:
    """The sign-preserving power map with the given nonzero exponent."""
    return RealPower(REALS if base is None else base, alpha)


def real_power_space(sigma_exponents, rho_exponents=None, base: RealField = None) -> SpaceSpec:
    """A real space with power twists, labels "1", "2", ..."""
    return exponent_space(
        REALS if base is None else base, sigma_exponents, rho_exponents
    )


class ComplexificationSpec:
    """Exponent data of a real space to extend: sigma exponents T, rho
    exponents S (defaults to all ones), and which of the two extensions to
    take (plain or unit-conjugating)."""

    def __init__(self, T, S=None, conj=False):
        self.T = tuple(float(a) for a in T)
        self.S = tuple(float(b) for b in (S if S is not None else [1.0] * len(self.T)))
        if len(self.T) != len(self.S):
            raise NearVecError("sigma and rho exponent tuples differ in length")
        if any(a == 0 for a in self.T + self.S):
            raise NearVecError("exponents must be nonzero")
        self.conj = bool(conj)

    def to_json(self):
        return {"T": list(self.T), "S": list(self.S), "conj": self.conj}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["T"], obj.get("S"), obj.get("conj", False))


def complexify(cspec: ComplexificationSpec, base: ComplexField = None) -> SpaceSpec:
    """The complex space whose twists extend the given real power twists."""
    base = COMPLEXES if base is None else base
    sigma, rho = {}, {}
    for k, (a, b) in enumerate(zip(cspec.T, cspec.S), start=1):
        label = str(k)
        sigma[label] = ComplexEps(base, a, cspec.conj)
        rho[label] = ComplexEps(base, b, cspec.conj)
    return SpaceSpec(base, sigma, rho)


def restriction_agrees(alpha, samples: int = 200, seed: int = 0, base=None) -> Report:
    """The modulus-power map agrees with the real power map on real inputs."""
    base = COMPLEXES if base is None else base
    eps = ComplexEps(base, alpha)
    phi = real_power_auto(alpha, RealField(base.tolerance))
    rng = random.Random(seed)
    points = list(RealField.GRID)
    while len(points) < samples:
        x = rng.uniform(-10.0, 10.0)
        if abs(x) > 1e-3:
            points.append(x)
    violations = []
    for x in points:
        lhs = eps.apply(complex(x))
        rhs = complex(phi.apply(x))
        if not base.eq(lhs, rhs):
            violations.append({"x": x, "complex": [lhs.real, lhs.imag], "real": rhs.real})
    return Report(
        name="restriction_agrees",
        passed=not violations,
        details={"alpha": alpha, "points": len(points)},
        violations=violations[:10],
    )


def decompose_over_real(z, alpha, conj=False, base=None):
    """Coordinates (a, b) of z over the reals inside the extended complex
    structure: z equals a plus (in the induced addition) b times the
    preimage of i.  z = 0 gives (0, 0) by convention."""
    base = COMPLEXES if base is None else base
    if alpha == 0:
        raise NearVecError("exponent must be nonzero")
    if z == 0:
        return 0.0, 0.0
    eps = ComplexEps(base, alpha, conj)
    phi_inv = real_power_auto(alpha, RealField(base.tolerance)).inverse()
    w = eps.apply(complex(z))
    return phi_inv.apply(w.real), phi_inv.apply(w.imag)


def reconstruct_from_real(a, b, alpha, conj=False, base=None):
    """Inverse of ``decompose_over_real``: a + (induced) b * preimage(i)."""
    base = COMPLEXES if base is None else base
    eps = ComplexEps(base, alpha, conj)
    imag_unit = eps.inverse().apply(1j)
    return induced_add(base, eps, complex(a), base.mul(complex(b), imag_unit))


def minimal_poly_residual(alpha, conj=False, base=None) -> float:
    """Modulus of x*x (+)_eps 1 at x = the preimage of i; zero when the
    degree-two relation holds."""
    base = COMPLEXES if base is None else base
    eps = ComplexEps(base, alpha, conj)
    x = eps.inverse().apply(1j)
    value = induced_add(base, eps, base.mul(x, x), base.one)
    return abs(value)


def _additions_agree(base, auto1, auto2):
    """First grid pair where the two induced additions differ, or None."""
    points = base.sample_points()
    for x in points:
        for y in points:
            lhs = induced_add(base, auto1, x, y)
            rhs = induced_add(base, auto2, x, y)
            if not base.eq(lhs, rhs):
                return (x, y, lhs, rhs)
    return None


def conj_pair_check(alpha, samples: int = 0, seed: int = 0, base=None) -> Report:
    """The plain map at alpha and the conjugating map at conj(alpha) induce
    the same addition; a deterministic unpaired exponent does not."""
    base = COMPLEXES if base is None else base
    alpha = complex(alpha)
    eps = ComplexEps(base, alpha, False)
    paired = ComplexEps(base, alpha.conjugate(), True)
    violations = []
    mismatch = _additions_agree(base, eps, paired)
    if mismatch is not None:
        x, y, lhs, rhs = mismatch
        violations.append(
            {
                "law": "paired-additions-agree",
                "pair": [[x.real, x.imag], [y.real, y.imag]],
                "lhs": [lhs.real, lhs.imag],
                "rhs": [rhs.real, rhs.imag],
            }
        )
    unpaired_alpha = alpha + 1 if alpha.real != -1 else alpha + 2
    unpaired = ComplexEps(base, unpaired_alpha, False)
    witness = _additions_agree(base, eps, unpaired)
    if witness is None:
        violations.append({"law": "unpaired-additions-differ", "beta": str(unpaired_alpha)})
        witness_json = None
    else:
        x, y, lhs, rhs = witness
        witness_json = {
            "beta": [unpaired_alpha.real, unpaired_alpha.imag],
            "pair": [[x.real, x.imag], [y.real, y.imag]],
        }
    return Report(
        name="conj_pair",
        passed=not violations,
        details={"alpha": [alpha.real, alpha.imag], "unpaired_witness": witness_json},
        violations=violations,
    )


def axis_quasi_kernel_report(exponents, base: RealField = None) -> Report:
    """For pairwise distinct power exponents the quasi-kernel is the union
    of the axes: every axis vector passes membership, every sampled vector
    with larger support fails with an explicit scalar-pair witness."""
    exponents = [float(a) for a in exponents]
    if len(exponents) < 2:
        raise NearVecError("need at least two exponents")
    if len(set(exponents)) != len(exponents):
        raise NearVecError("exponents must be pairwise distinct")
    spec = real_power_space(exponents, base=base)
    violations = []
    axis_checked = 0
    for label in spec.index:
        for lam in (1.0, 2.0, -3.0, 0.5):
            v = spec.scale(lam, spec.basis_vector(label))
            ok, _ = in_quasi_kernel(spec, v)
            axis_checked += 1
            if not ok:
                violations.append({"kind": "axis-rejected", "label": label, "lambda": lam})
    witnesses = []
    multis = []
    labels = spec.index
    multis.append(spec.vector({k: 1.0 for k in labels}))
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            multis.append(spec.vector({labels[i]: 1.0, labels[j]: 1.0}))
            multis.append(spec.vector({labels[i]: 2.0, labels[j]: -0.5}))
    for v in multis:
        ok, witness = in_quasi_kernel(spec, v)
        if ok:
            violations.append({"kind": "multi-support-accepted", "vector": v.entries})
        else:
            a, b = witness
            w = spec.add(spec.scale(a, v), spec.scale(b, v))
            gammas = {
                label: _anchor_scalar(spec, v.restrict([label]), w.restrict([label]))
                for label in v.support
                if w.get(label) is not None
            }
            witnesses.append(
                {
                    "vector": v.entries,
                    "witness_pair": [a, b],
                    "required_gammas": gammas,
                }
            )
    return Report(
        name="axis_quasi_kernel",
        passed=not violations,
        details={
            "exponents": exponents,
            "axis_vectors_checked": axis_checked,
            "multi_support_failures": witnesses,
        },
        violations=violations,
    )
