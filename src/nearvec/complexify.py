"""Real and complex instances, and complexification of real spaces.

The real base has one sign-preserving power automorphism per nonzero
exponent, and distinct exponents induce distinct additions, so a product of
axes with pairwise distinct exponents has a quasi-kernel made of the axes
alone; ``axis_quasi_kernel_report`` demonstrates that at any finite size
with explicit failing scalar pairs for cross-axis vectors, and the scalar
each pair requires on each axis alone (the anchored scalar of that label).

A real space with power twists extends to a complex one by replacing each
real power with the modulus-power map on the complexes, either as is or
with the unit part conjugated; the two choices are both implemented and
neither is treated as canonical.  Restricted to real inputs the extension
agrees with the real power map, the extension has degree two with basis
{1, preimage of i}, and squaring that basis element and adding one (in the
induced addition) lands exactly on zero.

Everything here works over the shared default bases ``REALS`` and
``COMPLEXES``; a tolerance other than the default applies through
``nearvec complexify --tol`` to the residual check only.
"""

import random

from .errors import NearVecError
from .mult_auto import ComplexEps, RealPower
from .nearfield import COMPLEXES, REALS, RealField, induced_add
from .nvspace import SpaceSpec, _anchor_scalar, exponent_space, in_quasi_kernel
from .report import Report


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


def complexify(cspec: ComplexificationSpec) -> SpaceSpec:
    """The complex space whose twists extend those of the real space
    ``exponent_space(REALS, T, S)``; label "k" carries T[k-1] and S[k-1]."""
    sigma, rho = {}, {}
    for k, (a, b) in enumerate(zip(cspec.T, cspec.S), start=1):
        label = str(k)
        sigma[label] = ComplexEps(COMPLEXES, a, cspec.conj)
        rho[label] = ComplexEps(COMPLEXES, b, cspec.conj)
    return SpaceSpec(COMPLEXES, sigma, rho)


def restriction_agrees(alpha, samples: int = 200, seed: int = 0) -> Report:
    """The modulus-power map agrees with the real power map on real inputs."""
    eps = ComplexEps(COMPLEXES, alpha)
    phi = RealPower(REALS, alpha)
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
        if not COMPLEXES.eq(lhs, rhs):
            violations.append({"x": x, "complex": lhs, "real": rhs.real})
    return Report(
        name="restriction_agrees",
        passed=not violations,
        details={"alpha": alpha, "points": len(points)},
        violations=violations[:10],
    )


def decompose_over_real(z, alpha, conj=False):
    """Coordinates (a, b) of z over the reals inside the extended complex
    structure: z equals a plus (in the induced addition) b times the
    preimage of i.  z = 0 gives (0, 0) by convention."""
    phi_inv = RealPower(REALS, alpha).inverse()  # refuses a zero exponent
    if z == 0:
        return 0.0, 0.0
    w = ComplexEps(COMPLEXES, alpha, conj).apply(complex(z))
    return phi_inv.apply(w.real), phi_inv.apply(w.imag)


def reconstruct_from_real(a, b, alpha, conj=False):
    """Inverse of ``decompose_over_real``: a + (induced) b * preimage(i)."""
    eps = ComplexEps(COMPLEXES, alpha, conj)
    imag_unit = eps.inverse().apply(1j)
    return induced_add(COMPLEXES, eps, complex(a), complex(b) * imag_unit)


def minimal_poly_residual(alpha, conj=False) -> float:
    """Modulus of x*x (+)_eps 1 at x = the preimage of i; zero when the
    degree-two relation holds."""
    eps = ComplexEps(COMPLEXES, alpha, conj)
    x = eps.inverse().apply(1j)
    return abs(induced_add(COMPLEXES, eps, x * x, COMPLEXES.one))


def _additions_agree(auto1, auto2):
    """First complex grid pair where the two induced additions differ, or
    None."""
    points = COMPLEXES.sample_points()
    for x in points:
        for y in points:
            lhs = induced_add(COMPLEXES, auto1, x, y)
            rhs = induced_add(COMPLEXES, auto2, x, y)
            if not COMPLEXES.eq(lhs, rhs):
                return (x, y, lhs, rhs)
    return None


def conj_pair_check(alpha) -> Report:
    """The plain map at alpha and the conjugating map at conj(alpha) induce
    the same addition; a deterministic unpaired exponent does not."""
    alpha = complex(alpha)
    eps = ComplexEps(COMPLEXES, alpha, False)
    paired = ComplexEps(COMPLEXES, alpha.conjugate(), True)
    violations = []
    mismatch = _additions_agree(eps, paired)
    if mismatch is not None:
        x, y, lhs, rhs = mismatch
        violations.append({"law": "paired-additions-agree", "pair": [x, y], "lhs": lhs, "rhs": rhs})
    unpaired_alpha = alpha + 1 if alpha.real != -1 else alpha + 2
    unpaired = ComplexEps(COMPLEXES, unpaired_alpha, False)
    witness = _additions_agree(eps, unpaired)
    if witness is None:
        violations.append({"law": "unpaired-additions-differ", "beta": str(unpaired_alpha)})
    else:
        witness = {"beta": unpaired_alpha, "pair": list(witness[:2])}
    return Report(
        name="conj_pair",
        passed=not violations,
        details={"alpha": alpha, "unpaired_witness": witness},
        violations=violations,
    )


def axis_quasi_kernel_report(exponents) -> Report:
    """For pairwise distinct power exponents the quasi-kernel is the union
    of the axes: every axis vector passes membership, every sampled vector
    with larger support fails with an explicit scalar-pair witness."""
    exponents = [float(a) for a in exponents]
    if len(exponents) < 2:
        raise NearVecError("need at least two exponents")
    if len(set(exponents)) != len(exponents):
        raise NearVecError("exponents must be pairwise distinct")
    spec = exponent_space(REALS, exponents)
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
            gammas = {k: _anchor_scalar(spec, v.restrict([k]), a, b) for k in v.support}
            witnesses.append(
                {"vector": v.entries, "witness_pair": [a, b], "required_gammas": gammas}
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
