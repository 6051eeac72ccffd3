"""Exact computation with multiplicatively twisted near-linear spaces.

The package builds scalar bases (small Galois fields, the reals, the
complexes, and the order-9 Dickson near-field), the multiplicative
automorphisms that twist them, and finite-support spaces whose coordinate
additions and scalar actions are twisted per label.  Closed-form results
(quasi-kernel, regular decomposition, canonical forms, product regrouping)
ship next to brute-force oracles that recheck them from the definitions.
"""

from .errors import (
    BaseMismatchError,
    BoundExceededError,
    InvalidAnchorError,
    NearVecError,
    UnsupportedBaseError,
)
from .galois import (
    GFElement,
    UnitClassification,
    gf_build,
    same_addition_exponents,
    unit_classification,
)
from .nearfield import (
    COMPLEXES,
    REALS,
    BaseStructure,
    ComplexField,
    Dickson9,
    GaloisField,
    RealField,
    distributive_elements,
    divisionring_transport_check,
    induced_add,
    is_nearfield_automorphism,
    scalar_group_axiom_check,
)
from .mult_auto import (
    ComplexEps,
    FinitePower,
    InnerAuto,
    MultAuto,
    PermAuto,
    RealPower,
    as_perm,
    compose,
    enumerate_mult_autos,
    identity_auto,
    mult_properties_check,
    same_addition,
)
from .nvspace import (
    Injection,
    Partition,
    QKDescription,
    SparseVector,
    SpaceSpec,
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
    regular_components,
    regular_decomposition,
    same_addition_classes,
)
from .canonical import (
    IsoMap,
    basis_transport_check,
    is_multiplicative,
    normal_form_rho,
    normal_form_sigma,
    product_hypotheses,
    product_regroup,
    verify_iso,
)
from .complexify import (
    ComplexificationSpec,
    axis_quasi_kernel_report,
    complexify,
    conj_pair_check,
    decompose_over_real,
    minimal_poly_residual,
    real_power_auto,
    real_power_space,
    reconstruct_from_real,
    restriction_agrees,
)
from .report import Report

__version__ = "0.1.0"
