"""Canonical forms, isomorphism checking, and the product machinery.

Every twisted space is isomorphic to one whose twists sit entirely in the
addition tuple (action twists all identity) and to one with the twists
entirely in the action tuple; both normal forms send basis vectors to basis
vectors.  ``IsoMap`` carries such basis-image maps and ``verify_iso`` checks
additivity and equivariance, exhaustively where the space is enumerable.

``is_multiplicative`` certifies that the addition anchored at each nonzero
quasi-kernel vector is induced by some multiplicative automorphism of the
base, which is the defining property of this whole family of spaces.

Finite products exist when the base has only finitely many induced
additions and is finite dimensional over its right distributive part;
``product_hypotheses`` decides that per base and ``product_regroup``
assembles the regrouped product.
"""

import itertools
import random

from .errors import BoundExceededError, NearVecError, UnsupportedBaseError
from .galois import unit_classification
from .mult_auto import enumerate_mult_autos, identity_auto, same_addition
from .nearfield import distributive_elements, induced_add
from .nvspace import (
    DEFAULT_BRUTE_BOUND,
    SparseVector,
    SpaceSpec,
    coproduct,
    decomposition_classes,
    first_representative_classes,
)
from .report import Report


class IsoMap:
    """A vector map described by basis images, extended by coordinates.

    The image of v is the target sum of alpha_i . image(e_i) where alpha_i
    are the coordinates of v in the source canonical basis.
    """

    def __init__(self, source: SpaceSpec, target: SpaceSpec, basis_images: dict):
        if set(basis_images) != set(source.index):
            raise NearVecError("need exactly one image per source basis vector")
        self.source = source
        self.target = target
        self.basis_images = {k: v for k, v in basis_images.items()}

    def coordinates(self, v: SparseVector):
        out = {}
        for label, value in v:
            out[label] = self.source.rho[label].inverse().apply(value)
        return out

    def apply(self, v: SparseVector) -> SparseVector:
        acc = SparseVector()
        for label, alpha in self.coordinates(v).items():
            acc = self.target.add(acc, self.target.scale(alpha, self.basis_images[label]))
        return acc

    def is_basis_aligned(self):
        """True when every basis image is a single unit coordinate at a
        distinct target label; the exhaustive check then factors per
        component without losing any pair."""
        seen = set()
        for image in self.basis_images.values():
            if len(image) != 1:
                return False
            label, value = next(iter(image))
            if value != self.target.base.one or label in seen:
                return False
            seen.add(label)
        return True

    def __repr__(self):
        return f"IsoMap({self.source!r} -> {self.target!r})"


def normal_form_sigma(spec: SpaceSpec):
    """Equivalent space with every twist folded into the addition tuple."""
    ident = identity_auto(spec.base)
    target = SpaceSpec(
        spec.base,
        {k: spec.theta(k) for k in spec.index},
        {k: ident for k in spec.index},
    )
    images = {k: target.basis_vector(k) for k in spec.index}
    return target, IsoMap(spec, target, images)


def normal_form_rho(spec: SpaceSpec):
    """Equivalent space with every twist folded into the action tuple."""
    ident = identity_auto(spec.base)
    target = SpaceSpec(
        spec.base,
        {k: ident for k in spec.index},
        {k: spec.theta(k) for k in spec.index},
    )
    images = {k: target.basis_vector(k) for k in spec.index}
    return target, IsoMap(spec, target, images)


def _aligned_component_check(m: IsoMap):
    """Per-component exhaustive additivity and equivariance; equivalent to
    the all-pairs check when the map is basis aligned."""
    src, tgt = m.source, m.target
    base = src.base
    els = base.elements()
    violations = []
    pairs = 0
    for label in src.index:
        image = m.basis_images[label]
        tlabel = next(iter(image))[0]
        rho_inv = src.rho[label].inverse()

        def g(x, _tl=tlabel, _ri=rho_inv):
            return tgt.rho[_tl].apply(_ri.apply(x))

        sig_src = src.sigma[label]
        sig_tgt = tgt.sigma[tlabel]
        for x in els:
            gx = g(x)
            for y in els:
                lhs = g(induced_add(base, sig_src, x, y))
                rhs = induced_add(base, sig_tgt, gx, g(y))
                if lhs != rhs:
                    violations.append(
                        {"law": "additive", "label": label, "pair": (x, y)}
                    )
                pairs += 1
        for alpha in els:
            for x in els:
                lhs = g(base.mul(src.rho[label].apply(alpha), x))
                rhs = base.mul(tgt.rho[tlabel].apply(alpha), g(x))
                if lhs != rhs:
                    violations.append(
                        {"law": "equivariant", "label": label, "pair": (alpha, x)}
                    )
                pairs += 1
    return pairs, violations


def verify_iso(m: IsoMap, trials: int = 1000, seed: int = 0, bound=DEFAULT_BRUTE_BOUND) -> Report:
    """Check that the map preserves sums and the scalar action.

    Basis-aligned maps over finite bases are checked exhaustively per
    component (which covers every vector pair); other finite maps loop over
    all vector pairs within the bound; infinite bases get seeded samples.
    """
    src, tgt = m.source, m.target
    base = src.base
    mode = None
    violations = []
    checked = 0
    if base.is_finite and m.is_basis_aligned():
        mode = "exhaustive-by-component"
        checked, violations = _aligned_component_check(m)
    elif base.is_finite:
        mode = "exhaustive"
        vectors = src.all_vectors(bound)
        if len(vectors) ** 2 > bound:
            raise BoundExceededError(
                f"{len(vectors)}^2 vector pairs exceed the bound {bound}"
            )
        images = {v: m.apply(v) for v in vectors}
        for u in vectors:
            for v in vectors:
                if images[src.add(u, v)] != tgt.add(images[u], images[v]):
                    violations.append({"law": "additive", "pair": (u, v)})
                checked += 1
        for alpha in base.elements():
            for v in vectors:
                if m.apply(src.scale(alpha, v)) != tgt.scale(alpha, images[v]):
                    violations.append({"law": "equivariant", "alpha": alpha})
                checked += 1
        if len({images[v] for v in vectors}) != len(vectors):
            violations.append({"law": "bijective"})
    else:
        mode = "sampled"
        rng = random.Random(seed)
        points = base.sample_points()

        def draw_vector():
            return src.vector(
                {
                    label: rng.choice(points)
                    for label in src.index
                    if rng.random() < 0.8
                }
            )

        for _ in range(trials):
            u, v = draw_vector(), draw_vector()
            lhs = m.apply(src.add(u, v))
            rhs = tgt.add(m.apply(u), m.apply(v))
            if not tgt.vectors_equal(lhs, rhs):
                violations.append({"law": "additive", "pair": (u, v)})
            alpha = rng.choice(points)
            if not tgt.vectors_equal(
                m.apply(src.scale(alpha, u)), tgt.scale(alpha, m.apply(u))
            ):
                violations.append({"law": "equivariant", "alpha": alpha})
            checked += 2
    return Report(
        name="iso_map",
        passed=not violations,
        details={"mode": mode, "checked": checked},
        violations=violations[:20],
    )


def is_multiplicative(spec: SpaceSpec, bound=DEFAULT_BRUTE_BOUND):
    """For each nonzero quasi-kernel vector, find a base automorphism that
    induces the same anchored addition.

    Returns (all_found, certificates) where certificates maps each vector
    to its automorphism (None when the search failed, which would mean the
    space is not of this family).
    """
    base = spec.base
    if not base.is_finite:
        raise UnsupportedBaseError("certificate search needs a finite base")
    tables = spec._int_tables(bound)
    autos = enumerate_mult_autos(base)
    els = tables.elements
    idx = tables.idx
    lookup = {}
    for auto in autos:
        inv = auto.inverse()
        key = tuple(
            idx[inv.apply(base.add(auto.apply(a), auto.apply(b)))]
            for a in els
            for b in els
        )
        lookup.setdefault(key, auto)
    certificates = {}
    ok = True
    for u in sorted(tables.quasi_kernel()):
        if u == tables.zero:
            continue
        key = tuple(tables.anchored_scalars(u))
        cert = None if None in key else lookup.get(key)
        certificates[tables.to_sparse(u)] = cert
        if cert is None:
            ok = False
    return ok, certificates


def basis_transport_check(m: IsoMap, bound=DEFAULT_BRUTE_BOUND) -> Report:
    """Do the basis images span the target and stay independent?

    Exhaustive small search: every source coefficient tuple is folded into
    a target sum; the span must hit the whole target space and only the
    all-zero tuple may vanish.
    """
    src, tgt = m.source, m.target
    base = src.base
    if not base.is_finite:
        raise UnsupportedBaseError("transport check needs a finite base")
    els = base.elements()
    if len(els) ** max(src.dim, 1) > bound:
        raise BoundExceededError("coefficient sweep exceeds the bound")
    span = set()
    dependent = None
    for combo in itertools.product(els, repeat=src.dim):
        acc = SparseVector()
        for coeff, label in zip(combo, src.index):
            acc = tgt.add(acc, tgt.scale(coeff, m.basis_images[label]))
        span.add(acc)
        if acc.is_zero() and any(not base.is_zero(c) for c in combo):
            dependent = combo
    target_size = len(els) ** tgt.dim
    spans = len(span) == target_size
    independent = dependent is None
    violations = []
    if not spans:
        violations.append({"law": "span", "reached": len(span), "target": target_size})
    if not independent:
        violations.append({"law": "independent", "coefficients": dependent})
    return Report(
        name="basis_transport",
        passed=not violations,
        details={"span_size": len(span), "target_size": target_size},
        violations=violations,
    )


def product_hypotheses(base) -> Report:
    """Whether infinite products over this base stay in the family:
    finitely many induced additions and finite dimension over the right
    distributive part."""
    if base.kind == "gf":
        p, n = base.table.p, base.table.n
        if base.order() == 2:
            induced = 1
        else:
            induced = unit_classification(p, n).count
        # a commutative product makes every element right distributive
        fd_size = base.order()
        dim = 1
        return Report(
            name="product_hypotheses",
            passed=True,
            details={
                "induced_additions": induced,
                "distributive_size": fd_size,
                "dimension_over_distributive": dim,
            },
        )
    if base.kind in ("real", "complex"):
        return Report(
            name="product_hypotheses",
            passed=False,
            details={
                "induced_additions": "infinite",
                "reason": "distinct power exponents induce distinct additions",
            },
            violations=[{"hypothesis": "finitely-many-induced-additions"}],
        )
    # finite noncommutative base: count addition classes among all
    # automorphisms and read the dimension off the subfield sizes
    autos = enumerate_mult_autos(base)
    classes = first_representative_classes(
        autos, lambda f, g: same_addition(f, g, base)
    )
    fd = distributive_elements(base)
    order = base.order()
    dim = 0
    size = 1
    while size < order:
        size *= len(fd)
        dim += 1
    if size != order:
        raise NearVecError("base order is not a power of its distributive part")
    return Report(
        name="product_hypotheses",
        passed=True,
        details={
            "induced_additions": len(classes),
            "automorphisms": len(autos),
            "distributive_size": len(fd),
            "dimension_over_distributive": dim,
        },
    )


def product_regroup(specs):
    """Finite product with its labels regrouped by decomposition class.

    Returns the combined space and the partition of its label set; each
    block collects the coordinates sharing an addition up to inner twist.
    """
    combined, _ = coproduct(specs)
    partition = decomposition_classes(combined)
    return combined, partition
