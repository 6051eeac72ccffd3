"""Canonical forms, isomorphism checking, and the product machinery.

Every twisted space is isomorphic to one whose twists sit entirely in the
addition tuple (action twists all identity) and to one with the twists
entirely in the action tuple; both normal forms send basis vectors to basis
vectors.  ``IsoMap`` carries such basis-image maps and ``verify_iso`` checks
additivity and equivariance, exhaustively where the space is enumerable.
A basis-aligned map is checked per component: every automorphism the
check needs is tabulated once per label as an index list (O(d*q) applies)
and the 2*d*q^2 scalar pairs, refused beyond the bound, are list lookups.

``is_multiplicative`` certifies that the addition anchored at each nonzero
quasi-kernel vector is induced by some multiplicative automorphism of the
base, which is the defining property of this whole family of spaces.  Each
automorphism's key, its q^2 induced sums, costs 2q applies and q^2 lookups
in the base addition table.

Finite products exist when the base has only finitely many induced
additions and is finite dimensional over its right distributive part;
``product_hypotheses`` decides that per base and ``product_regroup``
assembles the regrouped product.
"""

import functools
import itertools
import random

from .errors import NearVecError, UnsupportedBaseError, charge
from .galois import unit_classification
from .mult_auto import enumerate_mult_autos, identity_auto, same_addition
from .nearfield import DEFAULT_BRUTE_BOUND, distributive_elements
from .nvspace import (
    SparseVector,
    SpaceSpec,
    _base_tables,
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


def _normal_form(spec: SpaceSpec, into_sigma: bool):
    """The space with every combined twist theta_i in the addition tuple
    (``into_sigma``) or in the action tuple, the other tuple identity, and
    the basis-to-basis map onto it."""
    twists = {k: spec.theta(k) for k in spec.index}
    plain = dict.fromkeys(spec.index, identity_auto(spec.base))
    sigma, rho = (twists, plain) if into_sigma else (plain, twists)
    target = SpaceSpec(spec.base, sigma, rho)
    images = {k: target.basis_vector(k) for k in spec.index}
    return target, IsoMap(spec, target, images)


def normal_form_sigma(spec: SpaceSpec):
    """Equivalent space with every twist folded into the addition tuple."""
    return _normal_form(spec, into_sigma=True)


def normal_form_rho(spec: SpaceSpec):
    """Equivalent space with every twist folded into the action tuple."""
    return _normal_form(spec, into_sigma=False)


def _aligned_component_check(m: IsoMap, bound):
    """Per-component exhaustive additivity and equivariance; equivalent to
    the all-pairs check when the map is basis aligned.  Per label,
    g = rho_tgt . rho_src^-1, both sigmas, their inverses and both rhos
    become index lists, so each pair is a few list lookups."""
    src, tgt = m.source, m.target
    q = src.base.order()
    charge(2 * src.dim * q**2, bound, f"2*{src.dim}*{q}^2 component pairs")
    els, add, mul = _base_tables(src.base)

    def table(f):
        return list(map(f, els))

    violations = []
    pairs = 0
    for label in src.index:
        image = m.basis_images[label]
        tlabel = next(iter(image))[0]
        rho_inv, rho_tgt = src.rho[label].inverse(), tgt.rho[tlabel]
        g = table(lambda x: rho_tgt.apply(rho_inv.apply(x)))
        sig_src, sig_tgt = src.sigma[label], tgt.sigma[tlabel]
        ss, ss_inv = table(sig_src.apply), table(sig_src.inverse().apply)
        ts, ts_inv = table(sig_tgt.apply), table(sig_tgt.inverse().apply)
        rs, rt = table(src.rho[label].apply), table(rho_tgt.apply)
        for x in range(q):
            add_x, add_gx = add[ss[x]], add[ts[g[x]]]
            for y in range(q):
                if g[ss_inv[add_x[ss[y]]]] != ts_inv[add_gx[ts[g[y]]]]:
                    violations.append(
                        {"law": "additive", "label": label, "pair": (els[x], els[y])}
                    )
            pairs += q
        for alpha in range(q):
            mul_s, mul_t = mul[rs[alpha]], mul[rt[alpha]]
            for x in range(q):
                if g[mul_s[x]] != mul_t[g[x]]:
                    violations.append(
                        {"law": "equivariant", "label": label, "pair": (els[alpha], els[x])}
                    )
            pairs += q
    return pairs, violations


def _vector_law_check(m: IsoMap, trials, seed, bound):
    """Additivity and equivariance on vector pairs: every pair of a finite
    space within the bound, plus bijectivity, or ``trials`` seeded draws of
    u, v and alpha over an infinite base; both compared within tolerance."""
    src, tgt = m.source, m.target
    base = src.base
    if base.is_finite:
        mode = "exhaustive"
        vectors = src.all_vectors(bound)
        charge(len(vectors) ** 2, bound, f"{len(vectors)}^2 vector pairs")
        sums = itertools.product(vectors, repeat=2)
        scalings = itertools.product(base.elements(), vectors)
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

        sums, scalings = [], []
        for _ in range(trials):
            u, v = draw_vector(), draw_vector()
            sums.append((u, v))
            scalings.append((rng.choice(points), u))
    image = functools.cache(m.apply)
    violations = []
    checked = 0
    for u, v in sums:
        if not tgt.vectors_equal(image(src.add(u, v)), tgt.add(image(u), image(v))):
            violations.append({"law": "additive", "pair": (u, v)})
        checked += 1
    for alpha, v in scalings:
        if not tgt.vectors_equal(image(src.scale(alpha, v)), tgt.scale(alpha, image(v))):
            violations.append({"law": "equivariant", "alpha": alpha})
        checked += 1
    if base.is_finite and len({image(v) for v in vectors}) != len(vectors):
        violations.append({"law": "bijective"})
    return mode, checked, violations


def verify_iso(m: IsoMap, trials: int = 1000, seed: int = 0, bound=DEFAULT_BRUTE_BOUND) -> Report:
    """Check that the map preserves sums and the scalar action.

    Basis-aligned maps over finite bases are checked exhaustively per
    component (which covers every vector pair); other finite maps on all
    vector pairs within the bound; infinite bases on seeded samples.
    """
    if m.source.base.is_finite and m.is_basis_aligned():
        mode = "exhaustive-by-component"
        checked, violations = _aligned_component_check(m, bound)
    else:
        mode, checked, violations = _vector_law_check(m, trials, seed, bound)
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
    els, add = tables.elements, tables.base_add
    lookup = {}
    for auto in autos:
        inv = auto.inverse()
        f, f_inv = list(map(auto.apply, els)), list(map(inv.apply, els))
        # key[a*q + b] = f^-1(f(a) + f(b)), as an index
        key = tuple(f_inv[add_fa[fb]] for add_fa in map(add.__getitem__, f) for fb in f)
        lookup.setdefault(key, auto)
    certificates = {}
    ok = True
    for u in sorted(tables.quasi_kernel()):
        if u == tables.zero:
            continue
        cert = lookup.get(tables.anchored_scalars(u))
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
    charge(len(els) ** max(src.dim, 1), bound, f"{len(els)}^{src.dim} coefficient tuples")
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
        if base.order() == 2:
            induced = 1
        else:
            induced = unit_classification(base.p, base.n).count
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
    classes = first_representative_classes(autos, same_addition)
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
