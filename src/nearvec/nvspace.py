"""Finite-support vector spaces twisted by per-coordinate automorphisms.

A ``SpaceSpec`` fixes a scalar base, an ordered set of string labels, and
two automorphisms per label: ``sigma`` twists the coordinate addition
(u_i (+)_sigma_i v_i) and ``rho`` twists the scalar action
(a . v_i = rho_i(a) * v_i).  Vectors are sparse maps from labels to nonzero
scalars; stored zeros are pruned eagerly so the support is always exact.

The quasi-kernel is the set of vectors u for which every combination
a.u + b.u is again a scalar multiple of u.  It has a closed form: vectors
supported inside one block of the same-addition partition of the labels,
with each component drawn from the preimage under sigma_i of the right
distributive part of the base, then swept by scalar multiples.  The brute
force companion checks the definition directly and is the oracle for the
closed form.

Labels sort lexicographically and partition representatives are the
smallest labels, so every partition, report and materialized set is
deterministic.  Exhaustive sweeps run over integer-indexed operation
tables built once per spec; bounds are explicit and exceeding one raises
instead of truncating.  Membership of a single vector (``in_quasi_kernel``)
checks the q^2 scalar pairs of that vector alone and needs no bound.
"""

import itertools

from .errors import (
    BaseMismatchError,
    BoundExceededError,
    InvalidAnchorError,
    NearVecError,
    UnsupportedBaseError,
)
from .mult_auto import (
    ComplexEps,
    FinitePower,
    InnerAuto,
    RealPower,
    compose,
    identity_auto,
    same_addition,
)
from .nearfield import BaseStructure, distributive_elements, induced_add, is_nearfield_automorphism
from .report import Report

DEFAULT_BRUTE_BOUND = 10**6

# deterministic scalar pairs tried by membership tests over the reals and
# complexes; ordered so (1, 1) is the first witness candidate
REAL_MEMBERSHIP_VALUES = (1.0, 2.0, 3.0, 0.5, -1.0, -2.0, -0.5)
COMPLEX_MEMBERSHIP_VALUES = (
    1 + 0j,
    2 + 0j,
    0.5 + 0j,
    -1 + 0j,
    1 + 1j,
    2j,
    -0.5j,
)


class SparseVector:
    """Immutable finite-support map from labels to nonzero scalars."""

    __slots__ = ("_entries", "_hash")

    def __init__(self, entries=()):
        items = entries.items() if isinstance(entries, dict) else entries
        kept = {}
        for label, value in items:
            if _scalar_is_zero(value):
                continue
            kept[str(label)] = value
        self._entries = kept
        self._hash = hash(frozenset(kept.items()))

    @property
    def entries(self):
        return dict(self._entries)

    @property
    def support(self):
        return tuple(sorted(self._entries))

    def get(self, label, default=None):
        return self._entries.get(label, default)

    def is_zero(self):
        return not self._entries

    def restrict(self, labels):
        labels = set(labels)
        return SparseVector(
            {k: v for k, v in self._entries.items() if k in labels}
        )

    def __iter__(self):
        return iter(sorted(self._entries.items()))

    def __len__(self):
        return len(self._entries)

    def __eq__(self, other):
        return isinstance(other, SparseVector) and self._entries == other._entries

    def __hash__(self):
        return self._hash

    def __repr__(self):
        inside = ", ".join(f"{k}: {v!r}" for k, v in sorted(self._entries.items()))
        return f"SparseVector({{{inside}}})"


ZERO_VECTOR = SparseVector()


def _scalar_is_zero(value):
    if hasattr(value, "is_zero"):
        return value.is_zero
    return value == 0


class Partition:
    """Disjoint blocks of labels; blocks and members sorted, representative
    is the smallest label of each block."""

    def __init__(self, blocks):
        blocks = tuple(tuple(sorted(b)) for b in blocks)
        self.blocks = tuple(sorted(blocks, key=lambda b: b[0]))
        self._member_block = {}
        for b in self.blocks:
            for label in b:
                if label in self._member_block:
                    raise NearVecError(f"label {label} appears in two blocks")
                self._member_block[label] = b

    @property
    def representatives(self):
        return tuple(b[0] for b in self.blocks)

    def block_of(self, label):
        return self._member_block[label]

    def __len__(self):
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.blocks == other.blocks

    def __repr__(self):
        return f"Partition({[list(b) for b in self.blocks]!r})"

    def to_json(self):
        return [list(b) for b in self.blocks]


class SpaceSpec:
    """A base plus per-label addition and action twists."""

    def __init__(self, base: BaseStructure, sigma: dict, rho: dict):
        if set(sigma) != set(rho):
            raise NearVecError("sigma and rho must cover the same labels")
        index = tuple(sorted(str(k) for k in sigma))
        if len(index) != len(set(index)):
            raise NearVecError("duplicate labels")
        for mapping in (sigma, rho):
            for label, auto in mapping.items():
                if auto.base != base:
                    raise BaseMismatchError(
                        f"automorphism at {label!r} has a different base"
                    )
        self.base = base
        self.index = index
        self.sigma = {str(k): v for k, v in sigma.items()}
        self.rho = {str(k): v for k, v in rho.items()}
        self._theta = {}
        self._tables = None

    @property
    def dim(self):
        return len(self.index)

    def theta(self, label):
        """The combined per-label twist sigma_i . rho_i."""
        if label not in self._theta:
            self._theta[label] = compose(self.sigma[label], self.rho[label])
        return self._theta[label]

    def vector(self, entries) -> SparseVector:
        items = entries.items() if isinstance(entries, dict) else entries
        checked = []
        for label, value in items:
            label = str(label)
            if label not in self.sigma:
                raise NearVecError(f"unknown label {label!r}")
            checked.append((label, self.base.check(value)))
        return SparseVector(checked)

    def component(self, v: SparseVector, label):
        got = v.get(label)
        return self.base.zero if got is None else got

    def add(self, u: SparseVector, v: SparseVector) -> SparseVector:
        out = []
        for label in set(u.support) | set(v.support):
            s = induced_add(
                self.base,
                self.sigma[label],
                self.component(u, label),
                self.component(v, label),
            )
            out.append((label, s))
        return SparseVector(out)

    def scale(self, alpha, v: SparseVector) -> SparseVector:
        alpha = self.base.check(alpha)
        out = []
        for label, value in v:
            out.append((label, self.base.mul(self.rho[label].apply(alpha), value)))
        return SparseVector(out)

    def neg(self, v: SparseVector) -> SparseVector:
        return self.scale(self.base.minus_one, v)

    def basis_vector(self, label) -> SparseVector:
        if label not in self.sigma:
            raise NearVecError(f"unknown label {label!r}")
        return SparseVector({label: self.base.one})

    def canonical_basis(self):
        return [self.basis_vector(label) for label in self.index]

    def restrict(self, labels) -> "SpaceSpec":
        labels = set(str(x) for x in labels)
        missing = labels - set(self.index)
        if missing:
            raise NearVecError(f"labels {sorted(missing)} not in this space")
        return SpaceSpec(
            self.base,
            {k: self.sigma[k] for k in labels},
            {k: self.rho[k] for k in labels},
        )

    def vectors_equal(self, u: SparseVector, v: SparseVector) -> bool:
        for label in set(u.support) | set(v.support):
            if not self.base.eq(self.component(u, label), self.component(v, label)):
                return False
        return True

    def all_vectors(self, bound=DEFAULT_BRUTE_BOUND):
        """Every vector of a finite space, deterministic order."""
        tables = self._int_tables(bound)
        return [tables.to_sparse(t) for t in tables.all_int_vectors()]

    def _int_tables(self, bound=DEFAULT_BRUTE_BOUND):
        if not self.base.is_finite:
            raise UnsupportedBaseError("integer tables need a finite base")
        if self.base.order() ** max(self.dim, 1) > bound:
            raise BoundExceededError(
                f"{self.base.order()}^{self.dim} vectors exceed the bound {bound}"
            )
        if self._tables is None:
            self._tables = _FiniteTables(self)
        return self._tables

    def describe(self):
        return {
            "base": self.base.describe(),
            "index": list(self.index),
            "sigma": {k: self.sigma[k].describe() for k in self.index},
            "rho": {k: self.rho[k].describe() for k in self.index},
        }

    def __repr__(self):
        return f"SpaceSpec({self.base!r}, dim={self.dim})"


def exponent_space(base, sigma_exponents, rho_exponents=None, auto_factory=None):
    """Convenience constructor from per-label exponent tuples.

    Labels are "1", "2", ... in order.  ``auto_factory(base, e)`` turns an
    exponent into an automorphism; by default the power-map family of the
    base is used.
    """
    if auto_factory is None:
        if base.kind == "gf":
            auto_factory = FinitePower
        elif base.kind == "real":
            auto_factory = RealPower
        elif base.kind == "complex":
            auto_factory = ComplexEps
        else:
            raise UnsupportedBaseError("no default exponent family for this base")
    sigma_exponents = list(sigma_exponents)
    if rho_exponents is None:
        rho_exponents = [None] * len(sigma_exponents)
    rho_exponents = list(rho_exponents)
    if len(sigma_exponents) != len(rho_exponents):
        raise NearVecError("sigma and rho exponent tuples differ in length")
    sigma, rho = {}, {}
    for k, (se, re_) in enumerate(zip(sigma_exponents, rho_exponents), start=1):
        label = str(k)
        sigma[label] = auto_factory(base, se)
        rho[label] = identity_auto(base) if re_ is None else auto_factory(base, re_)
    return SpaceSpec(base, sigma, rho)


class _FiniteTables:
    """Integer-indexed operation tables for exhaustive sweeps.

    Scalars become indexes into the base's element order; vectors become
    plain tuples of indexes.  Addition, scalar action, and the inverse of
    the action (solve g from g.x = w on one coordinate) are list lookups.
    """

    def __init__(self, spec: SpaceSpec):
        base = spec.base
        els = base.elements()
        q = len(els)
        idx = {e: k for k, e in enumerate(els)}
        base_add = [[idx[base.add(a, b)] for b in els] for a in els]
        base_mul = [[idx[base.mul(a, b)] for b in els] for a in els]

        self.spec = spec
        self.elements = els
        self.q = q
        self.idx = idx
        self.labels = spec.index
        self.d = len(self.labels)
        self.add_t = []
        self.act_t = []
        self.solve_t = []  # solve_t[i][x][w] = g with act_t[i][g][x] == w
        for label in self.labels:
            sig = spec.sigma[label]
            s = [idx[sig.apply(e)] for e in els]
            si = [0] * q
            for k, v in enumerate(s):
                si[v] = k
            self.add_t.append(
                [[si[base_add[s[a]][s[b]]] for b in range(q)] for a in range(q)]
            )
            rho = spec.rho[label]
            r = [idx[rho.apply(e)] for e in els]
            act = [[base_mul[r[g]][x] for x in range(q)] for g in range(q)]
            self.act_t.append(act)
            solve = [[None] * q for _ in range(q)]
            for g in range(q):
                row = act[g]
                for x in range(1, q):
                    solve[x][row[x]] = g
            self.solve_t.append(solve)
        self.zero = (0,) * self.d

    def all_int_vectors(self):
        return itertools.product(range(self.q), repeat=self.d)

    def vadd(self, u, v):
        return tuple(self.add_t[i][u[i]][v[i]] for i in range(self.d))

    def vscale(self, g, v):
        return tuple(self.act_t[i][g][v[i]] for i in range(self.d))

    def to_sparse(self, t):
        return SparseVector(
            [(self.labels[i], self.elements[t[i]]) for i in range(self.d) if t[i]]
        )

    def anchored_scalars(self, u):
        """For each scalar pair (a, b) in index order, the g with
        a.u + b.u = g.u, or None where no g fits every coordinate."""
        support = [i for i in range(self.d) if u[i]]
        if not support:
            raise InvalidAnchorError("anchor vector is zero")
        t = support[0]
        solve, act = self.solve_t[t][u[t]], self.act_t
        vadd, vscale = self.vadd, self.vscale
        for a in range(self.q):
            au = vscale(a, u)
            for b in range(self.q):
                w = vadd(au, vscale(b, u))
                g = solve[w[t]]
                if g is not None and any(act[i][g][u[i]] != w[i] for i in support[1:]):
                    g = None
                yield g

    def quasi_kernel(self):
        return {
            v
            for v in self.all_int_vectors()
            if v == self.zero or None not in self.anchored_scalars(v)
        }


# -- partitions of the label set --


def first_representative_classes(items, related) -> list[list]:
    """Group items in order: each joins the first class whose first member
    it is related to, or opens a new class."""
    classes = []
    for item in items:
        for members in classes:
            if related(item, members[0]):
                members.append(item)
                break
        else:
            classes.append([item])
    return classes


def same_addition_classes(spec: SpaceSpec) -> Partition:
    """Labels grouped by whether their combined twists induce the same
    addition on the base."""
    return Partition(
        first_representative_classes(
            spec.index,
            lambda i, j: same_addition(spec.theta(i), spec.theta(j), spec.base),
        )
    )


def decomposition_classes(spec: SpaceSpec) -> Partition:
    """Labels grouped by same addition up to an inner twist; the blocks of
    the regular decomposition.

    On commutative bases inner automorphisms are trivial and this equals
    ``same_addition_classes``; otherwise every nonzero conjugator is tried.
    """
    if spec.base.commutative:
        return same_addition_classes(spec)

    def related(i, j):
        ti, tj_inv = spec.theta(i), spec.theta(j).inverse()
        for gamma in spec.base.nonzero_elements():
            candidate = compose(compose(ti, InnerAuto(spec.base, gamma)), tj_inv)
            if is_nearfield_automorphism(spec.base, candidate):
                return True
        return False

    return Partition(first_representative_classes(spec.index, related))


class QKDescription:
    """Closed-form description of the quasi-kernel: the same-addition
    partition plus, per label, the components allowed inside a block
    (None means every base element is allowed)."""

    def __init__(self, classes: Partition, allowed: dict):
        self.classes = classes
        self.allowed = allowed

    def to_json(self, base=None):
        from .serialize import scalar_to_json

        allowed = {}
        for label, vals in self.allowed.items():
            if vals is None:
                allowed[label] = "all"
            else:
                allowed[label] = [scalar_to_json(base, v) for v in vals]
        return {"classes": self.classes.to_json(), "allowed": allowed}


def quasi_kernel_closed(spec: SpaceSpec) -> QKDescription:
    """Closed form of the quasi-kernel.

    A nonzero member is a scalar multiple of a vector supported in one
    same-addition block whose components k_i satisfy sigma_i(k_i) right
    distributive.  Commutative bases put no constraint on the components.
    """
    classes = same_addition_classes(spec)
    allowed = {}
    if spec.base.commutative:
        for label in spec.index:
            allowed[label] = None
    else:
        fd = set(distributive_elements(spec.base))
        for label in spec.index:
            sig = spec.sigma[label]
            allowed[label] = tuple(
                k for k in spec.base.elements() if sig.apply(k) in fd
            )
    return QKDescription(classes, allowed)


def materialize_quasi_kernel(
    spec: SpaceSpec, desc: QKDescription = None, bound=DEFAULT_BRUTE_BOUND
):
    """Explicit element set of the closed form; finite bases only."""
    base = spec.base
    if not base.is_finite:
        raise UnsupportedBaseError("cannot materialize over an infinite base")
    if desc is None:
        desc = quasi_kernel_closed(spec)
    els = base.elements()
    total = 0
    for block in desc.classes:
        size = 1
        for label in block:
            vals = desc.allowed[label]
            size *= len(els) if vals is None else len(vals)
        total += size * len(els)
    if total > bound:
        raise BoundExceededError(f"{total} candidates exceed the bound {bound}")

    out = {ZERO_VECTOR}
    for block in desc.classes:
        pools = [
            els if desc.allowed[label] is None else desc.allowed[label]
            for label in block
        ]
        for combo in itertools.product(*pools):
            k_vec = SparseVector(list(zip(block, combo)))
            if k_vec.is_zero():
                continue
            for lam in els:
                out.add(spec.scale(lam, k_vec))
    return frozenset(out)


def quasi_kernel_bruteforce(spec: SpaceSpec, bound=DEFAULT_BRUTE_BOUND):
    """The quasi-kernel straight from the definition, as a vector set."""
    tables = spec._int_tables(bound)
    return frozenset(tables.to_sparse(v) for v in tables.quasi_kernel())


def _anchor_scalar(spec: SpaceSpec, u: SparseVector, w: SparseVector):
    """The scalar g with g.u = w, solved on the smallest support label of
    the nonzero u and verified on the rest; None when no g fits."""
    base = spec.base
    t = u.support[0]
    wt = spec.component(w, t)
    if base.is_zero(wt):
        gamma = base.zero
    else:
        gamma = spec.rho[t].inverse().apply(base.mul(wt, base.inv(u.get(t))))
    return gamma if spec.vectors_equal(spec.scale(gamma, u), w) else None


def in_quasi_kernel(spec: SpaceSpec, v: SparseVector):
    """Membership test; returns (bool, witness) where the witness is the
    first scalar pair (a, b) with a.v + b.v not a multiple of v.

    Finite bases check all q^2 scalar pairs of this one vector, so no bound
    applies.  The reals and complexes check a deterministic grid of pairs,
    so True is sample-supported while False carries an exact witness.
    """
    if v.is_zero():
        return True, None
    base = spec.base
    if base.is_finite:
        values = base.elements()
    elif base.kind == "real":
        values = REAL_MEMBERSHIP_VALUES
    else:
        values = COMPLEX_MEMBERSHIP_VALUES
    for a in values:
        av = spec.scale(a, v)
        for b in values:
            if _anchor_scalar(spec, v, spec.add(av, spec.scale(b, v))) is None:
                return False, (a, b)
    return True, None


def anchored_add(spec: SpaceSpec, u: SparseVector, a, b):
    """The scalar g with a.u + b.u = g.u, for u in the quasi-kernel.

    g is solved on the smallest support label and verified on the rest;
    an inconsistency means u is not a valid anchor and raises.
    """
    if u.is_zero():
        raise InvalidAnchorError("anchor vector is zero")
    a, b = spec.base.check(a), spec.base.check(b)
    gamma = _anchor_scalar(spec, u, spec.add(spec.scale(a, u), spec.scale(b, u)))
    if gamma is None:
        raise InvalidAnchorError(
            f"no consistent scalar for anchor {u!r} at pair ({a!r}, {b!r})"
        )
    return gamma


def compatible(spec: SpaceSpec, u: SparseVector, v: SparseVector, qk=None) -> bool:
    """Whether some u + lambda.v stays in the quasi-kernel; finite bases.

    Both vectors must be nonzero members of the quasi-kernel.  ``qk`` may
    pass a precomputed membership set, used for every membership test.
    """
    if not spec.base.is_finite:
        raise UnsupportedBaseError("compatibility search needs a finite base")
    if qk is None:
        member = lambda w: in_quasi_kernel(spec, w)[0]  # noqa: E731
    else:
        member = qk.__contains__
    for w, name in ((u, "u"), (v, "v")):
        if w.is_zero() or not member(w):
            raise InvalidAnchorError(f"{name} is not a nonzero quasi-kernel vector")
    return any(
        member(spec.add(u, spec.scale(lam, v))) for lam in spec.base.nonzero_elements()
    )


class Injection:
    """Relabeling embedding of a subspace into an ambient space."""

    def __init__(self, source: SpaceSpec, target: SpaceSpec, label_map: dict):
        self.source = source
        self.target = target
        self.label_map = dict(label_map)

    def apply(self, v: SparseVector) -> SparseVector:
        return SparseVector([(self.label_map[k], x) for k, x in v])

    def __repr__(self):
        return f"Injection({self.label_map!r})"


def regular_decomposition(spec: SpaceSpec):
    """One subspace per decomposition block, with its embedding."""
    out = []
    for block in decomposition_classes(spec):
        sub = spec.restrict(block)
        out.append((sub, Injection(sub, spec, {k: k for k in block})))
    return out


def regular_components(spec: SpaceSpec, v: SparseVector):
    """Restrictions of v to the decomposition blocks; they sum back to v."""
    return [v.restrict(block) for block in decomposition_classes(spec)]


def is_regular_bruteforce(spec: SpaceSpec, bound=DEFAULT_BRUTE_BOUND) -> bool:
    """All-pairs compatibility over the brute-force quasi-kernel."""
    tables = spec._int_tables(bound)
    qk = sorted(tables.quasi_kernel())
    nonzero = [v for v in qk if v != tables.zero]
    qk_set = set(qk)
    for i, u in enumerate(nonzero):
        for v in nonzero[i:]:
            if not any(
                tables.vadd(u, tables.vscale(lam, v)) in qk_set
                for lam in range(1, tables.q)
            ):
                return False
    return True


def coproduct(specs):
    """Finite coproduct: disjoint union of the label sets.

    Labels of the k-th factor get the prefix "k."; the returned injections
    relocate vectors accordingly.
    """
    specs = list(specs)
    if not specs:
        raise NearVecError("coproduct of an empty family needs a base")
    base = specs[0].base
    sigma, rho = {}, {}
    label_maps = []
    for k, s in enumerate(specs):
        if s.base != base:
            raise BaseMismatchError("coproduct factors over different bases")
        label_map = {}
        for label in s.index:
            new = f"{k}.{label}"
            label_map[label] = new
            sigma[new] = s.sigma[label]
            rho[new] = s.rho[label]
        label_maps.append(label_map)
    combined = SpaceSpec(base, sigma, rho)
    injections = [
        Injection(s, combined, label_maps[k]) for k, s in enumerate(specs)
    ]
    return combined, injections


def nvs_axiom_check(spec: SpaceSpec, bound=DEFAULT_BRUTE_BOUND) -> Report:
    """Freeness of the scalar action on nonzero vectors, and that sums of
    quasi-kernel vectors reach the whole space.  Finite bases only."""
    tables = spec._int_tables(bound)
    violations = []
    all_vecs = list(tables.all_int_vectors())
    for v in all_vecs:
        if v == tables.zero:
            continue
        images = {tables.vscale(a, v) for a in range(tables.q)}
        if len(images) != tables.q:
            violations.append(
                {"axiom": "free-action", "vector": tables.to_sparse(v).entries}
            )
    qk = tables.quasi_kernel()
    closed = set(qk)
    frontier = set(qk)
    rounds = 0
    while frontier and len(closed) < len(all_vecs):
        fresh = set()
        for u in frontier:
            for w in qk:
                s = tables.vadd(u, w)
                if s not in closed:
                    fresh.add(s)
        closed |= fresh
        frontier = fresh
        rounds += 1
    generates = len(closed) == len(all_vecs)
    if not generates:
        violations.append({"axiom": "quasi-kernel-generates", "reached": len(closed)})
    return Report(
        name="nvs_axioms",
        passed=not violations,
        details={
            "space_size": len(all_vecs),
            "quasi_kernel_size": len(qk),
            "closure_rounds": rounds,
        },
        violations=violations[:20],
    )
