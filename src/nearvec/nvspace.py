"""Finite-support vector spaces twisted by per-coordinate automorphisms.

A ``SpaceSpec`` fixes a scalar base, an ordered set of string labels, and
two automorphisms per label: ``sigma`` twists the coordinate addition
(u_i (+)_sigma_i v_i) and ``rho`` twists the scalar action
(a . v_i = rho_i(a) * v_i).  Vectors are tuples of (label, nonzero scalar)
pairs sorted by label; zeros are pruned eagerly so the support is exact.

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
checks the q^2 scalar pairs of that vector alone and needs no bound: each
pair builds no vector, because ``_anchor_scalar`` forms a.u + b.u
coordinate by coordinate.  Over a finite base it works in the
sigma-image: the spec keeps, per (label, value) x, the q-entry column
a -> sigma(rho(a) x) and its inverse, built once from both twists and the
base product, so a pair then costs |supp u| base additions and lookups.

The brute-force quasi-kernel regroups the definition: the scalar g with
a.u + b.u = g.u on coordinate i depends only on (i, u_i), so the tables
give each (label, nonzero value) the class of its q^2 solved scalars
(d*(q-1)*q^2 lookups), and a vector is a member exactly when its nonzero
coordinates share one class (q^d*d for the sweep).  The sweep runs once
per spec and is shared by ``quasi_kernel_bruteforce``,
``is_regular_bruteforce``, ``nvs_axiom_check`` and
``canonical.is_multiplicative``.  The tables refuse q^d vectors or
d*q^3 entries beyond the bound.

Both sweeps work once per scalar ray.  ``is_regular_bruteforce`` tests
one representative of each of the R rays of nonzero members against every
member of the same or a later ray, R(R+1)/2*(q-1) tests, refused beyond
the bound.  ``materialize_quasi_kernel`` adds each nonzero combo of an
unconstrained block once and scales only combos of constrained blocks,
and charges the bound for exactly that work.

``nvs_axiom_check`` tests the free action per coordinate: a value whose
column g -> g.x is injective at some label frees every vector holding it
there, so after d*q^2 column lookups only the vectors built from the other
values (the zero vector alone in a valid space) take the q-image test.
Its generation closure adds quasi-kernel vectors through per-vector rows
of the twisted addition tables, at most |closed|*|qk| row lookups, stops
as soon as it holds the whole space, and never lists the q^d vectors.

``regular_decomposition`` gives the spec restricted to each block, with
the ambient labels; ``coproduct`` gives one label map per factor, to its
"k."-prefixed labels.  Vectors embed by relabeling, with no map object.

``_base_tables``, like ``enumerate_mult_autos`` and
``distributive_elements``, keeps its result per base for the life of the
process.
"""

import itertools
import math

from .errors import (
    BaseMismatchError,
    InvalidAnchorError,
    NearVecError,
    UnsupportedBaseError,
    charge,
)
from .mult_auto import POWER_FAMILIES, InnerAuto, compose, identity_auto, same_addition
from .nearfield import DEFAULT_BRUTE_BOUND, BaseStructure, distributive_elements, induced_add
from .report import Report, json_value

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


class SparseVector(tuple):
    """A finitely supported family as its (label, nonzero scalar) pairs sorted
    by label; from a dict or pairs, str labels, the last nonzero value kept."""

    __slots__ = ()

    def __new__(cls, entries=()):
        items = entries.items() if isinstance(entries, dict) else entries
        kept = {}
        for label, value in items:
            if value != 0:  # zero in every base, the code 0 of a finite one too
                kept[str(label)] = value
        return super().__new__(cls, sorted(kept.items()))

    entries = property(dict)  # a fresh {label: scalar} dict

    @property
    def support(self):
        return tuple(label for label, _ in self)

    def get(self, label, default=None):
        for k, value in self:
            if k == label:
                return value
        return default

    def is_zero(self):
        return not self

    def restrict(self, labels):
        labels = set(labels)
        return SparseVector([(k, v) for k, v in self if k in labels])

    def __repr__(self):
        inside = ", ".join(f"{k}: {v!r}" for k, v in self)
        return f"SparseVector({{{inside}}})"


ZERO_VECTOR = SparseVector()


class Partition(tuple):
    """Disjoint blocks of labels: sorted label tuples, ordered by their
    first and smallest label, the block's representative."""

    __slots__ = ()

    def __new__(cls, blocks):
        blocks = sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0])
        seen = set()
        for b in blocks:
            for label in b:
                if label in seen:
                    raise NearVecError(f"label {label} appears in two blocks")
                seen.add(label)
        return super().__new__(cls, blocks)

    blocks = property(tuple)  # the blocks as a plain tuple

    def block_of(self, label):
        for b in self:
            if label in b:
                return b
        raise KeyError(label)

    def __repr__(self):
        return f"Partition({[list(b) for b in self]!r})"

    def to_json(self):
        return [list(b) for b in self]


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
        self._columns = {}

    @property
    def dim(self):
        return len(self.index)

    def theta(self, label):
        """The combined per-label twist sigma_i . rho_i."""
        if label not in self._theta:
            self._theta[label] = compose(self.sigma[label], self.rho[label])
        return self._theta[label]

    def _column(self, label, x):
        """(col, back) for the nonzero value x at label over a finite base:
        col[a] = sigma(rho(a) x) for every element a, and back its inverse
        permutation, built once per (label, x) from the ``codes`` of both
        twists and ``base.mul``.  a.x (+)_sigma b.x = g.x exactly when
        col[g] = col[a] + col[b], since sigma is a bijection."""
        got = self._columns.get((label, x))
        if got is None:
            base, s = self.base, self.sigma[label].codes
            els = base.elements()
            col = [s[base.mul(ra, x)] for ra in self.rho[label].codes]
            back = [None] * len(els)
            for a, c in zip(els, col):
                back[c] = a
            if None in back:
                raise NearVecError(f"the twists at {label!r} are not bijections")
            got = self._columns[(label, x)] = (col, back)
        return got

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
        q, d = self.base.order(), self.dim
        charge(q ** max(d, 1), bound, f"{q}^{d} vectors")
        charge(d * q**3, bound, f"{d}*{q}^3 table entries")
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


def exponent_space(base, sigma_exponents, rho_exponents=None):
    """Convenience constructor from per-label exponent tuples: the power-map
    family of the base, labels "1", "2", ... in order, rho the identity
    where no exponent is given."""
    family = POWER_FAMILIES.get(base.kind)
    if family is None:
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
        sigma[label] = family(base, se)
        rho[label] = identity_auto(base) if re_ is None else family(base, re_)
    return SpaceSpec(base, sigma, rho)


# finite base -> (elements, add, mul), built once per process
_BASE_TABLES = {}


def _base_tables(base):
    """(elements, add, mul) of a finite base: its elements, each its own
    index, and the tables of its addition and product, built from
    ``base.add`` and ``base.mul`` alone, once per base.  Read-only."""
    got = _BASE_TABLES.get(base)
    if got is None:
        els = base.elements()
        add = [[base.add(a, b) for b in els] for a in els]
        mul = [[base.mul(a, b) for b in els] for a in els]
        got = _BASE_TABLES[base] = els, add, mul
    return got


class _FiniteTables:
    """Integer-indexed operation tables for exhaustive sweeps.

    Scalars are their own indexes into the base's element order; vectors
    become plain tuples of indexes.  Addition and scalar action are list
    lookups; ``base_add`` is the untwisted addition of the base.

    ``class_of[i][x]`` is the class id of the tuple of g with
    a.u + b.u = g.u on coordinate i at u_i = x, over the pairs (a, b) in
    index order; ids are shared by all labels, 0 stands for x = 0 and None
    for a tuple with an unsolvable pair.  ``class_scalars[c]`` is the tuple
    of class c.
    """

    def __init__(self, spec: SpaceSpec):
        els, base_add, base_mul = _base_tables(spec.base)
        q = len(els)

        self.elements = els
        self.q = q
        self.base_add = base_add
        self.labels = spec.index
        self.d = len(self.labels)
        self.add_t = []
        self.act_t = []
        self.class_of = []
        ids = {}  # tuple of g -> class id, shared by all labels
        for label in self.labels:
            s = spec.sigma[label].codes
            si = [0] * q
            for k, v in enumerate(s):
                si[v] = k
            add = [[si[base_add[s[a]][s[b]]] for b in range(q)] for a in range(q)]
            self.add_t.append(add)
            r = spec.rho[label].codes
            act = [[base_mul[r[g]][x] for x in range(q)] for g in range(q)]
            self.act_t.append(act)
            classes = [0]
            for x in range(1, q):
                multiples = [act[g][x] for g in range(q)]
                solve = [None] * q  # solve[w] = g with g.x == w
                for g, w in enumerate(multiples):
                    solve[w] = g
                scalars = tuple(solve[add[ax][bx]] for ax in multiples for bx in multiples)
                classes.append(None if None in scalars else ids.setdefault(scalars, len(ids) + 1))
            self.class_of.append(classes)
        self.class_scalars = [None, *ids]
        self.zero = (0,) * self.d
        self._qk = None

    def all_int_vectors(self):
        return itertools.product(range(self.q), repeat=self.d)

    def vscale(self, g, v):
        return tuple(self.act_t[i][g][v[i]] for i in range(self.d))

    def to_sparse(self, t):
        return SparseVector(
            [(self.labels[i], self.elements[t[i]]) for i in range(self.d) if t[i]]
        )

    def _class(self, u):
        """The one class id of the nonzero coordinates of u: 0 for the zero
        vector, None when they have several or an unsolvable one."""
        ids = set(map(list.__getitem__, self.class_of, u))
        ids.discard(0)
        if not ids:
            return 0
        return ids.pop() if len(ids) == 1 else None

    def anchored_scalars(self, u):
        """The tuple of g with a.u + b.u = g.u over the scalar pairs (a, b)
        in index order, or None where no g fits some pair."""
        c = self._class(u)
        if c == 0:
            raise InvalidAnchorError("anchor vector is zero")
        return None if c is None else self.class_scalars[c]

    def quasi_kernel(self):
        """The quasi-kernel as index tuples, swept once and then kept."""
        if self._qk is None:
            self._qk = frozenset(v for v in self.all_int_vectors() if self._class(v) is not None)
        return self._qk


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
            lambda i, j: same_addition(spec.theta(i), spec.theta(j)),
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
        ti, tj = spec.theta(i), spec.theta(j)
        return any(
            same_addition(compose(ti, InnerAuto(spec.base, gamma)), tj)
            for gamma in spec.base.nonzero_elements()
        )

    return Partition(first_representative_classes(spec.index, related))


class QKDescription:
    """Closed-form description of the quasi-kernel: the same-addition
    partition plus, per label, the components allowed inside a block
    (None means every base element is allowed)."""

    def __init__(self, classes: Partition, allowed: dict):
        self.classes = classes
        self.allowed = allowed

    def to_json(self):
        allowed = {}
        for label, vals in self.allowed.items():
            if vals is None:
                allowed[label] = "all"
            else:
                allowed[label] = json_value(vals)
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
            allowed[label] = tuple(
                k for k, s in zip(spec.base.elements(), spec.sigma[label].codes) if s in fd
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
    blocks = []
    total = 0
    for block in desc.classes:
        pools = [els if desc.allowed[label] is None else desc.allowed[label] for label in block]
        # scaling keeps the support, so it maps the vectors supported in an
        # unconstrained block onto themselves: each combo is added once
        unconstrained = all(desc.allowed[label] is None for label in block)
        size = math.prod(map(len, pools))
        total += size if unconstrained else size * len(els)
        blocks.append((block, pools, unconstrained))
    charge(total, bound, f"{total} candidates")

    out = {ZERO_VECTOR}
    for block, pools, unconstrained in blocks:
        for combo in itertools.product(*pools):
            k_vec = SparseVector(zip(block, combo))
            if k_vec.is_zero():
                continue
            if unconstrained:
                out.add(k_vec)
            else:
                out.update(spec.scale(lam, k_vec) for lam in els)
    return frozenset(out)


def quasi_kernel_bruteforce(spec: SpaceSpec, bound=DEFAULT_BRUTE_BOUND):
    """The quasi-kernel straight from the definition, as a vector set."""
    tables = spec._int_tables(bound)
    return frozenset(tables.to_sparse(v) for v in tables.quasi_kernel())


def _anchor_scalar(spec: SpaceSpec, u: SparseVector, a, b):
    """The scalar g with a.u + b.u = g.u for the nonzero u, or None.  One
    pass over the sorted support solves g on the first label and checks it
    on every label.  A finite base works in the sigma-image, through the
    spec's columns: one base addition per label.  The reals and complexes
    form w_i = rho_i(a) u_i (+)_sigma_i rho_i(b) u_i."""
    base = spec.base
    gamma = None
    if base.is_finite:
        for label, x in u:
            col, back = spec._column(label, x)
            w = base.add(col[a], col[b])
            if gamma is None:
                gamma = back[w]
            elif col[gamma] != w:
                return None
        return gamma
    for label, x in u:
        rho = spec.rho[label]
        ax, bx = base.mul(rho.apply(a), x), base.mul(rho.apply(b), x)
        w = induced_add(base, spec.sigma[label], ax, bx)
        if gamma is None:
            gamma = base.zero if base.is_zero(w) else rho.inverse().apply(base.mul(w, base.inv(x)))
        if not base.eq(base.mul(rho.apply(gamma), x), w):
            return None
    return gamma


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
        for b in values:
            if _anchor_scalar(spec, v, a, b) is None:
                return False, (a, b)
    return True, None


def anchored_add(spec: SpaceSpec, u: SparseVector, a, b):
    """The scalar g with a.u + b.u = g.u, for u in the quasi-kernel.

    g is solved on the smallest support label and verified on every label;
    an inconsistency means u is not a valid anchor and raises.
    """
    if u.is_zero():
        raise InvalidAnchorError("anchor vector is zero")
    a, b = spec.base.check(a), spec.base.check(b)
    gamma = _anchor_scalar(spec, u, a, b)
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


def regular_decomposition(spec: SpaceSpec) -> list:
    """The spec restricted to each decomposition block, ambient labels kept."""
    return [spec.restrict(block) for block in decomposition_classes(spec)]


def is_regular_bruteforce(spec: SpaceSpec, bound=DEFAULT_BRUTE_BOUND) -> bool:
    """All-pairs compatibility over the brute-force quasi-kernel.

    Compatibility is symmetric and invariant under u -> a.u, v -> b.v, and
    the quasi-kernel is closed under scaling, so the first member of each
    ray stands for the whole ray on the left of a pair.
    """
    tables = spec._int_tables(bound)
    qk = tables.quasi_kernel()
    seen = {tables.zero}
    rays = []
    for v in sorted(qk):
        if v not in seen:
            ray = [tables.vscale(lam, v) for lam in range(1, tables.q)]
            seen.update(ray)
            rays.append(ray)
    tests = len(rays) * (len(rays) + 1) // 2 * (tables.q - 1)
    charge(tests, bound, f"{tests} ray pair tests")
    for i, ray in enumerate(rays):
        rows_u = list(map(list.__getitem__, tables.add_t, ray[0]))
        for members in rays[i:]:
            if not any(tuple(map(list.__getitem__, rows_u, w)) in qk for w in members):
                return False
    return True


def coproduct(specs):
    """Finite coproduct: disjoint union of the label sets.

    Returns ``(combined, label_maps)``.  Labels of the k-th factor get the
    prefix "k."; ``label_maps[k]`` sends each of them to its prefixed label,
    so a vector v of that factor embeds as
    ``SparseVector([(label_maps[k][i], x) for i, x in v])``.
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
    return SpaceSpec(base, sigma, rho), label_maps


def nvs_axiom_check(spec: SpaceSpec, bound=DEFAULT_BRUTE_BOUND) -> Report:
    """Freeness of the scalar action on nonzero vectors, and that sums of
    quasi-kernel vectors reach the whole space.  Finite bases only.

    a.v = b.v needs equality on every coordinate, so only the vectors whose
    every value has a non-injective column g -> g.x take the q-image test;
    the product of those values keeps the lexicographic order."""
    tables = spec._int_tables(bound)
    q = tables.q
    violations = []
    suspects = [[x for x in range(q) if len({row[x] for row in act}) < q] for act in tables.act_t]
    for v in itertools.product(*suspects):
        if v == tables.zero:
            continue
        images = {tables.vscale(a, v) for a in range(q)}
        if len(images) != q:
            violations.append(
                {"axiom": "free-action", "vector": tables.to_sparse(v).entries}
            )
    space_size = q**tables.d
    qk = tables.quasi_kernel()
    closed = set(qk)
    frontier = qk
    rounds = 0
    while frontier and len(closed) < space_size:
        before = set(closed)
        for u in frontier:
            rows_u = list(map(list.__getitem__, tables.add_t, u))
            closed.update(tuple(map(list.__getitem__, rows_u, w)) for w in qk)
            if len(closed) == space_size:
                break
        frontier = closed - before
        rounds += 1
    generates = len(closed) == space_size
    if not generates:
        violations.append({"axiom": "quasi-kernel-generates", "reached": len(closed)})
    return Report(
        name="nvs_axioms",
        passed=not violations,
        details={
            "space_size": space_size,
            "quasi_kernel_size": len(qk),
            "closure_rounds": rounds,
        },
        violations=violations[:20],
    )
