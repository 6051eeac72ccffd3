"""Multiplicative automorphisms of the scalar bases.

An automorphism preserves the product and the unit but usually not the sum;
those that do preserve the sum are exactly the ones that leave the induced
addition unchanged (see ``same_addition``).  The concrete families are

* ``FinitePower``   x -> x^a on GF(p^n), a a unit mod p^n - 1;
* ``RealPower``     sign-preserving powers of the reals, nonzero exponent;
* ``ComplexEps``    z = r s -> r^a s (optionally conjugating the unit part
                    s), Re a != 0, the principal real log of the modulus;
* ``PermAuto``      an explicit multiplicative bijection of a finite base,
                    fixed on a non-Galois one by its generators' images;
* ``InnerAuto``     conjugation x -> g^-1 x g, trivial on commutative bases.

Each family states its parameters once, in ``_params``; ``MultAuto``
derives equality (same family, same base, same parameters), hashing and
repr from them.  ``POWER_FAMILIES`` names the power family of each base
kind that has one, which also gives that base's identity.

Composition and inversion stay inside these families, so ``compose``
returns one of them and never a chain: power exponents merge, complex
parameters merge through a small closed form, inner twists merge, and any
other pair over a finite base is materialized as a permutation table.
A real or complex power map whose exponent or its inverse leaves the float
range is refused, built or merged, naming the exponents its record gave.

A finite map's one table is ``codes``, its images of ``base.elements()``,
kept from the first read; it is all a ``PermAuto`` stores.  Its
``zech_form`` is what ``induced_add`` reads: a power map's is the field's
own log and antilog tables with its exponent and the inverse exponent, and
any other map's the two q-entry arrays ``GaloisField.zech_tables`` makes
of its ``codes``, kept from the first read like them.  A table from
outside (a ``PermAuto(...)`` call, a JSON record, the enumeration) is
checked in full: a bijection of the base fixing 0 and 1 and respecting all
q^2 products.  A table derived from existing automorphisms (an inverse, a
product, the materialized form of another family, the identity) is a
multiplicative bijection by construction and is not checked again.
"""

import cmath
import itertools
import math
import random
import weakref

from .errors import BaseMismatchError, NearVecError, UnsupportedBaseError, charge
from .nearfield import DEFAULT_BRUTE_BOUND, BaseStructure, is_nearfield_automorphism
from .report import Report, json_value


class MultAuto:
    """Common behaviour: application, memoized inversion and tables,
    identity test, and equality, hashing and repr from the family's
    parameters."""

    # set on a map built by ``inverse``: a weak reference to the map it
    # inverts, and a ``_copy`` of that map taken then with its tables, its
    # record for ``_named`` and its stand-in once the map is gone.  The map
    # keeps its inverse and the inverse keeps no strong link back, so
    # reference counting frees them
    _origin = None
    _inverts = None
    _inv = None  # the map ``inverse`` built, or the copy it took up
    _factors = None  # (outer, inner) of a merged power map, for ``_named``
    _codes = None  # set by ``codes``: a cached_property's __dict__ write slows reads
    _zech_form = None  # set by ``zech_form``, like ``_codes``; read first by ``induced_add``

    def __init__(self, base: BaseStructure):
        self.base = base

    def apply(self, x):
        raise NotImplementedError

    def _inverse(self):
        raise NotImplementedError

    @property
    def codes(self) -> tuple:
        """The images of ``base.elements()`` in element order, over a finite base."""
        if self._codes is None:
            self._codes = tuple(map(self.apply, self.base.elements()))
        return self._codes

    @property
    def zech_form(self) -> tuple:
        """(L, E, alpha, beta) over a finite base, with which ``induced_add``
        reads x (+) y as E[(L[x] + beta * zech[alpha * (L[y] - L[x])]) mod m]:
        a power map's own, set at construction, and otherwise the
        ``zech_tables`` of ``codes`` with alpha = beta = 1."""
        if self._zech_form is None:
            self._zech_form = (*self.base.zech_tables(self.codes), 1, 1)
        return self._zech_form

    def inverse(self):
        if self._inv is None:
            origin = self._origin and self._origin()
            if origin is not None:
                return origin
            if self._inverts is not None:
                # the inverted map is gone: its copy, with its tables and record
                inv = self._inverts
            else:
                inv = self._inverse()
                rec = inv._inverts = self._copy()
                rec._factors, rec._codes, rec._zech_form = self._factors, self._codes, self._zech_form
            inv._origin = weakref.ref(self)
            self._inv = inv
        return self._inv

    def _copy(self):
        """An equal map built from the parameters.  Copying ``__dict__``
        instead would turn the map's attribute store into a plain dict and
        slow every later attribute read of it (``apply`` of a GF(49) power
        map by about 40 % on CPython 3.11)."""
        return type(self)(self.base, *self._params())

    def is_identity(self):
        raise NotImplementedError

    def describe(self):
        raise NotImplementedError

    def _params(self):
        """The parameters that fix the map within its family and base."""
        raise NotImplementedError

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.base == other.base
            and self._params() == other._params()
        )

    def __hash__(self):
        return hash((type(self), self.base, self._params()))

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, self._params()))})"


def _named(auto) -> str:
    """A power map as its record gave it; an inverse names the map it
    inverts, and a merged map its two factors, in parentheses.  A stack, not
    recursion: a ``comp`` record may merge any number of factors."""
    out, todo = [], [auto]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
        elif item._inverts is not None:
            todo += [item._inverts, "inverse of "]
        elif item._factors is not None:
            outer, inner = item._factors
            todo += [")", inner, " composed with ", outer, "("]
        else:
            out.append(f"{item.describe()['kind']} alpha {item.alpha!r}")
    return "".join(out)


def _eps_inverse(alpha: complex, conj: bool) -> complex:
    """The exponent of the inverse of the ``ComplexEps`` map at alpha."""
    if conj:
        return (1 + 1j * alpha.imag) / alpha.real
    return (1 - 1j * alpha.imag) / alpha.real


class FinitePower(MultAuto):
    """x -> x^alpha on a Galois field, alpha a unit mod p^n - 1."""

    def __init__(self, base, alpha: int):
        if base.kind != "gf":
            raise BaseMismatchError("FinitePower needs a Galois field base")
        super().__init__(base)
        m = base.order() - 1
        # the residue in [1, m]: on GF(2), m = 1 and every exponent is 1
        self.alpha = alpha % m or m
        try:
            beta = pow(self.alpha, -1, m)
        except ValueError:
            raise NearVecError(f"exponent {alpha} is not a unit mod {m}") from None
        # the field's log and antilog tables with alpha and its inverse mod
        # m: no table of its own, whatever the field's order
        self._zech_form = base.log, base.antilog, self.alpha, beta

    def apply(self, x):
        return self.base.pow(x, self.alpha)

    def _inverse(self):
        return FinitePower(self.base, self._zech_form[3])  # beta

    def is_identity(self):
        return self.alpha == 1

    def describe(self):
        return {"kind": "fpow", "alpha": self.alpha}

    def _params(self):
        return (self.alpha,)


class RealPower(MultAuto):
    """x -> x^alpha for x >= 0 and -((-x)^alpha) for x < 0."""

    def __init__(self, base, alpha: float):
        if base.kind != "real":
            raise BaseMismatchError("RealPower needs the real base")
        if alpha == 0:
            raise NearVecError("exponent must be nonzero")
        super().__init__(base)
        self.alpha = float(alpha)
        if not 0 < abs(1.0 / self.alpha) < math.inf:  # NaN fails this too
            raise NearVecError(f"rpow alpha {self.alpha!r} has no inverse in the float range")

    def apply(self, x):
        if x == 0:
            return 0.0
        try:
            return x**self.alpha if x > 0 else -((-x) ** self.alpha)
        except OverflowError:
            raise NearVecError(f"{_named(self)} overflows at {x!r}") from None

    def _inverse(self):
        return RealPower(self.base, 1.0 / self.alpha)

    def is_identity(self):
        return self.alpha == 1.0

    def describe(self):
        return {"kind": "rpow", "alpha": self.alpha}

    def _params(self):
        return (self.alpha,)


class ComplexEps(MultAuto):
    """z = r s -> r^alpha s, with optional conjugation of the unit part s.

    Only the modulus r is exponentiated (through the principal real log);
    the unit part is carried across unchanged or conjugated, so there is no
    branch cut to choose.
    """

    def __init__(self, base, alpha, conj=False):
        if base.kind != "complex":
            raise BaseMismatchError("ComplexEps needs the complex base")
        alpha = complex(alpha)
        if alpha.real == 0:
            raise NearVecError("Re(alpha) must be nonzero")
        super().__init__(base)
        self.alpha = alpha
        self.conj = bool(conj)
        if not (cmath.isfinite(alpha) and cmath.isfinite(_eps_inverse(alpha, self.conj))):
            raise NearVecError(f"ceps alpha {alpha!r} has no inverse in the float range")

    def apply(self, z):
        if z == 0:
            return 0j
        r = abs(z)
        s = z / r
        if self.conj:
            s = s.conjugate()
        try:
            return cmath.exp(self.alpha * math.log(r)) * s
        except OverflowError:
            raise NearVecError(f"{_named(self)} overflows at {z!r}") from None

    def _inverse(self):
        return ComplexEps(self.base, _eps_inverse(self.alpha, self.conj), self.conj)

    def is_identity(self):
        return self.alpha == 1 and not self.conj

    def describe(self):
        return {"kind": "ceps", "alpha": json_value(self.alpha), "conj": self.conj}

    def _params(self):
        return (self.alpha, self.conj)


class PermAuto(MultAuto):
    """Explicit bijection table on a finite base, kept as its ``codes``
    alone; validated at construction to fix 0 and 1 and to respect the
    product, whose q^2 pairs are refused beyond ``bound``.  Tables derived
    from existing automorphisms are built by ``_derived_perm`` instead."""

    def __init__(self, base, table, bound=DEFAULT_BRUTE_BOUND):
        if not base.is_finite:
            raise BaseMismatchError("PermAuto needs a finite base")
        super().__init__(base)
        els = base.elements()
        # check refuses plain ints, which compare equal to field elements
        table = {base.check(x): base.check(y) for x, y in dict(table).items()}
        if set(table) != set(els) or set(table.values()) != set(els):
            raise NearVecError("permutation table must be a bijection of the base")
        if table[base.zero] != base.zero or table[base.one] != base.one:
            raise NearVecError("permutation table must fix 0 and 1")
        q = len(els)
        charge(q * q, bound, f"{q}^2 product pairs")
        for x in els:
            for y in els:
                if table[base.mul(x, y)] != base.mul(table[x], table[y]):
                    raise NearVecError(
                        f"table is not multiplicative at ({x!r}, {y!r})"
                    )
        self._codes = tuple(table[x] for x in els)

    @property
    def table(self) -> dict:
        """A fresh {element: image} dict, in element order."""
        return dict(zip(self.base.elements(), self._codes))

    def apply(self, x):
        return self._codes[x]

    def _inverse(self):
        # the elements sorted by their images are the preimages in code order
        return _derived_perm(self.base, sorted(self.base.elements(), key=self._codes.__getitem__))

    def _copy(self):
        return _derived_perm(self.base, self._codes)

    def is_identity(self):
        return self._codes == self.base.elements()

    def describe(self):
        table = list(map(list, zip(self.base.elements(), self._codes)))
        return {"kind": "perm", "table": json_value(table)}

    def _params(self):
        return (self._codes,)


class InnerAuto(MultAuto):
    """Conjugation x -> g^-1 x g by a nonzero g; identity when the base
    multiplication commutes."""

    def __init__(self, base, gamma):
        gamma = base.check(gamma)
        if base.is_zero(gamma):
            raise NearVecError("conjugating element must be nonzero")
        super().__init__(base)
        self.gamma = gamma
        self._gamma_inv = base.inv(gamma)
        if base.commutative and base.is_finite:
            # the identity: the field's own tables, as for x^1
            self._zech_form = base.log, base.antilog, 1, 1

    def apply(self, x):
        b = self.base
        return b.mul(b.mul(self._gamma_inv, x), self.gamma)

    def _inverse(self):
        return InnerAuto(self.base, self._gamma_inv)

    def is_identity(self):
        if self.base.commutative:
            return True
        return self.codes == self.base.elements()

    def describe(self):
        return {"kind": "inner", "gamma": json_value(self.gamma)}

    def _params(self):
        return (self.gamma,)


def _derived_perm(base, codes) -> PermAuto:
    """The ``PermAuto`` with the given ``codes``, images of
    ``base.elements()`` computed from automorphisms that already exist: a
    multiplicative bijection by construction, so the q^2 product check of
    ``PermAuto.__init__`` is skipped."""
    auto = PermAuto.__new__(PermAuto)
    MultAuto.__init__(auto, base)
    auto._codes = tuple(codes)
    return auto


# the power-map family of each base kind that has one
POWER_FAMILIES = {"gf": FinitePower, "real": RealPower, "complex": ComplexEps}


def identity_auto(base: BaseStructure) -> MultAuto:
    family = POWER_FAMILIES.get(base.kind)
    if family is not None:
        return family(base, 1)
    if base.is_finite:
        return _derived_perm(base, base.elements())
    raise UnsupportedBaseError(f"no identity automorphism for {base!r}")


def as_perm(auto: MultAuto) -> PermAuto:
    """Materialize any automorphism of a finite base as a table, trusted
    to be multiplicative as the automorphism is."""
    base = auto.base
    if not base.is_finite:
        raise UnsupportedBaseError("only finite bases materialize as tables")
    if isinstance(auto, PermAuto):
        return auto
    return _derived_perm(base, auto.codes)


def _merged_power(family, outer, inner, *params):
    """``family(base, *params)`` for the exponent merged from two factors in
    the float range, keeping both for ``_named``; a refusal means the merge
    left it, and names both."""
    try:
        merged = family(outer.base, *params)
    except NearVecError:
        raise NearVecError(
            f"{_named(outer)} composed with {_named(inner)} leaves the float range"
        ) from None
    merged._factors = outer, inner
    return merged


def _merge_pair(outer, inner):
    """The product outer . inner inside the closed families: power
    exponents and inner twists merge, any other pair over a finite base
    becomes a table.  The reals and the complexes have one power family
    each and only identity inner twists, so no other pair reaches here."""
    base = outer.base
    if isinstance(outer, FinitePower) and isinstance(inner, FinitePower):
        return FinitePower(base, outer.alpha * inner.alpha)
    if isinstance(outer, RealPower) and isinstance(inner, RealPower):
        return _merged_power(RealPower, outer, inner, outer.alpha * inner.alpha)
    if isinstance(outer, ComplexEps) and isinstance(inner, ComplexEps):
        a, b = outer.alpha, inner.alpha
        merged = a * b.real - 1j * b.imag if outer.conj else a * b.real + 1j * b.imag
        return _merged_power(ComplexEps, outer, inner, merged, outer.conj != inner.conj)
    if isinstance(outer, InnerAuto) and isinstance(inner, InnerAuto):
        return InnerAuto(base, base.mul(inner.gamma, outer.gamma))
    return _derived_perm(base, map(outer.codes.__getitem__, inner.codes))


def compose(a: MultAuto, b: MultAuto) -> MultAuto:
    """The automorphism applying b first and a second, as one member of the
    closed families; an identity product is ``identity_auto(base)``."""
    if a.base != b.base:
        raise BaseMismatchError(f"{a!r} and {b!r} live over different bases")
    if a.is_identity():
        product = b
    elif b.is_identity():
        product = a
    else:
        product = _merge_pair(a, b)
    return identity_auto(a.base) if product.is_identity() else product


def _cayley_map(base, gens, images):
    """phi on the subgroup ``gens`` span, grown from phi(1) = 1 along the
    Cayley graph as phi(x g) = phi(x) image(g); None when two paths to one
    element disagree.  Agreeing on every edge makes phi a homomorphism."""
    phi = {base.one: base.one}
    reached = [base.one]
    for x in reached:
        for g, h in zip(gens, images):
            y, fy = base.mul(x, g), base.mul(phi[x], h)
            if y not in phi:
                phi[y] = fy
                reached.append(y)
            elif phi[y] != fy:
                return None
    return phi


# finite base -> its automorphisms, enumerated once per process
_ENUMERATED = {}


def enumerate_mult_autos(base: BaseStructure) -> list:
    """Every multiplicative automorphism of a finite base, as a fresh list
    of the maps enumerated at the first call for an equal base.

    Galois fields get one power map per unit exponent.  Other finite bases
    pick generators greedily, each the first that most grows the spanned
    subgroup, and keep as tables the bijective ``_cayley_map`` of every
    tuple of nonzero images: (q - 1)^k tuples for k generators.
    """
    if not base.is_finite:
        raise UnsupportedBaseError("only finite bases are enumerable")
    found = _ENUMERATED.get(base)
    if found is not None:
        return list(found)
    if base.kind == "gf":
        m = base.order() - 1
        found = [FinitePower(base, a) for a in range(1, m + 1) if math.gcd(a, m) == 1]
    else:
        nonzero = base.nonzero_elements()
        gens = []
        while len(_cayley_map(base, gens, gens)) < len(nonzero):
            gens.append(max(nonzero, key=lambda g: len(_cayley_map(base, [*gens, g], [*gens, g]))))
        found = []
        for images in itertools.product(nonzero, repeat=len(gens)):
            phi = _cayley_map(base, gens, images)
            if phi is not None and len(set(phi.values())) == len(nonzero):
                found.append(PermAuto(base, {base.zero: base.zero, **phi}))
        found.sort(key=lambda a: a.codes)
    _ENUMERATED[base] = tuple(found)
    return found


def mult_properties_check(auto: MultAuto, samples: int = 1000, seed: int = 0) -> Report:
    """Verify the automorphism laws: 0 and 1 fixed, a bijection (finite
    bases), negation and inversion respected, products preserved.  Finite
    bases are checked on every element and pair; the others on their grid
    plus ``samples`` seeded draws and ``samples`` drawn pairs, within
    tolerance.  A nonzero element sent to zero breaks the inversion law."""
    base = auto.base
    f, eq = auto.apply, base.eq
    if base.is_finite:
        points = base.elements()
        pairs = itertools.product(points, repeat=2)
        checked = len(points) ** 2
    else:
        rng = random.Random(seed)

        def draw():
            while True:
                if base.kind == "real":
                    x = rng.uniform(-5.0, 5.0)
                else:
                    x = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
                if abs(x) > 1e-3:
                    return x

        points = list(base.sample_points()) + [draw() for _ in range(samples)]
        pairs = [(draw(), draw()) for _ in range(samples)]
        checked = samples
    violations = []
    if not base.is_zero(f(base.zero)):
        violations.append({"law": "fixes-zero"})
    if not eq(f(base.one), base.one):
        violations.append({"law": "fixes-one"})
    if base.is_finite and len({f(x) for x in points}) != len(points):
        violations.append({"law": "bijective"})
    for x in points:
        fx = f(x)
        if not eq(f(base.neg(x)), base.neg(fx)):
            violations.append({"law": "negation", "x": x})
        if not base.is_zero(x) and (
            base.is_zero(fx) or not eq(f(base.inv(x)), base.inv(fx))
        ):
            violations.append({"law": "inversion", "x": x})
    for x, y in pairs:
        if not eq(f(base.mul(x, y)), base.mul(f(x), f(y))):
            violations.append({"law": "product", "pair": (x, y)})
    return Report(
        name="mult_properties",
        passed=not violations,
        details={"pairs_checked": checked},
        violations=violations[:20],
    )


def same_addition(a: MultAuto, b: MultAuto) -> bool:
    """Whether a and b induce the same addition on their base: exactly when
    a . b^-1 also preserves the sum."""
    return is_nearfield_automorphism(a.base, compose(a, b.inverse()))

