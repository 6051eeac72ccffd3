"""Scalar bases: finite fields, the reals, the complexes, and the order-9
Dickson near-field, behind one arithmetic interface.

A base supplies native addition and a multiplicative group on its nonzero
elements.  Finite bases enumerate their elements exhaustively; the real and
complex bases compare within a relative tolerance and expose deterministic
sample grids instead of enumeration.

Every multiplicative automorphism sigma of a base induces a second abelian
addition  x (+)_sigma y = sigma^-1(sigma(x) + sigma(y))  which again makes
the base a near-field with the same multiplication.  ``induced_add``
evaluates it; the verification helpers below check the algebraic laws the
rest of the package leans on.

The Dickson base couples GF(9) multiplication with the cube map: a product
a . b stays a*b when a is a square and becomes a*b^3 when a is not.  The
nonzero elements then form the quaternion group of order 8, addition is the
GF(9) one, the structure is left distributive, and exactly the prime
subfield {0, 1, 2} is right distributive.
"""

import cmath
import math

from .errors import BaseMismatchError, BoundExceededError, UnsupportedBaseError
from .galois import GFTable, gf_build, same_addition_exponents
from .report import Report

DEFAULT_TOLERANCE = 1e-9

# additivity of an arbitrary bijection is checked pairwise; beyond this many
# elements only power maps (which have an exact criterion) are accepted
EXHAUSTIVE_PAIR_BOUND = 4096


class BaseStructure:
    """Common interface of all scalar bases."""

    kind = "abstract"
    is_finite = False
    commutative = True
    tolerance = None

    # subclasses set zero / one / minus_one attributes

    def check(self, x):
        raise NotImplementedError

    def add(self, x, y):
        raise NotImplementedError

    def mul(self, x, y):
        raise NotImplementedError

    def neg(self, x):
        raise NotImplementedError

    def inv(self, x):
        raise NotImplementedError

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def eq(self, x, y):
        raise NotImplementedError

    def is_zero(self, x):
        return self.eq(x, self.zero)

    def elements(self):
        raise UnsupportedBaseError(f"{self.kind} base is not enumerable")

    def nonzero_elements(self):
        return self.elements()[1:]

    def order(self):
        return len(self.elements())

    def sample_points(self):
        """Deterministic scalars used by sampled checks; finite bases
        simply enumerate."""
        return self.elements()

    def describe(self):
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}()"


class GaloisField(BaseStructure):
    kind = "gf"
    is_finite = True

    def __init__(self, table: GFTable):
        self.table = table
        self.zero = table.zero
        self.one = table.one
        self.minus_one = table.minus_one

    @classmethod
    def of(cls, p, n):
        return cls(gf_build(p, n))

    def check(self, x):
        return self.table.check(x)

    def add(self, x, y):
        return self.table.add(x, y)

    def mul(self, x, y):
        return self.table.mul(x, y)

    def neg(self, x):
        return self.table.neg(x)

    def inv(self, x):
        return self.table.inv(x)

    def eq(self, x, y):
        return x == y

    def is_zero(self, x):
        return x.is_zero

    def elements(self):
        return self.table.elements

    def order(self):
        return self.table.order

    def describe(self):
        return {
            "kind": "gf",
            "p": self.table.p,
            "n": self.table.n,
            "modulus": list(self.table.modulus),
        }

    def __repr__(self):
        return f"GaloisField(GF({self.table.order}))"

    def __eq__(self, other):
        # exact type: GF(9) and its Dickson variant share a table
        return type(self) is type(other) and self.table == other.table

    def __hash__(self):
        return hash((self.kind, self.table))


class Dickson9(GaloisField):
    """The order-9 Dickson near-field: the elements, addition and tables of
    GF(9) with the coupled product."""

    kind = "dickson9"
    commutative = False

    def __init__(self):
        super().__init__(gf_build(3, 2))
        t = self.table
        self.squares = frozenset(t.mul(y, y) for y in t.elements[1:])

    def mul(self, x, y):
        t = self.table
        if x.is_zero or y.is_zero:
            return t.zero
        if x in self.squares:
            return t.mul(x, y)
        return t.mul(x, t.pow(y, 3))

    def inv(self, x):
        t = self.table
        if x.is_zero:
            raise ZeroDivisionError("inverse of zero")
        if x in self.squares:
            return t.inv(x)
        return t.pow(x, -3)

    def describe(self):
        return {"kind": "dickson9"}

    def __repr__(self):
        return "Dickson9()"


class RealField(BaseStructure):
    kind = "real"

    # fixed grid for sampled checks; includes negatives and mixed magnitudes
    GRID = (-10.0, -math.e, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, math.e, 10.0)

    def __init__(self, tolerance=DEFAULT_TOLERANCE):
        if tolerance <= 0:
            raise BaseMismatchError("tolerance must be positive")
        self.tolerance = tolerance
        self.zero = 0.0
        self.one = 1.0
        self.minus_one = -1.0

    def check(self, x):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise BaseMismatchError(f"{x!r} is not a real scalar")
        return float(x)

    def add(self, x, y):
        return x + y

    def mul(self, x, y):
        return x * y

    def neg(self, x):
        return -x

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1.0 / x

    def eq(self, x, y):
        return abs(x - y) <= self.tolerance * max(1.0, abs(x), abs(y))

    def is_zero(self, x):
        return x == 0

    def sample_points(self):
        return self.GRID

    def describe(self):
        return {"kind": "real", "tolerance": self.tolerance}

    def __eq__(self, other):
        return isinstance(other, RealField) and self.tolerance == other.tolerance

    def __hash__(self):
        return hash(("real", self.tolerance))


class ComplexField(BaseStructure):
    kind = "complex"

    MODULI = (0.5, 1.0, 2.0, math.e, 10.0)
    ARGUMENTS = (0.0, math.pi / 4, math.pi / 2, 2.0, 3.0)

    def __init__(self, tolerance=DEFAULT_TOLERANCE):
        if tolerance <= 0:
            raise BaseMismatchError("tolerance must be positive")
        self.tolerance = tolerance
        self.zero = 0j
        self.one = 1 + 0j
        self.minus_one = -1 + 0j
        self._grid = tuple(
            r * cmath.exp(1j * t) for r in self.MODULI for t in self.ARGUMENTS
        )

    def check(self, x):
        if isinstance(x, bool) or not isinstance(x, (int, float, complex)):
            raise BaseMismatchError(f"{x!r} is not a complex scalar")
        return complex(x)

    def add(self, x, y):
        return x + y

    def mul(self, x, y):
        return x * y

    def neg(self, x):
        return -x

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1.0 / x

    def eq(self, x, y):
        return abs(x - y) <= self.tolerance * max(1.0, abs(x), abs(y))

    def is_zero(self, x):
        return x == 0

    def sample_points(self):
        """25 deterministic points: moduli {0.5,1,2,e,10} x arguments
        {0, pi/4, pi/2, 2, 3}."""
        return self._grid

    def describe(self):
        return {"kind": "complex", "tolerance": self.tolerance}

    def __eq__(self, other):
        return isinstance(other, ComplexField) and self.tolerance == other.tolerance

    def __hash__(self):
        return hash(("complex", self.tolerance))


# shared default instances; most callers want these
REALS = RealField()
COMPLEXES = ComplexField()


def induced_add(base: BaseStructure, sigma, x, y):
    """x (+)_sigma y = sigma^-1(sigma(x) + sigma(y))."""
    return sigma.inverse().apply(base.add(sigma.apply(x), sigma.apply(y)))


def distributive_elements(base: BaseStructure, addition=None):
    """All g with (a + b) g = a g + b g for every a, b, under the native or
    an induced addition.  Enumerable bases only."""
    if not base.is_finite:
        raise UnsupportedBaseError("distributive elements need an enumerable base")
    if addition is None:
        add = base.add
    else:
        add = lambda x, y: induced_add(base, addition, x, y)  # noqa: E731
    els = base.elements()
    out = []
    for g in els:
        if all(
            add(base.mul(a, g), base.mul(b, g)) == base.mul(add(a, b), g)
            for a in els
            for b in els
        ):
            out.append(g)
    return tuple(out)


def is_nearfield_automorphism(base: BaseStructure, f) -> bool:
    """Whether the multiplicative automorphism f also preserves addition.

    Finite bases are checked exhaustively (power maps on a Galois field use
    the exact orbit criterion instead).  On the reals only the identity
    qualifies; on the complexes f must agree with the identity or with
    conjugation on the deterministic sample grid.
    """
    if base.kind == "real":
        return f.is_identity()
    if base.kind == "complex":
        agrees_id = True
        agrees_conj = True
        for z in base.sample_points():
            w = f.apply(z)
            if not base.eq(w, z):
                agrees_id = False
            if not base.eq(w, z.conjugate()):
                agrees_conj = False
            if not agrees_id and not agrees_conj:
                return False
        return True
    # finite bases
    from .mult_auto import FinitePower

    if isinstance(f, FinitePower) and base.kind == "gf":
        return same_addition_exponents(f.alpha, 1, base.table.p, base.table.n)
    els = base.elements()
    if len(els) > EXHAUSTIVE_PAIR_BOUND:
        raise BoundExceededError(
            f"additivity check over {len(els)}^2 pairs exceeds the bound"
        )
    return all(
        f.apply(base.add(x, y)) == base.add(f.apply(x), f.apply(y))
        for x in els
        for y in els
    )


def divisionring_transport_check(base: BaseStructure, sigma) -> Report:
    """Check that sigma^-1 carries (sigma(F_d), +_(sigma^-1), *) onto
    (F_d, +, *) preserving both operations.  Finite bases only."""
    if not base.is_finite:
        raise UnsupportedBaseError("transport check needs an enumerable base")
    fd = distributive_elements(base)
    inv = sigma.inverse()
    image = tuple(sigma.apply(g) for g in fd)
    violations = []
    preimage = sorted(
        (inv.apply(a) for a in image), key=lambda e: base.elements().index(e)
    )
    if tuple(preimage) != tuple(fd):
        violations.append({"kind": "not-bijective-onto-distributive-part"})
    for a in image:
        for b in image:
            s = induced_add(base, inv, a, b)
            if s not in image:
                violations.append({"kind": "sum-escapes-image", "pair": (a, b)})
            if inv.apply(s) != base.add(inv.apply(a), inv.apply(b)):
                violations.append({"kind": "additive", "pair": (a, b)})
            p = base.mul(a, b)
            if p not in image:
                violations.append({"kind": "product-escapes-image", "pair": (a, b)})
            if inv.apply(p) != base.mul(inv.apply(a), inv.apply(b)):
                violations.append({"kind": "multiplicative", "pair": (a, b)})
    return Report(
        name="divisionring_transport",
        passed=not violations,
        details={"distributive_size": len(fd)},
        violations=violations,
    )


def scalar_group_axiom_check(base: BaseStructure) -> Report:
    """Monoid laws, zero absorption, the {±1} condition, and group structure
    on the nonzero elements.  Finite bases only."""
    if not base.is_finite:
        raise UnsupportedBaseError("axiom check needs an enumerable base")
    els = base.elements()
    nz = base.nonzero_elements()
    violations = []

    for x in els:
        if base.mul(base.one, x) != x or base.mul(x, base.one) != x:
            violations.append({"axiom": "identity", "x": x})
        if not base.is_zero(base.mul(base.zero, x)) or not base.is_zero(
            base.mul(x, base.zero)
        ):
            violations.append({"axiom": "zero-absorption", "x": x})
        if base.neg(x) != base.mul(base.minus_one, x):
            violations.append({"axiom": "negation", "x": x})
    for a in els:
        for b in els:
            for c in els:
                if base.mul(base.mul(a, b), c) != base.mul(a, base.mul(b, c)):
                    violations.append({"axiom": "associativity", "triple": (a, b, c)})
    square_roots_of_one = tuple(x for x in els if base.mul(x, x) == base.one)
    expected = {base.one, base.minus_one}
    if set(square_roots_of_one) != expected:
        violations.append(
            {"axiom": "plus-minus-one", "solutions": square_roots_of_one}
        )
    for a in nz:
        if not any(base.mul(a, b) == base.one for b in nz):
            violations.append({"axiom": "inverse", "x": a})
        for b in nz:
            if base.is_zero(base.mul(a, b)):
                violations.append({"axiom": "nonzero-closure", "pair": (a, b)})
    return Report(
        name="scalar_group_axioms",
        passed=not violations,
        details={"order": len(els), "char2": base.minus_one == base.one},
        violations=violations,
    )
