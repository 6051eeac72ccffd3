"""Scalar bases: finite fields, the reals, the complexes, and the order-9
Dickson near-field, behind one arithmetic interface.

A base supplies native addition and a multiplicative group on its nonzero
elements.  Finite bases enumerate their elements exhaustively:
``GaloisField(p, n)`` holds the tables of ``galois.gf_build`` and does all
finite arithmetic itself, by lookups: a sum is a Zech-logarithm step and a
negation a log shift by half the unit group (none in characteristic 2).
The real and complex bases share the float arithmetic of ``FloatField``,
compare within a relative tolerance and expose deterministic sample grids
instead of enumeration.

Every multiplicative automorphism sigma of a base induces a second abelian
addition  x (+)_sigma y = sigma^-1(sigma(x) + sigma(y))  which again makes
the base a near-field with the same multiplication.  ``induced_add``
evaluates it; the verification helpers below check the algebraic laws the
rest of the package leans on.  Whether sigma preserves the sum takes one
exponent test on a Galois field, whose unit group is cyclic, every pair on
Dickson9, and the sample grid on the reals and complexes.  Every sweep
refuses work beyond its bound through ``errors.charge``.

The Dickson base is a ``GaloisField`` on GF(9) that couples its
multiplication with the cube map: a product a . b stays a*b when a is a
square (an even power of the generator) and becomes a*b^3 when a is not.
Its 81 products are tabulated once per instance.  The nonzero elements
then form the quaternion group of order 8, addition is the GF(9) one, the
structure is left distributive, and exactly the prime subfield {0, 1, 2}
is right distributive.
"""

import cmath
import itertools
import math
import sys

from .errors import BaseMismatchError, UnsupportedBaseError, charge
from .galois import GFElement, gf_build, same_addition_exponents
from .report import Report

DEFAULT_TOLERANCE = 1e-9

# default cap on the work of an exhaustive sweep: vectors, vector pairs or
# element triples, whichever the sweep enumerates
DEFAULT_BRUTE_BOUND = 10**6


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

    def eq(self, x, y):
        raise NotImplementedError

    def is_zero(self, x):
        return x == 0

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
    """GF(p^n) on the tables of ``gf_build``: an element is a ``GFElement``,
    the integer code that indexes ``elements()``, and sums, negations,
    products, inverses and powers index the log array and the antilog and
    Zech tables.  Zero is the code 0.  Immutable; every method is a pure
    function of its arguments."""

    kind = "gf"
    is_finite = True

    def __init__(self, p, n):
        tables = gf_build(p, n)
        self.modulus, self._elements, self.generator, self.log, self.antilog, self._zech = tables
        self.p = p
        self.n = n
        self._units = len(self._elements) - 1
        # -1 = g^(m/2) for odd p; in characteristic 2 negation is the identity
        self._neg_shift = 0 if p == 2 else self._units // 2
        self.zero = self._elements[0]
        self.one = self._elements[1]
        self.minus_one = self.neg(self.one)

    # -- element plumbing --

    def element(self, coeffs) -> GFElement:
        c = [int(x) for x in coeffs]
        if len(c) != self.n or any(x < 0 or x >= self.p for x in c):
            raise BaseMismatchError(f"{list(coeffs)} is not an element of {self}")
        return self._elements[sum(x * self.p**i for i, x in enumerate(c))]

    def check(self, x) -> GFElement:
        """The field's own element with the code of x, which must be an
        element of a field of the same p and n; plain ints are refused."""
        if isinstance(x, GFElement) and (x.p, x.n) == (self.p, self.n):
            return self._elements[x]
        raise BaseMismatchError(f"{x!r} is not an element of {self}")

    def from_int(self, k: int) -> GFElement:
        if k < 0 or k > self._units:
            raise BaseMismatchError(f"integer {k} out of range for {self}")
        return self._elements[k]

    def to_int(self, x: GFElement) -> int:
        return int(x)

    def elements(self):
        return self._elements

    # -- arithmetic --

    def add(self, x, y):
        # g^a + g^b = g^a (1 + g^(b - a)) = g^(a + zech[b - a])
        if not x:
            return y
        if not y:
            return x
        lx = self.log[x]
        z = self._zech[(self.log[y] - lx) % self._units]
        return self.zero if z < 0 else self.antilog[(lx + z) % self._units]

    def neg(self, x):
        if not x:
            return self.zero
        return self.antilog[(self.log[x] + self._neg_shift) % self._units]

    def mul(self, x, y):
        if not x or not y:
            return self.zero
        return self.antilog[(self.log[x] + self.log[y]) % self._units]

    def inv(self, x):
        if not x:
            raise ZeroDivisionError("inverse of zero")
        return self.antilog[-self.log[x] % self._units]

    def pow(self, x, e: int):
        if not x:
            if e <= 0:
                raise ZeroDivisionError(f"0 ** {e} is undefined")
            return self.zero
        return self.antilog[self.log[x] * e % self._units]

    def eq(self, x, y):
        return x == y

    def describe(self):
        return {"kind": "gf", "p": self.p, "n": self.n, "modulus": list(self.modulus)}

    def __repr__(self):
        return f"GaloisField(GF({self.order()}))"

    def __eq__(self, other):
        # exact type: GF(9) and its Dickson variant share the tables
        return type(self) is type(other) and (self.p, self.n) == (other.p, other.n)

    def __hash__(self):
        return hash((self.kind, self.p, self.n))


class Dickson9(GaloisField):
    """The order-9 Dickson near-field: the elements, addition and tables of
    GF(9) with the coupled product.  The nonzero squares of GF(9) are the
    elements of even discrete log.  ``pow`` stays the GF(9) power."""

    kind = "dickson9"
    commutative = False

    def __init__(self):
        super().__init__(3, 2)
        gf_mul, els = super().mul, self._elements
        # a . b = a*b for a square a, a*b^3 otherwise; zero's log is -1, and
        # its product is zero whichever branch runs
        self._product = [
            [gf_mul(x, y if self.log[x] % 2 == 0 else self.pow(y, 3)) for y in els] for x in els
        ]

    def mul(self, x, y):
        return self._product[x][y]

    def inv(self, x):
        if not x:
            raise ZeroDivisionError("inverse of zero")
        return self.pow(x, -1 if self.log[x] % 2 == 0 else -3)

    def describe(self):
        return {"kind": "dickson9"}

    def __repr__(self):
        return "Dickson9()"


class FloatField(BaseStructure):
    """Float arithmetic shared by the reals and the complexes: values
    compare within a relative tolerance, and sampled checks run over the
    subclass's fixed ``GRID``."""

    def __init__(self, tolerance=DEFAULT_TOLERANCE):
        if not 0 < tolerance <= sys.float_info.max:  # nan fails this too
            raise BaseMismatchError(f"tolerance must be positive and finite, got {tolerance}")
        self.tolerance = float(tolerance)
        self.zero = self.check(0)
        self.one = self.check(1)
        self.minus_one = self.check(-1)

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
        diff = abs(x - y)
        if not math.isfinite(diff):  # an infinity or nan: only exact equality
            return x == y
        return diff <= self.tolerance * max(1.0, abs(x), abs(y))

    def sample_points(self):
        return self.GRID

    def describe(self):
        return {"kind": self.kind, "tolerance": self.tolerance}

    def __eq__(self, other):
        return type(self) is type(other) and self.tolerance == other.tolerance

    def __hash__(self):
        return hash((self.kind, self.tolerance))


class RealField(FloatField):
    kind = "real"

    # fixed grid for sampled checks; includes negatives and mixed magnitudes
    GRID = (-10.0, -math.e, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, math.e, 10.0)

    def check(self, x):
        if isinstance(x, (bool, GFElement)) or not isinstance(x, (int, float)):
            raise BaseMismatchError(f"{x!r} is not a real scalar")
        return float(x)


class ComplexField(FloatField):
    kind = "complex"

    MODULI = (0.5, 1.0, 2.0, math.e, 10.0)
    ARGUMENTS = (0.0, math.pi / 4, math.pi / 2, 2.0, 3.0)
    # 25 sample points: every modulus at every argument, moduli outermost
    GRID = tuple(r * cmath.exp(1j * t) for r, t in itertools.product(MODULI, ARGUMENTS))

    def check(self, x):
        if isinstance(x, (bool, GFElement)) or not isinstance(x, (int, float, complex)):
            raise BaseMismatchError(f"{x!r} is not a complex scalar")
        return complex(x)


# shared default instances; most callers want these
REALS = RealField()
COMPLEXES = ComplexField()


def induced_add(base: BaseStructure, sigma, x, y):
    """x (+)_sigma y = sigma^-1(sigma(x) + sigma(y))."""
    return sigma.inverse().apply(base.add(sigma.apply(x), sigma.apply(y)))


# finite base -> its right distributive elements, swept once per process
_DISTRIBUTIVE = {}


def distributive_elements(base: BaseStructure, bound=DEFAULT_BRUTE_BOUND):
    """All g with (a + b) g = a g + b g for every a, b.  Enumerable bases
    only, and at most ``bound`` triples (g, a, b), charged on every call
    although each base is swept once."""
    if not base.is_finite:
        raise UnsupportedBaseError("distributive elements need an enumerable base")
    q = base.order()
    charge(q**3, bound, f"{q}^3 triples")
    out = _DISTRIBUTIVE.get(base)
    if out is None:
        add = base.add
        els = base.elements()
        out = _DISTRIBUTIVE[base] = tuple(
            g
            for g in els
            if all(
                add(base.mul(a, g), base.mul(b, g)) == base.mul(add(a, b), g)
                for a in els
                for b in els
            )
        )
    return out


def is_nearfield_automorphism(base: BaseStructure, f) -> bool:
    """Whether the multiplicative automorphism f also preserves addition.

    The unit group of a Galois field is cyclic, so f is x -> x^a with
    g^a = f(g) for the generator g, whatever family f belongs to, and the
    exact orbit criterion decides a.  Other finite bases are checked on
    every element pair, at most ``DEFAULT_BRUTE_BOUND`` of them.  On the
    reals and the complexes f must agree with the identity or with
    conjugation on the deterministic sample grid, within tolerance; on a
    real the two coincide.
    """
    if base.kind == "gf":
        return same_addition_exponents(base.log[f.apply(base.generator)], 1, base.p, base.n)
    if not base.is_finite:
        images = [(z, f.apply(z)) for z in base.sample_points()]
        return all(base.eq(w, z) for z, w in images) or all(
            base.eq(w, z.conjugate()) for z, w in images
        )
    els = base.elements()
    q = len(els)
    charge(q * q, DEFAULT_BRUTE_BOUND, f"{q}^2 additivity pairs")
    t = f.codes
    return all(t[base.add(x, y)] == base.add(t[x], t[y]) for x in els for y in els)


def divisionring_transport_check(base: BaseStructure, sigma) -> Report:
    """Check that sigma^-1 carries (sigma(F_d), +_(sigma^-1), *) onto
    (F_d, +, *) preserving both operations.  Finite bases only."""
    if not base.is_finite:
        raise UnsupportedBaseError("transport check needs an enumerable base")
    fd = distributive_elements(base)
    inv = sigma.inverse()
    image = tuple(sigma.apply(g) for g in fd)
    violations = []
    if tuple(sorted(inv.apply(a) for a in image)) != fd:
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


def scalar_group_axiom_check(base: BaseStructure, bound=DEFAULT_BRUTE_BOUND) -> Report:
    """Monoid laws on both sides, zero absorption, -x = (-1) x, inverses,
    closure of the nonzero elements, associativity, and the {±1} condition:
    (-1)^2 = 1 and every point whose square is 1 equals 1 or -1 (the complex
    grid holds no -1).  Finite bases are checked on every element, pair and
    triple, refused beyond ``bound`` triples; the reals and complexes on the
    first ten points of their sample grid, within tolerance.  Each violation
    names its point, pair or triple; at most 20 are kept."""
    if base.is_finite:
        q = base.order()
        charge(q**3, bound, f"{q}^3 triples")
        points = base.elements()
        name = "scalar_group_axioms"
        details = {"order": len(points), "char2": base.minus_one == base.one}
    else:
        points = list(base.sample_points())[:10]
        name = "scalar_group_axioms_sampled"
        details = {"points": len(points)}
    mul, eq, is_zero = base.mul, base.eq, base.is_zero
    one, zero, minus_one = base.one, base.zero, base.minus_one
    violations = []
    if not eq(mul(minus_one, minus_one), one):
        violations.append({"axiom": "plus-minus-one", "x": minus_one})
    for x in points:
        if not (eq(mul(one, x), x) and eq(mul(x, one), x)):
            violations.append({"axiom": "identity", "x": x})
        if not (is_zero(mul(zero, x)) and is_zero(mul(x, zero))):
            violations.append({"axiom": "zero-absorption", "x": x})
        if not eq(base.neg(x), mul(minus_one, x)):
            violations.append({"axiom": "negation", "x": x})
        if not is_zero(x) and not eq(mul(x, base.inv(x)), one):
            violations.append({"axiom": "inverse", "x": x})
        if eq(mul(x, x), one) and not (eq(x, one) or eq(x, minus_one)):
            violations.append({"axiom": "plus-minus-one", "x": x})
    for x in points:
        for y in points:
            xy = mul(x, y)
            if is_zero(xy) and not (is_zero(x) or is_zero(y)):
                violations.append({"axiom": "nonzero-closure", "pair": (x, y)})
            for z in points:
                if not eq(mul(xy, z), mul(x, mul(y, z))):
                    violations.append({"axiom": "associativity", "triple": (x, y, z)})
    return Report(name=name, passed=not violations, details=details, violations=violations[:20])
