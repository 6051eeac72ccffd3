"""Exact arithmetic for small Galois fields GF(p^n).

An element is a ``GFElement``: an ``int`` whose value is its integer code,
the coefficient tuple over GF(p) read as base-p digits with the constant
term least significant, which is also its index in the element list.
``coeffs`` gives the tuple back, constant term first.  ``gf_build(p, n)``
returns a field's tables: the monic irreducible modulus, the elements, the
discrete log and antilog tables over a fixed generator, and the Zech
logarithms (1 + g^k = g^zech[k]); ``nearfield.GaloisField`` holds them, so
sums, negations, products, inverses and powers index flat arrays and lists.
Construction is deterministic:

* the modulus is the first irreducible found when monic degree-n polynomials
  are scanned in lexicographic order of their coefficient tuple (constant
  term first, ascending); degree 1 uses the polynomial x itself;
* the generator is the first element, in code order, whose multiplicative
  order is p^n - 1.

The tables are built on integer codes and plain lists: the antilog walk
multiplies the code of g^e by g as a GF(p)-linear map, looked up on the
low and high halves of its digits and summed digitwise.  Adding one to an
element changes only its constant digit, so the Zech table reads the code
of 1 + g^k straight off the code of g^k.

Fields beyond ``DEFAULT_MAX_ORDER`` elements are refused.

The module also classifies the unit group modulo p^n - 1 into orbits under
multiplication by p.  Two power maps x -> x^a and x -> x^b turn the field
into the same additive structure exactly when a and b lie in the same orbit,
so the orbit count is the number of distinct induced additions.
"""

import itertools
import operator
from array import array
from math import gcd

from .errors import BoundExceededError, NearVecError

DEFAULT_MAX_ORDER = 1 << 16


def is_prime(m: int) -> bool:
    return m >= 2 and prime_factors(m) == [m]


def prime_factors(m: int) -> list[int]:
    """Distinct prime factors of m, ascending."""
    out = []
    f = 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1 if f == 2 else 2
    if m > 1:
        out.append(m)
    return out


# -- polynomial helpers over GF(p); coefficient lists, constant term first --


def _rem(a, d, p):
    """Remainder of a modulo the monic d, by long division."""
    a = list(a)
    k = len(d) - 1
    for top in range(len(a) - 1, k - 1, -1):
        lead = a[top] % p
        if lead:
            for i in range(k):
                a[top - k + i] -= lead * d[i]
    return [c % p for c in a[:k]]


def _mulmod(a, b, modulus, p):
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    return _rem(prod, modulus, p)


def _powmod(a, e, modulus, p):
    r = [1] + [0] * (len(a) - 1)
    while e:
        if e & 1:
            r = _mulmod(r, a, modulus, p)
        a = _mulmod(a, a, modulus, p)
        e >>= 1
    return r


def first_irreducible(p: int, n: int) -> tuple:
    """First monic irreducible of degree n in the declared scan order, by
    trial division by every monic polynomial of degree 1..n/2.  For n >= 2
    x divides a zero constant term, so candidates and divisors with one
    are skipped: ``lows(k)`` gives the lower coefficients of the rest of
    degree k, in scan order."""
    if n == 1:
        return (0, 1)
    lows = lambda k: itertools.product(range(1, p), *[range(p)] * (k - 1))  # noqa: E731
    divisors = [low + (1,) for k in range(1, n // 2 + 1) for low in lows(k)]
    for low in lows(n):
        if all(any(_rem(low + (1,), d, p)) for d in divisors):
            return low + (1,)
    raise NearVecError(f"no irreducible polynomial of degree {n} over GF({p})")


class GFElement(int):
    """A field element as its integer code.  ``gf_build`` makes one subclass
    per field that sets p and n.  As an ``int`` it hashes and compares by
    code alone, so elements of different fields can be equal and zero is
    falsy; ``GaloisField.check`` tests p and n."""

    __slots__ = ()
    p = n = None

    @property
    def coeffs(self):
        """The n residues mod p, constant term first."""
        return tuple(self // self.p**i % self.p for i in range(self.n))

    def __repr__(self):
        return f"GFElement({list(self.coeffs)})"


def _check_order(p, n):
    """p^n for a prime p, refused beyond ``DEFAULT_MAX_ORDER`` before any
    work that grows with p or n: the primality test costs sqrt(p) steps,
    and p^n has n digits (p >= 2, so n beyond the bound's bit length is
    over it)."""
    if p > DEFAULT_MAX_ORDER or n > DEFAULT_MAX_ORDER.bit_length() or p**n > DEFAULT_MAX_ORDER:
        raise BoundExceededError(f"p^n = {p}^{n} exceeds the bound {DEFAULT_MAX_ORDER}")
    if not is_prime(p):
        raise NearVecError(f"{p} is not prime")
    return p**n


def _images(basis, n, p):
    """Sum of d_t * basis[t] over GF(p) for every digit vector d, in
    integer encoding order of d; the basis entries are n coefficients."""
    imgs = [[0] * n]
    for b in basis:
        imgs = [[(x + d * y) % p for x, y in zip(img, b)] for d in range(p) for img in imgs]
    return imgs


def _walk(p, n, modulus, g, m):
    """Integer codes of g^0, ..., g^(m - 1), for g given by its code.

    Multiplication by g is GF(p)-linear, so for n >= 2 the code
    k = lo + hi * p^s, with s = n // 2 low digits, maps to image(lo) +
    image(hi * x^s): two lookups in tables of p^s and p^(n - s) entries.
    An image keeps digit j times p^j, so its code is its sum; the digitwise
    sum of two images is XOR for p = 2, and otherwise its entry j is the
    sum of their entries j reduced mod p^(j + 1)."""
    if n == 1:
        return list(itertools.accumulate(range(m - 1), lambda k, _: k * g % p, initial=1))
    s = n // 2
    size = p**s
    basis = [[g // p**i % p for i in range(n)]]
    for _ in range(n - 1):
        basis.append(_mulmod(basis[-1], [0, 1] + [0] * (n - 2), modulus, p))
    lo, hi = (
        [tuple(d * p**j for j, d in enumerate(img)) for img in _images(part, n, p)]
        for part in (basis[:s], basis[s:])
    )
    codes = [1]
    k = 1
    if p == 2:
        lo, hi = list(map(sum, lo)), list(map(sum, hi))
        for _ in range(m - 1):
            k = lo[k & (size - 1)] ^ hi[k >> s]
            codes.append(k)
        return codes
    moduli = [p ** (j + 1) for j in range(n)]
    for _ in range(m - 1):
        k = sum(map(operator.mod, map(operator.add, lo[k % size], hi[k // size]), moduli))
        codes.append(k)
    return codes


def gf_build(p: int, n: int) -> tuple:
    """The tables of GF(p^n) as (modulus, elements, generator, log,
    antilog, zech): elements is the tuple of the field's ``GFElement``s in
    code order, log an ``array("i")`` holding each code's exponent in
    [0, p^n - 1) and -1 at zero, antilog the list of elements g^0, g^1, ...,
    and zech an ``array("i")`` with 1 + g^k = g^zech[k], or -1 where
    1 + g^k = 0.  Deterministic modulus and generator choice."""
    q = _check_order(p, n)
    if n < 1:
        raise NearVecError(f"degree must be positive, got {n}")

    modulus = first_irreducible(p, n)
    element = type("GFElement", (GFElement,), {"__slots__": (), "p": p, "n": n})
    elements = tuple(map(element, range(q)))

    m = q - 1
    factors = prime_factors(m)
    one = list(elements[1].coeffs)
    for g in range(1, q):
        if all(_powmod(list(elements[g].coeffs), m // f, modulus, p) != one for f in factors):
            break
    else:
        raise NearVecError(f"no generator found for GF({p}^{n}); table bug")

    codes = _walk(p, n, modulus, g, m)
    log = array("i", [-1]) * q
    for k, c in enumerate(codes):
        log[c] = k
    if log.count(-1) != 1:
        raise NearVecError(f"generator of GF({p}^{n}) has wrong order; table bug")
    zech = array("i", (log[c - c % p + (c + 1) % p] for c in codes))
    return modulus, elements, elements[g], log, list(map(elements.__getitem__, codes)), zech


class UnitClassification:
    """Orbits of the units mod p^n - 1 under multiplication by p.

    One orbit per induced addition on GF(p^n); the orbit of 1 is the set of
    exponents whose power map is already additive.  ``classes`` is a tuple
    of sorted tuples, ordered by smallest member.
    """

    def __init__(self, p, n, modulus_m, units, frobenius_subgroup, classes):
        self.p, self.n, self.modulus_m = p, n, modulus_m
        self.units, self.frobenius_subgroup, self.classes = units, frobenius_subgroup, classes

    @property
    def count(self):
        return len(self.classes)

    def to_json(self):
        return {
            "p": self.p,
            "n": self.n,
            "modulus_m": self.modulus_m,
            "units": list(self.units),
            "frobenius_subgroup": list(self.frobenius_subgroup),
            "classes": [list(c) for c in self.classes],
            "count": self.count,
        }


def _orbit(a, mult, m):
    out = {a}
    x = a * mult % m
    while x not in out:
        out.add(x)
        x = x * mult % m
    return tuple(sorted(out))


def unit_classification(p: int, n: int) -> UnitClassification:
    """Partition the units mod p^n - 1 into multiplication-by-p orbits;
    refused beyond ``DEFAULT_MAX_ORDER``, like the field tables."""
    q = _check_order(p, n)
    if q < 3:
        raise NearVecError(f"p^n must be at least 3, got {q}")
    m = q - 1
    units = tuple(a for a in range(1, m) if gcd(a, m) == 1)
    frob = _orbit(1, p % m, m)
    classes = []
    seen = set()
    for u in units:
        if u in seen:
            continue
        orb = _orbit(u, p % m, m)
        seen.update(orb)
        classes.append(orb)
    return UnitClassification(p, n, m, units, frob, tuple(classes))


def same_addition_exponents(alpha: int, beta: int, p: int, n: int) -> bool:
    """Whether x^alpha and x^beta induce the same addition on GF(p^n).

    True exactly when alpha lies in the multiplication-by-p orbit of beta
    modulo p^n - 1.
    """
    m = p**n - 1
    if m <= 1:
        return True
    alpha %= m
    beta %= m
    if gcd(alpha, m) != 1 or gcd(beta, m) != 1:
        raise NearVecError(f"exponents must be units mod {m}")
    return alpha in _orbit(beta, p % m, m)
