"""Exact arithmetic for small Galois fields GF(p^n).

Elements are ``GFElement`` coefficient tuples over GF(p), constant term
first; they hash and compare as the plain tuple of their residues.
``gf_build(p, n)`` returns a field's tables: the monic irreducible modulus,
the elements, and discrete log and antilog tables over a fixed generator;
``nearfield.GaloisField`` holds them, so products, inverses and powers are
table lookups.  Construction is deterministic:

* the modulus is the first irreducible found when monic degree-n polynomials
  are scanned in lexicographic order of their coefficient tuple (constant
  term first, ascending); degree 1 uses the polynomial x itself;
* the generator is the first element, in integer encoding order (value of
  the coefficient tuple read as base-p digits, constant term least
  significant), whose multiplicative order is p^n - 1.

Fields beyond ``DEFAULT_MAX_ORDER`` elements are refused.

The module also classifies the unit group modulo p^n - 1 into orbits under
multiplication by p.  Two power maps x -> x^a and x -> x^b turn the field
into the same additive structure exactly when a and b lie in the same orbit,
so the orbit count is the number of distinct induced additions.
"""

import itertools
from dataclasses import dataclass
from math import gcd

from .errors import BoundExceededError, NearVecError

DEFAULT_MAX_ORDER = 1 << 16


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


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


# -- polynomial helpers over GF(p); coefficient tuples, constant term first --


def _trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def _poly_mod(a, m, p):
    """Remainder of a modulo the monic polynomial m."""
    a = list(a)
    dm = len(m) - 1
    while len(_trim(a)) - 1 >= dm and _trim(a):
        a = list(_trim(a))
        shift = len(a) - 1 - dm
        lead = a[-1]
        for i, c in enumerate(m):
            a[shift + i] = (a[shift + i] - lead * c) % p
    return _trim(a)


def _poly_powmod(a, e, m, p):
    r = (1,)
    a = _poly_mod(a, m, p)
    while e > 0:
        if e & 1:
            r = _poly_mod(_poly_mul(r, a, p), m, p)
        a = _poly_mod(_poly_mul(a, a, p), m, p)
        e >>= 1
    return r


def _monic_polys(p, degree):
    """All monic polynomials of the given degree, lex order of low coeffs."""
    for low in itertools.product(range(p), repeat=degree):
        yield low + (1,)


def _is_irreducible(poly, p):
    """Trial division by every monic polynomial of degree 1..deg/2."""
    degree = len(poly) - 1
    for d in range(1, degree // 2 + 1):
        for div in _monic_polys(p, d):
            if not _poly_mod(poly, div, p):
                return False
    return True


def first_irreducible(p: int, n: int) -> tuple:
    """First monic irreducible of degree n in the declared scan order."""
    if n == 1:
        return (0, 1)
    for poly in _monic_polys(p, n):
        if _is_irreducible(poly, p):
            return poly
    raise NearVecError(f"no irreducible polynomial of degree {n} over GF({p})")


class GFElement(tuple):
    """A field element: the tuple of its n residues mod p, constant term
    first.  It hashes and compares as that plain tuple."""

    __slots__ = ()

    @property
    def coeffs(self):
        return tuple(self)

    @property
    def is_zero(self):
        return not any(self)

    def __repr__(self):
        return f"GFElement({list(self)})"


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


def gf_build(p: int, n: int) -> tuple:
    """The tables of GF(p^n) as (modulus, elements, generator, log,
    antilog): elements in integer encoding order, log maps a nonzero
    element to its exponent in [0, p^n - 1), antilog is the reverse map.
    Deterministic modulus and generator choice."""
    q = _check_order(p, n)
    if n < 1:
        raise NearVecError(f"degree must be positive, got {n}")

    modulus = first_irreducible(p, n)

    def encode(k):
        c = []
        for _ in range(n):
            c.append(k % p)
            k //= p
        return GFElement(c)

    elements = tuple(encode(k) for k in range(q))

    def raw_mul(a, b):
        return _poly_mod(_poly_mul(_trim(a), _trim(b), p), modulus, p)

    def pad(c):
        return GFElement(c + (0,) * (n - len(c)))

    m = q - 1
    factors = prime_factors(m) if m > 1 else []
    generator = None
    for cand in elements[1:]:
        if m <= 1:
            generator = cand
            break
        ok = True
        for f in factors:
            if pad(_poly_powmod(_trim(cand), m // f, modulus, p)) == elements[1]:
                ok = False
                break
        if ok:
            generator = cand
            break
    if generator is None:
        raise NearVecError(f"no generator found for GF({p}^{n}); table bug")

    antilog = {}
    log = {}
    acc = elements[1]
    for e in range(max(m, 1)):
        antilog[e] = acc
        log[acc] = e
        acc = pad(raw_mul(acc, generator))
    if len(log) != max(m, 1):
        raise NearVecError(f"generator of GF({p}^{n}) has wrong order; table bug")

    return modulus, elements, generator, log, antilog


@dataclass(frozen=True)
class UnitClassification:
    """Orbits of the units mod p^n - 1 under multiplication by p.

    One orbit per induced addition on GF(p^n); the orbit of 1 is the set of
    exponents whose power map is already additive.
    """

    p: int
    n: int
    modulus_m: int
    units: tuple
    frobenius_subgroup: tuple
    classes: tuple  # tuple of sorted tuples, ordered by smallest member

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
    units = tuple(a for a in range(1, m) if gcd(a, m) == 1) if m > 1 else (1,)
    frob = _orbit(1, p % m, m) if m > 1 else (1,)
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
