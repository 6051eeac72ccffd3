"""Field table construction and arithmetic, unit classification, and
exponent orbits.

Expected moduli and generators are recomputed here by independent brute
force (product enumeration for irreducibility, repeated multiplication for
element orders) before being compared with the table builder, and the
table arithmetic of small fields is compared pair by pair with schoolbook
polynomial arithmetic modulo the field's modulus.
"""

import itertools
import json
import random
import tracemalloc
from math import gcd

import pytest

from nearvec.errors import BoundExceededError, NearVecError
from nearvec.galois import (
    gf_build,
    is_prime,
    same_addition_exponents,
    unit_classification,
)
from nearvec.nearfield import GaloisField


# -- independent oracles ----------------------------------------------------


def poly_mul_mod_p(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


def oracle_first_irreducible(p, n):
    """Scan monic degree-n polys in lex coefficient order; call one
    reducible when it equals some product of two lower-degree monics."""
    products = set()
    for d1 in range(1, n):
        d2 = n - d1
        if d2 < d1:
            continue
        for low1 in itertools.product(range(p), repeat=d1):
            f = low1 + (1,)
            for low2 in itertools.product(range(p), repeat=d2):
                g = low2 + (1,)
                products.add(poly_mul_mod_p(f, g, p))
    for low in itertools.product(range(p), repeat=n):
        cand = low + (1,)
        if cand not in products:
            return cand
    raise AssertionError("no irreducible found")


def schoolbook_mul(a, b, modulus, p):
    """Product of two coefficient tuples, reduced modulo the monic modulus
    by long division."""
    n = len(modulus) - 1
    prod = list(poly_mul_mod_p(a, b, p))
    for top in range(len(prod) - 1, n - 1, -1):
        lead = prod[top]
        for i, c in enumerate(modulus):
            prod[top - n + i] = (prod[top - n + i] - lead * c) % p
    return tuple(prod[:n])


def code(coeffs, p):
    """The integer code of a coefficient tuple: base-p digits, constant
    term least significant."""
    return sum(c * p**i for i, c in enumerate(coeffs))


def oracle_element_order(table, x):
    k, acc = 1, x
    while acc != table.one:
        acc = table.mul(acc, x)
        k += 1
    return k


def oracle_orbit_count(p, n):
    """Independent recount of the exponent classes: plain integer orbits."""
    m = p**n - 1
    units = [a for a in range(1, m) if gcd(a, m) == 1]
    seen, count = set(), 0
    for u in units:
        if u in seen:
            continue
        count += 1
        x = u
        while x not in seen:
            seen.add(x)
            x = x * (p % m) % m
    return count


# -- construction -----------------------------------------------------------


@pytest.mark.parametrize(
    "p,n",
    [(2, 2), (3, 2), (2, 3), (5, 2), (2, 4), (3, 3)],
)
def test_modulus_matches_independent_scan(p, n):
    assert GaloisField(p, n).modulus == oracle_first_irreducible(p, n)


SMALL_FIELDS = [
    (p, n) for p in range(2, 257) if is_prime(p) for n in range(1, 9) if p**n <= 256
]


def test_tables_match_oracles_on_every_small_field():
    # every GF(p^n) with p^n <= 256: the scan-order modulus, the digits of
    # each element, the first element of full order, the antilog walk and
    # the Zech logarithm of every exponent
    for p, n in SMALL_FIELDS:
        q = p**n
        modulus, elements, generator, log, antilog, zech = gf_build(p, n)
        assert modulus == (oracle_first_irreducible(p, n) if n > 1 else (0, 1))
        assert elements == tuple(range(q))
        assert [x.coeffs for x in elements] == [
            tuple(k // p**i % p for i in range(n)) for k in range(q)
        ]
        one = elements[1].coeffs

        def order(x):
            k, acc = 1, x
            while acc != one:
                acc = schoolbook_mul(acc, x, modulus, p)
                k += 1
            return k

        first = next(x for x in elements[1:] if order(x.coeffs) == q - 1)
        assert generator == first
        assert antilog[0].coeffs == one and len(antilog) == q - 1
        assert len(log) == q and log[0] == -1
        for e in range(q - 1):
            step = schoolbook_mul(antilog[e].coeffs, generator.coeffs, modulus, p)
            assert step == (antilog[e + 1] if e + 2 < q else elements[1]).coeffs
            assert log[antilog[e]] == e
            succ = tuple((c + (i == 0)) % p for i, c in enumerate(antilog[e].coeffs))
            assert zech[e] == (log[code(succ, p)] if any(succ) else -1)
        assert len(zech) == q - 1


@pytest.mark.parametrize(
    "p,n,modulus,generator",
    [
        (2, 16, (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1), 6),
        (3, 10, (1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1), 34),
        (251, 2, (1, 0, 1), 256),
        (65521, 1, (0, 1), 17),
    ],
)
def test_large_fields_pinned(p, n, modulus, generator):
    # the binary, odd-characteristic and prime-field walks at sizes the
    # small-field sweep never reaches
    t = GaloisField(p, n)
    assert t.modulus == modulus
    assert t.generator == t.from_int(generator)
    if (p, n) == (2, 16):
        assert t.log[t.from_int(2)] == 52011 and len(t.log) == 65536 and t.log[0] == -1
    rng = random.Random(p * 100 + n)
    m = t.order() - 1
    for e in rng.sample(range(m), 200):
        step = schoolbook_mul(t.antilog[e].coeffs, t.generator.coeffs, modulus, p)
        assert step == t.antilog[(e + 1) % m].coeffs


def test_modulus_examples():
    assert GaloisField(5, 1).modulus == (0, 1)
    assert GaloisField(2, 2).modulus == (1, 1, 1)
    assert GaloisField(3, 2).modulus == (1, 0, 1)


def test_generator_examples():
    t5 = GaloisField(5, 1)
    assert t5.generator == t5.from_int(2)
    t9 = GaloisField(3, 2)
    assert t9.generator == t9.element((1, 1))
    for t in (t5, t9, GaloisField(2, 3)):
        assert oracle_element_order(t, t.generator) == t.order() - 1


def test_build_rejects_bad_input():
    with pytest.raises(NearVecError):
        gf_build(4, 1)
    with pytest.raises(NearVecError):
        gf_build(2, 0)
    with pytest.raises(BoundExceededError):
        gf_build(2, 17)


def test_bound_comes_before_primality():
    # trial division of this prime would run for minutes
    for build in (gf_build, unit_classification):
        with pytest.raises(BoundExceededError):
            build(2**61 - 1, 1)


@pytest.mark.parametrize("p,n", [(2, 1), (5, 1), (2, 2), (3, 2), (2, 3), (13, 1)])
def test_log_antilog_roundtrip(p, n):
    t = GaloisField(p, n)
    for x in t.nonzero_elements():
        assert t.antilog[t.log[x]] == x
    assert t.log[t.generator] == 1 or t.order() == 2


def test_mul_examples():
    t5 = GaloisField(5, 1)
    assert t5.mul(t5.from_int(2), t5.from_int(3)) == t5.one
    t4 = GaloisField(2, 2)
    x = t4.element((0, 1))
    assert t4.mul(x, x) == t4.element((1, 1))
    for t in (t4, t5):
        for a in t.elements():
            assert t.mul(a, t.one) == a


def test_pow_examples_and_edge_cases():
    t5 = GaloisField(5, 1)
    assert t5.pow(t5.from_int(2), 3) == t5.from_int(3)
    t7 = GaloisField(7, 1)
    assert t7.pow(t7.from_int(2), 5) == t7.from_int(4)
    for t in (t5, t7):
        for a in t.nonzero_elements():
            assert t.pow(a, 1) == a
            assert t.pow(a, t.order() - 1) == t.one
        assert t.pow(t.zero, 2) == t.zero
        with pytest.raises(ZeroDivisionError):
            t.pow(t.zero, 0)
        with pytest.raises(ZeroDivisionError):
            t.pow(t.zero, -1)


def test_pow_negative_exponent_inverts():
    t7 = GaloisField(7, 1)
    three = t7.from_int(3)
    assert t7.mul(t7.pow(three, -1), three) == t7.one
    assert t7.inv(three) == t7.from_int(5)


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)])
def test_arithmetic_matches_schoolbook(p, n):
    field = GaloisField(p, n)
    q = p**n
    els = field.elements()
    assert [x.coeffs for x in els] == [
        tuple(k // p**i % p for i in range(n)) for k in range(q)
    ]
    one = (1,) + (0,) * (n - 1)
    assert field.one.coeffs == one

    def mul(a, b):  # coefficient tuples
        return schoolbook_mul(a, b, field.modulus, p)

    for x in els:
        c = x.coeffs
        assert field.neg(x).coeffs == tuple(-a % p for a in c)
        for y in els:
            assert field.add(x, y).coeffs == tuple((a + b) % p for a, b in zip(c, y.coeffs))
            assert field.mul(x, y).coeffs == mul(c, y.coeffs)
        if not any(c):
            for e in range(1, q + 1):
                assert field.pow(x, e) == x
            for e in range(-2, 1):
                with pytest.raises(ZeroDivisionError):
                    field.pow(x, e)
            continue
        assert mul(c, field.inv(x).coeffs) == one
        power = one  # x^e by repeated schoolbook products
        for e in range(q + 1):
            assert field.pow(x, e).coeffs == power
            if e in (1, 2):
                assert mul(field.pow(x, -e).coeffs, power) == one
            power = mul(power, c)


def _coefficientwise(field, x, y):
    return tuple((a + b) % field.p for a, b in zip(x.coeffs, y.coeffs))


def test_add_and_neg_match_coefficients_on_every_small_field():
    for p, n in SMALL_FIELDS:
        field = GaloisField(p, n)
        els = field.elements()
        for x in els:
            assert field.neg(x).coeffs == tuple(-c % p for c in x.coeffs)
            for y in els:
                assert field.add(x, y).coeffs == _coefficientwise(field, x, y)


@pytest.mark.parametrize("p,n", [(2, 16), (3, 10), (251, 2)])
def test_add_and_neg_match_coefficients_on_large_fields(p, n):
    field = GaloisField(p, n)
    els = field.elements()
    rng = random.Random(p * 100 + n)
    for _ in range(20_000):
        x, y = rng.choice(els), rng.choice(els)
        assert field.add(x, y).coeffs == _coefficientwise(field, x, y)
        assert field.neg(x).coeffs == tuple(-c % p for c in x.coeffs)
    assert field.add(els[5], field.neg(els[5])) == field.zero


@pytest.mark.parametrize("p,n", SMALL_FIELDS + [(2, 16), (3, 10), (251, 2)])
def test_zech_has_one_zero_sum(p, n):
    # 1 + g^k = 0 exactly at g^k = -1: k = 0 in characteristic 2, else m/2
    zech = gf_build(p, n)[5]
    m = p**n - 1
    assert len(zech) == m and zech.count(-1) == 1
    assert zech.index(-1) == (0 if p == 2 else m // 2)


def test_element_validation():
    t4 = GaloisField(2, 2)
    with pytest.raises(NearVecError):
        t4.element((1,))
    with pytest.raises(NearVecError):
        t4.element((2, 0))
    with pytest.raises(NearVecError):
        t4.check(GaloisField(2, 3).element((1, 0, 0)))


def test_element_is_its_integer_code():
    t9 = GaloisField(3, 2)
    x = t9.from_int(5)  # 5 = 2 + 1 * 3
    assert x == 5 and hash(x) == hash(5) and {5: "found"}[x] == "found"
    assert t9.elements()[x] is x and t9.element((2, 1)) is x
    assert t9.to_int(x) == 5 and type(t9.to_int(x)) is int
    assert x.coeffs == (2, 1) and type(x.coeffs) is tuple
    assert repr(x) == str(x) == "GFElement([2, 1])"
    assert x and not t9.zero and t9.zero == 0  # zero is falsy
    assert json.dumps(x) == "5"  # report.json_value gives [2, 1]
    assert t9.check(x) is x
    # equal as values, but a plain int is still not a field element
    with pytest.raises(NearVecError):
        t9.check(5)


def test_check_refuses_plain_ints_and_other_fields():
    # each of these equals the code of an element of GF(9)
    t9 = GaloisField(3, 2)
    for foreign in (5, GaloisField(2, 3).from_int(5), GaloisField(3, 1).from_int(2)):
        assert foreign in t9.elements()
        with pytest.raises(NearVecError):
            t9.check(foreign)


def test_gf65536_tables_stay_small():
    # one int per element, the log and Zech arrays and the antilog list
    # come to about 7.5 MB; a tuple per element or a dict of q entries would
    # pass the limit
    tracemalloc.start()
    try:
        GaloisField(2, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12_000_000


# -- unit classification ----------------------------------------------------


def test_classification_examples():
    uc = unit_classification(2, 2)
    assert uc.modulus_m == 3 and uc.units == (1, 2) and uc.count == 1
    uc = unit_classification(5, 1)
    assert uc.units == (1, 3) and uc.classes == ((1,), (3,))
    uc = unit_classification(2, 3)
    assert uc.classes == ((1, 2, 4), (3, 5, 6))


@pytest.mark.parametrize(
    "p,n", [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (13, 1), (2, 4), (5, 2), (3, 3)]
)
def test_classification_invariants(p, n):
    uc = unit_classification(p, n)
    m = uc.modulus_m
    flat = [x for c in uc.classes for x in c]
    assert sorted(flat) == list(uc.units)
    assert len(flat) == len(set(flat))
    for c in uc.classes:
        for x in c:
            assert x * (p % m) % m in c
    assert uc.count == oracle_orbit_count(p, n)
    assert sum(len(c) for c in uc.classes) == len(uc.units)


def test_classification_rejects_small_or_composite():
    with pytest.raises(NearVecError):
        unit_classification(2, 1)
    with pytest.raises(NearVecError):
        unit_classification(6, 1)


# -- same-addition exponents ------------------------------------------------


def test_same_addition_exponent_examples():
    assert not same_addition_exponents(1, 3, 5, 1)
    assert same_addition_exponents(3, 3, 5, 1)
    assert same_addition_exponents(3, 6, 2, 3)


def test_same_addition_rejects_non_units():
    with pytest.raises(NearVecError):
        same_addition_exponents(2, 1, 5, 1)


@pytest.mark.parametrize("p,n", [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (13, 1), (2, 4), (5, 2), (2, 5), (3, 3), (2, 6), (7, 2)])
def test_same_addition_is_equivalence(p, n):
    m = p**n - 1
    units = [a for a in range(1, m) if gcd(a, m) == 1]
    rel = {
        (a, b): same_addition_exponents(a, b, p, n) for a in units for b in units
    }
    for a in units:
        assert rel[(a, a)]
        for b in units:
            assert rel[(a, b)] == rel[(b, a)]
            for c in units:
                if rel[(a, b)] and rel[(b, c)]:
                    assert rel[(a, c)]


def test_is_prime():
    assert [x for x in range(2, 20) if is_prime(x)] == [2, 3, 5, 7, 11, 13, 17, 19]
    sieve = [False, False] + [True] * 999
    for f in range(2, 32):
        sieve[f * f :: f] = [False] * len(sieve[f * f :: f])
    assert [is_prime(m) for m in range(-3, 1001)] == [False] * 3 + sieve
    assert is_prime(65521) and is_prime(65537) and not is_prime(65535) and not is_prime(251**2)
