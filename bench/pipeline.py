"""Spec generation and the verification pipeline of the gf-sweep and
dickson-twist workloads.

One op takes one space descriptor (the JSON form ``nearvec space`` reads)
through ``serialize.spec_from_json`` and then through every oracle the
acceptance sweep runs.  Each check compares a library result with a
reference that does not come from the code path under test; a failed check
is recorded by name and never aborts the run.
"""

import itertools
from math import gcd

from nearvec.canonical import is_multiplicative, normal_form_rho, normal_form_sigma, verify_iso
from nearvec.mult_auto import InnerAuto, as_perm, enumerate_mult_autos
from nearvec.nearfield import Dickson9, induced_add
from nearvec.nvspace import (
    Partition,
    anchored_add,
    compatible,
    decomposition_classes,
    is_regular_bruteforce,
    materialize_quasi_kernel,
    nvs_axiom_check,
    quasi_kernel_bruteforce,
)
from nearvec.serialize import spec_from_json

SWEEP_FIELDS = ((2, 2), (5, 1), (7, 1))
# dimensions of one round of the Dickson9 draw.  Ops cluster by label
# count; with three 1-, three 2- and four 3-label spaces per round the
# median op sits inside the 2-label cluster and the tail op (10 ops above
# it) inside the 3-label one, not on the edge of a cluster
DICKSON_DIMS = (1, 1, 1, 2, 2, 2, 3, 3, 3, 3)

# The check a spec fails when the closed-form quasi-kernel disagrees with
# the brute force.  On Dickson9 this is a known defect of the closed form
# (see NOTES.md); it is counted as a failure, never filtered out.
ORACLE_MISMATCH = "oracle-mismatch"


def unit_exponents(p, n):
    """Exponents of the power automorphisms of GF(p^n), recounted here."""
    m = p**n - 1
    return [a for a in range(1, m) if gcd(a, m) == 1] if m > 1 else [1]


def orbit_blocks(labels, exponents, p, n):
    """Labels grouped by the multiplication-by-p orbit of their combined
    exponent modulo p^n - 1: a standalone recount of the same-addition
    blocks, computed from plain integers."""
    m = p**n - 1
    blocks = {}
    for label, e in zip(labels, exponents):
        x, orbit = e % m, set()
        while x not in orbit:
            orbit.add(x)
            x = x * p % m
        blocks.setdefault(min(orbit), []).append(label)
    return Partition(blocks.values())


def _fpow(alpha):
    return {"kind": "fpow", "alpha": alpha}


def sweep_specs():
    """Every 1-3-label power-twisted space over GF(4), GF(5) and GF(7):
    252 (stratum, descriptor, reference) triples.  The stratum is field
    order, dimension and block sizes, which together fix an op's cost."""
    out = []
    for p, n in SWEEP_FIELDS:
        q = p**n
        units = unit_exponents(p, n)
        for d in (1, 2, 3):
            labels = [str(k) for k in range(1, d + 1)]
            for sig in itertools.product(units, repeat=d):
                for rho in itertools.product(units, repeat=d):
                    desc = {
                        "base": {"kind": "gf", "p": p, "n": n},
                        "index": labels,
                        "sigma": {k: _fpow(a) for k, a in zip(labels, sig)},
                        "rho": {k: _fpow(a) for k, a in zip(labels, rho)},
                    }
                    blocks = orbit_blocks(labels, [a * b for a, b in zip(sig, rho)], p, n)
                    ref = {
                        "blocks": blocks,
                        "qk_size": 1 + sum(q ** len(b) - 1 for b in blocks),
                    }
                    shape = tuple(sorted(len(b) for b in blocks))
                    out.append(((q, d, shape), desc, ref))
    return out


class DicksonPool:
    """The 24 multiplicative automorphisms of Dickson9, each available as a
    permutation table, as a composition chain of an inner twist with a
    table, and (for the inner ones) as an inner twist."""

    def __init__(self):
        base = Dickson9()
        self.autos = enumerate_mult_autos(base)
        self.nonzero = base.nonzero_elements()
        self.perm = [self._perm_json(a) for a in self.autos]
        self.inner = {}
        for g in self.nonzero:
            k = self.autos.index(as_perm(InnerAuto(base, g)))
            self.inner.setdefault(k, []).append(list(g.coeffs))
        self.base = base

    @staticmethod
    def _perm_json(auto):
        return {"kind": "perm", "table": [[list(x.coeffs), list(y.coeffs)] for x, y in auto.table.items()]}

    def descriptor(self, k, form, rng):
        """Automorphism number k in the requested form."""
        if form == "inner" and k in self.inner:
            return {"kind": "inner", "gamma": rng.choice(self.inner[k])}
        if form == "comp":
            # inner(g) . table, with the table chosen so the chain equals autos[k]
            g = rng.choice(self.nonzero)
            inner_inv = InnerAuto(self.base, g).inverse()
            rest = {x: inner_inv.apply(self.autos[k].apply(x)) for x in self.base.elements()}
            return {
                "kind": "comp",
                "factors": [
                    {"kind": "inner", "gamma": list(g.coeffs)},
                    {"kind": "perm", "table": [[list(x.coeffs), list(y.coeffs)] for x, y in rest.items()]},
                ],
            }
        return self.perm[k]


def dickson_specs(pool, rng, rounds):
    """A seeded draw of 1-3-label Dickson9 spaces; each round holds one
    space per entry of DICKSON_DIMS so every draw has the same mix."""
    out = []
    for _ in range(rounds):
        for d in DICKSON_DIMS:
            labels = [str(k) for k in range(1, d + 1)]
            sigma, rho = {}, {}
            for label in labels:
                for twist in (sigma, rho):
                    k = rng.randrange(len(pool.autos))
                    twist[label] = pool.descriptor(k, rng.choice(("perm", "inner", "comp")), rng)
            desc = {"base": {"kind": "dickson9"}, "index": labels, "sigma": sigma, "rho": rho}
            out.append(((9, d), desc, None))
    return out


def stratified_sample(items, rng, share=1.0):
    """A seeded sample holding round(share * size) items of every stratum
    (at least one), in an order that spreads each stratum evenly."""
    strata = {}
    for item in items:
        strata.setdefault(item[0], []).append(item)
    keyed = []
    for members in strata.values():
        rng.shuffle(members)
        members = members[: max(1, round(share * len(members)))]
        for rank, item in enumerate(members):
            keyed.append(((rank + rng.random()) / len(members), item))
    keyed.sort(key=lambda kv: kv[0])
    return [item for _, item in keyed]


def _compatibility_classes(spec, brute):
    """Basis labels grouped by brute-force compatibility against the
    brute-force quasi-kernel, first-representative style."""
    blocks = []
    for label in spec.index:
        e = spec.basis_vector(label)
        for block in blocks:
            if compatible(spec, e, spec.basis_vector(block[0]), qk=brute):
                block.append(label)
                break
        else:
            blocks.append([label])
    return Partition(blocks)


def _certificates_hold(spec, certs):
    """Recheck found certificates through the anchored addition: all of
    them on small specs, a deterministic sample of five on the larger."""
    base = spec.base
    els = base.elements()
    items = sorted(certs.items(), key=lambda kv: repr(kv[0]))
    chosen = items if spec.dim <= 2 and len(items) <= 60 else items[:: max(1, len(items) // 5)]
    return all(
        anchored_add(spec, u, a, b) == induced_add(base, sigma, a, b)
        for u, sigma in chosen
        for a in els
        for b in els
    )


def verify(desc, ref):
    """Run one spec through the pipeline; return the names of the failed
    checks (empty when every result matched its reference)."""
    failed = []
    spec = spec_from_json(desc)
    brute = quasi_kernel_bruteforce(spec)
    if materialize_quasi_kernel(spec) != brute:
        failed.append(ORACLE_MISMATCH)
    if ref is not None and len(brute) != ref["qk_size"]:
        failed.append("qk-size")

    blocks = decomposition_classes(spec)
    if blocks != _compatibility_classes(spec, brute) or (ref is not None and blocks != ref["blocks"]):
        failed.append("decomposition")
    regular = all(is_regular_bruteforce(spec.restrict(b)) for b in blocks)
    if not regular or (len(blocks) > 1 and is_regular_bruteforce(spec)):
        failed.append("regularity")

    for maker in (normal_form_sigma, normal_form_rho):
        _, iso = maker(spec)
        report = verify_iso(iso)
        if not report.passed or not report.details["mode"].startswith("exhaustive"):
            failed.append("iso")
            break

    ok, certs = is_multiplicative(spec)
    if not ok or len(certs) != len(brute) - 1 or not _certificates_hold(spec, certs):
        failed.append("certificates")

    if not nvs_axiom_check(spec).passed:
        failed.append("axioms")
    return failed
