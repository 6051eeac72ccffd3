"""Command line front end.

Subcommands:

* ``classify P N``        induced-addition classes of GF(p^n) exponents
* ``autos BASE``          every automorphism of a finite base, with the
                          partition into same-addition classes
* ``space FILE ACTION``   quasi-kernel, decomposition, axiom, certificate,
                          and oracle-comparison reports for a space file
* ``complexify FILE``     extend a real exponent file to the complexes and
                          run the extension checks
* ``check-base BASE``     scalar-group axioms and basic structure of a base

Output is a single JSON document on stdout (or TSV for tables with
``--format tsv``); diagnostics go to stderr and nothing is printed on
failure before validation completes.  Exit code 0 means every check in the
requested report passed, 1 means some check failed, 2 means bad input.
"""

import argparse
import json
import sys

from .canonical import is_multiplicative, product_hypotheses
from .complexify import (
    ComplexificationSpec,
    complexify,
    conj_pair_check,
    minimal_poly_residual,
    restriction_agrees,
)
from .errors import NearVecError
from .galois import is_prime, unit_classification
from .mult_auto import enumerate_mult_autos, mult_properties_check, same_addition
from .nearfield import distributive_elements, scalar_group_axiom_check
from .nvspace import (
    decomposition_classes,
    first_representative_classes,
    materialize_quasi_kernel,
    nvs_axiom_check,
    quasi_kernel_bruteforce,
    quasi_kernel_closed,
    regular_decomposition,
    same_addition_classes,
)
from .report import Report
from .serialize import base_from_json, spec_from_json, vector_to_json

MATERIALIZE_PRINT_CAP = 512


def _emit(obj, fmt):
    if fmt == "json":
        sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    else:
        raise NearVecError("this subcommand only supports --format json")


def _load_json_arg(text):
    """Accept inline JSON or a path to a JSON file."""
    text = text.strip()
    if text.startswith("{"):
        return json.loads(text)
    with open(text, "r", encoding="utf-8") as fh:
        return json.load(fh)


def cmd_classify(args):
    if not is_prime(args.p):
        raise NearVecError(f"{args.p} is not prime")
    uc = unit_classification(args.p, args.n)
    if args.format == "tsv":
        lines = ["representative\tsize\tmembers"]
        for c in uc.classes:
            lines.append(f"{c[0]}\t{len(c)}\t{','.join(str(x) for x in c)}")
        lines.append(f"# classes\t{uc.count}\t")
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        _emit(uc.to_json(), "json")
    return 0


def cmd_autos(args):
    base = base_from_json(_load_json_arg(args.base), tolerance=args.tol)
    autos = enumerate_mult_autos(base)
    classes = first_representative_classes(
        autos, lambda f, g: same_addition(f, g, base)
    )
    properties_ok = all(mult_properties_check(a).passed for a in autos)
    out = {
        "base": base.describe(),
        "count": len(autos),
        "automorphisms": [a.describe() for a in autos],
        "same_addition_classes": [[a.describe() for a in c] for c in classes],
        "induced_additions": len(classes),
        "properties_pass": properties_ok,
    }
    _emit(out, args.format)
    return 0 if properties_ok else 1


def cmd_space(args):
    spec = spec_from_json(_load_json_arg(args.spec), tolerance=args.tol)
    base = spec.base
    action = args.action
    if action == "qk":
        desc = quasi_kernel_closed(spec)
        out = {"spec": spec.describe(), "quasi_kernel": desc.to_json(base)}
        if base.is_finite:
            members = sorted(
                materialize_quasi_kernel(spec, desc, bound=args.bound),
                key=lambda v: v.support + tuple(str(x) for _, x in v),
            )
            out["count"] = len(members)
            if len(members) <= MATERIALIZE_PRINT_CAP:
                out["elements"] = [vector_to_json(base, v) for v in members]
        _emit(out, args.format)
        return 0
    if action == "decompose":
        blocks = regular_decomposition(spec)
        out = {
            "spec": spec.describe(),
            "same_addition_classes": same_addition_classes(spec).to_json(),
            "decomposition_classes": decomposition_classes(spec).to_json(),
            "blocks": [sub.describe() for sub, _ in blocks],
        }
        _emit(out, args.format)
        return 0
    if action == "axioms":
        report = nvs_axiom_check(spec, bound=args.bound)
        _emit({"spec": spec.describe(), "report": report.to_json()}, args.format)
        return 0 if report.passed else 1
    if action == "multiplicative":
        ok, certs = is_multiplicative(spec, bound=args.bound)
        out = {
            "spec": spec.describe(),
            "multiplicative": ok,
            "certificates": [
                {
                    "vector": vector_to_json(base, v),
                    "automorphism": None if a is None else a.describe(),
                }
                for v, a in sorted(certs.items(), key=lambda kv: kv[0].support)
            ]
            if len(certs) <= MATERIALIZE_PRINT_CAP
            else [],
            "certified": sum(1 for a in certs.values() if a is not None),
        }
        _emit(out, args.format)
        return 0 if ok else 1
    if action == "oracle-compare":
        brute = quasi_kernel_bruteforce(spec, bound=args.bound)
        closed = materialize_quasi_kernel(spec, bound=args.bound)
        identical = brute == closed
        out = {
            "spec": spec.describe(),
            "identical": identical,
            "count": len(brute),
        }
        if not identical:
            out["only_bruteforce"] = [
                vector_to_json(base, v) for v in sorted(brute - closed, key=repr)
            ]
            out["only_closed_form"] = [
                vector_to_json(base, v) for v in sorted(closed - brute, key=repr)
            ]
        _emit(out, args.format)
        return 0 if identical else 1
    raise NearVecError(f"unknown space action {action!r}")


def cmd_complexify(args):
    obj = _load_json_arg(args.cspec)
    cspec = ComplexificationSpec(obj["T"], obj.get("S"), args.conj or obj.get("conj", False))
    spec = complexify(cspec)
    checks = []
    for alpha in sorted(set(cspec.T) | set(cspec.S)):
        checks.append(restriction_agrees(alpha, seed=args.seed).to_json())
        residual = minimal_poly_residual(alpha, cspec.conj)
        checks.append(
            {
                "check": "minimal_poly_residual",
                "alpha": alpha,
                "residual": residual,
                "passed": residual <= (args.tol or 1e-9),
            }
        )
        checks.append(conj_pair_check(alpha, seed=args.seed).to_json())
    ok = all(c["passed"] for c in checks)
    out = {
        "complexification": cspec.to_json(),
        "spec": spec.describe(),
        "checks": checks,
    }
    _emit(out, args.format)
    return 0 if ok else 1


def _sampled_scalar_laws(base):
    """Grid-sampled monoid and group laws for the non-enumerable bases."""
    points = list(base.sample_points())[:10]
    violations = []
    for x in points:
        if not base.eq(base.mul(base.one, x), x):
            violations.append({"axiom": "identity"})
        if not base.is_zero(base.mul(base.zero, x)):
            violations.append({"axiom": "zero-absorption"})
        if not base.eq(base.mul(x, base.inv(x)), base.one):
            violations.append({"axiom": "inverse"})
        for y in points:
            for z in points:
                lhs = base.mul(base.mul(x, y), z)
                if not base.eq(lhs, base.mul(x, base.mul(y, z))):
                    violations.append({"axiom": "associativity"})
    return Report(
        name="scalar_group_axioms_sampled",
        passed=not violations,
        details={"points": len(points)},
        violations=violations[:10],
    )


def cmd_check_base(args):
    base = base_from_json(_load_json_arg(args.base), tolerance=args.tol)
    out = {"base": base.describe()}
    if base.is_finite:
        gate = scalar_group_axiom_check(base)
        out["distributive_size"] = len(distributive_elements(base))
    else:
        gate = _sampled_scalar_laws(base)
    out["reports"] = [gate.to_json()]
    # whether infinite products stay in the family is structure, not a gate
    out["product_hypotheses"] = product_hypotheses(base).to_json()
    _emit(out, args.format)
    return 0 if gate.passed else 1


def build_parser():
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=("json", "tsv"), default="json")
    shared.add_argument("--tol", type=float, default=None, help="numeric tolerance")
    shared.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    shared.add_argument(
        "--bound", type=int, default=10**6, help="size cap for exhaustive sweeps"
    )

    parser = argparse.ArgumentParser(
        prog="nearvec",
        description="Construct, classify, and verify multiplicatively twisted "
        "near-linear spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser(
        "classify", parents=[shared], help="induced-addition classes of GF(p^n)"
    )
    c.add_argument("p", type=int)
    c.add_argument("n", type=int)
    c.set_defaults(func=cmd_classify)

    a = sub.add_parser(
        "autos", parents=[shared], help="enumerate automorphisms of a finite base"
    )
    a.add_argument("base", help="base descriptor: inline JSON or a file path")
    a.set_defaults(func=cmd_autos)

    s = sub.add_parser("space", parents=[shared], help="analyze a space file")
    s.add_argument("spec", help="space file: inline JSON or a file path")
    s.add_argument(
        "action",
        choices=("qk", "decompose", "axioms", "multiplicative", "oracle-compare"),
    )
    s.set_defaults(func=cmd_space)

    x = sub.add_parser(
        "complexify", parents=[shared], help="extend a real exponent file to C"
    )
    x.add_argument("cspec", help='{"T": [...], "S": [...]}: inline JSON or a path')
    x.add_argument("--conj", action="store_true", help="conjugating extension")
    x.set_defaults(func=cmd_complexify)

    b = sub.add_parser(
        "check-base", parents=[shared], help="axioms and structure of a base"
    )
    b.add_argument("base", help="base descriptor: inline JSON or a file path")
    b.set_defaults(func=cmd_check_base)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NearVecError, OSError, json.JSONDecodeError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
