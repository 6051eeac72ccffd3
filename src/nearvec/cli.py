"""Command line front end.

Subcommands:

* ``classify P N``        induced-addition classes of GF(p^n) exponents
* ``autos BASE``          every automorphism of a finite base, with the
                          partition into same-addition classes; refused
                          when |autos| * q^2 checked pairs exceed --bound
* ``space FILE ACTION``   quasi-kernel, decomposition, axiom, certificate,
                          and oracle-comparison reports for a space file
* ``complexify FILE``     extend a real exponent file to the complexes and
                          run the extension checks
* ``check-base BASE``     scalar-group axioms and basic structure of a base:
                          two sweeps over the element triples of a finite
                          base, refused when 2 * q^3 exceeds --bound, or the
                          first ten grid points of the reals and complexes

``--bound`` goes to autos, space and check-base, a positive finite ``--tol``
to space, complexify and check-base, ``--seed`` to complexify alone.

Output is a single JSON document on stdout (``classify --format tsv``
prints a TSV table instead); diagnostics go to stderr and nothing is
printed on failure before validation completes.  Exit code 0 means every
check in the requested report passed, 1 means some check failed, 2 means
bad input.
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
from .errors import NearVecError, charge
from .galois import unit_classification
from .mult_auto import enumerate_mult_autos, mult_properties_check, same_addition
from .nearfield import (
    DEFAULT_BRUTE_BOUND,
    DEFAULT_TOLERANCE,
    distributive_elements,
    scalar_group_axiom_check,
)
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
from .serialize import base_from_json, complexification_from_json, spec_from_json, vector_to_json

MATERIALIZE_PRINT_CAP = 512


def _emit(obj):
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _load_json_arg(text):
    """Accept inline JSON or a path to a JSON file.  An integer literal past
    the interpreter's digit limit is refused as bad input."""
    text = text.strip()
    try:
        if text.startswith("{"):
            return json.loads(text)
        with open(text, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError):
        raise
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise NearVecError(f"integer literal of more than {limit} digits") from None


def cmd_classify(args):
    uc = unit_classification(args.p, args.n)
    if args.format == "tsv":
        lines = ["representative\tsize\tmembers"]
        for c in uc.classes:
            lines.append(f"{c[0]}\t{len(c)}\t{','.join(str(x) for x in c)}")
        lines.append(f"# classes\t{uc.count}\t")
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        _emit(uc.to_json())
    return 0


def cmd_autos(args):
    base = base_from_json(_load_json_arg(args.base))
    autos = enumerate_mult_autos(base)
    # the property checks below sweep every element pair once per automorphism
    q = base.order()
    charge(len(autos) * q**2, args.bound, f"{len(autos)} automorphisms x {q}^2 pairs")
    classes = first_representative_classes(autos, same_addition)
    properties_ok = all(mult_properties_check(a).passed for a in autos)
    out = {
        "base": base.describe(),
        "count": len(autos),
        "automorphisms": [a.describe() for a in autos],
        "same_addition_classes": [[a.describe() for a in c] for c in classes],
        "induced_additions": len(classes),
        "properties_pass": properties_ok,
    }
    _emit(out)
    return 0 if properties_ok else 1


def cmd_space(args):
    spec = spec_from_json(_load_json_arg(args.spec), tolerance=args.tol, bound=args.bound)
    base = spec.base
    action = args.action
    if action == "qk":
        desc = quasi_kernel_closed(spec)
        out = {"spec": spec.describe(), "quasi_kernel": desc.to_json()}
        if base.is_finite:
            members = sorted(
                materialize_quasi_kernel(spec, desc, bound=args.bound),
                key=lambda v: v.support + tuple(str(x) for _, x in v),
            )
            out["count"] = len(members)
            if len(members) <= MATERIALIZE_PRINT_CAP:
                out["elements"] = [vector_to_json(v) for v in members]
        _emit(out)
        return 0
    if action == "decompose":
        out = {
            "spec": spec.describe(),
            "same_addition_classes": same_addition_classes(spec).to_json(),
            "decomposition_classes": decomposition_classes(spec).to_json(),
            "blocks": [sub.describe() for sub in regular_decomposition(spec)],
        }
        _emit(out)
        return 0
    if action == "axioms":
        report = nvs_axiom_check(spec, bound=args.bound)
        _emit({"spec": spec.describe(), "report": report.to_json()})
        return 0 if report.passed else 1
    if action == "multiplicative":
        ok, certs = is_multiplicative(spec, bound=args.bound)
        out = {
            "spec": spec.describe(),
            "multiplicative": ok,
            "certificates": [
                {
                    "vector": vector_to_json(v),
                    "automorphism": None if a is None else a.describe(),
                }
                for v, a in sorted(certs.items(), key=lambda kv: kv[0].support)
            ]
            if len(certs) <= MATERIALIZE_PRINT_CAP
            else [],
            "certified": sum(1 for a in certs.values() if a is not None),
        }
        _emit(out)
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
                vector_to_json(v) for v in sorted(brute - closed, key=repr)
            ]
            out["only_closed_form"] = [
                vector_to_json(v) for v in sorted(closed - brute, key=repr)
            ]
        _emit(out)
        return 0 if identical else 1
    raise NearVecError(f"unknown space action {action!r}")


def cmd_complexify(args):
    cspec = complexification_from_json(_load_json_arg(args.cspec))
    if args.conj:
        cspec = ComplexificationSpec(cspec.T, cspec.S, True)
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
                "passed": residual <= (args.tol or DEFAULT_TOLERANCE),
            }
        )
        checks.append(conj_pair_check(alpha).to_json())
    ok = all(c["passed"] for c in checks)
    out = {
        "complexification": cspec.to_json(),
        "spec": spec.describe(),
        "checks": checks,
    }
    _emit(out)
    return 0 if ok else 1


def cmd_check_base(args):
    base = base_from_json(_load_json_arg(args.base), tolerance=args.tol, bound=args.bound)
    gate = scalar_group_axiom_check(base, bound=args.bound)
    out = {"base": base.describe(), "reports": [gate.to_json()]}
    if base.is_finite:
        out["distributive_size"] = len(distributive_elements(base, bound=args.bound))
    # whether infinite products stay in the family is structure, not a gate
    out["product_hypotheses"] = product_hypotheses(base).to_json()
    _emit(out)
    return 0 if gate.passed else 1


def build_parser():
    def tolerance(text):  # argparse reports a ValueError as an invalid --tol
        if not 0 < float(text) < float("inf"):  # nan fails this too
            raise ValueError(text)
        return float(text)

    # each flag goes only to the subcommands that read it
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=tolerance, default=None, help="positive finite tolerance")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    bound = argparse.ArgumentParser(add_help=False)
    bound.add_argument(
        "--bound", type=int, default=DEFAULT_BRUTE_BOUND, help="size cap for exhaustive sweeps"
    )

    parser = argparse.ArgumentParser(
        prog="nearvec",
        description="Construct, classify, and verify multiplicatively twisted "
        "near-linear spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="induced-addition classes of GF(p^n)")
    c.add_argument("p", type=int)
    c.add_argument("n", type=int)
    c.add_argument("--format", choices=("json", "tsv"), default="json")
    c.set_defaults(func=cmd_classify)

    a = sub.add_parser("autos", parents=[bound], help="enumerate automorphisms of a finite base")
    a.add_argument("base", help="base descriptor: inline JSON or a file path")
    a.set_defaults(func=cmd_autos)

    s = sub.add_parser("space", parents=[tol, bound], help="analyze a space file")
    s.add_argument("spec", help="space file: inline JSON or a file path")
    s.add_argument(
        "action",
        choices=("qk", "decompose", "axioms", "multiplicative", "oracle-compare"),
    )
    s.set_defaults(func=cmd_space)

    x = sub.add_parser("complexify", parents=[tol, seed], help="extend a real exponent file to C")
    x.add_argument("cspec", help='{"T": [...], "S": [...]}: inline JSON or a path')
    x.add_argument("--conj", action="store_true", help="conjugating extension")
    x.set_defaults(func=cmd_complexify)

    b = sub.add_parser("check-base", parents=[tol, bound], help="axioms and structure of a base")
    b.add_argument("base", help="base descriptor: inline JSON or a file path")
    b.set_defaults(func=cmd_check_base)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NearVecError, OSError, json.JSONDecodeError, UnicodeDecodeError, OverflowError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
