"""The cli-calls workload: a fixed list of ``nearvec`` invocations whose
stdout bytes and exit codes must match goldens recorded from the program
(``goldens.json``).  The goldens record the behaviour of the commit they
were taken at, not mathematical truth.

Record them again with ``python3 bench/cli_calls.py --record`` from the
repository root; only do so in a change that means to alter CLI output.
"""

import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
GOLDENS = os.path.join(BENCH_DIR, "goldens.json")
SPEC_DIR = os.path.join(BENCH_DIR, "out", "cli-specs")

# one-label GF(2^n) spaces of the scaling series; 11 is a unit mod every
# 2^n - 1 with n = 6..9
QK_SERIES = (6, 7, 8, 9)
SERIES_ALPHA = 11
# bases of the mid-weight calls (0.13-0.31 s each on the reference machine)
MID_BASES = ((23, 1), (5, 2), (3, 3), (29, 1))
MID_AUTOS = ((2, 5), (7, 2))


def _space(base, sigma, rho):
    labels = [str(k) for k in range(1, len(sigma) + 1)]
    kind = "rpow" if base["kind"] == "real" else "fpow"
    return {
        "base": base,
        "index": labels,
        "sigma": {k: {"kind": kind, "alpha": a} for k, a in zip(labels, sigma)},
        "rho": {k: {"kind": kind, "alpha": a} for k, a in zip(labels, rho)},
    }


def _gf(p, n):
    return {"kind": "gf", "p": p, "n": n}


# name -> space file contents
SPEC_FILES = {
    "gf4": _space(_gf(2, 2), [1, 2], [2, 1]),
    "gf5": _space(_gf(5, 1), [1, 3], [1, 1]),
    "gf65536": _space(_gf(2, 16), [1, 2, 7], [1, 1, 1]),
    "gf27": _space(_gf(3, 3), [1, 5], [1, 1]),
    "gf64": _space(_gf(2, 6), [5], [1]),
    "real": _space({"kind": "real"}, [1, 3], [1, 1]),
    "gf16x2": _space(_gf(2, 4), [1, 7], [1, 1]),
    "gf25": _space(_gf(5, 2), [7], [1]),
    "gf32": _space(_gf(2, 5), [3], [1]),
    "gf49": _space(_gf(7, 2), [5], [1]),
    **{f"series{2**n}": _space(_gf(2, n), [SERIES_ALPHA], [1]) for n in QK_SERIES},
}


# executions per call in a 30 s run.  The four table-bound calls (seconds
# each) and the five of about half a second run twice; the rest three
# times.  A call reports its fastest execution.
SAMPLES = {
    "decompose-gf65536": 2,
    "qk-gf65536-bound": 2,
    "qk-series-gf512": 2,
    "multiplicative-gf64": 2,
    "multiplicative-gf27": 2,
    "check-base-gf32": 2,
    "oracle-compare-gf64": 2,
    "qk-series-gf256": 2,
    "axioms-gf64": 2,
}
DEFAULT_SAMPLES = 3


def samples(name):
    return SAMPLES.get(name, DEFAULT_SAMPLES)


def calls():
    """(name, argv) for every call, in list order.  Spec arguments are
    file paths under ``SPEC_DIR``; the paths never reach stdout."""

    def spec(name):
        return os.path.join(SPEC_DIR, name + ".json")

    out = [
        ("classify-2-16", ["classify", "2", "16"]),
        ("classify-13-1-tsv", ["classify", "13", "1", "--format", "tsv"]),
        ("autos-dickson9", ["autos", '{"kind": "dickson9"}']),
        ("check-base-gf32", ["check-base", json.dumps(_gf(2, 5))]),
        ("check-base-real", ["check-base", '{"kind": "real"}']),
        ("check-base-dickson9", ["check-base", '{"kind": "dickson9"}']),
        ("decompose-gf65536", ["space", spec("gf65536"), "decompose"]),
        ("qk-gf65536-bound", ["space", spec("gf65536"), "qk"]),
    ]
    out += [(f"qk-series-gf{2**n}", ["space", spec(f"series{2**n}"), "qk"]) for n in QK_SERIES]
    out += [
        ("oracle-compare-gf27", ["space", spec("gf27"), "oracle-compare"]),
        ("multiplicative-gf27", ["space", spec("gf27"), "multiplicative"]),
        ("axioms-gf27", ["space", spec("gf27"), "axioms"]),
        ("oracle-compare-gf64", ["space", spec("gf64"), "oracle-compare"]),
        ("multiplicative-gf64", ["space", spec("gf64"), "multiplicative"]),
        ("axioms-gf64", ["space", spec("gf64"), "axioms"]),
        ("complexify", ["complexify", '{"T": [1, 3], "S": [1, 1]}']),
        ("qk-real", ["space", spec("real"), "qk"]),
    ]
    # mid-weight calls: with the seven of 0.1-0.3 s above they make a dense
    # band of similar costs, so the median call and the tail call (10 calls
    # above it) both sit inside it instead of on the edge between the small
    # calls, dominated by interpreter start, and the table-bound ones
    out += [(f"check-base-gf{p**n}", ["check-base", json.dumps(_gf(p, n))]) for p, n in MID_BASES]
    out += [(f"autos-gf{p**n}", ["autos", json.dumps(_gf(p, n))]) for p, n in MID_AUTOS]
    out += [
        ("multiplicative-gf16x2", ["space", spec("gf16x2"), "multiplicative"]),
        ("multiplicative-gf25", ["space", spec("gf25"), "multiplicative"]),
        ("axioms-gf32", ["space", spec("gf32"), "axioms"]),
        ("oracle-compare-gf32", ["space", spec("gf32"), "oracle-compare"]),
        ("multiplicative-gf32", ["space", spec("gf32"), "multiplicative"]),
        ("axioms-gf49", ["space", spec("gf49"), "axioms"]),
        ("oracle-compare-gf49", ["space", spec("gf49"), "oracle-compare"]),
    ]
    return out


def write_spec_files():
    os.makedirs(SPEC_DIR, exist_ok=True)
    for name, obj in SPEC_FILES.items():
        with open(os.path.join(SPEC_DIR, name + ".json"), "w", encoding="utf-8") as fh:
            json.dump(obj, fh, sort_keys=True)


def load_goldens():
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


def digest(stdout: bytes, code: int):
    return {"exit": code, "bytes": len(stdout), "sha256": hashlib.sha256(stdout).hexdigest()}


def run_subprocess(argv):
    """One ``nearvec`` call in a fresh interpreter; returns (stdout, exit).
    ``-S`` keeps the host's site-packages start-up hooks out of every call:
    nearvec needs only the standard library."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "nearvec.cli", *argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        timeout=120,
        check=False,
    )
    return proc.stdout, proc.returncode


def record():
    write_spec_files()
    goldens = {}
    for name, argv in calls():
        stdout, code = run_subprocess(argv)
        goldens[name] = digest(stdout, code)
        print(name, goldens[name]["exit"], goldens[name]["bytes"], file=sys.stderr)
    with open(GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 bench/cli_calls.py --record")
    record()
