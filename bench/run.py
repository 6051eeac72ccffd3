"""nearvec benchmark: one workload per run, closed loop, one op at a time.

    python3 bench/run.py --workload gf-sweep --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports ``nearvec`` from ``src/`` of
the same tree.  Workloads (see NOTES.md for why each exists):

* ``gf-sweep``: a seeded stratified third of the 252 1-3-label
  power-twisted spaces over GF(4), GF(5) and GF(7), each through the full
  verification pipeline.
* ``dickson-twist``: the same pipeline on a fixed draw of Dickson9 spaces
  twisted by its 24 automorphisms, in seeded order.
* ``cli-calls``: a fixed list of ``nearvec`` subprocess calls checked
  against recorded goldens.

With ``--trace 0`` the run executes every op a fixed number of times, as
many as take about ``--seconds`` on the reference machine, and the last
stdout line is a JSON object with the end-to-end metrics; with
``--trace 1`` it takes one round, running each op untraced
and then traced, and reports the per-layer metrics and the tracing
overhead.  Every op's result is checked; a failed check is counted, never
fatal.  Each run also writes a record to ``bench/out/``.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

WORKLOADS = ("gf-sweep", "dickson-twist", "cli-calls")
SETUP_REPEATS = 9
TAIL_SAMPLES_ABOVE = 10
# A run of REFERENCE_SECONDS executes every op of gf-sweep and
# dickson-twist SPEC_SAMPLES times and every cli call cli_calls.samples()
# times, which takes about that long on the reference machine (see
# NOTES.md).  Another --seconds scales the counts, never the clock, so that
# every run with the same arguments attempts the same ops.  Each op
# reports its best execution: on a shared virtual machine other tenants'
# load comes in bursts, which a best-of latency drops.
REFERENCE_SECONDS = 30
SPEC_SAMPLES = {"gf-sweep": 4, "dickson-twist": 3}
# gf-sweep measures a seeded stratified third of the 252 sweep spaces
SWEEP_SHARE = 1 / 3
# Dickson9 draw: rounds of pipeline.DICKSON_DIMS spaces, 40 spaces in all,
# drawn once with this seed; the workload seed sets their order, so that
# every run holds the same spaces and the same oracle-mismatch count
DICKSON_ROUNDS = 4
DICKSON_DRAW_SEED = 0


def _import_nearvec():
    if not os.path.isfile(os.path.join(SRC, "nearvec", "__init__.py")):
        raise SystemExit(f"error: no nearvec sources under {SRC}; run from a full checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import nearvec  # noqa: F401


def prepare(workload, seed):
    """Import the program and build the seeded op list: this is set-up."""
    rng = random.Random(seed)
    if workload == "cli-calls":
        import cli_calls

        cli_calls.write_spec_files()
        goldens = cli_calls.load_goldens()
        return [(name, argv, goldens[name]) for name, argv in cli_calls.calls()]
    _import_nearvec()
    import pipeline

    if workload == "gf-sweep":
        return pipeline.stratified_sample(pipeline.sweep_specs(), rng, SWEEP_SHARE)
    draw = pipeline.dickson_specs(pipeline.DicksonPool(), random.Random(DICKSON_DRAW_SEED), DICKSON_ROUNDS)
    return pipeline.stratified_sample(draw, rng)


def setup_probe(workload, seed):
    """Seconds of one set-up: in a fresh interpreter, or in-process for
    cli-calls, whose set-up imports nothing of the program."""
    if workload == "cli-calls":
        t0 = time.perf_counter()
        prepare(workload, seed)
        return time.perf_counter() - t0
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload, "--seed", str(seed)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        check=True,
        timeout=60,
    )
    return float(proc.stdout.decode().split()[-1])


# -- one op --


def run_spec_op(item):
    import pipeline

    _, desc, ref = item
    try:
        return pipeline.verify(desc, ref)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        traceback.print_exc()
        return [f"raised-{type(exc).__name__}"]


def cli_failures(stdout, code, golden):
    import cli_calls

    got = cli_calls.digest(stdout, code)
    failed = []
    if got["exit"] != golden["exit"]:
        failed.append("exit-code")
    if got["sha256"] != golden["sha256"]:
        failed.append("stdout-bytes")
    return failed


def run_cli_subprocess(call):
    import cli_calls

    _, argv, golden = call
    try:
        stdout, code = cli_calls.run_subprocess(argv)
    except subprocess.TimeoutExpired:
        return ["timeout"]
    return cli_failures(stdout, code, golden)


def run_cli_inprocess(call):
    from nearvec import cli

    _, argv, golden = call
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return cli_failures(out.getvalue().encode("utf-8"), code, golden)


# -- loops --


class Tally:
    """Every executed op: its latency, and the checks it failed."""

    def __init__(self):
        self.latencies = []
        self.labels = []
        self.failures = {}
        self.failed_ops = 0

    def timed(self, fn, item):
        t0 = time.perf_counter()
        failed = fn(item)
        seconds = time.perf_counter() - t0
        self.latencies.append(seconds)
        self.labels.append(str(item[0]))
        if failed:
            self.failed_ops += 1
            for kind in failed:
                self.failures[kind] = self.failures.get(kind, 0) + 1
        return seconds


def tail(samples):
    """(value, percentile): the highest percentile with at least
    TAIL_SAMPLES_ABOVE samples above it; the maximum for tiny runs."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - TAIL_SAMPLES_ABOVE
    if rank < 1:
        return ordered[-1], 100.0
    return ordered[rank - 1], 100.0 * rank / n


def schedule(workload, seed, seconds, ops):
    """Op indices in execution order.  The executions of an op are spread
    evenly over the run, at a seeded offset per op, so that one slow
    stretch of the host reaches few of them."""
    import cli_calls

    scale = seconds / REFERENCE_SECONDS
    if workload == "cli-calls":
        counts = [max(1, round(cli_calls.samples(item[0]) * scale)) for item in ops]
    else:
        counts = [max(1, round(SPEC_SAMPLES[workload] * scale))] * len(ops)
    rng = random.Random(seed + 1)
    keyed = []
    for i, n in enumerate(counts):
        offset = rng.random()
        keyed += [((k + offset) / n, i) for k in range(n)]
    return [i for _, i in sorted(keyed)]


def end_to_end(workload, seed, seconds, ops):
    """Every op as often as ``schedule`` says.  The SETUP_REPEATS set-up
    probes are spread evenly over the executions, so that a burst of load
    from other tenants reaches few of them."""
    fn = run_cli_subprocess if workload == "cli-calls" else run_spec_op
    tally = Tally()
    per_op = [[] for _ in ops]
    setup = []
    busy = 0.0
    order = schedule(workload, seed, seconds, ops)
    for done, i in enumerate(order):
        if len(setup) < SETUP_REPEATS and done * SETUP_REPEATS >= len(setup) * len(order):
            setup.append(setup_probe(workload, seed))
        per_op[i].append(tally.timed(fn, ops[i]))
        busy += per_op[i][-1]
    samples = [min(runs) for runs in per_op]
    who = resource.RUSAGE_CHILDREN if workload == "cli-calls" else resource.RUSAGE_SELF
    tail_s, tail_pct = tail(samples)
    metrics = {
        "ops_per_s": {"value": len(samples) / sum(samples), "unit": "1/s"},
        "op_p50_ms": {"value": 1000 * statistics.median(samples), "unit": "ms"},
        "op_tail_ms": {"value": 1000 * tail_s, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(who).ru_maxrss / 1024, "unit": "MB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }
    notes = {
        "executions": len(order),
        "tail_samples": len(samples),
        "tail_percentile": tail_pct,
        "busy_ops_per_s": len(tally.latencies) / busy,
    }
    return tally, metrics, notes


def cli_import_seconds():
    """Median seconds to import ``nearvec.cli`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import nearvec.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code], cwd=ROOT, env=env, stdout=subprocess.PIPE, check=True, timeout=60
        )
        samples.append(float(proc.stdout.decode()))
    return statistics.median(samples)


def traced(workload, seed, ops):
    """One round over the op set in which each op runs untraced and then
    traced; returns the per-layer metrics and the tracing overhead."""
    import pipeline
    import tracing

    fn = run_cli_inprocess if workload == "cli-calls" else run_spec_op
    series = [i for i, item in enumerate(ops) if str(item[0]).startswith("qk-series-")]
    tally = Tally()
    tracer = tracing.Tracer()
    untraced_s = traced_s = 0.0
    for item in ops:
        # the two runs of an op are adjacent, so drift over the run stays
        # out of the overhead
        untraced_s += tally.timed(fn, item)
        tracer.install(extra_modules=[pipeline])
        try:
            tracer.begin_op(str(item[0]))
            traced_s += tally.timed(fn, item)
        finally:
            tracer.uninstall()
    import_s = cli_import_seconds() if workload == "cli-calls" else 0.0
    metrics = tracer.metrics(len(ops), traced_s / untraced_s - 1, import_s, series, workload == "gf-sweep")
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"spans-{workload}-s{seed}.jsonl.gz"))
    notes = {"traced_ops": len(ops), "untraced_s": untraced_s, "traced_s": traced_s}
    return tally, metrics, notes


def environment():
    lines = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    lines += fh.read().count(b"\n")
    rev = ""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10
        ).stdout.decode().strip()
    return {
        "git_revision": rev or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": lines,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        t0 = time.perf_counter()
        prepare(args.workload, args.seed)
        print(time.perf_counter() - t0)
        return 0

    _import_nearvec()
    ops = prepare(args.workload, args.seed)
    if args.trace:
        tally, metrics, notes = traced(args.workload, args.seed, ops)
    else:
        tally, metrics, notes = end_to_end(args.workload, args.seed, args.seconds, ops)

    known = {"dickson-twist": {"oracle-mismatch"}}.get(args.workload, set())
    attempted = len(tally.latencies)
    result = {
        # failures outside the documented Dickson9 defect make a run incorrect;
        # the defect's ops are still counted in "failed"
        "correct": set(tally.failures) <= known,
        "attempted": attempted,
        "failed": tally.failed_ops,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "failed_ratio": tally.failed_ops / attempted,
        "failures_by_check": tally.failures,
        "latencies": [[label, s] for label, s in zip(tally.labels, tally.latencies)],
        **notes,
        "environment": environment(),
        "result": result,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-s{args.seed}-t{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(
        f"# {args.workload} seed {args.seed}: failed_ratio {record['failed_ratio']:.4f} "
        f"({tally.failed_ops}/{attempted}), failures by check {tally.failures}, "
        + ", ".join(f"{k} {v}" for k, v in notes.items())
    )
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
