"""Self-test of the benchmark: every workload, traced and untraced.

    python3 bench/selftest.py

Asserts that BENCHMARK.json and the runner agree on metric names and
units, that each layer metric is nonzero on the workloads predicted to
exercise it and zero where predicted in ``tracing.LAYER_METRICS``, and
that the failure accounting holds: no failed op on gf-sweep and cli-calls,
and on dickson-twist only the documented oracle-mismatch failures.  Takes
about two minutes.
"""

import json
import os
import subprocess
import sys

import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SEED = 7


def run(workload, trace, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=180,
    )
    lines = proc.stdout.decode().splitlines()
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert declared == {n: u for n, u, _, _ in tracing.LAYER_METRICS}, "per_layer differs from LAYER_METRICS"
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}

    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, expected in ((0, end_to_end), (1, declared)):
            result = run(workload, trace, seconds=5)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected:
                problems.append(f"{workload} trace {trace}: metrics {sorted(set(got) ^ set(expected))}")
            if not result["correct"]:
                problems.append(f"{workload} trace {trace}: incorrect result")
            failed = result["failed"]
            if workload == "dickson-twist":
                if failed == 0:
                    problems.append("dickson-twist: the known oracle mismatch did not show")
            elif failed:
                problems.append(f"{workload} trace {trace}: {failed} failed ops")
            if trace == 0:
                continue
            for name, _, nonzero, zero in tracing.LAYER_METRICS:
                value = result["metrics"][name]["value"]
                if workload in nonzero and value == 0:
                    problems.append(f"{workload}: {name} is 0, predicted nonzero")
                if workload in zero and value != 0:
                    problems.append(f"{workload}: {name} is {value}, predicted 0")
        print(f"{workload}: checked", flush=True)
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
