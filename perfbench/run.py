#!/usr/bin/env python3
"""Build and run the copift benchmark.

One run:
    python3 perfbench/run.py --workload paper_fig2 --seed 1 --seconds 10 --trace 0

builds perfbench/ against the simulator sources under src/ (into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs the named
workload in its own process and prints its result; the last line of stdout
is one JSON object with "correct", "attempted", "failed" and "metrics".
--trace 1 prints the per-layer metrics instead of the end-to-end ones,
prints a self-time table per layer on stderr and writes the host spans as
Chrome trace-event JSON under <build dir>/traces/.

Repeat mode, to show the benchmark is steady or to report spread:
    python3 perfbench/run.py --workload paper_fig2 --repeat 10 [--seed 1]

runs the workload K times with seeds seed..seed+K-1, echoes each run's
result line on stderr, and prints, for every metric, the median, the
quartiles and the spread (quartile distance over the median) next to the
metric's bound in BENCHMARK.json.

Self-tests of the benchmark's own arithmetic and checks:
    python3 perfbench/run.py --selftest
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target):
    """Configure once, then bring `target` up to date; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "cluster.hpp")):
        fail("simulator sources not found under " + os.path.join(ROOT, "src"))
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build step failed: " + " ".join(step), 1)
    return os.path.join(out, target)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_result(line, trace, bench):
    """The result line must carry exactly the metrics BENCHMARK.json lists."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("result keys are %s" % sorted(result))
    want = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    got = list(result["metrics"])
    if sorted(want) != sorted(got):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        raise ValueError("metrics differ from BENCHMARK.json: missing %s, extra %s"
                         % (missing, extra))
    return result


def run_once(binary, workload, seed, seconds, trace, bench, echo):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=None if echo else subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S), 1)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        if not echo and done.stderr:
            sys.stderr.write(done.stderr)
        fail("%s exited with code %d" % (workload, done.returncode), 1)
    try:
        result = check_result(lines[-1], trace, bench)
    except ValueError as e:
        fail("%s: %s" % (workload, e), 1)
    return done.stdout, result


def spread(values):
    """Median, first and third quartile, and (q3 - q1) / median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, ((q3 - q1) / med if med else 0.0)


def repeat(binary, args, bench):
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    runs = []
    for k in range(args.repeat):
        seed = args.seed + k
        _, result = run_once(binary, args.workload, seed, args.seconds, args.trace, bench, False)
        share = result["failed"] / result["attempted"]
        print("run %2d seed %-6d attempted %-7d failed %-5d (share %.6f) correct %s" %
              (k + 1, seed, result["attempted"], result["failed"], share, result["correct"]),
              file=sys.stderr)
        print(json.dumps(result), file=sys.stderr)
        runs.append(result)
    print("%s, %d runs, seeds %d..%d, %d s each" %
          (args.workload, len(runs), args.seed, args.seed + len(runs) - 1, args.seconds))
    print("%-38s %-9s %14s %14s %14s %8s %7s" %
          ("metric", "unit", "median", "q1", "q3", "spread", "bound"))
    steady = True
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med, q1, q3, sp = spread(values)
        bound = bounds.get(name)
        mark = ""
        if bound is not None and name != "setup_s":
            if sp > bound:
                mark, steady = " OVER", False
            elif sp > bound / 3:
                mark = " >1/3"
        print("%-38s %-9s %14.6g %14.6g %14.6g %8.4f %7s%s" %
              (name, units.get(name, ""), med, q1, q3, sp, "-" if bound is None else bound, mark))
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print("failed share per run: %s" % ", ".join("%.6f" % s for s in shares))
    print("correct in every run: %s" % all(r["correct"] for r in runs))
    return 0 if steady and all(r["correct"] for r in runs) else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, metavar="K")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        sys.exit(subprocess.run([build("perfbench_selftest")]).returncode)
    if not args.workload:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        fail("BENCHMARK.json not found at " + ROOT)
    bench = load_benchmark()
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (workloads: %s)" % (args.workload, ", ".join(names)))
    binary = build("perfbench")
    if args.repeat:
        sys.exit(repeat(binary, args, bench))
    stdout, _ = run_once(binary, args.workload, args.seed, args.seconds, args.trace, bench, True)
    sys.stdout.write(stdout)


if __name__ == "__main__":
    main()
