#!/usr/bin/env python3
"""Build and run the polyquery end-to-end benchmark.

One run (the last line of standard output is the JSON result):

    python3 perfbench/run.py --workload monitor-paper --seed 2008 --seconds 10 --trace 0

Steadiness check: N runs of each workload on the same seed, then per
end-to-end metric the median, the quartiles and their spread as a share
of the median, next to the metric's bound in BENCHMARK.json. The spread
is run-to-run noise on identical inputs:

    python3 perfbench/run.py --steady 10 [--workload sim-aao] [--seed 2008]

Seed sweep: the same report over N runs with seeds S, S+1, ..., so the
spread also holds the differences between market paths:

    python3 perfbench/run.py --sweep 10 [--workload sim-aao] [--seed 1]

Run from the repository root. The package builds into $CARGO_TARGET_DIR
(default .bench_build); traced runs write the benchmark's spans to
<target>/perfbench-traces/<workload>-<seed>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    # Build chatter goes to stderr so the result stays the last stdout line.
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return target, os.path.join(target, "release", "perfbench")


def run_once(exe, target, workload, seed, seconds, trace, echo):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out", os.path.join(target, "perfbench-traces", f"{workload}-{seed}.jsonl")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if echo:
        sys.stdout.write(proc.stdout)
    else:
        for line in proc.stdout.splitlines():
            if "speed factor" in line:
                print(f"  {workload} seed={seed}:{line.strip()}", flush=True)
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread_report(exe, target, args, seeds):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [args.workload] if args.workload else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    ok = True
    for workload in workloads:
        results = []
        for seed in seeds:
            r = run_once(exe, target, workload, seed, seconds, 0, False)
            results.append(r)
            print(f"{workload} seed={seed}: "
                  + " ".join(f"{n}={m['value']:.6g}" for n, m in r["metrics"].items()),
                  flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"== {workload}: {len(seeds)} runs, correct={correct}, failed shares={sorted(shares)}")
        ok &= correct
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            verdict = "ok" if spread <= metric["bound"] / 3 else (
                "within bound" if spread <= metric["bound"] else "TOO WIDE")
            print(f"  {metric['name']:<18} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                  f"spread {spread:7.2%} bound {metric['bound']:.0%}  {verdict}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=2008)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", type=int, metavar="N", help="runs per workload, all on --seed")
    p.add_argument("--sweep", type=int, metavar="N", help="runs per workload on seeds --seed, --seed+1, ...")
    args = p.parse_args()
    repeat = args.steady or args.sweep
    if args.steady and args.sweep:
        p.error("--steady and --sweep exclude each other")
    if repeat is None and (args.workload is None or args.seconds is None):
        p.error("--workload and --seconds are required for a single run")
    if repeat is not None and repeat < 2:
        p.error("--steady and --sweep need at least 2 runs")
    target, exe = build()
    if args.steady:
        return spread_report(exe, target, args, [args.seed] * args.steady)
    if args.sweep:
        return spread_report(exe, target, args, [args.seed + k for k in range(args.sweep)])
    run_once(exe, target, args.workload, args.seed, args.seconds, args.trace, True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
