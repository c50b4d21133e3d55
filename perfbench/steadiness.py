#!/usr/bin/env python3
"""Steadiness report: runs the benchmark repeatedly and prints, for each
end-to-end metric, the median and quartiles over the runs and the
spread (interquartile distance over median) against the metric's bound.

Run from the repository root:

    python3 perfbench/steadiness.py --workload record --runs 10 --first-seed 1 \
        --save set1-record.json
    python3 perfbench/steadiness.py --compare set1-record.json set2-record.json

Each run uses the next seed, so the spread covers both host noise and
the input variation between seeds. The command, the run length and the
bounds come from BENCHMARK.json. A metric is "steady" when its spread
is below a third of its bound. `--compare` reads two saved sets and
prints how far each metric's median moved from the first set to the
second, against the same bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def load_bench():
    """BENCHMARK.json, and each end-to-end metric's bound."""
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    return bench, {m["name"]: m["bound"] for m in bench["end_to_end"]}


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    host = next((l for l in lines if l.startswith("host.ref_ms")), "")
    return result, host


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def measure(opts):
    bench, bounds = load_bench()
    seconds = bench["run_seconds"]
    values = {name: [] for name in bounds}
    failed = 0
    for i in range(opts.runs):
        seed = opts.first_seed + i
        t = time.time()
        result, host = run_once(bench["command"], opts.workload, seed, seconds)
        failed += result["failed"] + (0 if result["correct"] else 1)
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: {time.time() - t:.1f} s, correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}; {host}", flush=True)

    print(f"\n{opts.workload}: {opts.runs} runs, {seconds} s each, {failed} failures")
    print(f"{'metric':<24}{'q1':>14}{'median':>14}{'q3':>14}{'spread':>9}{'bound':>7}  verdict")
    for name, vs in values.items():
        q1, med, q3, s = spread(vs)
        bound = bounds[name]
        verdict = "steady" if s < bound / 3 else ("within bound" if s <= bound else "TOO NOISY")
        print(f"{name:<24}{q1:>14.6g}{med:>14.6g}{q3:>14.6g}{s:>9.3f}{bound:>7.2f}  {verdict}")
    print("\nper-run values, in seed order:")
    for name, vs in values.items():
        print(f"  {name}: " + " ".join(f"{v:.5g}" for v in vs))
    if opts.save:
        with open(opts.save, "w") as f:
            json.dump({"workload": opts.workload, "failed": failed, "values": values}, f)


def compare(first, second):
    bench, bounds = load_bench()
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    sets = []
    for path in (first, second):
        with open(path) as f:
            sets.append(json.load(f))
    a, b = sets
    if a["workload"] != b["workload"]:
        sys.exit("the two sets measured different workloads")
    print(f"{a['workload']}: median drift from {first} to {second}")
    print(f"{'metric':<24}{'median 1':>14}{'median 2':>14}{'drift':>9}{'bound':>7}"
          f"{'spread 1':>10}{'spread 2':>10}  verdict")
    for name, bound in bounds.items():
        _, m1, _, s1 = spread(a["values"][name])
        _, m2, _, s2 = spread(b["values"][name])
        drift = (m2 - m1) / m1 if m1 else float("inf")
        worse = drift if better[name] == "lower" else -drift
        verdict = "agrees" if abs(drift) <= bound else (
            "WORSE beyond bound" if worse > 0 else "better beyond bound")
        print(f"{name:<24}{m1:>14.6g}{m2:>14.6g}{drift:>9.3f}{bound:>7.2f}"
              f"{s1:>10.3f}{s2:>10.3f}  {verdict}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--save", metavar="FILE", help="write the per-run values as JSON")
    ap.add_argument("--compare", nargs=2, metavar="FILE", help="compare two saved sets")
    opts = ap.parse_args()
    if opts.compare:
        compare(*opts.compare)
    elif opts.workload:
        measure(opts)
    else:
        ap.error("--workload or --compare is required")


if __name__ == "__main__":
    main()
