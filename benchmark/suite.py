#!/usr/bin/env python3
"""Runs the benchmark's workloads and compares results against the bounds.

Started by run.sh (which builds the program and passes its path in
FTC_BENCHMARK_BIN). The workloads, metrics, bounds and run length are read
from BENCHMARK.json at the root of the checkout, so they are written down
once. Every workload runs in a fresh process.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "benchmark", "out")


def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace, smoke):
    """One process, one workload; returns the result object of its last line."""
    cmd = [
        os.environ["FTC_BENCHMARK_BIN"],
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ] + (["--smoke"] if smoke else [])
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate()
    finally:
        # Interrupted or terminated: the run must not outlive the suite.
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit(f"{workload}: no result (exit code {proc.returncode})")
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(f"{workload} seed {seed} trace {trace}: output checks failed "
                 f"(exit code {proc.returncode}); reasons are on stderr above")
    return result


def values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


def run_suite(spec, workloads, seed, smoke, traced=True):
    """Every workload with tracing off, then (traced) the traced pass."""
    suite = {"smoke": smoke, "seed": seed, "seconds": spec["run_seconds"], "workloads": {}}
    for w in workloads:
        entry = {}
        passes = [("end_to_end", 0)] + ([("per_layer", 1)] if traced else [])
        for key, trace in passes:
            result = run_once(w, seed, spec["run_seconds"], trace, smoke)
            entry[key] = values(result)
            entry.setdefault("attempted", result["attempted"])
            entry.setdefault("failed", result["failed"])
            units = {n: m["unit"] for n, m in result["metrics"].items()}
            print(f"\n{w} — {key} (seed {seed}{', smoke' if smoke else ''}; "
                  f"attempted {result['attempted']}, failed {result['failed']})")
            for name, value in entry[key].items():
                print(f"  {name:<40} {value:>16.4f} {units[name]}")
        suite["workloads"][w] = entry
    return suite


def save(suite, name):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, name)
    with open(path, "w") as f:
        json.dump(suite, f, indent=1)
    print(f"\nwrote {os.path.relpath(path, ROOT)}")


def compare(spec, a, b):
    """Prints both values and the relative difference of every end-to-end
    metric; returns how many differ by more than the metric's bound."""
    if a["smoke"] != b["smoke"]:
        sys.exit("refusing to compare a smoke result with a full result")
    over = 0
    for w in a["workloads"]:
        if w not in b["workloads"]:
            continue
        print(f"\n{w}")
        for m in spec["end_to_end"]:
            x = a["workloads"][w]["end_to_end"][m["name"]]
            y = b["workloads"][w]["end_to_end"][m["name"]]
            diff = abs(y - x) / abs(x)
            flag = ""
            if diff > m["bound"]:
                over += 1
                flag = "  EXCEEDS BOUND"
            print(f"  {m['name']:<20} {x:>14.4f} {y:>14.4f} {m['unit']:<4} "
                  f"diff {100 * diff:6.2f} %  bound {100 * m['bound']:5.1f} %{flag}")
    return over


def spread(spec, workloads, first_seed, runs, smoke):
    """What the driver does to accept the benchmark: `runs` seeds per
    workload, and per end-to-end metric the distance between the first and
    third quartile as a share of the median."""
    over = 0
    report = {}
    for w in workloads:
        results = [values(run_once(w, first_seed + i, spec["run_seconds"], 0, smoke))
                   for i in range(runs)]
        print(f"\n{w}: {runs} seeds from {first_seed}")
        report[w] = {}
        for m in spec["end_to_end"]:
            xs = [r[m["name"]] for r in results]
            q1, _, q3 = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            share = (q3 - q1) / med
            report[w][m["name"]] = {"median": med, "spread": share, "values": xs}
            flag = ""
            if share > m["bound"] / 3 and m["name"] != "setup_s":
                flag = "  above a third of the bound"
            if share > m["bound"] and m["name"] != "setup_s":
                over += 1
                flag = "  EXCEEDS BOUND"
            print(f"  {m['name']:<20} median {med:>14.4f} {m['unit']:<4} "
                  f"spread {100 * share:6.2f} %  bound {100 * m['bound']:5.1f} %{flag}")
            print("    " + " ".join(f"{x:.4g}" for x in xs))
    save({"smoke": smoke, "first_seed": first_seed, "runs": runs, "spread": report},
         "spread.json")
    return over


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = manifest()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(prog="benchmark/run.sh")
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--selfcheck", action="store_true")
    ap.add_argument("--spread", type=int, metavar="RUNS")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    workloads = [args.workload] if args.workload else names

    if args.compare:
        a, b = (json.load(open(p)) for p in args.compare)
        sys.exit(1 if compare(spec, a, b) else 0)
    if args.spread:
        sys.exit(1 if spread(spec, workloads, args.seed, args.spread, args.smoke) else 0)
    if args.selfcheck:
        first = run_suite(spec, workloads, args.seed, args.smoke, traced=False)
        second = run_suite(spec, workloads, args.seed, args.smoke, traced=False)
        save(first, "selfcheck_1.json")
        save(second, "selfcheck_2.json")
        over = compare(spec, first, second)
        print(f"\nselfcheck: {over} metric(s) outside their bound")
        sys.exit(1 if over else 0)
    save(run_suite(spec, workloads, args.seed, args.smoke), "suite.json")


if __name__ == "__main__":
    main()
