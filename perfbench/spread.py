#!/usr/bin/env python3
"""Noise protocol: run the benchmark once per seed on each workload and
report, per metric, the median, the quartiles and the spread (distance
between the first and third quartile as a share of the median), next to
the bound in BENCHMARK.json.

    python3 perfbench/spread.py [--workloads build,search,serve]
                                [--seeds 10] [--first-seed 1]
                                [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Seconds default to BENCHMARK.json's
run_seconds.  Exits 1 if a run fails or, with --trace 0, if a spread
other than setup_s's exceeds a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout + p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    return json.loads(lines[-1]), lines[0]


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    a = ap.parse_args()
    metrics = bench["per_layer" if a.trace else "end_to_end"]
    bad = 0
    for w in a.workloads.split(","):
        values = {m["name"]: [] for m in metrics}
        failed = attempted = 0
        for seed in range(a.first_seed, a.first_seed + a.seeds):
            r, host = run(w, seed, a.seconds, a.trace)
            if set(r["metrics"]) != set(values):
                raise SystemExit(f"{w} seed {seed}: metric names differ")
            if not r["correct"]:
                print(f"{w} seed {seed}: correct=false")
                bad += 1
            failed += r["failed"]
            attempted += r["attempted"]
            for k in values:
                values[k].append(r["metrics"][k]["value"])
            print(f"  {w} seed {seed}: " + " ".join(
                f"{k}={r['metrics'][k]['value']:.6g}" for k in values
                if not a.trace), flush=True)
        print(f"{w}: {a.seeds} runs, {host}")
        print(f"{w}: failed {failed} of {attempted} operations attempted")
        for m in metrics:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s":
                if spread > bound / 3:
                    flag = "  ABOVE A THIRD OF THE BOUND"
                    bad += 1
            print(f"  {m['name']:<32} median {med:<14.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:.4f}"
                  + (f" (bound {bound})" if bound is not None else "") + flag)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
