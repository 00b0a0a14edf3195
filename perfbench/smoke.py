#!/usr/bin/env python3
"""The benchmark's own smoke check.  Run from the root of a checkout:

    python3 perfbench/smoke.py

Runs every workload briefly, untraced and traced, and checks that each
run emits every named metric and that build, search and serve reach zero
failures and zero reference mismatches.  Runs the search against the
exhaustive oracle at n=6.  Shows that when the sweep lazy race fires,
the instances of the calls that raised are counted as failed.  Checks
that the benchmark, given only BENCHMARK.json and its own files, exits
non-zero without printing a result.  Exits 1 on any failed check.
"""

import json
import os
import re
import shutil
import subprocess
import sys

BENCH = json.load(open("BENCHMARK.json"))
E2E = {m["name"] for m in BENCH["end_to_end"]}
LAYERS = {m["name"] for m in BENCH["per_layer"]}
failures = []


def check(ok, what):
    print(("  ok   " if ok else "  FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, seconds, trace, *extra, cwd=None, seed=1):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace), *extra]
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                       timeout=300)
    return p


def result(p):
    lines = p.stdout.strip().splitlines()
    try:
        r = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, lines
    return r, lines


def main():
    for w in ["build", "search", "serve", "sweep"]:
        for trace in (0, 1):
            p = run(w, 2, trace)
            r, lines = result(p)
            tag = f"{w} --trace {trace}"
            check(p.returncode == 0 and r is not None, f"{tag}: exit 0 with a result")
            if r is None:
                continue
            want = LAYERS if trace else E2E
            check(set(r) == {"correct", "attempted", "failed", "metrics"},
                  f"{tag}: result keys")
            check(set(r["metrics"]) == want, f"{tag}: every named metric")
            check(all(isinstance(v["value"], (int, float))
                      for v in r["metrics"].values()), f"{tag}: numeric values")
            check(r["attempted"] >= 1, f"{tag}: attempted {r['attempted']}")
            check(r["correct"], f"{tag}: zero reference mismatches")
            if w != "sweep":
                check(r["failed"] == 0, f"{tag}: zero failures")
            if trace:
                check(any(l.startswith("ledger") for l in lines),
                      f"{tag}: prints the ledger")

    p = run("search", 1, 0, "--pack-n", "6")
    r, _ = result(p)
    check(r is not None and r["correct"] and r["failed"] == 0,
          "search --pack-n 6 agrees with the exhaustive oracle")

    # The sweep lazy race: every call that raised must count its
    # instances as failed.  It fires in most calls, but is not forced.
    fired = 0
    for seed in (1, 2, 3):
        p = run("sweep", 3, 0, seed=seed)
        r, lines = result(p)
        if r is None:
            check(False, f"sweep seed {seed}: result")
            continue
        m = re.search(r"sweep: (\d+) of (\d+) cold sub-grid calls and "
                      r"(\d+) of (\d+) warm calls completed", p.stdout)
        raised = re.search(r"raised CamlinternalLazy.Undefined", p.stdout)
        if raised and m:
            fired += 1
            cold_ok, cold, warm_ok, warm = map(int, m.groups())
            per_call = r["attempted"] // (cold + warm)
            lost = (cold - cold_ok) + (warm - warm_ok)
            check(r["failed"] >= lost * per_call,
                  f"sweep seed {seed}: race fired in {lost} calls, "
                  f"{r['failed']} of {r['attempted']} instances counted failed")
    print(f"  sweep lazy race fired in {fired} of 3 runs")

    # Only BENCHMARK.json and the benchmark's own files: no program.
    bare = ".perfbench/bare"
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns(".perfbench", "_build"))
    p = run("build", 1, 0, cwd=bare)
    r, _ = result(p)
    check(p.returncode != 0 and r is None,
          f"bare directory: exit {p.returncode}, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("smoke: " + ("all checks passed" if not failures
                       else f"{len(failures)} check(s) failed"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
