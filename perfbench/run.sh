#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments:
#   bash perfbench/run.sh --workload build|search|serve|sweep --seed N \
#     --seconds S --trace 0|1
# Run from the root of a checkout; everything it writes stays there
# (_build/ for the build, .perfbench/ for sockets, stores and logs).
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe 1>&2
bin=./_build/default/perfbench/main.exe
# The single-CPU workloads run on one CPU.  Serve's requests are cheap,
# so cross-CPU thread wake-ups dominate them, and on a virtual machine
# their cost changes with the host's load: unpinned, its throughput
# swung by a quarter between consecutive runs.  The build thread,
# unpinned, moves every few seconds between vCPUs that other tenants
# slow by different amounts, so its windows were bimodal (about 245 and
# 360 builds/s on a 2-vCPU VM).
if [[ " $* " =~ " --workload "(build|serve)" " ]] && command -v taskset >/dev/null; then
  exec taskset -c 0 "$bin" "$@"
fi
exec "$bin" "$@"
