#!/usr/bin/env bash
# Soak for runGrid's process executor (--fleet-workers N): fig3_1 over
# all 8 benchmarks on 4 worker processes with three injected worker
# faults (worker:3:kill9, worker:9:hang, worker:15:kill9). Every fault
# must be retried, every cell must stay finite (no NaN quarantines), and
# stdout and CSV must be byte-identical to the thread-pool run
# (--jobs 1). Faults may cost retries, never results.
#
# Wired into ctest as `fleet_soak`.
#
# Usage: scripts/fleet_soak.sh [build-dir]
set -euo pipefail

build="${1:-build}"
bench="$build/bench/fig3_1_fetch_rate"
[ -x "$bench" ] || { echo "no bench binary at '$bench'" >&2; exit 1; }
bench="$(cd "$(dirname "$bench")" && pwd)/$(basename "$bench")"

work="$(mktemp -d "${TMPDIR:-/tmp}/vpsim-fleet-soak.XXXXXX")"
trap 'rm -rf "$work"' EXIT

run_stage() { # run_stage <dir> <bench args...>
    local dir="$work/$1"; shift
    mkdir -p "$dir"
    (cd "$dir" && "$bench" --insts 2000 --stats 1 "$@" --csv out.csv \
        > stdout.txt 2> stderr.txt)
}

failed=0
echo "== golden (thread pool, --jobs 1)"
run_stage golden --jobs 1
echo "== soak (4 worker processes, three worker faults)"
run_stage soak --fleet-workers 4 --job-timeout 5 \
    --fault-inject worker:3:kill9,worker:9:hang,worker:15:kill9

if ! cmp -s "$work/golden/stdout.txt" "$work/soak/stdout.txt"; then
    echo "FAIL: soak stdout differs from the thread-pool run" >&2
    diff "$work/golden/stdout.txt" "$work/soak/stdout.txt" | head -10 >&2
    failed=1
fi
if ! cmp -s "$work/golden/out.csv" "$work/soak/out.csv"; then
    echo "FAIL: soak CSV differs from the thread-pool run" >&2
    failed=1
fi
if grep -qi nan "$work/soak/out.csv"; then
    echo "FAIL: soak left a NaN cell" >&2
    failed=1
fi
retries="$(awk '$1 == "sim_runner.worker_retries" { print $2 }' \
    "$work/soak/stderr.txt")"
[ "$retries" = 3 ] ||
    { echo "FAIL: soak retried $retries faults, not 3" >&2; failed=1; }

if [ "$failed" -ne 0 ]; then
    echo "fleet soak FAILED" >&2
    exit 1
fi
echo "fleet soak OK (3 worker faults retried, output unchanged)"
