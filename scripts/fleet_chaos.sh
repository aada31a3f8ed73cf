#!/usr/bin/env bash
# Chaos harness for runGrid's process executor (--fleet-workers N):
# drive figure benches through worker crashes, hangs, ENOSPC, a kill -9'd
# parent, a corrupt store file and a tampered CSV, and require that
# recovery never changes a byte of the output.
#
#   1. golden:     fig3_1 on the thread pool (--jobs 1) — the reference
#                  stdout + CSV.
#   2. clean:      3 worker processes, no faults; stdout and CSV must be
#                  byte-identical to the golden run.
#   3. kill9:      `worker:2:kill9` SIGKILLs one worker after its first
#                  cell; the parent retries (worker_retries 1) and the
#                  output is unchanged.
#   4. hang:       `worker:1:hang` stops one worker's heartbeat; the
#                  parent kill -9s it after --job-timeout 5 and the
#                  retry completes the shard.
#   5. enospc:     `worker:2:enospc` makes one worker exit with the I/O
#                  exit code before publishing; retried, unchanged.
#   6. parent kill -9: the parent is SIGKILLed mid-grid (a hung worker
#                  holds it there); a rerun with --resume 1 reuses every
#                  published shard and produces the golden bytes.
#   7. store corruption: a published shard file is bit-flipped; the
#                  resume run must quarantine it (.corrupt-*),
#                  recompute, and still produce the golden bytes.
#   8. tamper:     the run manifest of the clean run verifies; after the
#                  CSV is edited, scripts/verify_manifest.py must fail.
#
# Wired into ctest as `fleet_chaos`. The all-benchmark soak under three
# worker faults is scripts/fleet_soak.sh (ctest `fleet_soak`).
#
# Usage: scripts/fleet_chaos.sh [build-dir]
set -euo pipefail

build="${1:-build}"
bench="$build/bench/fig3_1_fetch_rate"
[ -x "$bench" ] || { echo "no bench binary at '$bench'" >&2; exit 1; }
scripts="$(cd "$(dirname "$0")" && pwd)"
bench="$(cd "$(dirname "$bench")" && pwd)/$(basename "$bench")"

work="$(mktemp -d "${TMPDIR:-/tmp}/vpsim-fleet-chaos.XXXXXX")"
trap 'rm -rf "$work"' EXIT

args=(--insts 2000 --benchmarks go,compress --stats 1)
failed=0

run_stage() { # run_stage <dir> <bench args...>
    local dir="$work/$1"; shift
    mkdir -p "$dir"
    (cd "$dir" && "$bench" "${args[@]}" "$@" --csv out.csv \
        > stdout.txt 2> stderr.txt)
}

check_identical() { # check_identical <label> <dir> [golden-dir]
    local label="$1" dir="$work/$2" golden="$work/${3:-golden}"
    if ! cmp -s "$golden/stdout.txt" "$dir/stdout.txt"; then
        echo "FAIL: $label stdout differs from golden" >&2
        diff "$golden/stdout.txt" "$dir/stdout.txt" | head -10 >&2
        failed=1
        return
    fi
    if ! cmp -s "$golden/out.csv" "$dir/out.csv"; then
        echo "FAIL: $label CSV differs from golden" >&2
        failed=1
        return
    fi
    echo "ok: $label output is byte-identical"
}

counter() { # counter <dir> <name>: a sim_runner.<name> value
    awk -v n="sim_runner.$2" '$1 == n { print $2 }' "$work/$1/stderr.txt"
}

echo "== golden (thread pool, --jobs 1)"
run_stage golden --jobs 1

echo "== clean (3 worker processes, no faults)"
run_stage clean --fleet-workers 3
check_identical "clean" clean

echo "== worker kill -9 (worker:2:kill9)"
run_stage kill9 --fleet-workers 3 --fault-inject worker:2:kill9
check_identical "kill9" kill9
[ "$(counter kill9 worker_retries)" = 1 ] ||
    { echo "FAIL: kill9 run did not report one retry" >&2; failed=1; }

echo "== worker hang (worker:1:hang, --job-timeout 5)"
run_stage hang --fleet-workers 3 --fault-inject worker:1:hang \
    --job-timeout 5
check_identical "hang" hang
[ "$(counter hang timed_out_jobs)" = 1 ] ||
    { echo "FAIL: hung worker was not killed once" >&2; failed=1; }

echo "== worker ENOSPC (worker:2:enospc)"
run_stage enospc --fleet-workers 3 --fault-inject worker:2:enospc
check_identical "enospc" enospc

echo "== parent kill -9 mid-grid, then --resume 1"
mkdir -p "$work/resume"
store="$work/resume/store"
# One worker at a time, and the third one hangs (no --job-timeout), so
# the parent is still mid-grid with two shards published. exec setsid:
# $! becomes the parent itself, alone with its workers in a fresh
# process group we can SIGKILL wholesale without touching this script.
(cd "$work/resume" && exec setsid "$bench" "${args[@]}" \
    --fleet-workers 1 --fault-inject worker:3:hang --result-store store \
    --csv pre.csv > pre.stdout 2> pre.stderr) &
runner=$!
disown "$runner" # no async "Killed" job notice from the shell
for _ in $(seq 1 500); do
    [ "$(ls "$store"/shard-*.vpshard 2> /dev/null | wc -l)" -ge 2 ] && break
    sleep 0.02
done
kill -9 "-$runner" 2> /dev/null || true
while kill -0 "$runner" 2> /dev/null; do sleep 0.02; done
published="$(ls "$store"/shard-*.vpshard 2> /dev/null | wc -l)"
if [ "$published" -lt 2 ]; then
    echo "FAIL: $published shard results published before the kill" >&2
    failed=1
fi
(cd "$work/resume" && "$bench" "${args[@]}" --fleet-workers 3 \
    --result-store store --resume 1 --csv out.csv \
    > stdout.txt 2> stderr.txt)
check_identical "parent kill -9 + resume" resume
if ! grep -q "resumed [1-9][0-9]* of" "$work/resume/stderr.txt"; then
    echo "FAIL: resume run reused no published shards" >&2
    cat "$work/resume/stderr.txt" >&2
    failed=1
else
    echo "ok: resume reused $published published shard(s)"
fi

echo "== store corruption (bit-flipped shard file, then resume)"
mkdir -p "$work/corrupt"
(cd "$work/corrupt" && "$bench" "${args[@]}" --fleet-workers 2 \
    --result-store store --csv pre.csv > /dev/null 2> /dev/null)
victim="$(ls "$work/corrupt/store"/shard-*.vpshard | head -1)"
printf 'X' | dd of="$victim" bs=1 seek=60 conv=notrunc 2> /dev/null
(cd "$work/corrupt" && "$bench" "${args[@]}" --fleet-workers 2 \
    --result-store store --resume 1 --csv out.csv \
    > stdout.txt 2> stderr.txt)
check_identical "store corruption" corrupt
if ls "$work/corrupt/store"/.corrupt-* > /dev/null 2>&1; then
    echo "ok: corrupt shard file quarantined and recomputed"
else
    echo "FAIL: corrupt shard file was not quarantined" >&2
    failed=1
fi

echo "== tampered CSV (the run manifest must reject it)"
manifest="$work/clean/out.csv.manifest.json"
python3 "$scripts/verify_manifest.py" "$manifest" > /dev/null ||
    { echo "FAIL: clean run manifest does not verify" >&2; failed=1; }
sed 's/^fig3.1,go/fig3.1,GO/' "$work/clean/out.csv" > "$work/clean/tampered"
mv "$work/clean/tampered" "$work/clean/out.csv"
if python3 "$scripts/verify_manifest.py" "$manifest" > /dev/null 2>&1; then
    echo "FAIL: verify_manifest.py accepted a tampered CSV" >&2
    failed=1
else
    echo "ok: tampered CSV rejected by verify_manifest.py"
fi

if [ "$failed" -ne 0 ]; then
    echo "fleet chaos FAILED" >&2
    exit 1
fi
echo "fleet chaos OK (crashes, hangs, ENOSPC, kill -9, corruption and" \
     "tampering all contained)"
