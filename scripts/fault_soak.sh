#!/usr/bin/env bash
# Fault-injection soak: drive one figure bench through the deterministic
# fault injector and require that no injected fault ever changes stdout.
#
#   1. golden:     clean serial run, no cache — the reference bytes.
#   2. faulted:    torn cache write + transient read EIO, --jobs 4.
#   3. poisoned:   re-run against the cache the torn write corrupted;
#                  the checksum footer must quarantine + recapture.
#   4. interrupt:  injected SIGINT mid-sweep with --result-store; the
#                  run must exit 130 and leave a published result file.
#   5. resume:     --resume 1 completes the sweep from that store.
#   6. v3 cache:   populate a block-framed v3 cache, then force a block
#                  CRC mismatch (`block:N:block-crc`); strict mode must
#                  quarantine the entry and recapture.
#   7. load EIO:   `read:4:eio` on the warm v3 cache fails the first
#                  entry's block read mid-load; the cache's retry loop
#                  absorbs it, so both entries still hit.
#   8. capture ENOSPC: `capture:N:enospc-capture` fails one capture
#                  append; the tmp-then-rename store retries and never
#                  publishes a torn entry.
#   9. capture SIGINT: `capture:N:sigint` kills the run mid-capture
#                  (exit 130); the rerun recaptures from the unpoisoned
#                  cache and completes.
#  10. salvage:    trailing garbage appended to every v3 entry; with
#                  --salvage-blocks the entries still load (zero records
#                  lost — the damage is beyond the trailer).
#  11. fig5_3 interrupt + resume: the same SIGINT/--resume pair on a
#                  bench whose cells carry two values and which writes
#                  two CSV tables; stdout and --csv must match a clean
#                  run of it.
#  12. failed cell: fig3_3 under --keep-going with one injected job
#                  failure must print that benchmark's row as nan,
#                  never as zeros.
#
# Every completed run's stdout must be byte-identical to its golden run
# (faults and recovery live on stderr only). Wired into ctest as
# `fault_soak`.
#
# Usage: scripts/fault_soak.sh [build-dir]
set -euo pipefail

build="${1:-build}"
bench="$build/bench/fig3_1_fetch_rate"
tc_bench="$build/bench/fig5_3_trace_cache"
did_bench="$build/bench/fig3_3_avg_did"
for binary in "$bench" "$tc_bench" "$did_bench"; do
    [ -x "$binary" ] || { echo "no bench binary at '$binary'" >&2; exit 1; }
done

work="$(mktemp -d "${TMPDIR:-/tmp}/vpsim-soak.XXXXXX")"
trap 'rm -rf "$work"' EXIT
cache="$work/trace-cache"
store="$work/result-store"

args=(--insts 2000 --benchmarks go,compress)
failed=0

check_golden() {
    local label="$1" out="$2"
    if ! cmp -s "$work/golden" "$out"; then
        echo "FAIL: $label stdout differs from the golden run" >&2
        diff "$work/golden" "$out" | head -20 >&2
        failed=1
    else
        echo "ok: $label stdout is byte-identical"
    fi
}

echo "== golden (clean, serial, uncached)"
"$bench" "${args[@]}" --jobs 1 > "$work/golden" 2> /dev/null

echo "== faulted (torn write + ENOSPC + transient read EIO, --jobs 4)"
"$bench" "${args[@]}" --jobs 4 --trace-cache-dir "$cache" \
    --fault-inject "write:3:torn,write:9:enospc,read:2:eio,seed:42" \
    > "$work/faulted" 2> "$work/faulted.err" ||
    { echo "FAIL: faulted run crashed" >&2; cat "$work/faulted.err" >&2;
      exit 1; }
check_golden "faulted" "$work/faulted"

echo "== poisoned cache (quarantine + recapture)"
"$bench" "${args[@]}" --jobs 1 --trace-cache-dir "$cache" \
    > "$work/poisoned" 2> "$work/poisoned.err" ||
    { echo "FAIL: poisoned-cache run crashed" >&2;
      cat "$work/poisoned.err" >&2; exit 1; }
check_golden "poisoned cache" "$work/poisoned"
if ls "$cache"/.corrupt-* > /dev/null 2>&1; then
    echo "ok: corrupt entry quarantined"
fi

echo "== interrupted (injected SIGINT mid-sweep, --result-store)"
status=0
"$bench" "${args[@]}" --jobs 1 --result-store "$store" \
    --fault-inject "job:4:sigint" \
    > /dev/null 2> "$work/interrupt.err" || status=$?
if [ "$status" -ne 130 ]; then
    echo "FAIL: interrupted run exited $status, want 130" >&2
    cat "$work/interrupt.err" >&2
    failed=1
fi
if ! ls "$store"/shard-*.vpshard > /dev/null 2>&1; then
    echo "FAIL: interrupted run published no result file in $store" >&2
    failed=1
else
    echo "ok: interrupted run exited 130 and published its cells"
fi

echo "== resume (finish the interrupted sweep)"
"$bench" "${args[@]}" --jobs 1 --result-store "$store" --resume 1 \
    > "$work/resumed" 2> "$work/resumed.err" ||
    { echo "FAIL: resumed run crashed" >&2; cat "$work/resumed.err" >&2;
      exit 1; }
check_golden "resumed" "$work/resumed"
if ! grep -q "resumed" "$work/resumed.err"; then
    echo "FAIL: resumed run did not reload any stored cells" >&2
    cat "$work/resumed.err" >&2
    failed=1
fi

cache_v3="$work/trace-cache-v3"
echo "== v3 cache populate (clean, block-framed entries)"
"$bench" "${args[@]}" --jobs 1 --trace-cache-dir "$cache_v3" \
    > "$work/v3pop" 2> "$work/v3pop.err" ||
    { echo "FAIL: v3 populate run crashed" >&2;
      cat "$work/v3pop.err" >&2; exit 1; }
check_golden "v3 populate" "$work/v3pop"
if ! ls "$cache_v3"/*-v3.vptrace > /dev/null 2>&1; then
    echo "FAIL: cache holds no v3 entries" >&2
    failed=1
fi

echo "== v3 block CRC fault (strict quarantine + recapture)"
"$bench" "${args[@]}" --jobs 1 --trace-cache-dir "$cache_v3" \
    --fault-inject "block:2:block-crc" \
    > "$work/blockcrc" 2> "$work/blockcrc.err" ||
    { echo "FAIL: block-crc run crashed" >&2;
      cat "$work/blockcrc.err" >&2; exit 1; }
check_golden "block CRC fault" "$work/blockcrc"
if ls "$cache_v3"/.corrupt-* > /dev/null 2>&1; then
    echo "ok: block-CRC-damaged v3 entry quarantined"
else
    echo "FAIL: block-crc fault left no quarantined entry" >&2
    failed=1
fi

echo "== transient read error inside a warm v3 cache load (retried)"
# Reads 1-3 of a load are the header, the trailer and the first block
# frame, so read 4 is the first entry's block payload.
"$bench" "${args[@]}" --jobs 1 --trace-cache-dir "$cache_v3" \
    --fault-inject "read:4:eio" \
    > "$work/loadeio" 2> "$work/loadeio.err" ||
    { echo "FAIL: load-EIO run crashed" >&2;
      cat "$work/loadeio.err" >&2; exit 1; }
check_golden "load EIO" "$work/loadeio"
if grep -q "retrying trace cache load" "$work/loadeio.err" &&
    grep -q "trace cache: 2 hits, 0 misses" "$work/loadeio.err"; then
    echo "ok: the read error was retried and both entries hit"
else
    echo "FAIL: the load read error was not absorbed by a retry" >&2
    cat "$work/loadeio.err" >&2
    failed=1
fi

cache_cap="$work/trace-cache-capture"
echo "== capture ENOSPC (tmp-then-rename store retries, never torn)"
"$bench" "${args[@]}" --jobs 1 --trace-cache-dir "$cache_cap" \
    --fault-inject "capture:2:enospc-capture" \
    > "$work/capnospc" 2> "$work/capnospc.err" ||
    { echo "FAIL: capture-ENOSPC run crashed" >&2;
      cat "$work/capnospc.err" >&2; exit 1; }
check_golden "capture ENOSPC" "$work/capnospc"
if ls "$cache_cap"/*.tmp.* > /dev/null 2>&1; then
    echo "FAIL: capture-ENOSPC run left temporary files behind" >&2
    failed=1
fi

cache_int="$work/trace-cache-interrupt"
store_int="$work/capture-store"
echo "== capture SIGINT (killed mid-capture, then recapture)"
status=0
"$bench" "${args[@]}" --jobs 1 --trace-cache-dir "$cache_int" \
    --result-store "$store_int" --fault-inject "capture:1:sigint" \
    > /dev/null 2> "$work/capint.err" || status=$?
if [ "$status" -ne 130 ]; then
    echo "FAIL: capture-SIGINT run exited $status, want 130" >&2
    cat "$work/capint.err" >&2
    failed=1
else
    echo "ok: capture-SIGINT run exited 130"
fi
"$bench" "${args[@]}" --jobs 1 --trace-cache-dir "$cache_int" \
    --result-store "$store_int" --resume 1 \
    > "$work/capresume" 2> "$work/capresume.err" ||
    { echo "FAIL: post-SIGINT recapture run crashed" >&2;
      cat "$work/capresume.err" >&2; exit 1; }
check_golden "post-SIGINT recapture" "$work/capresume"

echo "== salvage (trailing garbage on every v3 entry, --salvage-blocks)"
for entry in "$cache_v3"/*-v3.vptrace; do
    printf 'GARBAGE-BEYOND-THE-TRAILER-0123456789' >> "$entry"
done
"$bench" "${args[@]}" --jobs 1 --trace-cache-dir "$cache_v3" \
    --salvage-blocks 1 \
    > "$work/salvaged" 2> "$work/salvaged.err" ||
    { echo "FAIL: salvage run crashed" >&2;
      cat "$work/salvaged.err" >&2; exit 1; }
check_golden "salvage" "$work/salvaged"

store_tc="$work/tc-result-store"
echo "== fig5_3 golden (clean, serial, --csv)"
"$tc_bench" "${args[@]}" --jobs 1 --csv "$work/tc-golden.csv" \
    > "$work/tc-golden" 2> /dev/null
echo "== fig5_3 interrupted (SIGINT after two of four cells)"
# Jobs 1-2 capture the traces, so job 5 is the grid's third cell.
status=0
"$tc_bench" "${args[@]}" --jobs 1 --result-store "$store_tc" \
    --csv "$work/tc-interrupted.csv" --fault-inject "job:5:sigint" \
    > /dev/null 2> "$work/tc-interrupt.err" || status=$?
if [ "$status" -ne 130 ]; then
    echo "FAIL: fig5_3 interrupted run exited $status, want 130" >&2
    cat "$work/tc-interrupt.err" >&2
    failed=1
elif ! ls "$store_tc"/shard-*.vpshard > /dev/null 2>&1; then
    echo "FAIL: fig5_3 interrupted run published no result file" >&2
    cat "$work/tc-interrupt.err" >&2
    failed=1
else
    echo "ok: fig5_3 interrupted run exited 130 and published its cells"
fi
echo "== fig5_3 resume"
"$tc_bench" "${args[@]}" --jobs 1 --result-store "$store_tc" --resume 1 \
    --csv "$work/tc-resumed.csv" \
    > "$work/tc-resumed" 2> "$work/tc-resumed.err" ||
    { echo "FAIL: fig5_3 resumed run crashed" >&2;
      cat "$work/tc-resumed.err" >&2; exit 1; }
if ! grep -q "resumed 2 of 4 cells" "$work/tc-resumed.err"; then
    echo "FAIL: fig5_3 resumed run did not reload its two cells" >&2
    cat "$work/tc-resumed.err" >&2
    failed=1
fi
if cmp -s "$work/tc-golden" "$work/tc-resumed" &&
    cmp -s "$work/tc-golden.csv" "$work/tc-resumed.csv"; then
    echo "ok: fig5_3 resumed stdout and CSV are byte-identical"
else
    echo "FAIL: fig5_3 resumed stdout or CSV differs from its golden run" >&2
    diff "$work/tc-golden" "$work/tc-resumed" | head -20 >&2
    diff "$work/tc-golden.csv" "$work/tc-resumed.csv" | head -20 >&2
    failed=1
fi

echo "== failed cell prints nan (fig3_3, --keep-going)"
# Jobs 1-3 capture the traces, so job 4 is go's cell.
"$did_bench" --insts 2000 --benchmarks go,compress,m88ksim --jobs 1 \
    --keep-going 1 --fault-inject "job:4:throw" \
    > "$work/did-failed" 2> "$work/did-failed.err" ||
    { echo "FAIL: fig3_3 --keep-going run crashed" >&2;
      cat "$work/did-failed.err" >&2; exit 1; }
go_row="$(grep '^go ' "$work/did-failed" || true)"
if grep -q 'nan' <<<"$go_row" && ! grep -qw '0\.0' <<<"$go_row"; then
    echo "ok: the failed go row reads nan"
else
    echo "FAIL: the failed go row is not nan: '$go_row'" >&2
    failed=1
fi

if [ "$failed" -ne 0 ]; then
    echo "fault soak FAILED" >&2
    exit 1
fi
echo "fault soak OK (faults never changed stdout; interrupt + resume works)"
