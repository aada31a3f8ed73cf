#!/usr/bin/env bash
# Fault-injection soak: drive figure benches through the deterministic
# fault injector and require that no injected fault ever changes stdout.
#
#   1. golden:     clean serial run — the reference bytes.
#   2. interrupt:  injected SIGINT mid-sweep with --result-store; the
#                  run must exit 130 and leave a published result file.
#   3. resume:     --resume 1 completes the sweep from that store.
#   4. fig5_3 interrupt + resume: the same SIGINT/--resume pair on a
#                  bench whose cells carry two values and which writes
#                  two CSV tables; stdout and --csv must match a clean
#                  run of it.
#   5. failed cell: fig3_3 under --keep-going with one injected job
#                  failure must print that benchmark's row as nan,
#                  never as zeros.
#
# The trace store's own faults (torn writes, checksum damage, read
# errors mid-load, ENOSPC and SIGINT mid-capture) are unit tests in
# tests/test_trace_cache.cpp: figure benches regenerate their traces
# and read no trace file.
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

echo "== golden (clean, serial)"
"$bench" "${args[@]}" --jobs 1 > "$work/golden" 2> /dev/null

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
