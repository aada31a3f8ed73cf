#!/usr/bin/env bash
# Smoke-test every bench binary: run each with a tiny instruction count
# serially, then with --jobs 4 and with --fleet-workers 3, and require
# all three stdouts to be byte-identical
# (the runGrid determinism contract, across both executors). Wired into
# ctest as `bench_smoke`.
#
# Usage: scripts/smoke_bench.sh [build-dir]
set -euo pipefail

build="${1:-build}"
[ -d "$build/bench" ] || { echo "no bench dir under '$build'" >&2; exit 1; }

work="$(mktemp -d "${TMPDIR:-/tmp}/vpsim-smoke.XXXXXX")"
trap 'rm -rf "$work"' EXIT

args=(--insts 2000 --benchmarks go,compress,m88ksim)
failed=0

for bench in "$build"/bench/*; do
    [ -f "$bench" ] && [ -x "$bench" ] || continue
    name="$(basename "$bench")"
    case "$name" in
        *.cmake|CMakeFiles|Makefile) continue ;;
        microbench_components)
            # google-benchmark binary: just prove it starts and lists.
            echo "== $name (--benchmark_list_tests)"
            "$bench" --benchmark_list_tests=true > /dev/null ||
                { echo "FAIL: $name" >&2; failed=1; }
            continue ;;
        perf_harness)
            # Timing output can't be byte-identical across runs;
            # validate the JSON schema instead (docs/PERF.md).
            echo "== $name (JSON schema)"
            "$bench" --insts 2000 --benchmarks go,compress --repeats 1 \
                > "$work/$name.json" 2> /dev/null ||
                { echo "FAIL: $name" >&2; failed=1; continue; }
            python3 "$(dirname "$0")/perf_report.py" --validate \
                "$work/$name.json" ||
                { echo "FAIL: $name (schema)" >&2; failed=1; }
            continue ;;
        streaming_soak)
            # Synthetic-stream soak with its own minimal CLI (no
            # --benchmarks/--jobs); timing goes to stderr, so just
            # prove a small bounded-memory round trip passes.
            echo "== $name (small round trip)"
            "$bench" --insts 100000 --mem-budget 64 > /dev/null \
                2> /dev/null ||
                { echo "FAIL: $name" >&2; failed=1; }
            continue ;;
        table3_2_pipeline_example)
            # Fixed 8-instruction worked example: no --insts/--benchmarks.
            echo "== $name"
            "$bench" --jobs 1 > "$work/$name.serial" 2> /dev/null ||
                { echo "FAIL: $name (serial)" >&2; failed=1; continue; }
            "$bench" --jobs 4 > "$work/$name.parallel" 2> /dev/null ||
                { echo "FAIL: $name (--jobs 4)" >&2; failed=1; continue; }
            "$bench" --fleet-workers 3 > "$work/$name.workers" 2> /dev/null ||
                { echo "FAIL: $name (--fleet-workers 3)" >&2; failed=1; continue; }
            ;;
        *)
            echo "== $name"
            "$bench" "${args[@]}" --jobs 1 \
                > "$work/$name.serial" 2> /dev/null ||
                { echo "FAIL: $name (serial)" >&2; failed=1; continue; }
            "$bench" "${args[@]}" --jobs 4 \
                > "$work/$name.parallel" 2> /dev/null ||
                { echo "FAIL: $name (--jobs 4)" >&2; failed=1; continue; }
            "$bench" "${args[@]}" --fleet-workers 3 \
                > "$work/$name.workers" 2> /dev/null ||
                { echo "FAIL: $name (--fleet-workers 3)" >&2; failed=1; continue; }
            ;;
    esac
    for run in parallel workers; do
        if ! cmp -s "$work/$name.serial" "$work/$name.$run"; then
            echo "FAIL: $name stdout differs between --jobs 1 and the" \
                 "$run run" >&2
            diff "$work/$name.serial" "$work/$name.$run" | head -20 >&2
            failed=1
        fi
    done
done

if [ "$failed" -ne 0 ]; then
    echo "bench smoke test FAILED" >&2
    exit 1
fi
echo "bench smoke test OK (all benches deterministic across job counts" \
     "and executors)"
