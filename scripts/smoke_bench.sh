#!/usr/bin/env bash
# Smoke-test every bench binary: run each with a tiny instruction count
# serially, then with --jobs 4 and with --fleet-workers 3, and require
# all three stdouts to be byte-identical
# (the runGrid determinism contract, across both executors). Wired into
# ctest as `bench_smoke`.
#
# With --goldens, the same loop instead runs every figure, table and
# ablation bench at its default size and compares its stdout, and the
# --csv of each bench that declares one, byte for byte with the files
# committed under tests/goldens/ (ctest `figure_goldens`). fig3_1 also
# runs under --fleet-workers 2 against the same golden. `--goldens
# update` rewrites tests/goldens/ from the build; a change that moves a
# figure names every golden it regenerates in CHANGES.md.
#
# Usage: scripts/smoke_bench.sh [build-dir]
#        scripts/smoke_bench.sh --goldens check|update [build-dir]
set -euo pipefail

goldens=""
if [ "${1:-}" = "--goldens" ]; then
    goldens="${2:?--goldens needs check or update}"
    case "$goldens" in check|update) ;; *)
        echo "--goldens takes check or update, not '$goldens'" >&2; exit 1 ;;
    esac
    shift 2
fi
build="${1:-build}"
[ -d "$build/bench" ] || { echo "no bench dir under '$build'" >&2; exit 1; }
golden_dir="$(cd "$(dirname "$0")/.." && pwd)/tests/goldens"

work="$(mktemp -d "${TMPDIR:-/tmp}/vpsim-smoke.XXXXXX")"
trap 'rm -rf "$work"' EXIT

args=(--insts 2000 --benchmarks go,compress,m88ksim)
failed=0

# Golden mode: $1 is the bench, $2 the output name, the rest its
# options. Writes $work/$2.stdout, and $work/$2.csv when the bench
# declares --csv.
run_golden() {
    local bench="$1" out="$2"
    shift 2
    local csv=()
    if "$bench" --help | grep -q -- "--csv "; then
        csv=(--csv "$work/$out.csv")
    fi
    "$bench" "$@" "${csv[@]}" > "$work/$out.stdout" 2> /dev/null
}

# Golden mode: compare (or, under update, store) $work/$1.$2 against
# tests/goldens/$3.$2.
match_golden() {
    local out="$1" kind="$2" golden="$golden_dir/$3.$2"
    [ -f "$work/$out.$kind" ] || return 0
    if [ "$goldens" = update ]; then
        cp "$work/$out.$kind" "$golden"
    elif ! cmp -s "$golden" "$work/$out.$kind"; then
        echo "FAIL: $out $kind differs from tests/goldens/$3.$kind" >&2
        diff "$golden" "$work/$out.$kind" 2>&1 | head -20 >&2 || true
        failed=1
    fi
}

if [ "$goldens" = update ]; then
    mkdir -p "$golden_dir"
    rm -f "$golden_dir"/*.stdout "$golden_dir"/*.csv
fi

for bench in "$build"/bench/*; do
    [ -f "$bench" ] && [ -x "$bench" ] || continue
    name="$(basename "$bench")"
    if [ -n "$goldens" ]; then
        case "$name" in fig*|table*|ablation_*) ;; *) continue ;; esac
        echo "== $name (golden)"
        run_golden "$bench" "$name" ||
            { echo "FAIL: $name" >&2; failed=1; continue; }
        match_golden "$name" stdout "$name"
        match_golden "$name" csv "$name"
        if [ "$name" = fig3_1_fetch_rate ]; then
            run_golden "$bench" "$name.workers" --fleet-workers 2 ||
                { echo "FAIL: $name (--fleet-workers 2)" >&2; failed=1; continue; }
            [ "$goldens" = update ] ||
                { match_golden "$name.workers" stdout "$name"
                  match_golden "$name.workers" csv "$name"; }
        fi
        continue
    fi
    case "$name" in
        *.cmake|CMakeFiles|Makefile) continue ;;
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
            diff "$work/$name.serial" "$work/$name.$run" | head -20 >&2 ||
                true
            failed=1
        fi
    done
done

if [ "$goldens" = check ]; then
    for golden in "$golden_dir"/*.stdout; do
        [ -x "$build/bench/$(basename "$golden" .stdout)" ] ||
            { echo "FAIL: no bench for golden $golden" >&2; failed=1; }
    done
fi

if [ "$failed" -ne 0 ]; then
    echo "bench ${goldens:+golden }smoke test FAILED" >&2
    exit 1
fi
if [ -n "$goldens" ]; then
    echo "figure goldens OK ($goldens)"
else
    echo "bench smoke test OK (all benches deterministic across job" \
         "counts and executors)"
fi
