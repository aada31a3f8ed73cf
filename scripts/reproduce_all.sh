#!/usr/bin/env bash
# Rebuild the project, run the full test suite, and regenerate every
# paper figure and ablation into an output directory.
#
# Usage: scripts/reproduce_all.sh [output-dir] [extra bench args...]
#   e.g. scripts/reproduce_all.sh results --insts 1000000 --scale 2
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-reproduction-$(date +%Y%m%d-%H%M%S)}"
if [ $# -gt 0 ]; then shift; fi
mkdir -p "$out"

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure | tee "$out/tests.txt"

failed=0
for bench in build/bench/*; do
    [ -f "$bench" ] && [ -x "$bench" ] || continue
    name="$(basename "$bench")"
    echo "== $name"
    case "$name" in
        microbench_components|streaming_soak|table3_2_pipeline_example)
            # Own CLIs: no benchmark captures, so no shared bench args.
            cmd=("$bench") ;;
        *)
            cmd=("$bench" "$@")
            # Only the benches that write figure cells declare --csv.
            if grep -q -- '--csv' <<<"$("$bench" --help 2>&1 || true)"; then
                cmd+=(--csv "$out/figures.csv")
            fi ;;
    esac
    "${cmd[@]}" > "$out/$name.txt" 2>&1 ||
        { echo "FAIL: $name (see $out/$name.txt)" >&2; failed=1; }
done

echo "reproduction artifacts written to $out/"
exit "$failed"
