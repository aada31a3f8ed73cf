#!/usr/bin/env bash
# Mutation smoke test: prove the self-checking machinery actually
# detects a model bug, not just that it stays quiet on correct code.
#
# Builds a separate tree with -DVPSIM_MUTATION=classifier-drop-correct,
# which deletes the classifier's correct-prediction increment (see
# src/predictor/classifier.cpp). The vp.hit_miss_balance invariant
# (predictions made == correct + wrong) must then fire: under
# --keep-going the affected cells become NaN and the failure list shows
# a [internal] invariant violation. If the mutant runs cleanly, the
# self-checks are dead and this script fails. A bench that fills its
# own result table from SimRunner::run() (fig5_2) must then write every
# failed cell to its --csv as nan, never as a silent zero.
#
# Usage: scripts/mutation_smoke.sh [mutant-build-dir]
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$root/build-mutation-smoke}"

echo "mutation-smoke: building mutant (classifier-drop-correct)"
cmake -B "$build" -S "$root" -DCMAKE_BUILD_TYPE=Release \
    -DVPSIM_MUTATION=classifier-drop-correct >/dev/null
cmake --build "$build" -j"$(nproc)" \
    --target fig3_1_fetch_rate fig5_2_taken_branches_2level_btb >/dev/null

echo "mutation-smoke: running the mutant with --check-invariants cheap"
out="$("$build/bench/fig3_1_fetch_rate" --insts 2000 \
    --benchmarks compress --check-invariants cheap \
    --keep-going 1 2>&1 || true)"

if grep -q "vp.hit_miss_balance" <<<"$out" &&
    grep -q "\[internal\]" <<<"$out"; then
    echo "mutation-smoke: PASS (invariant engine caught the mutant:" \
         "kInternal NaN cells)"
else
    echo "mutation-smoke: FAIL - the mutant ran without tripping" \
         "vp.hit_miss_balance; self-checks are not protecting the" \
         "predictor bookkeeping"
    echo "---- mutant output ----"
    echo "$out"
    exit 1
fi

echo "mutation-smoke: checking --check-invariants off lets the mutant through"
out_off="$("$build/bench/fig3_1_fetch_rate" --insts 2000 \
    --benchmarks compress --check-invariants off \
    --keep-going 1 2>&1 || true)"
if grep -q "vp.hit_miss_balance" <<<"$out_off"; then
    echo "mutation-smoke: FAIL - invariants fired despite" \
         "--check-invariants off"
    exit 1
fi
echo "mutation-smoke: PASS (gate respected: off level is silent)"

echo "mutation-smoke: checking failed raw-run() cells reach the CSV as nan"
csv="$build/mutation-smoke-fig5_2.csv"
rm -f "$csv"
out_csv="$("$build/bench/fig5_2_taken_branches_2level_btb" --insts 2000 \
    --benchmarks compress,go --check-invariants cheap \
    --keep-going 1 --csv "$csv" 2>&1 || true)"
# Each fig5_2 job owns exactly one CSV cell, so the failed-job count
# is the number of cells that must read nan.
failed="$(sed -n 's/^sim: \([0-9]*\) job(s) FAILED.*/\1/p' <<<"$out_csv")"
nan_cells="$(grep -c '^fig5\.2,.*,nan$' "$csv" || true)"
if [[ -z "$failed" || "$failed" -eq 0 || "$nan_cells" -ne "$failed" ]]; then
    echo "mutation-smoke: FAIL - ${failed:-0} fig5_2 job(s) failed but" \
         "$nan_cells CSV cell(s) read nan"
    echo "---- $csv ----"
    cat "$csv" 2>/dev/null || true
    exit 1
fi
echo "mutation-smoke: PASS ($failed failed cells written as nan)"
