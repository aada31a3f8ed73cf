#!/usr/bin/env bash
# Mutation smoke test: prove the self-checking machinery actually
# detects a model bug, not just that it stays quiet on correct code.
# Four mutants, each in a tree of its own:
#
# 1. -DVPSIM_MUTATION=classifier-drop-correct,
# which deletes the classifier's correct-prediction increment (see
# Kernel::tally in src/predictor/classifier.hpp). The
# vp.hit_miss_balance invariant (predictions made == correct + wrong)
# must then fire: under
# --keep-going the affected cells become NaN and the failure list shows
# a [internal] invariant violation. If the mutant runs cleanly, the
# self-checks are dead and this script fails. A bench whose runGrid
# cells carry more than one value (fig5_2: the gain, plus the BTB
# accuracy at n=4) must then write every failed cell to its --csv as
# nan, never as a silent zero.
#
# 2. -DVPSIM_MUTATION=pipeline-late-wakeup, which makes the Section 5
# scheduler see every produced value one cycle late (see wakeLatency in
# src/core/pipeline_machine.cpp). No invariant can see that; the
# reference pipeline can: fig5_3 under --cross-check 8 must report a
# cross-check violation, while the unmutated build (the second
# argument, default build/) must report none and 8 cells
# cross-checked.
#
# 3. -DVPSIM_MUTATION=fetch-extra-taken, which lets the Sequential front
# end fetch one taken transfer more per cycle than its limit (see
# takenStop in src/fetch/sequential_fetch.cpp). The reference pipeline
# builds the same front end, so only the fetch.bundle_rules invariant
# can see it: fig5_1 under --check-invariants cheap must fail its cells
# with that invariant.
#
# 4. -DVPSIM_MUTATION=did-write-before-read, which makes the DID
# collector record an instruction's write before its reads (see
# DidCollector::observe in src/analysis/did.cpp), so an instruction that
# reads its own destination depends on itself at distance 0: fig3_3
# under --check-invariants cheap must fail its cells with
# did.producer_precedes_consumer.
#
# Usage: scripts/mutation_smoke.sh [mutant-build-dir] [clean-build-dir]
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$root/build-mutation-smoke}"
wakeup_build="$build-late-wakeup"
taken_build="$build-extra-taken"
did_build="$build-did-write-before-read"
clean_build="${2:-$root/build}"

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

echo "mutation-smoke: building mutant (pipeline-late-wakeup)"
cmake -B "$wakeup_build" -S "$root" -DCMAKE_BUILD_TYPE=Release \
    -DVPSIM_MUTATION=pipeline-late-wakeup >/dev/null
cmake --build "$wakeup_build" -j"$(nproc)" \
    --target fig5_3_trace_cache >/dev/null

echo "mutation-smoke: running the mutant under --cross-check 8"
out_wakeup="$("$wakeup_build/bench/fig5_3_trace_cache" --insts 2000 \
    --cross-check 8 --keep-going 1 2>&1 || true)"
if ! grep -q "invariant 'cross-check' violated" <<<"$out_wakeup"; then
    echo "mutation-smoke: FAIL - the late-wakeup mutant agreed with the" \
         "reference pipeline; --cross-check is not protecting the" \
         "Section 5 scheduler"
    echo "---- mutant output ----"
    echo "$out_wakeup"
    exit 1
fi
echo "mutation-smoke: PASS (reference pipeline caught the mutant)"

echo "mutation-smoke: building mutant (fetch-extra-taken)"
cmake -B "$taken_build" -S "$root" -DCMAKE_BUILD_TYPE=Release \
    -DVPSIM_MUTATION=fetch-extra-taken >/dev/null
cmake --build "$taken_build" -j"$(nproc)" \
    --target fig5_1_taken_branches_ideal_btb >/dev/null

echo "mutation-smoke: running the mutant with --check-invariants cheap"
out_taken="$("$taken_build/bench/fig5_1_taken_branches_ideal_btb" \
    --insts 2000 --benchmarks compress --check-invariants cheap \
    --keep-going 1 2>&1 || true)"
if grep -q "invariant 'fetch.bundle_rules' violated" <<<"$out_taken" &&
    grep -q "\[internal\]" <<<"$out_taken"; then
    echo "mutation-smoke: PASS (fetch.bundle_rules caught the mutant)"
else
    echo "mutation-smoke: FAIL - the extra-taken mutant ran without" \
         "tripping fetch.bundle_rules; nothing checks the Sequential" \
         "front end's taken-transfer limit"
    echo "---- mutant output ----"
    echo "$out_taken"
    exit 1
fi

echo "mutation-smoke: building mutant (did-write-before-read)"
cmake -B "$did_build" -S "$root" -DCMAKE_BUILD_TYPE=Release \
    -DVPSIM_MUTATION=did-write-before-read >/dev/null
cmake --build "$did_build" -j"$(nproc)" --target fig3_3_avg_did >/dev/null

echo "mutation-smoke: running the mutant with --check-invariants cheap"
out_did="$("$did_build/bench/fig3_3_avg_did" --insts 2000 \
    --benchmarks compress --check-invariants cheap \
    --keep-going 1 2>&1 || true)"
if grep -q "invariant 'did.producer_precedes_consumer' violated" \
        <<<"$out_did" && grep -q "\[internal\]" <<<"$out_did"; then
    echo "mutation-smoke: PASS (did.producer_precedes_consumer caught" \
         "the mutant)"
else
    echo "mutation-smoke: FAIL - the write-before-read mutant ran without" \
         "tripping did.producer_precedes_consumer; nothing checks that" \
         "DID arcs run from producer to consumer"
    echo "---- mutant output ----"
    echo "$out_did"
    exit 1
fi

echo "mutation-smoke: checking the unmutated scheduler agrees"
if [[ ! -f "$clean_build/CMakeCache.txt" ]]; then
    cmake -B "$clean_build" -S "$root" -DCMAKE_BUILD_TYPE=Release >/dev/null
fi
cmake --build "$clean_build" -j"$(nproc)" \
    --target fig5_3_trace_cache >/dev/null
out_clean="$("$clean_build/bench/fig5_3_trace_cache" --insts 2000 \
    --cross-check 8 --keep-going 1 --stats 1 2>&1 || true)"
if grep -q "invariant 'cross-check' violated" <<<"$out_clean" ||
    ! grep -q "8 cells cross-checked" <<<"$out_clean"; then
    echo "mutation-smoke: FAIL - the unmutated build did not cross-check" \
         "8 cells cleanly"
    echo "---- output ----"
    echo "$out_clean"
    exit 1
fi
echo "mutation-smoke: PASS (unmutated: 8 cells cross-checked, all agree)"
