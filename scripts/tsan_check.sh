#!/usr/bin/env bash
# Build the concurrency-sensitive test binaries with ThreadSanitizer
# and run their suites. TSan is the dynamic half of the concurrency
# story: the clang thread-safety annotations prove lock discipline at
# compile time, TSan catches the races annotations cannot see (atomics
# misuse, unlocked signal paths) at run time.
#
# Usage:
#   scripts/tsan_check.sh                 # build + run default suites
#   scripts/tsan_check.sh --build-dir DIR # reuse/choose the TSan tree
#
# Exit codes: 0 clean, 1 build/test failure (including any reported
# race — halt_on_error is set), 2 setup error.
set -u -o pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="$ROOT/build-tsan"
# The suites that exercise the multithreaded runtime: the work-stealing
# pool, SimRunner's watchdog/signal-publish/failure paths (test_sim also
# forks the process executor's workers from the threaded parent), the
# validation harness that drives them end to end, and the v3 suite,
# whose streaming source decodes ahead on a thread of its own.
SUITES=(test_thread_pool test_sim test_validation test_trace_v3)

while [ $# -gt 0 ]; do
    case "$1" in
        --build-dir) shift; BUILD_DIR="${1:?--build-dir needs a path}" ;;
        -h|--help) grep '^#' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
        *) echo "tsan_check.sh: unknown option '$1'" >&2; exit 2 ;;
    esac
    shift
done

cmake -B "$BUILD_DIR" -S "$ROOT" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DVPSIM_SANITIZE=thread >/dev/null || exit 2
cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${SUITES[@]}" \
    || exit 1

# halt_on_error: a single data race fails the run loudly instead of
# scrolling past; second_deadlock_stack helps lock-order reports.
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1 ${TSAN_OPTIONS:-}"

FAIL=0
for suite in "${SUITES[@]}"; do
    echo "tsan_check.sh: running $suite"
    if ! "$BUILD_DIR/tests/$suite"; then
        echo "tsan_check.sh: $suite FAILED under TSan" >&2
        FAIL=1
    fi
done
if [ "$FAIL" -ne 0 ]; then
    exit 1
fi
echo "tsan_check.sh: all ${#SUITES[@]} suites race-clean."
exit 0
