/**
 * @file
 * The model-integrity invariant engine.
 *
 * The machine models (core/, fetch/) produce every number in the
 * reproduced figures, and a bookkeeping bug there ships a silently
 * wrong speedup table — limit studies live or die on bounds like
 * "IPC never exceeds the fetch rate" actually holding. This engine
 * closes that loop: models register named checks that are evaluated
 * while they run, and a violated check raises an InvariantViolation
 * carrying a StatusCode::kInternal Status, so under `--keep-going`
 * the offending cell becomes a visible NaN instead of a wrong number.
 *
 * Checks come in two tiers, selected by `--check-invariants`:
 *  - cheap: always on by default. O(1) checks, most once per run;
 *    three run once per event of the Section 5 front end:
 *    `fetch.delivered_matches_consumed` per fetched instruction,
 *    `fetch.bundle_le_budget` per fetch cycle and `tc.line_geometry`
 *    per trace-cache line fill.
 *  - full:  per-cycle / per-record bookkeeping audits (window
 *    occupancy, per-cycle retire width, predictor counter balance,
 *    histogram mass). Off by default; CI runs the benches with
 *    `--check-invariants=full`.
 *
 * The catalog of registered checks is documented in docs/VALIDATION.md;
 * every check evaluated and every violation raised is counted so the
 * runtime can report coverage (`--stats`). Evaluations are tallied per
 * thread: a cheap check on the per-instruction path writes only its
 * own thread's counter, never a cache line shared by the pool.
 */

#ifndef VPSIM_COMMON_INVARIANT_HPP
#define VPSIM_COMMON_INVARIANT_HPP

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "common/status.hpp"

namespace vpsim
{

/** How much self-checking the models perform. */
enum class InvariantLevel
{
    Off,   ///< No checks (shaves the last few % off hot loops).
    Cheap, ///< O(1) checks, per run or per front-end event (default).
    Full,  ///< Per-cycle/per-record bookkeeping audits.
};

/** Parse "off" / "cheap" / "full"; fatal() on anything else. */
InvariantLevel invariantLevelFromString(const std::string &text);

/** Name of @p level for reports ("off", "cheap", "full"). */
const char *invariantLevelName(InvariantLevel level);

/** The process-wide checking level (set from --check-invariants). */
InvariantLevel invariantLevel();
void setInvariantLevel(InvariantLevel level);

/**
 * A violated model invariant.
 *
 * Derives from std::runtime_error so the experiment runtime's existing
 * failure isolation (--keep-going, the thread pool's first-exception
 * rethrow) handles it like any job failure; carries a
 * StatusCode::kInternal Status (optionally wrapping the Status that
 * triggered the check, preserving the cause chain) for callers that
 * branch on failure class.
 */
class InvariantViolation : public std::runtime_error
{
  public:
    InvariantViolation(const std::string &check,
                       const std::string &detail,
                       const Status &cause = Status::ok())
        : std::runtime_error("invariant '" + check +
                             "' violated: " + detail +
                             (cause.isOk()
                                  ? std::string()
                                  : ": [" +
                                        std::string(statusCodeName(
                                            cause.code())) +
                                        "] " + cause.message())),
          violationStatus(Status::wrap(StatusCode::kInternal,
                                       "invariant '" + check +
                                           "' violated: " + detail,
                                       cause)),
          checkName(check)
    {
    }

    /** kInternal Status (with any wrapped cause chain). */
    const Status &status() const { return violationStatus; }

    /** The registered name of the violated check. */
    const std::string &check() const { return checkName; }

  private:
    Status violationStatus;
    std::string checkName;
};

namespace detail
{

/**
 * One thread's count of evaluated checks.
 *
 * Only the owning thread writes @c evaluated, with a relaxed load and
 * store (no lock prefix); invariantChecksEvaluated() sums every tally.
 * Tallies live in a lock-free list that never shrinks: an exiting
 * thread gives its tally back with the count still in it, and the next
 * new thread continues counting in it, so exited threads are never
 * dropped from the total. Claiming, counting and summing take no lock
 * (a new tally comes from the allocator, which stays usable in a
 * forked child), so a child forked while other threads start or exit
 * can still count and read.
 */
struct alignas(64) CheckTally
{
    std::atomic<std::uint64_t> evaluated{0};
    /** A live thread counts in this tally. */
    std::atomic<bool> owned{false};
    /** The next tally in the list (immutable once published). */
    CheckTally *next = nullptr;
};

/** The calling thread's tally, or null before its first check. */
extern constinit thread_local CheckTally *t_checkTally;

/** Bind a tally to the calling thread (first check of a thread). */
CheckTally *claimCheckTally();

inline void
countCheckEvaluated()
{
    CheckTally *tally = t_checkTally;
    if (tally == nullptr) [[unlikely]]
        tally = claimCheckTally();
    tally->evaluated.store(
        tally->evaluated.load(std::memory_order_relaxed) + 1,
        std::memory_order_relaxed);
}

extern std::atomic<int> g_invariantLevel;

} // namespace detail

/** True when checks of @p tier are active under the current level. */
inline bool
invariantsActive(InvariantLevel tier)
{
    return detail::g_invariantLevel.load(std::memory_order_relaxed) >=
           static_cast<int>(tier);
}

/** Count and raise a violation of @p check (never returns). */
[[noreturn]] void invariantFailed(const std::string &check,
                                  const std::string &detail_text,
                                  const Status &cause = Status::ok());

/**
 * Evaluate one registered check: if checks of @p tier are active and
 * @p holds is false, raise an InvariantViolation named @p check with
 * @p detail. The detail string is only built on failure when callers
 * pass a callable.
 */
inline void
checkInvariant(InvariantLevel tier, bool holds, const char *check,
               const std::string &detail_text)
{
    if (!invariantsActive(tier))
        return;
    detail::countCheckEvaluated();
    if (!holds)
        invariantFailed(check, detail_text);
}

/** As above, with the detail built lazily (hot-loop checks). */
template <typename DetailFn,
          typename = std::enable_if_t<std::is_invocable_v<DetailFn &>>>
inline void
checkInvariant(InvariantLevel tier, bool holds, const char *check,
               DetailFn &&detail_fn)
{
    if (!invariantsActive(tier))
        return;
    detail::countCheckEvaluated();
    if (!holds)
        invariantFailed(check, detail_fn());
}

/**
 * Checks evaluated process-wide since start (for --stats): the sum
 * over live and exited threads. Exact once the counting threads are
 * joined; a read racing live threads sees each tally's latest store.
 */
std::uint64_t invariantChecksEvaluated();

/** Violations raised process-wide since start. */
std::uint64_t invariantViolations();

} // namespace vpsim

#endif // VPSIM_COMMON_INVARIANT_HPP
