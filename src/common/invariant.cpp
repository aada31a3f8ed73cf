#include "common/invariant.hpp"

#include "common/logging.hpp"

namespace vpsim
{

namespace detail
{

// Cheap is the default: the always-on tier's checks are O(1) each.
std::atomic<int> g_invariantLevel{
    static_cast<int>(InvariantLevel::Cheap)};

constinit thread_local CheckTally *t_checkTally = nullptr;

namespace
{

/** Head of the tally list; tallies are never freed. */
std::atomic<CheckTally *> g_tallies{nullptr};

std::atomic<std::uint64_t> g_violations{0};

/** Gives the thread's tally back when the thread exits. */
struct TallyRelease
{
    ~TallyRelease()
    {
        if (t_checkTally == nullptr)
            return;
        // Release: the next owner's acquiring claim sees the count.
        t_checkTally->owned.store(false, std::memory_order_release);
        t_checkTally = nullptr;
    }
};

} // namespace

CheckTally *
claimCheckTally()
{
    // Constructed here, on the thread's first check, so its destructor
    // runs at this thread's exit.
    thread_local TallyRelease release;
    static_cast<void>(release);

    for (CheckTally *tally = g_tallies.load(std::memory_order_acquire);
         tally != nullptr; tally = tally->next) {
        bool expected = false;
        if (!tally->owned.load(std::memory_order_relaxed) &&
            tally->owned.compare_exchange_strong(
                expected, true, std::memory_order_acquire,
                std::memory_order_relaxed))
            return t_checkTally = tally;
    }
    auto *fresh = new CheckTally;
    fresh->owned.store(true, std::memory_order_relaxed);
    CheckTally *head = g_tallies.load(std::memory_order_relaxed);
    do {
        fresh->next = head;
    } while (!g_tallies.compare_exchange_weak(head, fresh,
                                              std::memory_order_release,
                                              std::memory_order_relaxed));
    return t_checkTally = fresh;
}

} // namespace detail

InvariantLevel
invariantLevelFromString(const std::string &text)
{
    if (text == "off")
        return InvariantLevel::Off;
    if (text == "cheap")
        return InvariantLevel::Cheap;
    if (text == "full")
        return InvariantLevel::Full;
    fatal("--check-invariants expects off, cheap or full, got '" + text +
          "'");
}

const char *
invariantLevelName(InvariantLevel level)
{
    switch (level) {
      case InvariantLevel::Off: return "off";
      case InvariantLevel::Cheap: return "cheap";
      case InvariantLevel::Full: return "full";
    }
    return "unknown";
}

InvariantLevel
invariantLevel()
{
    return static_cast<InvariantLevel>(
        detail::g_invariantLevel.load(std::memory_order_relaxed));
}

void
setInvariantLevel(InvariantLevel level)
{
    detail::g_invariantLevel.store(static_cast<int>(level),
                                   std::memory_order_relaxed);
}

void
invariantFailed(const std::string &check, const std::string &detail_text,
                const Status &cause)
{
    detail::g_violations.fetch_add(1, std::memory_order_relaxed);
    throw InvariantViolation(check, detail_text, cause);
}

std::uint64_t
invariantChecksEvaluated()
{
    std::uint64_t total = 0;
    for (const detail::CheckTally *tally =
             detail::g_tallies.load(std::memory_order_acquire);
         tally != nullptr; tally = tally->next)
        total += tally->evaluated.load(std::memory_order_relaxed);
    return total;
}

std::uint64_t
invariantViolations()
{
    return detail::g_violations.load(std::memory_order_relaxed);
}

} // namespace vpsim
