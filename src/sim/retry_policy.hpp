/**
 * @file
 * Bounded retry with exponential backoff and deterministic jitter.
 *
 * The policy is pure arithmetic over (attempt, Rng) — no clock, no
 * sleeping — so the process executor owns *when* to act (it turns a delay
 * into a steady_clock deadline) and tests can verify the cap, the
 * jitter bounds, and the give-up point without ever waiting. Jitter
 * comes from the project's seeded Rng, keeping retry schedules
 * reproducible run to run like everything else in the simulator.
 */

#ifndef VPSIM_SIM_RETRY_POLICY_HPP
#define VPSIM_SIM_RETRY_POLICY_HPP

#include <chrono>
#include <cstdint>

#include "common/rng.hpp"

namespace vpsim
{

/** Backoff schedule for failed shards. */
struct RetryPolicy
{
    /** Attempts before a shard is bisected / its cell quarantined. */
    int maxAttempts = 3;
    /** Delay before attempt 2 (attempt 1 runs immediately). */
    std::chrono::milliseconds baseDelay{200};
    /** Ceiling the exponential curve saturates at. */
    std::chrono::milliseconds maxDelay{5000};
    /** Jitter as a fraction of the capped delay (0 disables). */
    double jitterFrac = 0.25;

    /** True once @p attempts failures mean this shard is done trying. */
    bool givesUpAfter(int attempts) const
    {
        return attempts >= maxAttempts;
    }

    /**
     * Delay before retrying after @p attempt failures (attempt >= 1):
     * min(maxDelay, baseDelay * 2^(attempt-1)), then +/- jitterFrac
     * drawn from @p rng. Never negative, never above
     * maxDelay * (1 + jitterFrac).
     */
    std::chrono::milliseconds delay(int attempt, Rng &rng) const
    {
        std::uint64_t ms =
            static_cast<std::uint64_t>(baseDelay.count());
        for (int i = 1; i < attempt; ++i) {
            ms *= 2;
            if (ms >= static_cast<std::uint64_t>(maxDelay.count()))
                break;
        }
        const auto cap = static_cast<std::uint64_t>(maxDelay.count());
        if (ms > cap)
            ms = cap;
        if (jitterFrac > 0.0) {
            const auto jitter = static_cast<std::uint64_t>(
                static_cast<double>(ms) * jitterFrac);
            if (jitter > 0) {
                // Uniform in [ms - jitter, ms + jitter].
                ms = ms - jitter + rng.nextBelow(2 * jitter + 1);
            }
        }
        return std::chrono::milliseconds(
            static_cast<std::int64_t>(ms));
    }
};

} // namespace vpsim

#endif // VPSIM_SIM_RETRY_POLICY_HPP
