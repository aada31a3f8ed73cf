/**
 * @file
 * Process resource measurement: streaming_soak's per-phase peak RSS
 * (bench/streaming_soak.cpp) and SimRunner's --mem-budget check.
 *
 * Two pieces:
 *  - Stopwatch: a monotonic wall-clock timer (std::chrono::steady_clock
 *    only — the determinism lint bans calendar clocks in simulation
 *    code, and elapsed-time measurement needs monotonicity anyway);
 *  - RssSampler: a background thread that polls the process's resident
 *    set and keeps a per-phase peak. getrusage()'s ru_maxrss is a
 *    process-lifetime high-water mark, so it cannot attribute memory to
 *    one phase once a bigger phase has run; the sampler
 *    resets its own peak at each beginPhase().
 *
 * The sampler's peak/stop state is shared between the caller and the
 * sampling thread; it is guarded by the project Mutex and annotated for
 * clang's thread-safety analysis (thread_annotations.hpp), and the
 * concurrency test in tests/test_thread_pool.cpp runs it under TSan
 * (scripts/tsan_check.sh).
 */

#ifndef VPSIM_COMMON_RESOURCE_USAGE_HPP
#define VPSIM_COMMON_RESOURCE_USAGE_HPP

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <thread>

#include "common/thread_annotations.hpp"

namespace vpsim
{

/** Monotonic wall-clock stopwatch. */
class Stopwatch
{
  public:
    Stopwatch() : start(std::chrono::steady_clock::now()) {}

    /** Restart timing from now. */
    void restart() { start = std::chrono::steady_clock::now(); }

    /** Seconds elapsed since construction or the last restart(). */
    double
    seconds() const
    {
        const auto elapsed = std::chrono::steady_clock::now() - start;
        return std::chrono::duration<double>(elapsed).count();
    }

  private:
    std::chrono::steady_clock::time_point start;
};

/**
 * Peak-resident-set sampler.
 *
 * Spawns one sampling thread on construction; the thread polls the
 * current RSS every @p period and folds it into a peak that
 * beginPhase() resets and peakBytes() reads. Sampling is inherently an
 * underestimate (a spike shorter than the period can be missed), which
 * is fine for the harness's purpose of comparing models against each
 * other; the process-lifetime ru_maxrss is reported alongside as the
 * upper bound.
 */
class RssSampler
{
  public:
    explicit RssSampler(
        std::chrono::milliseconds period = std::chrono::milliseconds(5));

    /** Stops and joins the sampling thread. */
    ~RssSampler();

    RssSampler(const RssSampler &) = delete;
    RssSampler &operator=(const RssSampler &) = delete;

    /** Start a measurement phase: the peak restarts from current RSS. */
    void beginPhase() EXCLUDES(mutex);

    /** Peak RSS in bytes observed since the last beginPhase(). */
    std::size_t peakBytes() const EXCLUDES(mutex);

    /** Current resident set in bytes (/proc/self/statm; 0 if absent). */
    static std::size_t currentRssBytes();

    /** Process-lifetime peak RSS in bytes (getrusage ru_maxrss). */
    static std::size_t processPeakRssBytes();

  private:
    void samplerLoop() EXCLUDES(mutex);

    mutable Mutex mutex;
    std::size_t peak GUARDED_BY(mutex) = 0;
    bool stopRequested GUARDED_BY(mutex) = false;
    /** Signaled under mutex to wake the sampler for prompt shutdown. */
    std::condition_variable wakeup;

    const std::chrono::milliseconds samplePeriod;
    std::thread worker;
};

} // namespace vpsim

#endif // VPSIM_COMMON_RESOURCE_USAGE_HPP
