/**
 * @file
 * Cooperative cancellation with progress heartbeats.
 *
 * The experiment runtime's watchdog (`--job-timeout`) must be able to
 * detect a stuck or runaway simulation job and stop it without killing
 * the whole sweep. Threads cannot be killed safely, so cancellation is
 * cooperative: each running job is handed a CancellationToken, the
 * machine models publish progress (cycles simulated) through
 * simHeartbeat() from their main loops, and the watchdog cancels a
 * token whose progress counter stops advancing. The next heartbeat
 * then throws JobCanceledError, which unwinds the job like any other
 * failure (--keep-going: a NaN cell; otherwise: abort the run).
 *
 * The current token is carried in a thread-local so the models' deep
 * call stacks need no plumbing; jobs that never heartbeat (no machine
 * loop) are still *detected* by the watchdog but can only be reported,
 * not stopped. In a worker process of runGrid's process executor the
 * token also forwards its beats to the parent through a heartbeat pipe
 * (forwardTo()); there the parent is the watchdog, and it can stop any
 * job by killing the process.
 *
 * Thread safety: the token is deliberately lock-free — a heartbeat
 * sits on every machine model's inner loop, so it must cost two
 * relaxed atomic accesses, not a mutex. There is therefore nothing
 * here for GUARDED_BY (thread_annotations.hpp) to guard; the
 * shared-state contract is the two std::atomic members below (the
 * forwarding fields are touched only by the job's own thread), and the
 * watchdog tolerates the staleness relaxed ordering allows (it only
 * ever compares successive progress samples).
 */

#ifndef VPSIM_COMMON_CANCELLATION_HPP
#define VPSIM_COMMON_CANCELLATION_HPP

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/status.hpp"

namespace vpsim
{

class HeartbeatWriter;

/** Shared flag + progress counter between one job and the watchdog. */
class CancellationToken
{
  public:
    /**
     * Also publish beats to @p writer (a worker process's heartbeat
     * pipe): at most one frame per forwardInterval, and only when the
     * progress value changed, so a pipe write costs a vanishing share
     * of a cell. Single-threaded use only (no watchdog reads a
     * forwarding token).
     */
    void forwardTo(HeartbeatWriter *writer) { forwardWriter = writer; }

    static constexpr std::chrono::milliseconds forwardInterval{50};

    /** Ask the job to stop at its next heartbeat. */
    void requestCancel() { cancelRequested.store(true); }

    /** The watchdog asked this job to stop. */
    bool canceled() const
    {
        return cancelRequested.load(std::memory_order_relaxed);
    }

    /** Publish monotonic progress (e.g. cycles simulated). */
    void beat(std::uint64_t progress_units)
    {
        progressCounter.store(progress_units,
                              std::memory_order_relaxed);
        if (forwardWriter != nullptr)
            forwardBeat(progress_units);
    }

    /** Last published progress value. */
    std::uint64_t progress() const
    {
        return progressCounter.load(std::memory_order_relaxed);
    }

  private:
    void forwardBeat(std::uint64_t progress_units);

    std::atomic<bool> cancelRequested{false};
    std::atomic<std::uint64_t> progressCounter{0};
    HeartbeatWriter *forwardWriter = nullptr;
    std::uint64_t lastForwarded = 0;
    std::chrono::steady_clock::time_point lastForwardTime{};
};

/** Thrown by a heartbeat once the job's token was canceled. */
class JobCanceledError : public std::runtime_error
{
  public:
    explicit JobCanceledError(const std::string &reason)
        : std::runtime_error(reason),
          errorStatus(Status::error(StatusCode::kTimeout, reason))
    {
    }

    /** kTimeout Status for callers that branch on failure class. */
    const Status &status() const { return errorStatus; }

  private:
    Status errorStatus;
};

/**
 * Worker end of a cross-process heartbeat pipe.
 *
 * The in-process watchdog above reads a CancellationToken's progress
 * counter directly; a forked worker process of runGrid's process
 * executor (sim/worker_handle.hpp) publishes progress to its parent by
 * writing 8-byte frames to an inherited pipe fd. Writes are
 * non-blocking and best-effort: a full pipe drops the frame (a later
 * beat supersedes it) and a closed read end (parent died) is ignored —
 * the worker must never be killed by SIGPIPE just because nobody is
 * listening anymore.
 */
class HeartbeatWriter
{
  public:
    HeartbeatWriter() = default;
    ~HeartbeatWriter() { close(); }

    HeartbeatWriter(const HeartbeatWriter &) = delete;
    HeartbeatWriter &operator=(const HeartbeatWriter &) = delete;

    /** Adopt pipe write end @p fd (made non-blocking); -1 disables. */
    void attach(int fd);

    bool attached() const { return pipeFd >= 0; }

    /** Publish @p progress_units (monotonic) to the parent. */
    void beat(std::uint64_t progress_units);

    /** Close the fd (idempotent). */
    void close();

  private:
    int pipeFd = -1;
};

/**
 * Parent end of a worker heartbeat pipe.
 *
 * poll() drains every frame currently buffered and keeps the latest
 * progress value; the process executor's hang detector treats any
 * new frame as progress.
 */
class HeartbeatReader
{
  public:
    HeartbeatReader() = default;
    ~HeartbeatReader() { close(); }

    HeartbeatReader(const HeartbeatReader &) = delete;
    HeartbeatReader &operator=(const HeartbeatReader &) = delete;

    /** Movable so owners (worker handles) can live in vectors. */
    HeartbeatReader(HeartbeatReader &&other) noexcept { swap(other); }
    HeartbeatReader &operator=(HeartbeatReader &&other) noexcept
    {
        if (this != &other) {
            close();
            swap(other);
        }
        return *this;
    }

    /** Adopt pipe read end @p fd (made non-blocking); -1 disables. */
    void attach(int fd);

    bool attached() const { return pipeFd >= 0; }

    /**
     * Drain buffered frames. Returns true when at least one complete
     * frame arrived since the last poll; latest() then holds the newest
     * progress value. A torn final frame is kept pending until its
     * remaining bytes arrive.
     */
    bool poll();

    /** Newest progress value any poll() has seen. */
    std::uint64_t latest() const { return latestProgress; }

    /** Close the fd (idempotent). */
    void close();

  private:
    void swap(HeartbeatReader &other) noexcept
    {
        std::swap(pipeFd, other.pipeFd);
        std::swap(latestProgress, other.latestProgress);
        for (std::size_t i = 0; i < sizeof(partial); ++i)
            std::swap(partial[i], other.partial[i]);
        std::swap(partialBytes, other.partialBytes);
    }

    int pipeFd = -1;
    std::uint64_t latestProgress = 0;
    unsigned char partial[8] = {};
    std::size_t partialBytes = 0;
};

/** The calling thread's active token (nullptr outside a watched job). */
CancellationToken *currentCancellationToken();

/** Install/clear the calling thread's token (runtime use only). */
void setCurrentCancellationToken(CancellationToken *token);

/**
 * Publish @p progress_units from a model's main loop and honor a
 * pending cancellation by throwing JobCanceledError. No-op (one
 * thread-local load) when the thread runs no watched job, so models
 * can call it unconditionally.
 */
inline void
simHeartbeat(std::uint64_t progress_units)
{
    CancellationToken *token = currentCancellationToken();
    if (token == nullptr)
        return;
    token->beat(progress_units);
    if (token->canceled()) {
        throw JobCanceledError(
            "job canceled by the watchdog after " +
            std::to_string(progress_units) + " progress units");
    }
}

} // namespace vpsim

#endif // VPSIM_COMMON_CANCELLATION_HPP
