/**
 * @file
 * On-disk store of captured workload traces.
 *
 * Figure benches regenerate their traces on the VM; this store serves
 * the tools that measure or exercise the v3 format itself (perfbench's
 * workload set-ups). It keeps each capture once per
 * directory, in the block-framed v3 trace format (trace_v3.hpp), keyed
 * by everything that determines the capture's content: (workload,
 * insts, skip, scale, seed, format-version). The key is encoded in the
 * file name, so any change to a parameter — or a format version bump —
 * misses cleanly and old entries are simply never read again.
 *
 * Concurrency: entries are written to a temporary name and renamed into
 * place, so concurrent jobs (or concurrent processes sharing a
 * directory) never observe partial files. Temporaries orphaned by
 * killed processes are reaped on construction once they are older than
 * an hour, so live concurrent writers are untouched.
 *
 * Fault tolerance: reads and writes go through the fault-injectable
 * io layer (common/io.hpp) and transient (kIo) failures are retried a
 * bounded number of times with backoff. An entry that fails validation
 * (kCorrupt: bad checksum, truncation, wrong magic) is quarantined to a
 * `.corrupt-<entry>` name for post-mortem and reported as a miss, so the
 * caller recaptures instead of using bit-flipped data. A store whose
 * directory cannot be created or written reports a non-ok status().
 *
 * Durability: the v3 writer fsyncs before the atomic rename, so a
 * capture that hits ENOSPC or a crash never publishes a torn entry.
 *
 * Hygiene: alongside the orphaned-temporary reap, quarantined
 * `.corrupt-*` evidence files are garbage-collected once they are older
 * than a week, so a flaky disk cannot slowly fill the directory with
 * corpses.
 */

#ifndef VPSIM_TRACE_TRACE_CACHE_STORE_HPP
#define VPSIM_TRACE_TRACE_CACHE_STORE_HPP

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "trace/record.hpp"
#include "trace/trace_v3.hpp"

namespace vpsim
{

/** Everything that determines a captured trace's content. */
struct TraceCacheKey
{
    std::string workload;
    /** Measured-window length (after warm-up exclusion). */
    std::uint64_t insts = 0;
    /** Warm-up instructions executed and discarded before the window. */
    std::uint64_t skip = 0;
    unsigned scale = 1;
    std::uint64_t seed = 0;
    /** On-disk format version, part of the entry name. */
    std::uint32_t formatVersion = traceFormatVersionV3;
};

/** A directory of cached trace captures, one file per key. */
class TraceCacheStore
{
  public:
    /**
     * @param cache_dir Directory for entries; created (with parents)
     *        if it does not exist. Creation or writability failure is
     *        recorded in status(), not fatal.
     */
    explicit TraceCacheStore(std::string cache_dir);

    /**
     * ok() when the directory exists and a write probe succeeded at
     * construction; otherwise the error explaining why the store is
     * unusable.
     */
    const Status &status() const { return creationStatus; }

    /** The entry file an exact @p key match would live in. */
    std::string pathFor(const TraceCacheKey &key) const;

    /**
     * Look up @p key. Transient read failures are retried with backoff;
     * a corrupt entry is moved to `.corrupt-<entry>` beside it.
     *
     * @param out Replaced with the cached records on a hit.
     * @param error Set when an entry exists but cannot be used (corrupt,
     *        unreadable); such entries count as misses and the message
     *        names the offending file (and its quarantine destination
     *        when it was moved).
     * @return true on a hit.
     */
    [[nodiscard]] bool tryLoad(const TraceCacheKey &key,
                               std::vector<TraceRecord> *out,
                               Status *error) const;

    /**
     * Streaming store: open a temporary, hand @p produce a sink that
     * appends record chunks to the entry's TraceV3Writer, then fsync
     * and publish by atomic rename — so the capture never materializes
     * in this process. @p produce is re-invoked from scratch on each
     * transient-failure retry (a capture is deterministic, a
     * half-written file is not).
     */
    [[nodiscard]] Status storeStreaming(
        const TraceCacheKey &key,
        const std::function<Status(
            const std::function<Status(
                const std::vector<TraceRecord> &)> &)> &produce) const;

    /** @name Hit/miss counters (cumulative over this store's lifetime). */
    /// @{
    std::uint64_t hits() const { return hitCount.load(); }
    std::uint64_t misses() const { return missCount.load(); }
    /// @}

  private:
    void removeExpired();

    std::string dir;
    Status creationStatus = Status::ok();
    mutable std::atomic<std::uint64_t> hitCount{0};
    mutable std::atomic<std::uint64_t> missCount{0};
};

} // namespace vpsim

#endif // VPSIM_TRACE_TRACE_CACHE_STORE_HPP
