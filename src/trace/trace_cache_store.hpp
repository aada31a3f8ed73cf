/**
 * @file
 * On-disk cache of captured workload traces.
 *
 * Capturing the eight workload traces dominates the start-up time of
 * every figure bench, and each bench binary used to redo it. The cache
 * stores each capture once per machine, in the block-framed v3 trace
 * format (trace_v3.hpp), keyed by everything that determines the
 * capture's content: (workload, insts, skip, scale, seed,
 * format-version). The key is encoded in the file name, so any change
 * to a parameter — or a format version bump — misses cleanly and old
 * entries are simply never read again.
 *
 * Concurrency: entries are written to a temporary name and renamed into
 * place, so concurrent jobs (or concurrent bench processes sharing a
 * --trace-cache-dir) never observe partial files. Temporaries orphaned
 * by killed processes are reaped on construction once they are older
 * than a safety threshold, so live concurrent writers are untouched.
 *
 * Fault tolerance: reads and writes go through the fault-injectable
 * io layer (common/io.hpp) and transient (kIo) failures are retried a
 * bounded number of times with backoff. An entry that fails validation
 * (kCorrupt: bad checksum, truncation, wrong magic) is quarantined to a
 * `.corrupt-<key>` name for post-mortem and reported as a miss, so the
 * caller recaptures instead of simulating bit-flipped data. A store
 * whose directory cannot be created or written reports a non-ok
 * status(); callers (SimRunner) degrade to uncached in-memory capture.
 *
 * Durability: the v3 writer fsyncs before the atomic rename, so a
 * capture that hits ENOSPC or a crash never publishes a torn entry.
 * With salvage enabled (--salvage-blocks), an entry with rotted blocks
 * loads anyway — the damage is quarantined block by block and tallied
 * in the global salvage registry — instead of quarantining the whole
 * file and recapturing.
 *
 * Hygiene: alongside the orphaned-temporary reap, quarantined
 * `.corrupt-*` evidence files are garbage-collected once they are older
 * than a retention age (--cache-gc-days; default one week), so a flaky
 * disk cannot slowly fill the cache directory with corpses.
 */

#ifndef VPSIM_TRACE_TRACE_CACHE_STORE_HPP
#define VPSIM_TRACE_TRACE_CACHE_STORE_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/thread_annotations.hpp"
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
    /** Orphaned `*.tmp.<pid>` files younger than this are left alone. */
    static constexpr std::chrono::seconds defaultTmpReapAge{3600};

    /** Quarantined `.corrupt-*` files younger than this are kept. */
    static constexpr std::chrono::seconds defaultQuarantineGcAge{
        7 * 24 * 3600};

    /**
     * @param cache_dir Directory for entries; created (with parents)
     *        if it does not exist. Creation or writability failure is
     *        recorded in status(), not fatal — callers degrade.
     * @param tmp_reap_age Orphaned-temporary age threshold (tests
     *        shorten it).
     * @param quarantine_gc_age Retention age for `.corrupt-*` evidence
     *        files (zero disables the GC entirely).
     */
    explicit TraceCacheStore(
        std::string cache_dir,
        std::chrono::seconds tmp_reap_age = defaultTmpReapAge,
        std::chrono::seconds quarantine_gc_age = defaultQuarantineGcAge);

    /**
     * Load entries in salvage mode: quarantine + skip damaged
     * blocks (loss tallied in salvageRegistry()) instead of failing
     * the entry. Call before lookups start; not thread-safe against
     * concurrent tryLoad().
     */
    void setSalvageBlocks(bool salvage) { salvageBlocks = salvage; }

    const std::string &directory() const { return dir; }

    /**
     * ok() when the directory exists and a write probe succeeded at
     * construction; otherwise the error explaining why the cache is
     * unusable (callers should fall back to uncached capture).
     */
    const Status &status() const { return creationStatus; }

    /** The entry file an exact @p key match would live in. */
    std::string pathFor(const TraceCacheKey &key) const;

    /** Where a corrupt entry for @p key is quarantined. */
    std::string quarantinePathFor(const TraceCacheKey &key) const;

    /**
     * Look up @p key. Transient read failures are retried with backoff;
     * corrupt entries are quarantined to quarantinePathFor(key).
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
     * Read back the entry this process just published under @p key,
     * with tryLoad()'s retries, backoff and `retrying ...` warning for
     * transient (kIo) failures. It is not a lookup: it touches neither
     * the hit/miss counters nor quarantine.
     */
    [[nodiscard]] Status readBack(const TraceCacheKey &key,
                                  std::vector<TraceRecord> *out) const;

    /**
     * Store @p records under @p key: storeStreaming() with one chunk,
     * so the entry is published by atomic rename and transient
     * failures are retried with backoff before giving up.
     */
    [[nodiscard]] Status store(
        const TraceCacheKey &key,
        const std::vector<TraceRecord> &records) const;

    /**
     * Streaming store: open a temporary, hand @p produce a sink that
     * appends record chunks to the entry's TraceV3Writer, and publish
     * with the same fsync + atomic-rename contract as store() — so the
     * capture never materializes in this process. @p produce is
     * re-invoked from scratch on each transient-failure retry (a
     * capture is deterministic, a half-written file is not).
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

    /**
     * The most recent per-entry failure (quarantined corruption,
     * exhausted store retries), ok() when none has occurred. Lookups
     * and stores run concurrently on pool workers, so the slot is
     * guarded; the accessor returns a snapshot.
     */
    Status lastError() const EXCLUDES(statsMutex);

    /** Orphaned temporaries deleted by the constructor's reap. */
    std::uint64_t reapedTmpFiles() const { return reapedCount; }

    /** Expired `.corrupt-*` files deleted by the constructor's GC. */
    std::uint64_t gcRemovedQuarantineFiles() const { return gcCount; }

  private:
    void reapOrphanedTemporaries(std::chrono::seconds tmp_reap_age);
    void gcQuarantinedEntries(std::chrono::seconds quarantine_gc_age);
    void noteError(const Status &error) const EXCLUDES(statsMutex);

    std::string dir;
    Status creationStatus = Status::ok();
    bool salvageBlocks = false;
    std::uint64_t reapedCount = 0;
    std::uint64_t gcCount = 0;
    mutable std::atomic<std::uint64_t> hitCount{0};
    mutable std::atomic<std::uint64_t> missCount{0};
    /** mutable: tryLoad()/store() are const but record failures. */
    mutable Mutex statsMutex;
    mutable Status lastErrorStatus GUARDED_BY(statsMutex) =
        Status::ok();
};

} // namespace vpsim

#endif // VPSIM_TRACE_TRACE_CACHE_STORE_HPP
