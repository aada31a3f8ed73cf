/**
 * @file
 * Content-addressed store of finished grid cells: runGrid's resume
 * mechanism (`--result-store DIR`, `--resume 1`).
 *
 * A producer publishes one small text file per range of cells — the
 * cell values — named by the owning sweep's hash and the cell range,
 * written through the fault-injectable io layer to a temporary and
 * renamed into place (the same torn-write-proof publish protocol the
 * trace store uses). Worker
 * processes (--fleet-workers) publish one file per shard; the thread
 * pool publishes one sparse file per grid, when the grid completes and
 * when a signal interrupts it. A CRC-32 footer covers every byte above
 * it, so a truncated or bit-flipped file is never merged: corrupt
 * files are quarantined to `.corrupt-*` for post-mortem and their
 * cells simply recomputed.
 *
 * Resume: a restarted sweep scans the directory, merges every intact
 * file carrying its hash — regardless of how ranges were drawn when the
 * file was written — and computes only the cells still missing.
 * Killing a sweep with `kill -9` therefore costs at most the work in
 * flight since the last publish.
 *
 * Format changes: the store folds its layout version into the hash it
 * is given, so files written in an older layout carry another hash in
 * their names and are never opened — neither merged nor quarantined.
 */

#ifndef VPSIM_SIM_RESULT_STORE_HPP
#define VPSIM_SIM_RESULT_STORE_HPP

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"

namespace vpsim
{

/** One published cell range. */
struct ShardResult
{
    /** (global cell index, value) pairs in ascending index order. */
    std::vector<std::pair<std::uint32_t, double>> cells;
};

/** A directory of cell-range result files, namespaced by sweep hash. */
class ResultStore
{
  public:
    /**
     * @param dir Store directory; created (with parents) if missing.
     *        Failure is recorded in status(), not fatal.
     * @param hash The owning sweep's identity, folded with the layout
     *        version; files of other sweeps or other layouts sharing
     *        the directory are ignored.
     */
    ResultStore(std::string dir, std::uint64_t hash);

    /** ok() when the directory exists and is writable. */
    const Status &status() const { return creationStatus; }

    const std::string &directory() const { return dir; }

    /** The file a result for cells [first, last] is published under. */
    std::string pathFor(std::uint32_t first_cell,
                        std::uint32_t last_cell) const;

    /**
     * Publish @p result for cells [first, last]: serialize with a
     * CRC-32 footer to a temporary, fsync, rename into place.
     */
    [[nodiscard]] Status store(std::uint32_t first_cell,
                               std::uint32_t last_cell,
                               const ShardResult &result) const;

    /**
     * Strict-parse the result file for cells [first, last]. kCorrupt
     * on any framing, checksum, hash or count anomaly; kIo when the
     * file cannot be read. The file is not quarantined here — the
     * caller decides (the process executor retries the shard).
     */
    [[nodiscard]] Status load(std::uint32_t first_cell,
                              std::uint32_t last_cell,
                              ShardResult *out) const;

    /** Outcome of a directory scan. */
    struct ScanReport
    {
        std::uint64_t filesMerged = 0;
        std::uint64_t cellsMerged = 0;
        std::uint64_t filesQuarantined = 0;
    };

    /**
     * Merge every intact result file of this sweep into @p cells
     * (later files never overwrite earlier cells — files of one sweep
     * agree by construction). Corrupt files are quarantined to
     * `.corrupt-*`.
     */
    ScanReport mergeAll(std::map<std::uint32_t, double> *cells) const;

    /**
     * Delete every result file of this sweep (fresh-start mode: a
     * stale store must not silently satisfy a sweep the user asked to
     * recompute).
     */
    std::uint64_t removeAll() const;

  private:
    [[nodiscard]] Status parseFile(const std::string &path,
                                   ShardResult *out) const;

    std::string dir;
    std::uint64_t storeHash = 0;
    Status creationStatus = Status::ok();
};

} // namespace vpsim

#endif // VPSIM_SIM_RESULT_STORE_HPP
