/**
 * @file
 * Branch Address Cache front end, after Yeh, Marr & Patt [28] (surveyed
 * by the paper in §2.2 as the first multiple-branch-prediction fetch
 * mechanism).
 *
 * The BAC extends the branch target buffer so that, starting from one
 * fetch address, it can name the start addresses of the next several
 * basic blocks in one cycle; a highly interleaved instruction cache then
 * fetches those (possibly noncontiguous) blocks simultaneously. Unlike a
 * trace cache, instructions are not stored as traces: every block still
 * comes from the instruction cache, so two blocks whose lines collide on
 * a cache bank cannot be fetched in the same cycle.
 *
 * Trace-driven model: a block may be appended to the cycle's bundle only
 * if (a) the BAC has an entry for the block's start address (it learned
 * the block's extent on a previous visit), and (b) the interleaved
 * instruction cache has a free bank for the block's starting line. A
 * block whose branch mispredicts ends the bundle and stalls fetch.
 */

#ifndef VPSIM_FETCH_BRANCH_ADDRESS_CACHE_HPP
#define VPSIM_FETCH_BRANCH_ADDRESS_CACHE_HPP

#include <vector>

#include "fetch/fetch_engine.hpp"

namespace vpsim
{

/** Branch-address-cache front-end geometry. */
struct BacConfig
{
    /** BAC entries (direct mapped by block start address). */
    std::size_t entries = 1024;
    /** Maximum basic blocks fetched per cycle (the BAC's fanout). */
    unsigned maxBlocksPerCycle = 3;
    /** Interleaved instruction cache banks (1..64). */
    unsigned icacheBanks = 8;
    /** Instruction cache line size in bytes. */
    std::size_t lineBytes = 32;
};

/** Multiple-basic-block fetch through a branch address cache. */
class BranchAddressCacheFetch : public TraceFetchBase
{
  public:
    BranchAddressCacheFetch(TraceSpan trace_records,
                            BranchPredictor &branch_predictor,
                            const BacConfig &config = {});

    FetchBundle fetch(Cycle now, unsigned max_insts) override;

    std::string name() const override { return "branch-address-cache"; }

    /** @name Statistics */
    /// @{
    std::uint64_t bacLookups() const { return numLookups; }
    std::uint64_t bacHits() const { return numHits; }
    /** Blocks cut from a bundle by an icache bank conflict. */
    std::uint64_t bankConflicts() const { return numBankConflicts; }
    double hitRate() const;
    /// @}

  private:
    struct Entry
    {
        bool valid = false;
        Addr startPc = 0;
    };

    std::size_t indexOf(Addr pc) const;
    unsigned bankOf(Addr pc) const;

    BacConfig cfg;
    std::vector<Entry> entries;

    std::uint64_t numLookups = 0;
    std::uint64_t numHits = 0;
    std::uint64_t numBankConflicts = 0;
};

} // namespace vpsim

#endif // VPSIM_FETCH_BRANCH_ADDRESS_CACHE_HPP
