/**
 * @file
 * Trace cache fetch engine (Rotenberg, Bennett & Smith [18]; paper §5,
 * Figure 5.3 uses a 64-entry direct-mapped cache whose lines hold up to
 * 32 instructions or up to 6 basic blocks).
 *
 * A trace line records the dynamic path (sequence of PCs) that was
 * observed when the line was filled. On a hit the whole line is delivered
 * in a single cycle; delivery is truncated where the current execution
 * path diverges from the stored path (a partial hit: no penalty unless
 * the divergence is an actual branch misprediction). On a miss the engine
 * falls back to conventional contiguous fetch up to the first taken
 * transfer, and the fill unit builds new lines from the fetched path.
 */

#ifndef VPSIM_FETCH_TRACE_CACHE_HPP
#define VPSIM_FETCH_TRACE_CACHE_HPP

#include <vector>

#include "fetch/fetch_engine.hpp"

namespace vpsim
{

/** Trace cache geometry. */
struct TraceCacheConfig
{
    /** Number of lines (paper: 64, direct mapped). */
    std::size_t lines = 64;
    /** Maximum instructions per line (paper: 32). */
    unsigned maxLineInsts = 32;
    /** Maximum basic blocks per line (paper: 6). */
    unsigned maxLineBlocks = 6;
    /** Conventional-fetch width on a trace cache miss. */
    unsigned missFetchWidth = 16;
};

/** Trace cache + fill unit front end. */
class TraceCacheFetch : public TraceFetchBase
{
  public:
    TraceCacheFetch(TraceSpan trace_records,
                    BranchPredictor &branch_predictor,
                    const TraceCacheConfig &config = {});

    FetchBundle fetch(Cycle now, unsigned max_insts) override;

    std::string name() const override { return "trace-cache"; }

    /** @name Statistics */
    /// @{
    std::uint64_t lookups() const { return numLookups; }
    std::uint64_t hits() const { return numHits; }
    /** Instructions delivered from trace cache lines. */
    std::uint64_t lineInstsDelivered() const { return numLineInsts; }
    /** Lines installed by the fill unit (including replacements). */
    std::uint64_t linesFilled() const { return numFills; }
    double hitRate() const;
    /// @}

  private:
    struct Line
    {
        bool valid = false;
        Addr startPc = 0;
        /** The recorded dynamic path. */
        std::vector<Addr> path;
    };

    std::size_t lineIndex(Addr pc) const;
    void feedFillUnit(const TraceRecord &record);

    TraceCacheConfig cfg;
    std::vector<Line> lines;

    /** The hit line's path as read at hit time (reused per hit). */
    std::vector<Addr> hitPath;

    /** Fill unit state: the line under construction. */
    std::vector<Addr> pendingPath;
    Addr pendingStart = 0;
    unsigned pendingBlocks = 0;

    std::uint64_t numLookups = 0;
    std::uint64_t numHits = 0;
    std::uint64_t numLineInsts = 0;
    std::uint64_t numFills = 0;
};

} // namespace vpsim

#endif // VPSIM_FETCH_TRACE_CACHE_HPP
