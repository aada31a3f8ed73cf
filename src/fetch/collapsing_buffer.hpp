/**
 * @file
 * Collapsing-buffer fetch, after Conte et al. [1] (the second §2.2
 * mechanism): fetch two (possibly noncontiguous) instruction cache
 * lines per cycle through a two-ported/interleaved cache, and use a
 * collapsing buffer to splice out the instructions a short
 * intra-line forward branch jumps over.
 *
 * Trace-driven model. Per cycle the engine owns up to two cache-line
 * windows. Instructions stream from the trace while they fall inside
 * the current line; a taken transfer is handled as:
 *   - target inside the SAME line and forward: collapsed — fetch
 *     continues within the line for free (the buffer purges the gap);
 *   - target elsewhere: consumes the second line window (once per
 *     cycle); after both line windows are used, the bundle ends.
 * Both lines must come from distinct cache banks; a bank conflict ends
 * the bundle after the first line.
 */

#ifndef VPSIM_FETCH_COLLAPSING_BUFFER_HPP
#define VPSIM_FETCH_COLLAPSING_BUFFER_HPP

#include "fetch/fetch_engine.hpp"

namespace vpsim
{

/** Collapsing-buffer front-end geometry. */
struct CollapsingBufferConfig
{
    /** Instruction cache line size in bytes (a 32B line = 8 insts). */
    std::size_t lineBytes = 32;
    /** Cache lines fetchable per cycle (the paper's mechanism uses 2). */
    unsigned linesPerCycle = 2;
    /** Interleaved instruction cache banks (1..64). */
    unsigned banks = 8;
};

/** Two-line fetch with intra-line branch collapsing. */
class CollapsingBufferFetch : public TraceFetchBase
{
  public:
    CollapsingBufferFetch(TraceSpan trace_records,
                          BranchPredictor &branch_predictor,
                          const CollapsingBufferConfig &config = {});

    FetchBundle fetch(Cycle now, unsigned max_insts) override;

    std::string name() const override { return "collapsing-buffer"; }

    /** @name Statistics */
    /// @{
    /** Taken branches collapsed inside a line (no bandwidth cost). */
    std::uint64_t collapsedBranches() const { return numCollapsed; }
    /** Bundles cut short by an icache bank conflict. */
    std::uint64_t bankConflicts() const { return numBankConflicts; }
    /// @}

  private:
    Addr lineOf(Addr pc) const { return pc / cfg.lineBytes; }
    unsigned bankOf(Addr pc) const;

    CollapsingBufferConfig cfg;

    std::uint64_t numCollapsed = 0;
    std::uint64_t numBankConflicts = 0;
};

} // namespace vpsim

#endif // VPSIM_FETCH_COLLAPSING_BUFFER_HPP
