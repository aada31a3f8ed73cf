/**
 * @file
 * Summary statistics of a dynamic trace (instruction mix, branch behaviour,
 * basic-block sizes). Used to sanity-check the synthetic workloads against
 * SPECint-like expectations and reported by the examples.
 */

#ifndef VPSIM_TRACE_TRACE_STATS_HPP
#define VPSIM_TRACE_TRACE_STATS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "trace/record.hpp"
#include "trace/source.hpp"

namespace vpsim
{

/** Aggregate statistics over one trace. */
struct TraceStats
{
    std::uint64_t totalInsts = 0;
    std::uint64_t aluOps = 0;
    std::uint64_t mulDivOps = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t condBranches = 0;
    std::uint64_t takenCondBranches = 0;
    std::uint64_t jumps = 0;
    std::uint64_t valueProducers = 0;
    std::uint64_t distinctPcs = 0;
    /** Average dynamic basic-block length (insts between control flow). */
    double avgBasicBlock = 0.0;
    /** Fraction of conditional branches that were taken. */
    double takenRate = 0.0;
    /** Taken control transfers (cond taken + jumps) per instruction. */
    double takenTransferRate = 0.0;

    /** Render a short human-readable report. */
    std::string report(const std::string &name) const;
};

/**
 * Compute summary statistics over @p records. A
 * std::vector<TraceRecord> converts implicitly.
 */
TraceStats computeTraceStats(TraceSpan records);

/** Compute summary statistics over @p source (rewound first). */
TraceStats computeTraceStats(TraceSource &source);

/**
 * Cut @p records down to [skip, skip + length); a record's sequence
 * number is its position, so the slice numbers from 0. Standard
 * warm-up exclusion: predictors and caches are trained on the skipped
 * prefix by the caller if desired, or simply never see it.
 *
 * @param length 0 means "to the end".
 */
std::vector<TraceRecord> sliceTrace(const std::vector<TraceRecord> &records,
                                    std::uint64_t skip,
                                    std::uint64_t length = 0);

} // namespace vpsim

#endif // VPSIM_TRACE_TRACE_STATS_HPP
