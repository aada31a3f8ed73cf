/**
 * @file
 * Dynamic Instruction Distance (DID) analysis (paper §3.3).
 *
 * The dataflow graph is built over the entire execution trace, ignoring
 * basic-block boundaries: each dynamic instruction is a node numbered by
 * its appearance order, and each register true-data dependency is an arc
 * whose DID is |consumerSeq - producerSeq| (Equation 3.1). Loop-carried
 * and inter-block dependencies are therefore included, exactly as in the
 * paper's construction (Figure 3.2).
 */

#ifndef VPSIM_ANALYSIS_DID_HPP
#define VPSIM_ANALYSIS_DID_HPP

#include <cstdint>
#include <vector>

#include "common/histogram.hpp"
#include "trace/record.hpp"
#include "trace/source.hpp"

namespace vpsim
{

/** Bucket bounds used for the Figure 3.4 DID distribution histogram. */
std::vector<std::uint64_t> didHistogramBounds();

/** Result of a DID sweep over one trace. */
struct DidAnalysis
{
    /** DID histogram (Figure 3.4); buckets from didHistogramBounds(). */
    Histogram distribution{didHistogramBounds()};
    /** Arithmetic mean DID over all arcs (Figure 3.3). */
    double averageDid = 0.0;
    /**
     * Mean over arcs with DID <= 256. The plain mean is dominated by a
     * few program-lifetime accumulator arcs (DIDs in the millions);
     * the trimmed mean describes the dependencies a machine window
     * could ever see.
     */
    double averageDidTrimmed = 0.0;
    /** Total number of true-data dependence arcs. */
    std::uint64_t totalArcs = 0;
    /** Fraction of arcs with DID >= 4 (quoted as ~60% on average). */
    double fracDidAtLeast4 = 0.0;
};

/**
 * Walk @p records, build the trace-wide DFG arcs via last-writer
 * tracking, and accumulate the DID statistics. A
 * std::vector<TraceRecord> converts implicitly.
 */
DidAnalysis analyzeDid(TraceSpan records);

/** DID sweep over @p source (rewound first), block at a time. */
DidAnalysis analyzeDid(TraceSource &source);

/**
 * Streaming DID collector, for callers that do not hold the whole trace.
 */
class DidCollector
{
  public:
    DidCollector();

    /** Feed the next record in program order. */
    void observe(const TraceRecord &record);

    /** Feed a whole block of records in program order. */
    void observe(TraceSpan records);

    /** Finalize and return the analysis. */
    DidAnalysis finish() const;

  private:
    Histogram hist;
    /** Last writer's trace position per register (registerFileSize). */
    std::vector<SeqNum> lastWriter;
    /** Trace position of the next record, carried across blocks. */
    SeqNum position = 0;
    /** The shortest arc so far, which finish() audits. */
    std::uint64_t shortestDid = ~std::uint64_t{0};
    std::uint64_t arcsAtLeast4 = 0;
    std::uint64_t trimmedArcs = 0;
    /** Exact sum of the trimmed arcs' DIDs; finish() converts it once. */
    std::uint64_t trimmedSum = 0;
};

} // namespace vpsim

#endif // VPSIM_ANALYSIS_DID_HPP
