#include "analysis/did.hpp"

#include <algorithm>

#include "common/invariant.hpp"
#include "common/logging.hpp"

namespace vpsim
{

std::vector<std::uint64_t>
didHistogramBounds()
{
    return {1, 2, 3, 7, 15, 31, 63};
}

DidCollector::DidCollector()
    : hist(didHistogramBounds()),
      lastWriter(registerFileSize, invalidSeqNum)
{
}

void
DidCollector::observe(const TraceRecord &record)
{
#ifdef VPSIM_MUTATION_DID_WRITE_BEFORE_READ
    // Mutation target (scripts/mutation_smoke.sh): a write before the
    // reads makes self-reading arcs distance 0.
    if (record.producesValue())
        lastWriter[record.rd] = position;
#endif
    const auto consume = [&](RegIndex reg) {
        if (reg == invalidReg || reg == 0)
            return;
        const SeqNum producer = lastWriter[reg];
        if (producer == invalidSeqNum)
            return;
        const std::uint64_t did = position - producer;
        hist.add(did);
        shortestDid = std::min(shortestDid, did);
        if (did >= 4)
            ++arcsAtLeast4;
        if (did <= 256) {
            ++trimmedArcs;
            fatalIf(__builtin_add_overflow(trimmedSum, did, &trimmedSum),
                    "trimmed DID sum overflows 64 bits");
        }
    };
    consume(record.rs1);
    consume(record.rs2);

#ifndef VPSIM_MUTATION_DID_WRITE_BEFORE_READ
    if (record.producesValue())
        lastWriter[record.rd] = position;
#endif
    ++position;
}

void
DidCollector::observe(TraceSpan records)
{
    for (const TraceRecord &record : records)
        observe(record);
}

DidAnalysis
DidCollector::finish() const
{
    DidAnalysis analysis;
    analysis.distribution = hist;
    analysis.totalArcs = hist.totalSamples();
    // A value is produced before it is read: every arc spans at least
    // one instruction (Equation 3.1 has no zero-distance arcs).
    checkInvariant(InvariantLevel::Cheap, shortestDid >= 1,
                   "did.producer_precedes_consumer", [&] {
                       return "an arc of distance " +
                              std::to_string(shortestDid) + " among " +
                              std::to_string(analysis.totalArcs) + " arcs";
                   });
    analysis.averageDid = hist.mean();
    analysis.averageDidTrimmed = trimmedArcs == 0
        ? 0.0
        : static_cast<double>(static_cast<long double>(trimmedSum) /
                              static_cast<long double>(trimmedArcs));
    analysis.fracDidAtLeast4 = analysis.totalArcs == 0
        ? 0.0
        : static_cast<double>(arcsAtLeast4) /
          static_cast<double>(analysis.totalArcs);
    return analysis;
}

DidAnalysis
analyzeDid(TraceSpan records)
{
    DidCollector collector;
    collector.observe(records);
    return collector.finish();
}

DidAnalysis
analyzeDid(TraceSource &source)
{
    DidCollector collector;
    source.reset();
    TraceSpan block;
    while (source.nextBlock(block))
        collector.observe(block);
    return collector.finish();
}

} // namespace vpsim
