#include "analysis/did.hpp"

#include "common/invariant.hpp"
#include "common/logging.hpp"
#include "isa/instruction.hpp"

namespace vpsim
{

std::vector<std::uint64_t>
didHistogramBounds()
{
    return {1, 2, 3, 7, 15, 31, 63};
}

DidCollector::DidCollector()
    : hist(didHistogramBounds()),
      lastWriter(numArchRegs, invalidSeqNum)
{
}

void
DidCollector::observe(const TraceRecord &record)
{
    const auto consume = [&](RegIndex reg) {
        if (reg == invalidReg || reg == 0)
            return;
        const SeqNum producer = lastWriter[reg];
        if (producer == invalidSeqNum)
            return;
        const std::uint64_t did = record.seq - producer;
        hist.add(did);
        ++arcsObserved;
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

    if (record.producesValue())
        lastWriter[record.rd] = record.seq;
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
    // The histogram must account for every dependence arc we fed it:
    // its total mass equals the dynamic consumer-operand count.
    checkInvariant(InvariantLevel::Cheap,
                   analysis.totalArcs == arcsObserved,
                   "did.histogram_mass", [&] {
                       return "histogram holds " +
                              std::to_string(analysis.totalArcs) +
                              " arcs but " +
                              std::to_string(arcsObserved) +
                              " were observed";
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
    // The collector keys arcs on each record's own seq field, so
    // block-at-a-time delivery needs no cross-block bookkeeping.
    DidCollector collector;
    source.reset();
    TraceSpan block;
    while (source.nextBlock(block))
        collector.observe(block);
    return collector.finish();
}

} // namespace vpsim
