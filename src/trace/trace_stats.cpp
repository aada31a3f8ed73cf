#include "trace/trace_stats.hpp"

#include <iomanip>
#include <sstream>
#include <algorithm>
#include <unordered_set>

#include "trace/trace_buffer.hpp"

namespace vpsim
{

namespace
{

/** Running totals shared by the span and streaming entry points. */
struct StatsAccumulator
{
    TraceStats stats;
    std::unordered_set<Addr> pcs;
    std::uint64_t takenTransfers = 0;
    std::uint64_t blocks = 0;

    void
    fold(TraceSpan records)
    {
        stats.totalInsts += records.size();
        for (const TraceRecord &rec : records) {
            pcs.insert(rec.pc);
            switch (rec.instClass()) {
              case InstClass::IntAlu:
                ++stats.aluOps;
                break;
              case InstClass::IntMul:
              case InstClass::IntDiv:
                ++stats.mulDivOps;
                break;
              case InstClass::Load:
                ++stats.loads;
                break;
              case InstClass::Store:
                ++stats.stores;
                break;
              case InstClass::Branch:
                ++stats.condBranches;
                if (rec.taken)
                    ++stats.takenCondBranches;
                break;
              case InstClass::Jump:
                ++stats.jumps;
                break;
              case InstClass::Nop:
              case InstClass::Halt:
                break;
            }
            if (rec.producesValue())
                ++stats.valueProducers;
            if (rec.isControlFlow()) {
                ++blocks;
                if (rec.taken)
                    ++takenTransfers;
            }
        }
    }

    TraceStats
    finish()
    {
        stats.distinctPcs = pcs.size();
        stats.takenRate = stats.condBranches == 0
            ? 0.0
            : static_cast<double>(stats.takenCondBranches) /
              static_cast<double>(stats.condBranches);
        stats.takenTransferRate = stats.totalInsts == 0
            ? 0.0
            : static_cast<double>(takenTransfers) /
              static_cast<double>(stats.totalInsts);
        stats.avgBasicBlock = blocks == 0
            ? static_cast<double>(stats.totalInsts)
            : static_cast<double>(stats.totalInsts) /
              static_cast<double>(blocks);
        return stats;
    }
};

} // namespace

TraceStats
computeTraceStats(TraceSpan records)
{
    StatsAccumulator acc;
    acc.fold(records);
    return acc.finish();
}

TraceStats
computeTraceStats(TraceSource &source)
{
    // Every counter folds across block boundaries, so the stream is
    // never materialized: each borrowed block is accumulated in turn.
    StatsAccumulator acc;
    source.reset();
    TraceSpan block;
    while (source.nextBlock(block))
        acc.fold(block);
    return acc.finish();
}

std::vector<TraceRecord>
sliceTrace(const std::vector<TraceRecord> &records, std::uint64_t skip,
           std::uint64_t length)
{
    std::vector<TraceRecord> sliced;
    if (skip >= records.size())
        return sliced;
    const std::uint64_t end = length == 0
        ? records.size()
        : std::min<std::uint64_t>(records.size(), skip + length);
    reserveWholeTrace(sliced, static_cast<std::size_t>(end - skip));
    for (std::uint64_t i = skip; i < end; ++i) {
        TraceRecord rec = records[i];
        rec.seq = i - skip;
        sliced.push_back(rec);
    }
    return sliced;
}

std::string
TraceStats::report(const std::string &name) const
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(2);
    oss << "trace " << name << ": " << totalInsts << " insts, "
        << distinctPcs << " static pcs\n"
        << "  mix: alu " << aluOps << ", mul/div " << mulDivOps
        << ", load " << loads << ", store " << stores
        << ", cond-branch " << condBranches << ", jump " << jumps << "\n"
        << "  value producers: " << valueProducers
        << ", avg basic block: " << avgBasicBlock
        << ", taken rate: " << takenRate * 100.0 << "%"
        << ", taken transfers/inst: " << takenTransferRate << "\n";
    return oss.str();
}

} // namespace vpsim
