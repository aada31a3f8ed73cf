#include "fetch/trace_cache.hpp"

#include <algorithm>

#include "common/invariant.hpp"
#include "common/logging.hpp"
#include "isa/instruction.hpp"

namespace vpsim
{

TraceCacheFetch::TraceCacheFetch(
    TraceSpan trace_records,
    BranchPredictor &branch_predictor, const TraceCacheConfig &config)
    : TraceFetchBase(trace_records, branch_predictor),
      cfg(config)
{
    fatalIf(cfg.lines == 0 || (cfg.lines & (cfg.lines - 1)) != 0,
            "trace cache line count must be a power of two");
    fatalIf(cfg.maxLineInsts == 0 || cfg.maxLineBlocks == 0,
            "trace cache line limits must be positive");
    lines.resize(cfg.lines);
}

std::size_t
TraceCacheFetch::lineIndex(Addr pc) const
{
    return (pc / instBytes) & (cfg.lines - 1);
}

void
TraceCacheFetch::feedFillUnit(const TraceRecord &record)
{
    if (pendingPath.empty()) {
        pendingStart = record.pc;
        pendingBlocks = 0;
    }
    pendingPath.push_back(record.pc);
    if (record.isControlFlow())
        ++pendingBlocks;

    const bool full = pendingPath.size() >= cfg.maxLineInsts ||
                      pendingBlocks >= cfg.maxLineBlocks;
    if (full) {
        // The fill unit must never install a line beyond the cache's
        // geometry: an oversized line delivers more than a line's worth
        // per cycle and inflates every Figure 5.3 speedup.
        checkInvariant(InvariantLevel::Cheap,
                       pendingPath.size() <= cfg.maxLineInsts &&
                           pendingBlocks <= cfg.maxLineBlocks,
                       "tc.line_geometry", [&] {
                           return "filled line of " +
                                  std::to_string(pendingPath.size()) +
                                  " insts / " +
                                  std::to_string(pendingBlocks) +
                                  " blocks exceeds " +
                                  std::to_string(cfg.maxLineInsts) +
                                  "/" +
                                  std::to_string(cfg.maxLineBlocks);
                       });
        Line &line = lines[lineIndex(pendingStart)];
        line.valid = true;
        line.startPc = pendingStart;
        line.path = pendingPath;
        ++numFills;
        pendingPath.clear();
        pendingBlocks = 0;
    }
}

FetchBundle
TraceCacheFetch::fetch(Cycle now, unsigned max_insts)
{
    if (stalled(now) || done())
        return {};

    const std::size_t first = cursor;
    const Addr fetch_pc = trace[first].pc;
    ++numLookups;
    const Line &line = lines[lineIndex(fetch_pc)];
    std::size_t end = first;
    bool mispredicted = false;

    if (line.valid && line.startPc == fetch_pc) {
        ++numHits;
        // Deliver the stored path, truncating where the actual path
        // diverges from the line (partial hit) or at a misprediction.
        // Snapshot the path first: the fill unit can overwrite this
        // very line mid-delivery (hardware reads the whole line at hit
        // time), and assigning line.path would invalidate iterators.
        // The snapshot is a copy into a reused buffer, never a view.
        hitPath.assign(line.path.begin(), line.path.end());
        const std::size_t limit = std::min(
            trace.size(), first + std::min<std::size_t>(max_insts,
                                                        hitPath.size()));
        while (end < limit && trace[end].pc == hitPath[end - first]) {
            const TraceRecord &record = trace[end++];
            mispredicted = consumeRecord(record);
            feedFillUnit(record);
            if (mispredicted)
                break;
        }
        numLineInsts += end - first;
        return delivered(first, end, mispredicted,
                         end - first <= cfg.maxLineInsts);
    }

    // Miss path: conventional contiguous fetch up to the first taken
    // transfer (or the miss-fetch width), feeding the fill unit.
    const std::size_t limit = std::min(
        trace.size(), first + std::size_t{std::min(max_insts,
                                                   cfg.missFetchWidth)});
    bool taken = false;
    while (end < limit && !taken) {
        const TraceRecord &record = trace[end++];
        mispredicted = consumeRecord(record);
        feedFillUnit(record);
        if (mispredicted)
            break;
        taken = record.isControlFlow() && record.taken;
    }
    return delivered(first, end, mispredicted,
                     end - first <= cfg.missFetchWidth);
}

double
TraceCacheFetch::hitRate() const
{
    if (numLookups == 0)
        return 0.0;
    return static_cast<double>(numHits) /
           static_cast<double>(numLookups);
}

} // namespace vpsim
