#include "fetch/trace_cache.hpp"

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

    const Addr fetch_pc = trace[cursor].pc;
    ++numLookups;
    const Line &line = lines[lineIndex(fetch_pc)];
    const bool hit = line.valid && line.startPc == fetch_pc;
    const std::size_t first = cursor;

    if (hit) {
        ++numHits;
        // Deliver the stored path, truncating where the actual path
        // diverges from the line (partial hit) or at a misprediction.
        // Snapshot the path first: the fill unit can overwrite this
        // very line mid-delivery (hardware reads the whole line at hit
        // time), and assigning line.path would invalidate iterators.
        // The snapshot is a copy into a reused buffer, never a view.
        hitPath.assign(line.path.begin(), line.path.end());
        for (const Addr expected_pc : hitPath) {
            if (cursor - first >= max_insts || done())
                break;
            const TraceRecord &record = trace[cursor];
            if (record.pc != expected_pc)
                break; // execution diverged from the stored trace
            const bool mispredicted = consumeRecord();
            feedFillUnit(record);
            ++numLineInsts;
            if (mispredicted)
                return delivered(first, true);
        }
        return delivered(first, false);
    }

    // Miss path: conventional contiguous fetch up to the first taken
    // transfer (or the miss-fetch width), feeding the fill unit.
    const unsigned budget = std::min(max_insts, cfg.missFetchWidth);
    while (cursor - first < budget && !done()) {
        const TraceRecord &record = trace[cursor];
        const bool mispredicted = consumeRecord();
        feedFillUnit(record);
        if (mispredicted)
            return delivered(first, true);
        if (record.isControlFlow() && record.taken)
            break;
    }
    return delivered(first, false);
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
