#include "fetch/collapsing_buffer.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace vpsim
{

CollapsingBufferFetch::CollapsingBufferFetch(
    TraceSpan trace_records,
    BranchPredictor &branch_predictor,
    const CollapsingBufferConfig &config)
    : TraceFetchBase(trace_records, branch_predictor),
      cfg(config)
{
    fatalIf(cfg.lineBytes == 0 ||
                (cfg.lineBytes & (cfg.lineBytes - 1)) != 0,
            "collapsing buffer line size must be a power of two");
    fatalIf(cfg.linesPerCycle == 0, "need at least one line per cycle");
    fatalIf(cfg.banks == 0 || cfg.banks > 64,
            "icache bank count must be in 1..64");
}

unsigned
CollapsingBufferFetch::bankOf(Addr pc) const
{
    return static_cast<unsigned>(lineOf(pc) % cfg.banks);
}

FetchBundle
CollapsingBufferFetch::fetch(Cycle now, unsigned max_insts)
{
    if (stalled(now) || done())
        return {};

    const std::size_t first = cursor;
    const std::size_t limit =
        std::min(trace.size(), first + std::size_t{max_insts});
    std::size_t end = first;
    std::uint64_t banks_busy = 0; // bit b: bank b already read
    unsigned lines_used = 0;
    Addr current_line = 0;
    bool have_line = false;

    while (end < limit) {
        const TraceRecord &record = trace[end];
        const Addr record_line = lineOf(record.pc);

        if (!have_line || record_line != current_line) {
            // Need a (new) line window.
            if (lines_used >= cfg.linesPerCycle)
                break;
            const std::uint64_t bank = std::uint64_t{1} << bankOf(record.pc);
            if (banks_busy & bank) {
                ++numBankConflicts;
                break;
            }
            banks_busy |= bank;
            current_line = record_line;
            have_line = true;
            ++lines_used;
        }

        ++end;
        if (consumeRecord(record))
            return delivered(first, end, true,
                             lines_used <= cfg.linesPerCycle);

        if (record.isControlFlow() && record.taken) {
            const Addr target_line = lineOf(record.nextPc);
            if (target_line == current_line &&
                record.nextPc > record.pc) {
                // Short forward branch inside the line: the collapsing
                // buffer splices the gap out; fetch continues for free.
                ++numCollapsed;
            } else {
                // Leaving the line: the next iteration will try to
                // allocate the second line window for the target.
                have_line = false;
            }
        }
    }
    return delivered(first, end, false, lines_used <= cfg.linesPerCycle);
}

} // namespace vpsim
