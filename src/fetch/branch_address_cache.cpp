#include "fetch/branch_address_cache.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "isa/instruction.hpp"

namespace vpsim
{

BranchAddressCacheFetch::BranchAddressCacheFetch(
    TraceSpan trace_records,
    BranchPredictor &branch_predictor, const BacConfig &config)
    : TraceFetchBase(trace_records, branch_predictor),
      cfg(config)
{
    fatalIf(cfg.entries == 0 || (cfg.entries & (cfg.entries - 1)) != 0,
            "BAC entry count must be a power of two");
    fatalIf(cfg.maxBlocksPerCycle == 0,
            "BAC must fetch at least one block per cycle");
    fatalIf(cfg.icacheBanks == 0 || cfg.icacheBanks > 64,
            "icache bank count must be in 1..64");
    entries.resize(cfg.entries);
}

std::size_t
BranchAddressCacheFetch::indexOf(Addr pc) const
{
    return (pc / instBytes) & (cfg.entries - 1);
}

unsigned
BranchAddressCacheFetch::bankOf(Addr pc) const
{
    return static_cast<unsigned>((pc / cfg.lineBytes) % cfg.icacheBanks);
}

FetchBundle
BranchAddressCacheFetch::fetch(Cycle now, unsigned max_insts)
{
    if (stalled(now) || done())
        return {};

    const std::size_t first = cursor;
    const std::size_t limit =
        std::min(trace.size(), first + std::size_t{max_insts});
    std::size_t end = first;
    std::uint64_t banks_busy = 0; // bit b: bank b already read
    unsigned blocks = 0;

    while (blocks < cfg.maxBlocksPerCycle && end < limit) {
        const Addr block_start = trace[end].pc;

        // Interleaved icache constraint: the block's starting line bank
        // must be free this cycle.
        const std::uint64_t bank = std::uint64_t{1} << bankOf(block_start);
        if (banks_busy & bank) {
            ++numBankConflicts;
            break;
        }
        banks_busy |= bank;

        // The first block of a cycle always fetches (the fetch address
        // itself needs no BAC entry); continuing to FURTHER blocks
        // requires the BAC to know this block so it can produce the
        // next block's address this same cycle.
        if (blocks > 0) {
            ++numLookups;
            Entry &entry = entries[indexOf(block_start)];
            if (!entry.valid || entry.startPc != block_start) {
                // BAC miss: learn the block, end the bundle.
                entry.valid = true;
                entry.startPc = block_start;
                break;
            }
            ++numHits;
        } else {
            Entry &entry = entries[indexOf(block_start)];
            entry.valid = true;
            entry.startPc = block_start;
        }

        // Deliver the block: instructions up to and including the next
        // control transfer (or the width limit).
        bool block_ended = false;
        while (end < limit && !block_ended) {
            const TraceRecord &record = trace[end++];
            if (consumeRecord(record)) // stall armed
                return delivered(first, end, true,
                                 blocks < cfg.maxBlocksPerCycle);
            block_ended = record.isControlFlow();
        }
        ++blocks;
        if (!block_ended)
            break; // width limit hit inside the block
    }
    return delivered(first, end, false, blocks <= cfg.maxBlocksPerCycle);
}

double
BranchAddressCacheFetch::hitRate() const
{
    if (numLookups == 0)
        return 0.0;
    return static_cast<double>(numHits) /
           static_cast<double>(numLookups);
}

} // namespace vpsim
