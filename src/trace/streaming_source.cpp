#include "trace/streaming_source.hpp"

namespace vpsim
{

Status
StreamingTraceSource::open(const std::string &path, bool salvage)
{
    if (reader.isOpen())
        reader.close();
    filePath = path;
    salvageMode = salvage;
    endOfTrace = false;
    streamStatus = Status::ok();
    block.clear();
    aosBuilt = false;
    posInBlock = 0;
    deliveredRecords = 0;

    // Buffered reads, never a mapping: a mapped multi-GB trace keeps
    // every touched page resident until memory pressure, which defeats
    // the bounded-RSS contract this source exists for.
    TraceV3Reader::Options reader_options;
    reader_options.salvage = salvage;
    Status opened = reader.open(path, reader_options);
    if (!opened.isOk()) {
        streamStatus = opened;
        endOfTrace = true;
    }
    return opened;
}

/**
 * True when the block has unserved records, decoding the next one over
 * it once it is fully served. Errors and end-of-trace land in the
 * sticky state instead of being returned.
 */
bool
StreamingTraceSource::ensureBlock()
{
    if (posInBlock < block.size())
        return true;
    if (endOfTrace || !reader.isOpen()) // never opened: exhausted
        return false;
    // The served block is only recycled here, on the way to another
    // delivery, which is when the span contract lets it go.
    TraceV3Reader::Block outcome = TraceV3Reader::Block::kEnd;
    if (Status got = reader.nextBlock(&block, &outcome); !got.isOk()) {
        streamStatus = got;
        endOfTrace = true;
        return false;
    }
    if (outcome == TraceV3Reader::Block::kEnd || block.empty()) {
        endOfTrace = true;
        return false;
    }
    aosBuilt = false;
    posInBlock = 0;
    return true;
}

/** Claim up to @p max_records of the block; returns the start index. */
std::size_t
StreamingTraceSource::take(std::size_t max_records)
{
    const std::size_t start = posInBlock;
    const std::size_t remaining = block.size() - start;
    posInBlock += max_records < remaining ? max_records : remaining;
    deliveredRecords += posInBlock - start;
    return start;
}

bool
StreamingTraceSource::nextBlock(TraceSpan &out, std::size_t max_records)
{
    if (!ensureBlock()) {
        out = TraceSpan();
        return false;
    }
    if (!aosBuilt) {
        // Spans need contiguous TraceRecords: gather the AoS mirror
        // once per block, only on the span path.
        const TraceColumns cols = block.columns();
        aos.resize(cols.size());
        for (std::size_t i = 0; i < cols.size(); ++i)
            aos[i] = cols.record(i);
        aosBuilt = true;
    }
    const std::size_t start = take(max_records);
    out = TraceSpan(aos.data() + start, posInBlock - start);
    return true;
}

bool
StreamingTraceSource::nextColumns(TraceColumns &out,
                                  std::size_t max_records)
{
    if (!ensureBlock()) {
        out = TraceColumns();
        return false;
    }
    const std::size_t start = take(max_records);
    out = block.columns(start, posInBlock - start);
    return true;
}

void
StreamingTraceSource::reset()
{
    const Status reopened = open(filePath, salvageMode);
    // open() already recorded any failure in the sticky status; a
    // rewound source that cannot reopen simply reads as exhausted.
    (void)reopened;
}

} // namespace vpsim
