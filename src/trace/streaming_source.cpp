#include "trace/streaming_source.hpp"

namespace vpsim
{

Status
StreamingTraceSource::open(const std::string &path)
{
    if (reader.isOpen())
        reader.close();
    filePath = path;
    endOfTrace = false;
    streamStatus = Status::ok();
    liveRecords = 0;
    posInBlock = 0;
    deliveredRecords = 0;

    Status opened = reader.open(path);
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
    if (posInBlock < liveRecords)
        return true;
    if (endOfTrace || !reader.isOpen()) // never opened: exhausted
        return false;
    // The served block is only recycled here, on the way to another
    // delivery, which is when the span contract lets it go.
    liveRecords = 0;
    posInBlock = 0;
    TraceV3Reader::Block outcome = TraceV3Reader::Block::kEnd;
    std::size_t count = 0;
    if (Status got = reader.readBlock(&block, 0, &count, &outcome);
        !got.isOk()) {
        streamStatus = got;
        endOfTrace = true;
        return false;
    }
    if (outcome == TraceV3Reader::Block::kEnd) {
        endOfTrace = true;
        return false;
    }
    liveRecords = count;
    return true;
}

bool
StreamingTraceSource::nextBlock(TraceSpan &out, std::size_t max_records)
{
    if (!ensureBlock()) {
        out = TraceSpan();
        return false;
    }
    const std::size_t remaining = liveRecords - posInBlock;
    const std::size_t count =
        max_records < remaining ? max_records : remaining;
    out = TraceSpan(block.data() + posInBlock, count);
    posInBlock += count;
    deliveredRecords += count;
    return true;
}

void
StreamingTraceSource::reset()
{
    const Status reopened = open(filePath);
    // open() already recorded any failure in the sticky status; a
    // rewound source that cannot reopen simply reads as exhausted.
    (void)reopened;
}

} // namespace vpsim
