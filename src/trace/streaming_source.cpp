#include "trace/streaming_source.hpp"

#include <system_error>

namespace vpsim
{

StreamingTraceSource::~StreamingTraceSource()
{
    stopReadAhead();
}

Status
StreamingTraceSource::open(const std::string &path)
{
    stopReadAhead();
    filePath = path;
    streamStatus = Status::ok();
    endOfTrace = false;
    serving = nullptr;
    blocksTaken = 0;
    posInBlock = 0;
    deliveredRecords = 0;
    {
        MutexLock lock(mutex);
        produced = 0;
        released = 0;
        readAheadDone = false;
        readAheadStatus = Status::ok();
        readAheadThrew = nullptr;
        stopRequested = false;
    }

    Status opened = reader.open(path);
    if (!opened.isOk()) {
        streamStatus = opened;
        endOfTrace = true;
        return opened;
    }
    // Both slots hold a whole block before the read-ahead starts, so
    // decoding never grows them and a stream allocates nothing after
    // its first block.
    for (Slot &slot : slots)
        slot.records.reserve(reader.recordsPerBlock());
    try {
        readAheadThread = std::thread([this] { readAhead(); });
    } catch (const std::system_error &e) {
        reader.close();
        streamStatus = Status::error(
            StatusCode::kIo, "cannot start the read-ahead of " + path +
                                 ": " + e.what());
        endOfTrace = true;
    }
    return streamStatus;
}

/** Stop and join the read-ahead (if any) and close the file. */
void
StreamingTraceSource::stopReadAhead()
{
    if (readAheadThread.joinable()) {
        {
            MutexLock lock(mutex);
            stopRequested = true;
        }
        slotFree.notify_one();
        readAheadThread.join();
    }
    if (reader.isOpen())
        reader.close();
}

/**
 * Decode the next block of the file into @p slot: the one step of the
 * read-ahead that knows the source is a v3 file.
 */
Status
StreamingTraceSource::produceBlock(Slot &slot, bool *delivered)
{
    TraceV3Reader::Block outcome = TraceV3Reader::Block::kEnd;
    const Status got =
        reader.readBlock(&slot.records, 0, &slot.live, &outcome);
    *delivered = got.isOk() && outcome == TraceV3Reader::Block::kDelivered;
    return got;
}

/**
 * The read-ahead thread: decode block after block, each into the slot
 * the consumer let go of last, until the end of the trace, the first
 * damaged block, a throw or a stop request.
 */
void
StreamingTraceSource::readAhead()
{
    for (std::uint64_t next = 0;; ++next) {
        {
            MutexLock lock(mutex);
            // Block next reuses the slot of block next - 2, which the
            // consumer lets go when it asks for block next - 1.
            while (!stopRequested && next >= released + 2)
                slotFree.wait(lock.native());
            if (stopRequested)
                return;
        }
        bool delivered = false;
        Status got = Status::ok();
        std::exception_ptr threw;
        try {
            got = produceBlock(slots[next % 2], &delivered);
        } catch (...) {
            threw = std::current_exception();
        }
        {
            MutexLock lock(mutex);
            if (delivered) {
                produced = next + 1;
            } else {
                readAheadDone = true;
                readAheadStatus = got;
                readAheadThrew = threw;
            }
        }
        blockReady.notify_one();
        if (!delivered)
            return;
    }
}

/**
 * True when the served block has unserved records, taking the next
 * block from the read-ahead once it is fully served. Errors and
 * end-of-trace land in the sticky state instead of being returned.
 */
bool
StreamingTraceSource::ensureBlock()
{
    if (serving != nullptr && posInBlock < serving->live)
        return true;
    if (endOfTrace)
        return false;
    MutexLock lock(mutex);
    // Asking for another block lets the served one go, which is when
    // the span contract allows its slot to be decoded over.
    released = blocksTaken;
    slotFree.notify_one();
    while (produced == blocksTaken && !readAheadDone)
        blockReady.wait(lock.native());
    if (produced == blocksTaken) {
        endOfTrace = true;
        if (readAheadThrew) {
            streamStatus = Status::error(StatusCode::kInternal,
                                         "a read of " + filePath + " threw");
            std::rethrow_exception(readAheadThrew);
        }
        streamStatus = readAheadStatus;
        return false;
    }
    serving = &slots[blocksTaken % 2];
    blocksTaken += 1;
    posInBlock = 0;
    return true;
}

bool
StreamingTraceSource::nextBlock(TraceSpan &out, std::size_t max_records)
{
    if (!ensureBlock()) {
        out = TraceSpan();
        return false;
    }
    const std::size_t remaining = serving->live - posInBlock;
    const std::size_t count =
        max_records < remaining ? max_records : remaining;
    out = TraceSpan(serving->records.data() + posInBlock, count);
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
