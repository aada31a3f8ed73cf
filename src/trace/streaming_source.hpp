/**
 * @file
 * StreamingTraceSource: bounded-memory TraceSource over a v3 trace file.
 *
 * Serves the standard nextBlock() span contract from two decoded v3
 * blocks, so a 1B-instruction trace file is simulated with the memory
 * footprint of two blocks and one frame (a few MB) instead of the whole
 * trace. A read-ahead thread, one per open source, decodes block k+1
 * into one block slot while the consumer is served spans from block k
 * in the other (TraceV3Reader::readBlock at offset 0; both slots are
 * reserved for a whole block when the source opens, never cleared or
 * re-initialised, and each tracks how many of its records are live).
 * The consumer meets the read-ahead only at block boundaries, and a
 * slot is decoded over only once the consumer has asked for the block
 * after the one it holds.
 *
 * Delivered spans never cross a block boundary, and a span stays valid
 * until the next successful delivery, exactly as the TraceSource
 * lifetime rules allow for a recycling source. A failed delivery
 * invalidates nothing: a block that fails to decode was decoded into
 * the other slot.
 *
 * The first damaged block ends the stream with a sticky error Status
 * (status()): the consumer has seen every record before the damage and
 * none after it. The read-ahead finds the damage up to one block
 * early; status() reports it only once the consumer asks past the last
 * intact block. An exception thrown by a read (an injected `throw`
 * fault) is rethrown to the consumer at the same point.
 */

#ifndef VPSIM_TRACE_STREAMING_SOURCE_HPP
#define VPSIM_TRACE_STREAMING_SOURCE_HPP

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "common/status.hpp"
#include "common/thread_annotations.hpp"
#include "trace/source.hpp"
#include "trace/trace_v3.hpp"

namespace vpsim
{

/** Bounded-memory trace source streaming a v3 file block by block. */
class StreamingTraceSource : public TraceSource
{
  public:
    StreamingTraceSource() = default;

    /** Stops and joins the read-ahead thread. */
    ~StreamingTraceSource() override;

    StreamingTraceSource(const StreamingTraceSource &) = delete;
    StreamingTraceSource &operator=(const StreamingTraceSource &) = delete;

    /** Open @p path; on error the source reads as exhausted. */
    [[nodiscard]] Status open(const std::string &path);

    bool nextBlock(TraceSpan &out,
                   std::size_t max_records =
                       defaultBlockRecords) override;

    /** Rewind to the first block (reopens the underlying file). */
    void reset() override;

    /**
     * Sticky stream health: ok while streaming normally and after a
     * clean end; the first unrecoverable error otherwise. nextBlock()
     * reports exhaustion on error, so callers that care must check
     * this after the stream ends.
     */
    const Status &status() const { return streamStatus; }

    /** Records delivered to the consumer so far. */
    std::uint64_t recordsDelivered() const { return deliveredRecords; }

  private:
    /** A reused block buffer; its first `live` records are its block. */
    struct Slot
    {
        std::vector<TraceRecord> records;
        std::size_t live = 0;
    };

    bool ensureBlock();
    void stopReadAhead();
    void readAhead();
    [[nodiscard]] Status produceBlock(Slot &slot, bool *delivered);

    std::string filePath;
    /** Used only by the read-ahead thread while it runs. */
    TraceV3Reader reader;
    /** Block k lives in slots[k % 2]. */
    Slot slots[2];

    Mutex mutex;
    std::condition_variable blockReady; ///< The consumer waits here.
    std::condition_variable slotFree;   ///< The read-ahead waits here.
    /** Blocks the read-ahead has decoded. */
    std::uint64_t produced GUARDED_BY(mutex) = 0;
    /** Blocks the consumer has let go of (all before the one it holds). */
    std::uint64_t released GUARDED_BY(mutex) = 0;
    /** The read-ahead reached the end, a damaged block or a throw. */
    bool readAheadDone GUARDED_BY(mutex) = false;
    Status readAheadStatus GUARDED_BY(mutex) = Status::ok();
    std::exception_ptr readAheadThrew GUARDED_BY(mutex);
    bool stopRequested GUARDED_BY(mutex) = false;

    // The consumer's side.
    Status streamStatus = Status::ok();
    bool endOfTrace = true; ///< Until open() succeeds.
    const Slot *serving = nullptr;
    std::uint64_t blocksTaken = 0;
    std::size_t posInBlock = 0;
    std::uint64_t deliveredRecords = 0;

    /** Declared after every member it uses. */
    std::thread readAheadThread;
};

} // namespace vpsim

#endif // VPSIM_TRACE_STREAMING_SOURCE_HPP
