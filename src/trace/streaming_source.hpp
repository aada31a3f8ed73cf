/**
 * @file
 * StreamingTraceSource: bounded-memory TraceSource over a v3 trace file.
 *
 * Serves the standard nextBlock() span contract from one decoded v3
 * block, so a 1B-instruction trace file is simulated with the memory
 * footprint of a single block (a few MB) instead of the whole trace.
 * When the previous block is fully served, the next one is decoded
 * over the same reused TraceRecord vector (TraceV3Reader::readBlock at
 * offset 0; the vector is sized once and never cleared or
 * re-initialised, and the source tracks how many of its records are
 * live) and spans point straight into it.
 * Delivered spans never cross a block boundary, and a span stays valid
 * until the next successful delivery, exactly as the TraceSource
 * lifetime rules allow for a recycling source. The one exception is a
 * block whose checksum passes but whose records fail to decode: it is
 * decoded over the served block before the damage shows, so a span
 * held across that failed delivery must not be read again.
 *
 * The first damaged block ends the stream with a sticky error Status
 * (status()): the consumer has seen every record before the damage and
 * none after it.
 */

#ifndef VPSIM_TRACE_STREAMING_SOURCE_HPP
#define VPSIM_TRACE_STREAMING_SOURCE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "trace/source.hpp"
#include "trace/trace_v3.hpp"

namespace vpsim
{

/** Bounded-memory trace source streaming a v3 file block by block. */
class StreamingTraceSource : public TraceSource
{
  public:
    StreamingTraceSource() = default;

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
    bool ensureBlock();

    std::string filePath;
    TraceV3Reader reader;
    Status streamStatus = Status::ok();
    bool endOfTrace = false;

    /** Storage of the block being served; only liveRecords are its. */
    std::vector<TraceRecord> block;
    std::size_t liveRecords = 0;
    std::size_t posInBlock = 0;
    std::uint64_t deliveredRecords = 0;
};

} // namespace vpsim

#endif // VPSIM_TRACE_STREAMING_SOURCE_HPP
