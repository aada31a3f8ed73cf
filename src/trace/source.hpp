/**
 * @file
 * Abstract trace sources: batched, block-at-a-time record delivery.
 *
 * A TraceSource produces TraceRecords in program order. Machine models
 * are written against this interface so they can run from in-memory
 * traces (produced by the VM) or from trace files interchangeably.
 *
 * The delivery contract is the batched nextBlock(): the source hands
 * out a borrowed contiguous TraceSpan of up to the requested number of
 * records, so the virtual-dispatch boundary sits at block granularity
 * and the per-instruction simulation path is a plain pointer walk.
 * TraceRecord spans are the only delivery layout.
 *
 * Span lifetime/invalidation rules:
 *  - A span returned by nextBlock() borrows storage owned by the
 *    source. It stays valid until the next *successful* nextBlock()
 *    call, a reset(), or the source's destruction — whichever comes
 *    first. A nextBlock() that reports exhaustion (returns false)
 *    never invalidates earlier spans (StreamingTraceSource documents
 *    the one exception, a block that fails to decode).
 *    BorrowedTraceSource keeps earlier spans valid for the viewed
 *    storage's lifetime, but callers must not rely on that: a
 *    streaming source decodes each block over the previous one.
 *  - Callers that need records to outlive the iteration must copy
 *    them.
 */

#ifndef VPSIM_TRACE_SOURCE_HPP
#define VPSIM_TRACE_SOURCE_HPP

#include <cstddef>

#include "common/logging.hpp"
#include "trace/record.hpp"
#include "trace/span.hpp"

namespace vpsim
{

/** Sequential, resettable, block-delivering stream of trace records. */
class TraceSource
{
  public:
    /**
     * Default nextBlock() request size. Large enough to amortize the
     * virtual call to nothing (< 0.03% of records), small enough that
     * a streaming source's block buffer stays cache- and
     * memory-friendly.
     */
    static constexpr std::size_t defaultBlockRecords = 4096;

    virtual ~TraceSource() = default;

    /**
     * Deliver the next block of records as a borrowed span.
     *
     * @param out On success, a span of 1..max_records records in
     *        program order, contiguous in memory; empty on exhaustion.
     *        See the file comment for the span's lifetime rules.
     * @param max_records Upper bound on the block size; the source may
     *        deliver fewer (e.g. the tail of the trace) but never
     *        more, and never an empty block on success. Must be >= 1;
     *        TraceSpan::noLimit requests everything the source can
     *        deliver in one contiguous block.
     * @retval true A non-empty block was produced.
     * @retval false The trace is exhausted (@p out is empty).
     */
    virtual bool nextBlock(TraceSpan &out,
                           std::size_t max_records =
                               defaultBlockRecords) = 0;

    /** Rewind to the beginning of the trace. */
    virtual void reset() = 0;

    /**
     * Retired columnar (SoA) delivery: no source in src/ overrides
     * these, so supportsColumns() is always false and nextColumns()
     * aborts. They stay only because the benchmark driver's
     * forwarding source (perfbench/vpbench.cpp) overrides them.
     */
    virtual bool supportsColumns() const { return false; }

    virtual bool
    nextColumns(TraceColumns &out,
                std::size_t max_records = defaultBlockRecords)
    {
        (void)out;
        (void)max_records;
        panic("trace source has no columnar path "
              "(check supportsColumns() first)");
    }
};

/**
 * Zero-copy trace source over records owned elsewhere (a captured
 * TraceHandle, a loaded cache entry, a test's vector). The viewed
 * storage must outlive the source.
 */
class BorrowedTraceSource : public TraceSource
{
  public:
    explicit BorrowedTraceSource(TraceSpan trace_records)
        : span(trace_records)
    {}

    bool
    nextBlock(TraceSpan &out,
              std::size_t max_records = defaultBlockRecords) override
    {
        const std::size_t remaining = span.size() - position;
        if (remaining == 0) {
            out = TraceSpan();
            return false;
        }
        const std::size_t count =
            max_records < remaining ? max_records : remaining;
        out = TraceSpan(span.data() + position, count);
        position += count;
        return true;
    }

    void reset() override { position = 0; }

    /** Number of records in the viewed storage. */
    std::size_t size() const { return span.size(); }

  private:
    TraceSpan span;
    std::size_t position = 0;
};

} // namespace vpsim

#endif // VPSIM_TRACE_SOURCE_HPP
