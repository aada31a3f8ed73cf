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
 *
 * Span lifetime/invalidation rules:
 *  - A span returned by nextBlock() or nextColumns() borrows storage
 *    owned by the source. It stays valid until the next *successful*
 *    nextBlock()/nextColumns() call, a reset(), or the source's
 *    destruction — whichever comes first. A
 *    nextBlock() that reports exhaustion (returns false) never
 *    invalidates earlier spans. Sources backed by stable storage
 *    (VectorTraceSource, BorrowedTraceSource) keep earlier spans
 *    valid for the source's lifetime, but callers must not rely on
 *    that: a streaming source may recycle an internal block buffer on
 *    every delivery.
 *  - Callers that need records to outlive the iteration must copy
 *    them (see materializeTrace()).
 */

#ifndef VPSIM_TRACE_SOURCE_HPP
#define VPSIM_TRACE_SOURCE_HPP

#include <cstddef>
#include <vector>

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
     * True when this source can also deliver blocks in columnar (SoA)
     * form via nextColumns(). Hot consumers that stream only a few
     * record fields (the ideal machine) check this once per run and
     * take the columnar loop when available; nextBlock() remains the
     * universal path.
     */
    virtual bool supportsColumns() const { return false; }

    /**
     * Columnar counterpart of nextBlock(): deliver the next block as a
     * borrowed TraceColumns view over the same stream cursor (the two
     * APIs advance the same position; callers use one or the other).
     * Same block-size and lifetime rules as nextBlock().
     *
     * Only valid on sources where supportsColumns() is true; the
     * default implementation aborts.
     */
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

/** Trace source backed by an in-memory vector of records. */
class VectorTraceSource : public TraceSource
{
  public:
    explicit VectorTraceSource(std::vector<TraceRecord> trace_records)
        : backing(std::move(trace_records))
    {}

    bool
    nextBlock(TraceSpan &out,
              std::size_t max_records = defaultBlockRecords) override
    {
        const std::size_t remaining = backing.size() - position;
        if (remaining == 0) {
            out = TraceSpan();
            return false;
        }
        const std::size_t count =
            max_records < remaining ? max_records : remaining;
        out = TraceSpan(backing.data() + position, count);
        position += count;
        return true;
    }

    void reset() override { position = 0; }

    bool supportsColumns() const override { return true; }

    bool
    nextColumns(TraceColumns &out,
                std::size_t max_records = defaultBlockRecords) override
    {
        const std::size_t remaining = backing.size() - position;
        if (remaining == 0) {
            out = TraceColumns();
            return false;
        }
        // One-time transpose, amortized across every subsequent pass
        // (figure sweeps re-run the same captured trace many times).
        if (soa.size() != backing.size())
            soa.assign(TraceSpan(backing));
        const std::size_t count =
            max_records < remaining ? max_records : remaining;
        out = soa.columns(position, count);
        position += count;
        return true;
    }

    /** Number of records in the backing vector. */
    std::size_t size() const { return backing.size(); }

    /** Random access for analyses that need to revisit records. */
    const TraceRecord &at(std::size_t index) const
    {
        return backing[index];
    }

    /**
     * The full backing vector, independent of the cursor. Pairs with
     * size()/reset(): callers that need the whole trace (cross-check
     * re-simulation, figure tables) borrow it here instead of
     * re-reading the stream record by record.
     */
    const std::vector<TraceRecord> &records() const { return backing; }

  private:
    std::vector<TraceRecord> backing;
    TraceSoa soa;
    std::size_t position = 0;
};

/**
 * Zero-copy trace source over records owned elsewhere (a captured
 * TraceHandle, a VectorTraceSource's backing store, a memory-mapped
 * file). The viewed storage must outlive the source.
 */
class BorrowedTraceSource : public TraceSource
{
  public:
    explicit BorrowedTraceSource(TraceSpan trace_records)
        : span(trace_records)
    {}

    /**
     * Borrow both layouts of the same trace: @p trace_records (AoS)
     * and @p trace_columns (its SoA transpose, e.g. a TraceSoa built
     * once at capture time). The source then serves nextColumns()
     * zero-copy. The two views must describe the same records in the
     * same order; both must outlive the source.
     */
    BorrowedTraceSource(TraceSpan trace_records,
                        TraceColumns trace_columns)
        : span(trace_records), cols(trace_columns)
    {
        panicIf(cols.count != span.size(),
                "BorrowedTraceSource: AoS and SoA views disagree on "
                "record count");
    }

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

    bool
    supportsColumns() const override
    {
        return cols.count != 0 && cols.count == span.size();
    }

    bool
    nextColumns(TraceColumns &out,
                std::size_t max_records = defaultBlockRecords) override
    {
        const std::size_t remaining = span.size() - position;
        if (remaining == 0) {
            out = TraceColumns();
            return false;
        }
        const std::size_t count =
            max_records < remaining ? max_records : remaining;
        out = cols.subcolumns(position, count);
        position += count;
        return true;
    }

    /** Number of records in the viewed storage. */
    std::size_t size() const { return span.size(); }

  private:
    TraceSpan span;
    TraceColumns cols;
    std::size_t position = 0;
};

/**
 * Obtain @p source's full remaining contents as one contiguous span,
 * rewinding first.
 *
 * Sources whose backing store is already contiguous (vector/borrowed)
 * deliver it as a single borrowed block and @p storage stays empty;
 * otherwise the blocks are copied into @p storage and the returned
 * span views that. Either way the span is valid while both @p source
 * and @p storage live and are not further mutated.
 */
TraceSpan materializeTrace(TraceSource &source,
                           std::vector<TraceRecord> &storage);

} // namespace vpsim

#endif // VPSIM_TRACE_SOURCE_HPP
