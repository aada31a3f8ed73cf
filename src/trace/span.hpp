/**
 * @file
 * TraceSpan: a borrowed, contiguous view over trace records, plus the
 * structure-of-arrays (SoA) companion types TraceColumns / TraceSoa.
 *
 * The batched trace-delivery API (TraceSource::nextBlock) hands machine
 * models whole blocks of records at a time instead of one record per
 * virtual call, so the per-instruction simulation path is a plain
 * pointer walk over cache-resident memory. A TraceSpan never owns its
 * records; its lifetime contract is documented on TraceSource.
 *
 * The SoA layout exists because the simulation hot loops touch only a
 * minority of each 48-byte TraceRecord (the ideal machine reads pc,
 * result, op and the three register bytes — about 20 bytes). Iterating
 * the array-of-structs wastes more than half the fetched cache lines;
 * parallel per-field arrays let a block loop stream exactly the columns
 * it uses. TraceColumns is the borrowed view (the SoA analogue of
 * TraceSpan); TraceSoa is the owning backing store. The AoS view stays
 * the interchange format: every column set can reconstitute full
 * TraceRecords via record(), so existing record-oriented consumers keep
 * working against the same data.
 */

#ifndef VPSIM_TRACE_SPAN_HPP
#define VPSIM_TRACE_SPAN_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/record.hpp"

namespace vpsim
{

/**
 * Non-owning view of a contiguous run of TraceRecords.
 *
 * Deliberately minimal (the subset of std::span this codebase needs,
 * which targets C++17): pointer + length, value-semantic, cheap to
 * copy. Indexing is unchecked, like the underlying array.
 */
class TraceSpan
{
  public:
    /** "As many records as available" for nextBlock() requests. */
    static constexpr std::size_t noLimit = ~std::size_t{0};

    constexpr TraceSpan() = default;

    constexpr TraceSpan(const TraceRecord *record_data,
                        std::size_t record_count)
        : ptr(record_data), count(record_count)
    {}

    /** Borrow a whole vector (implicit: vectors are spans of records). */
    TraceSpan(const std::vector<TraceRecord> &records)
        : ptr(records.data()), count(records.size())
    {}

    constexpr const TraceRecord *data() const { return ptr; }
    constexpr std::size_t size() const { return count; }
    constexpr bool empty() const { return count == 0; }

    constexpr const TraceRecord *begin() const { return ptr; }
    constexpr const TraceRecord *end() const { return ptr + count; }

    constexpr const TraceRecord &operator[](std::size_t index) const
    {
        return ptr[index];
    }

    constexpr const TraceRecord &front() const { return ptr[0]; }
    constexpr const TraceRecord &back() const { return ptr[count - 1]; }

    /** The first min(n, size()) records. */
    constexpr TraceSpan first(std::size_t n) const
    {
        return {ptr, n < count ? n : count};
    }

    /**
     * The records from @p offset (clamped to size()) through at most
     * @p n more (noLimit = to the end).
     */
    constexpr TraceSpan subspan(std::size_t offset,
                                std::size_t n = noLimit) const
    {
        const std::size_t start = offset < count ? offset : count;
        const std::size_t avail = count - start;
        return {ptr + start, n < avail ? n : avail};
    }

  private:
    const TraceRecord *ptr = nullptr;
    std::size_t count = 0;
};

/**
 * Non-owning columnar (SoA) view of a contiguous run of trace records:
 * one parallel array per TraceRecord field. The pointers borrow storage
 * owned by a TraceSoa (or a source's internal buffers) and follow the
 * same lifetime rules as TraceSpan.
 *
 * `taken` is stored as uint8_t (0/1) rather than bool so the backing
 * store can be a plain contiguous vector (std::vector<bool> is a
 * bitset and has no element pointers).
 */
struct TraceColumns
{
    const SeqNum *seq = nullptr;
    const Addr *pc = nullptr;
    const Addr *nextPc = nullptr;
    const Addr *memAddr = nullptr;
    const Value *result = nullptr;
    const OpCode *op = nullptr;
    const RegIndex *rd = nullptr;
    const RegIndex *rs1 = nullptr;
    const RegIndex *rs2 = nullptr;
    const std::uint8_t *taken = nullptr;
    std::size_t count = 0;

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }

    /** Reconstitute the AoS view of element @p index (a gather). */
    TraceRecord
    record(std::size_t index) const
    {
        TraceRecord r;
        r.seq = seq[index];
        r.pc = pc[index];
        r.nextPc = nextPc[index];
        r.memAddr = memAddr[index];
        r.result = result[index];
        r.op = op[index];
        r.rd = rd[index];
        r.rs1 = rs1[index];
        r.rs2 = rs2[index];
        r.taken = taken[index] != 0;
        return r;
    }

    /** Columns for elements [offset, offset + n), clamped like subspan. */
    TraceColumns
    subcolumns(std::size_t offset, std::size_t n = TraceSpan::noLimit) const
    {
        const std::size_t start = offset < count ? offset : count;
        const std::size_t avail = count - start;
        TraceColumns out = *this;
        out.seq += start;
        out.pc += start;
        out.nextPc += start;
        out.memAddr += start;
        out.result += start;
        out.op += start;
        out.rd += start;
        out.rs1 += start;
        out.rs2 += start;
        out.taken += start;
        out.count = n < avail ? n : avail;
        return out;
    }
};

/**
 * Owning SoA backing store for trace records: the parallel arrays a
 * TraceColumns view points into. Sources that can afford a one-time
 * transpose (VectorTraceSource) or that decode records field-by-field
 * anyway (the trace-file readers) build one of these and serve
 * columnar blocks at zero per-block cost.
 */
class TraceSoa
{
  public:
    std::size_t size() const { return seqs.size(); }
    bool empty() const { return seqs.empty(); }

    void
    clear()
    {
        seqs.clear();
        pcs.clear();
        nextPcs.clear();
        memAddrs.clear();
        results.clear();
        ops.clear();
        rds.clear();
        rs1s.clear();
        rs2s.clear();
        takens.clear();
    }

    /**
     * Resize every column to @p n elements. Blocks are written by index
     * with set(), so a store reused for equal-sized blocks never
     * reallocates or re-initializes.
     */
    void
    resize(std::size_t n)
    {
        seqs.resize(n);
        pcs.resize(n);
        nextPcs.resize(n);
        memAddrs.resize(n);
        results.resize(n);
        ops.resize(n);
        rds.resize(n);
        rs1s.resize(n);
        rs2s.resize(n);
        takens.resize(n);
    }

    /** Scatter @p r into element @p index (< size()). */
    void
    set(std::size_t index, const TraceRecord &r)
    {
        seqs[index] = r.seq;
        pcs[index] = r.pc;
        nextPcs[index] = r.nextPc;
        memAddrs[index] = r.memAddr;
        results[index] = r.result;
        ops[index] = r.op;
        rds[index] = r.rd;
        rs1s[index] = r.rs1;
        rs2s[index] = r.rs2;
        takens[index] = r.taken ? 1 : 0;
    }

    /** Replace the contents with a transpose of @p records. */
    void
    assign(TraceSpan records)
    {
        resize(records.size());
        for (std::size_t i = 0; i < records.size(); ++i)
            set(i, records[i]);
    }

    /** Borrowed columnar view of the whole store. */
    TraceColumns
    columns() const
    {
        TraceColumns c;
        c.seq = seqs.data();
        c.pc = pcs.data();
        c.nextPc = nextPcs.data();
        c.memAddr = memAddrs.data();
        c.result = results.data();
        c.op = ops.data();
        c.rd = rds.data();
        c.rs1 = rs1s.data();
        c.rs2 = rs2s.data();
        c.taken = takens.data();
        c.count = seqs.size();
        return c;
    }

    /** Borrowed view of elements [offset, offset + n), clamped. */
    TraceColumns
    columns(std::size_t offset, std::size_t n) const
    {
        return columns().subcolumns(offset, n);
    }

  private:
    std::vector<SeqNum> seqs;
    std::vector<Addr> pcs;
    std::vector<Addr> nextPcs;
    std::vector<Addr> memAddrs;
    std::vector<Value> results;
    std::vector<OpCode> ops;
    std::vector<RegIndex> rds;
    std::vector<RegIndex> rs1s;
    std::vector<RegIndex> rs2s;
    std::vector<std::uint8_t> takens;
};

} // namespace vpsim

#endif // VPSIM_TRACE_SPAN_HPP
