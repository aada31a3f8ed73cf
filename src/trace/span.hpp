/**
 * @file
 * TraceSpan: a borrowed, contiguous view over trace records.
 *
 * The batched trace-delivery API (TraceSource::nextBlock) hands machine
 * models whole blocks of records at a time instead of one record per
 * virtual call, so the per-instruction simulation path is a plain
 * pointer walk over cache-resident memory. A TraceSpan never owns its
 * records; its lifetime contract is documented on TraceSource.
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
 * Columnar (SoA) block view: one parallel array per TraceRecord field.
 * No source serves this layout (TraceSource::nextColumns() is never
 * overridden in src/); the type stays only because the benchmark
 * driver's forwarding source (perfbench/vpbench.cpp) still names it.
 */
struct TraceColumns
{
    const Addr *pc = nullptr;
    const Addr *nextPc = nullptr;
    const Value *result = nullptr;
    const OpCode *op = nullptr;
    const RegIndex *rd = nullptr;
    const RegIndex *rs1 = nullptr;
    const RegIndex *rs2 = nullptr;
    const std::uint8_t *taken = nullptr;
    std::size_t count = 0;

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }
};

} // namespace vpsim

#endif // VPSIM_TRACE_SPAN_HPP
