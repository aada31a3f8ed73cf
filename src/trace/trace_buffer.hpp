/**
 * @file
 * Whole-trace buffers: the one way to reserve a std::vector that will
 * hold a whole trace (VM capture, whole-file v3 load, --skip slice).
 *
 * A whole trace is tens of MiB at 40 B per record, written once front
 * to back. Left to 4 KiB pages, filling it costs a page fault per 102
 * records, which is most of the time of a load or a capture. The helper
 * gives the buffer its own mapping and asks for 2 MiB pages over it;
 * docs/PERF.md ("Whole-trace buffers") has the numbers.
 */

#ifndef VPSIM_TRACE_TRACE_BUFFER_HPP
#define VPSIM_TRACE_TRACE_BUFFER_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/record.hpp"

namespace vpsim
{

/** Size and alignment of a transparent huge page (x86-64, arm64 4K). */
inline constexpr std::uintptr_t hugePageBytes = std::uintptr_t{2} << 20;

/** A half-open address range [first, last). */
struct AddressRange
{
    std::uintptr_t first = 0;
    std::uintptr_t last = 0;

    bool empty() const { return first == last; }
};

/**
 * The hugePageBytes-aligned interior of [@p begin, @p end): @p begin
 * rounded up and @p end rounded down to a multiple of hugePageBytes.
 * Empty (first == last) when the range holds no aligned huge page;
 * never outside [begin, end). Only this part of a buffer can be backed
 * by huge pages, so it is what reserveWholeTrace() advises.
 */
constexpr AddressRange
hugePageInterior(std::uintptr_t begin, std::uintptr_t end)
{
    const std::uintptr_t mask = hugePageBytes - 1;
    if (end < begin || end - begin < hugePageBytes)
        return {begin, begin};
    // end - begin >= hugePageBytes, so rounding up cannot overflow.
    const std::uintptr_t first = (begin + mask) & ~mask;
    const std::uintptr_t last = end & ~mask;
    return first < last ? AddressRange{first, last}
                        : AddressRange{begin, begin};
}

/**
 * Reserve @p trace for @p records records, to be filled front to back.
 *
 * Buffers of at least 1 MiB get their own mapping (glibc: the mmap
 * threshold is pinned there when the program loads, so freeing a trace,
 * a capture chunk or a v3 block buffer hands its pages back instead of
 * leaving them in whichever thread's malloc arena allocated it), and on
 * Linux the huge-page interior of a newly reserved buffer is advised
 * MADV_HUGEPAGE before anything touches it. Elsewhere this is a plain
 * reserve(). Existing elements are kept.
 */
void reserveWholeTrace(std::vector<TraceRecord> &trace, std::size_t records);

} // namespace vpsim

#endif // VPSIM_TRACE_TRACE_BUFFER_HPP
