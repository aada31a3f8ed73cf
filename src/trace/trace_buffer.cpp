#include "trace/trace_buffer.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif
#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace vpsim
{

namespace
{

/**
 * Allocations this large get their own mapping: whole traces, and the
 * block-sized buffers of a capture's chunk and the v3 writer and
 * readers (2.5-3.5 MiB at the default block size).
 */
constexpr std::size_t ownMappingBytes = std::size_t{1} << 20;

/**
 * Give every trace buffer of ownMappingBytes or more its own mapping,
 * so freeing it hands the pages back. A sweep builds its traces on
 * worker threads and frees them on another, once per round. Left to
 * itself, glibc raises its mmap threshold past the first large buffer
 * freed, and later buffers land in the building thread's malloc arena.
 * Which worker builds which trace varies from run to run, and an arena
 * keeps its high-water mark, so peak RSS wandered by a buffer or more
 * between identical runs. The pin is set while the program loads,
 * before any thread allocates a chunk or a block.
 */
[[maybe_unused]] const bool mmapThresholdPinned = [] {
#if defined(__GLIBC__)
    ::mallopt(M_MMAP_THRESHOLD, static_cast<int>(ownMappingBytes));
#endif
    return true;
}();

} // namespace

void
reserveWholeTrace(std::vector<TraceRecord> &trace, std::size_t records)
{
    const TraceRecord *const old = trace.data();
    trace.reserve(records);
    const std::size_t bytes = trace.capacity() * sizeof(TraceRecord);
    if (trace.data() == old || bytes < ownMappingBytes)
        return;
#if defined(__linux__)
    // Advice only: a kernel without transparent huge pages, or with
    // them off, refuses or ignores it and the buffer keeps 4 KiB pages.
    const auto begin = reinterpret_cast<std::uintptr_t>(trace.data());
    const AddressRange huge = hugePageInterior(begin, begin + bytes);
    if (!huge.empty())
        (void)::madvise(reinterpret_cast<void *>(huge.first),
                        huge.last - huge.first, MADV_HUGEPAGE);
#endif
}

} // namespace vpsim
