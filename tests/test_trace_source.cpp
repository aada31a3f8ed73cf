/**
 * @file
 * Tests for the batched trace-delivery API (TraceSpan, TraceSource
 * block iteration), for trace statistics and slicing, and for the
 * whole-trace buffers that capture and slicing reserve.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "trace/source.hpp"
#include "trace/trace_buffer.hpp"
#include "trace/trace_stats.hpp"
#include "workloads/workload.hpp"

namespace vpsim
{
namespace
{

TraceRecord
syntheticRecord(std::uint64_t n)
{
    TraceRecord record;
    record.seq = n;
    record.pc = 0x1000 + 4 * n;
    record.result = n * 3 + 1;
    return record;
}

std::vector<TraceRecord>
syntheticTrace(std::size_t count)
{
    std::vector<TraceRecord> records;
    records.reserve(count);
    for (std::size_t n = 0; n < count; ++n)
        records.push_back(syntheticRecord(n));
    return records;
}

TEST(TraceSpan, DefaultIsEmpty)
{
    TraceSpan span;
    EXPECT_TRUE(span.empty());
    EXPECT_EQ(span.size(), 0u);
    EXPECT_EQ(span.begin(), span.end());
}

TEST(TraceSpan, ViewsAVectorImplicitly)
{
    const auto records = syntheticTrace(5);
    const TraceSpan span = records;
    ASSERT_EQ(span.size(), records.size());
    EXPECT_EQ(span.data(), records.data());
    EXPECT_EQ(span.front().seq, 0u);
    EXPECT_EQ(span.back().seq, 4u);
    EXPECT_EQ(span[2].pc, records[2].pc);
}

TEST(TraceSpan, SubspanAndFirstSlice)
{
    const auto records = syntheticTrace(10);
    const TraceSpan span = records;
    const TraceSpan head = span.first(3);
    ASSERT_EQ(head.size(), 3u);
    EXPECT_EQ(head.data(), records.data());
    const TraceSpan middle = span.subspan(4, 2);
    ASSERT_EQ(middle.size(), 2u);
    EXPECT_EQ(middle.front().seq, 4u);
    const TraceSpan tail = span.subspan(7);
    ASSERT_EQ(tail.size(), 3u);
    EXPECT_EQ(tail.back().seq, 9u);
}

TEST(TraceSource, EmptyTraceExhaustsImmediately)
{
    BorrowedTraceSource source{TraceSpan()};
    TraceSpan block;
    EXPECT_FALSE(source.nextBlock(block));
    EXPECT_TRUE(block.empty());
    EXPECT_FALSE(source.supportsColumns());
}

TEST(TraceSource, DeliversTailSmallerThanRequest)
{
    const auto records = syntheticTrace(10);
    BorrowedTraceSource source{TraceSpan(records)};
    TraceSpan block;
    ASSERT_TRUE(source.nextBlock(block, 4));
    EXPECT_EQ(block.size(), 4u);
    EXPECT_EQ(block.front().seq, 0u);
    ASSERT_TRUE(source.nextBlock(block, 4));
    EXPECT_EQ(block.size(), 4u);
    EXPECT_EQ(block.front().seq, 4u);
    ASSERT_TRUE(source.nextBlock(block, 4));
    EXPECT_EQ(block.size(), 2u);
    EXPECT_EQ(block.back().seq, 9u);
    // Exhaustion does not invalidate the previously delivered span.
    TraceSpan exhausted;
    EXPECT_FALSE(source.nextBlock(exhausted, 4));
    EXPECT_TRUE(exhausted.empty());
    EXPECT_EQ(block.size(), 2u);
    EXPECT_EQ(block.back().seq, 9u);
}

TEST(TraceSource, NoLimitDeliversEverythingContiguously)
{
    const auto records = syntheticTrace(1000);
    BorrowedTraceSource source{TraceSpan(records)};
    TraceSpan block;
    ASSERT_TRUE(source.nextBlock(block, TraceSpan::noLimit));
    EXPECT_EQ(block.size(), 1000u);
    EXPECT_FALSE(source.nextBlock(block, TraceSpan::noLimit));
}

TEST(TraceSource, ResetMidBlockRestartsFromTheTop)
{
    const auto records = syntheticTrace(10);
    BorrowedTraceSource source{TraceSpan(records)};
    TraceSpan block;
    ASSERT_TRUE(source.nextBlock(block, 4));
    ASSERT_TRUE(source.nextBlock(block, 4));
    source.reset();
    ASSERT_TRUE(source.nextBlock(block, TraceSpan::noLimit));
    EXPECT_EQ(block.size(), 10u);
    EXPECT_EQ(block.front().seq, 0u);
}

TEST(TraceSource, BorrowedSourceViewsForeignStorage)
{
    const auto records = syntheticTrace(50);
    BorrowedTraceSource source{TraceSpan(records)};
    EXPECT_EQ(source.size(), 50u);
    TraceSpan block;
    ASSERT_TRUE(source.nextBlock(block, 30));
    EXPECT_EQ(block.data(), records.data());
    ASSERT_TRUE(source.nextBlock(block, 30));
    EXPECT_EQ(block.size(), 20u);
    source.reset();
    ASSERT_TRUE(source.nextBlock(block, TraceSpan::noLimit));
    EXPECT_EQ(block.size(), 50u);
}

TEST(TraceStatsTest, CountsAreConsistent)
{
    const auto trace = captureWorkloadTrace("gcc", 20000);
    const TraceStats stats = computeTraceStats(trace);
    EXPECT_EQ(stats.totalInsts, trace.size());
    EXPECT_LE(stats.takenCondBranches, stats.condBranches);
    EXPECT_GT(stats.valueProducers, 0u);
    const std::uint64_t classified = stats.aluOps + stats.mulDivOps +
                                     stats.loads + stats.stores +
                                     stats.condBranches + stats.jumps;
    EXPECT_LE(classified, stats.totalInsts);
    EXPECT_GE(classified, stats.totalInsts * 9 / 10)
        << "nops/halts are rare";
}

TEST(TraceStatsTest, ReportMentionsName)
{
    const auto trace = captureWorkloadTrace("perl", 2000);
    const TraceStats stats = computeTraceStats(trace);
    EXPECT_NE(stats.report("perl").find("perl"), std::string::npos);
}

TEST(TraceStatsTest, EmptyTrace)
{
    const TraceStats stats = computeTraceStats({});
    EXPECT_EQ(stats.totalInsts, 0u);
    EXPECT_DOUBLE_EQ(stats.takenRate, 0.0);
}

TEST(TraceStatsTest, SourceOverloadMatchesSpanOverload)
{
    const auto trace = captureWorkloadTrace("compress", 3000);
    const TraceStats from_span = computeTraceStats(trace);
    BorrowedTraceSource source{TraceSpan(trace)};
    const TraceStats from_source = computeTraceStats(source);
    EXPECT_EQ(from_span.totalInsts, from_source.totalInsts);
    EXPECT_EQ(from_span.distinctPcs, from_source.distinctPcs);
    EXPECT_EQ(from_span.valueProducers, from_source.valueProducers);
    EXPECT_DOUBLE_EQ(from_span.takenRate, from_source.takenRate);
    EXPECT_DOUBLE_EQ(from_span.avgBasicBlock,
                     from_source.avgBasicBlock);
}

TEST(SliceTrace, SkipsAndRenumbers)
{
    const auto full = captureWorkloadTrace("li", 1000);
    const auto sliced = sliceTrace(full, 300);
    ASSERT_EQ(sliced.size(), 700u);
    for (std::size_t i = 0; i < sliced.size(); ++i) {
        EXPECT_EQ(sliced[i].seq, i) << "dense renumbering";
        EXPECT_EQ(sliced[i].pc, full[300 + i].pc);
        EXPECT_EQ(sliced[i].result, full[300 + i].result);
    }
}

TEST(SliceTrace, LengthBounds)
{
    const auto full = captureWorkloadTrace("go", 500);
    EXPECT_EQ(sliceTrace(full, 100, 50).size(), 50u);
    EXPECT_EQ(sliceTrace(full, 450, 500).size(), 50u)
        << "length clamps at the end";
    EXPECT_TRUE(sliceTrace(full, 1000).empty());
    EXPECT_EQ(sliceTrace(full, 0).size(), full.size());
}

TEST(SliceTrace, AnalysesRunOnSlices)
{
    // A slice must be a valid input for the DID machinery (dense seqs).
    const auto full = captureWorkloadTrace("perl", 4000);
    const auto sliced = sliceTrace(full, 1000);
    for (std::size_t i = 0; i + 1 < sliced.size(); ++i)
        ASSERT_EQ(sliced[i].nextPc, sliced[i + 1].pc);
}

TEST(SliceTrace, RenumbersAWholeTraceBuffer)
{
    // 120,000 records (4.8 MB) take reserveWholeTrace's huge-page path.
    const auto full = captureWorkloadTrace("gcc", 130000);
    const auto sliced = sliceTrace(full, 10000);
    ASSERT_EQ(sliced.size(), 120000u);
    EXPECT_EQ(sliced.capacity(), sliced.size()) << "reserved once";
    for (std::size_t i = 0; i < sliced.size(); ++i) {
        ASSERT_EQ(sliced[i].seq, i) << "dense renumbering";
        ASSERT_EQ(sliced[i].pc, full[10000 + i].pc);
    }
}

// TraceBuffer: reserveWholeTrace() and the arithmetic of the range it
// advises for huge pages.

constexpr std::uintptr_t mib = std::uintptr_t{1} << 20;

TEST(TraceBuffer, HugePageInteriorIsEmptyWithoutAnAlignedHugePage)
{
    EXPECT_TRUE(hugePageInterior(0, 0).empty());
    EXPECT_TRUE(hugePageInterior(0, 2 * mib - 1).empty());
    EXPECT_TRUE(hugePageInterior(16, 2 * mib + 16).empty())
        << "2 MiB long but straddling a boundary";
    EXPECT_FALSE(hugePageInterior(2 * mib + 1, 6 * mib).empty())
        << "[4, 6) MiB fits";
    EXPECT_TRUE(hugePageInterior(2 * mib + 1, 6 * mib - 1).empty())
        << "one byte short of it";
    EXPECT_TRUE(hugePageInterior(8 * mib, 4 * mib).empty())
        << "a reversed range";
}

TEST(TraceBuffer, HugePageInteriorIsAlignedAndInside)
{
    const AddressRange exact = hugePageInterior(4 * mib, 10 * mib);
    EXPECT_EQ(exact.first, 4 * mib);
    EXPECT_EQ(exact.last, 10 * mib);

    // A glibc mapping: the data starts 16 bytes past a page boundary.
    const AddressRange cut = hugePageInterior(4 * mib + 16, 49 * mib + 40);
    EXPECT_EQ(cut.first, 6 * mib);
    EXPECT_EQ(cut.last, 48 * mib);

    // Every begin/end pair on a 60 KiB grid across a few huge pages,
    // offset by a malloc header.
    for (std::uintptr_t b = 0; b < 8 * mib; b += 60 * 1024) {
        for (std::uintptr_t e = b; e < 12 * mib; e += 60 * 1024) {
            const std::uintptr_t begin = b + 16;
            const std::uintptr_t end = e + 16;
            const std::uintptr_t first_huge =
                (begin + hugePageBytes - 1) / hugePageBytes * hugePageBytes;
            const bool holds_huge = first_huge + hugePageBytes <= end;
            const AddressRange range = hugePageInterior(begin, end);
            ASSERT_EQ(range.empty(), !holds_huge) << begin << " " << end;
            if (range.empty())
                continue;
            ASSERT_EQ(range.first % hugePageBytes, 0u);
            ASSERT_EQ(range.last % hugePageBytes, 0u);
            ASSERT_GE(range.first, begin) << "never outside the buffer";
            ASSERT_LE(range.last, end);
            ASSERT_LT(range.first - begin, hugePageBytes)
                << "the largest aligned interior";
            ASSERT_LT(end - range.last, hugePageBytes);
        }
    }
}

TEST(TraceBuffer, ReserveKeepsElementsAndReservesOnce)
{
    std::vector<TraceRecord> trace = syntheticTrace(10);
    reserveWholeTrace(trace, 200000);
    ASSERT_EQ(trace.size(), 10u);
    EXPECT_GE(trace.capacity(), 200000u);
    for (std::size_t n = 0; n < trace.size(); ++n)
        EXPECT_EQ(trace[n].result, n * 3 + 1);
    const TraceRecord *const data = trace.data();
    reserveWholeTrace(trace, 1000);
    EXPECT_EQ(trace.data(), data) << "enough room already: no move";

    std::vector<TraceRecord> empty;
    reserveWholeTrace(empty, 0);
    EXPECT_EQ(empty.capacity(), 0u);
}

TEST(TraceBuffer, WholeCaptureEqualsTheChunkedCapture)
{
    // 120,000 records per benchmark fill a reserved 4.8 MB buffer (the
    // huge-page path); the chunked capture never holds the whole trace.
    for (const std::string &name : workloadNames()) {
        SCOPED_TRACE(name);
        const std::vector<TraceRecord> whole =
            captureWorkloadTrace(name, 120000);
        EXPECT_EQ(whole.capacity(), 120000u) << "reserved once";
        std::vector<TraceRecord> chunked;
        ASSERT_TRUE(captureWorkloadTraceChunked(
                        name, 120000, WorkloadParams{}, 4099,
                        [&](const std::vector<TraceRecord> &chunk) {
                            chunked.insert(chunked.end(), chunk.begin(),
                                           chunk.end());
                            return Status::ok();
                        })
                        .isOk());
        ASSERT_EQ(whole.size(), chunked.size());
        for (std::size_t i = 0; i < whole.size(); ++i) {
            ASSERT_EQ(whole[i].seq, chunked[i].seq) << "record " << i;
            ASSERT_EQ(whole[i].pc, chunked[i].pc) << "record " << i;
            ASSERT_EQ(whole[i].nextPc, chunked[i].nextPc) << "record " << i;
            ASSERT_EQ(whole[i].result, chunked[i].result) << "record " << i;
            ASSERT_EQ(whole[i].op, chunked[i].op) << "record " << i;
            ASSERT_EQ(whole[i].rd, chunked[i].rd) << "record " << i;
            ASSERT_EQ(whole[i].rs1, chunked[i].rs1) << "record " << i;
            ASSERT_EQ(whole[i].rs2, chunked[i].rs2) << "record " << i;
            ASSERT_EQ(whole[i].taken, chunked[i].taken) << "record " << i;
        }
    }
}

} // namespace
} // namespace vpsim
