/**
 * @file
 * The hot loops allocate nothing in steady state: an interpreted
 * instruction (VM capture), a streamed v3 block after the first (decode
 * into the reused block) and a simulated Section 5 cycle.
 *
 * Global operator new is replaced here by a counting forwarder to
 * malloc, which is why these tests have a binary of their own. Each
 * test reads the counter only around the call under test, so what
 * gtest itself allocates does not count.
 */

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline_machine.hpp"
#include "trace/streaming_source.hpp"
#include "trace/trace_v3.hpp"
#include "vm/interpreter.hpp"
#include "workloads/workload.hpp"

namespace
{

std::atomic<std::size_t> allocations{0};

} // namespace

void *
operator new(std::size_t size)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *block = std::malloc(size == 0 ? 1 : size))
        return block;
    throw std::bad_alloc();
}

void
operator delete(void *block) noexcept
{
    std::free(block);
}

void
operator delete(void *block, std::size_t) noexcept
{
    std::free(block);
}

namespace vpsim
{
namespace
{

std::size_t
allocationCount()
{
    return allocations.load(std::memory_order_relaxed);
}

TEST(HotPathAllocs, CountingOperatorNewSeesAllocations)
{
    // The forwarder is live: the zero counts below mean something.
    const std::size_t before = allocationCount();
    auto *boxed = new std::vector<int>(1000);
    EXPECT_GE(allocationCount() - before, 2u);
    delete boxed;
}

TEST(HotPathAllocs, InterpreterRunAllocatesNothingAfterWarmUp)
{
    // Some workloads still first-touch pages of their output buffers
    // after the warm-up. A first touch may allocate the page, its map
    // node and a rehashed bucket array; nothing else may allocate.
    std::size_t steady = 0;
    for (const std::string &name : workloadNames()) {
        SCOPED_TRACE(name);
        Workload workload = buildWorkload(name);
        Interpreter interp(workload.program, std::move(workload.memory));
        ASSERT_EQ(interp.run(100000, nullptr).executed, 100000u);
        const std::size_t pages = interp.memory().residentPages();
        const std::size_t before = allocationCount();
        const Interpreter::RunResult ran = interp.run(100000, nullptr);
        const std::size_t during = allocationCount() - before;
        const std::size_t touched = interp.memory().residentPages() - pages;
        EXPECT_EQ(ran.executed, 100000u);
        EXPECT_LE(during, 3 * touched)
            << "heap allocations during 100000 interpreted instructions "
               "that first-touched "
            << touched << " pages";
        steady += touched == 0 ? 1 : 0;
    }
    EXPECT_GE(steady, 1u) << "no workload reached a steady page set";
}

TEST(HotPathAllocs, StreamedBlocksAfterTheFirstAllocateNothing)
{
    // Five full 4096-record blocks and a short sixth; block payloads
    // differ in size, so a frame buffer sized by the first block alone
    // would have to grow.
    const auto records = captureWorkloadTrace("go", 5 * 4096 + 123);
    const char *dir = std::getenv("TMPDIR");
    const std::string path =
        std::string(dir ? dir : "/tmp") + "/vpsim_hot_path_allocs.vptrace";
    ASSERT_TRUE(writeTraceV3(path, records, 4096).isOk());

    StreamingTraceSource source;
    ASSERT_TRUE(source.open(path).isOk());
    TraceSpan span;
    ASSERT_TRUE(source.nextBlock(span)); // sizes the reused buffers
    std::size_t blocks = 1;
    std::size_t seen = span.size();
    for (;;) {
        const std::size_t before = allocationCount();
        const bool delivered = source.nextBlock(span);
        EXPECT_EQ(allocationCount() - before, 0u)
            << "heap allocations in nextBlock() call " << blocks + 1;
        if (!delivered)
            break;
        ++blocks;
        seen += span.size();
    }
    EXPECT_TRUE(source.status().isOk()) << source.status().message();
    EXPECT_EQ(blocks, 6u);
    EXPECT_EQ(seen, records.size());
    std::remove(path.c_str());
}

/** operator new calls made by one runPipelineMachine() over @p records. */
std::size_t
pipelineAllocations(TraceSpan records, const PipelineConfig &config)
{
    const std::size_t before = allocationCount();
    const PipelineResult result = runPipelineMachine(records, config);
    const std::size_t during = allocationCount() - before;
    EXPECT_EQ(result.instructions, records.size());
    return during;
}

/**
 * Allocation growth of the Section 5 machine from 20k to 80k records
 * of go. Building the machine allocates a fixed amount; what the cycle
 * loop allocates scales with the run. Each bound is the growth
 * measured on the polling scheduler the event-driven one replaced (16
 * with the trace cache, 6 with wrong-path fetch): predictor and
 * front-end tables that fill in as new PCs appear, nothing per
 * simulated cycle. The branch-address-cache and collapsing-buffer
 * front ends grow by nothing; a bank vector built per fetch grows them
 * by thousands (13,138 and 6,284).
 */
std::size_t
pipelineAllocationGrowth(const PipelineConfig &config)
{
    const auto records = captureWorkloadTrace("go", 80000);
    return pipelineAllocations(records, config) -
           pipelineAllocations(TraceSpan(records.data(), 20000), config);
}

TEST(HotPathAllocs, PipelineCyclesAllocateNothing)
{
    PipelineConfig config;
    config.frontEnd = FrontEndKind::TraceCache;
    config.useValuePrediction = true;
    config.useInterleavedVpTable = true;
    EXPECT_LE(pipelineAllocationGrowth(config), 16u);
}

TEST(HotPathAllocs, WrongPathPipelineCyclesAllocateNothing)
{
    const Workload go = buildWorkload("go");
    PipelineConfig config;
    config.perfectBranchPredictor = false;
    config.modelWrongPath = true;
    config.program = &go.program;
    config.useValuePrediction = true;
    config.useInterleavedVpTable = true;
    EXPECT_LE(pipelineAllocationGrowth(config), 6u);
}

TEST(HotPathAllocs, BranchAddressCacheCyclesAllocateNothing)
{
    PipelineConfig config;
    config.frontEnd = FrontEndKind::BranchAddressCache;
    config.useValuePrediction = true;
    EXPECT_LE(pipelineAllocationGrowth(config), 0u);
}

TEST(HotPathAllocs, CollapsingBufferCyclesAllocateNothing)
{
    PipelineConfig config;
    config.frontEnd = FrontEndKind::CollapsingBuffer;
    config.useValuePrediction = true;
    EXPECT_LE(pipelineAllocationGrowth(config), 0u);
}

} // namespace
} // namespace vpsim
