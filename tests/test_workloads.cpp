/**
 * @file
 * Tests for the eight mini-benchmarks: every workload must run for the
 * requested instruction budget without halting or trapping, be
 * deterministic, and exhibit SPECint-like trace characteristics.
 */

#include <cstdio>
#include <string>

#include <gtest/gtest.h>
#include <unistd.h>

#include "trace/trace_stats.hpp"
#include "trace/trace_v3.hpp"
#include "vm/interpreter.hpp"
#include "workloads/workload.hpp"

namespace vpsim
{
namespace
{

class WorkloadTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadTest, RunsForFullBudget)
{
    Workload workload = buildWorkload(GetParam());
    Interpreter interp(workload.program, std::move(workload.memory));
    std::vector<TraceRecord> trace;
    const auto result = interp.run(50000, &trace);
    EXPECT_EQ(result.executed, 50000u) << "workload ended early";
    EXPECT_FALSE(result.halted) << "workloads must run indefinitely";
    EXPECT_EQ(trace.size(), 50000u);
}

TEST_P(WorkloadTest, TraceIsDeterministic)
{
    const auto first = captureWorkloadTrace(GetParam(), 20000);
    const auto second = captureWorkloadTrace(GetParam(), 20000);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        ASSERT_EQ(first[i].pc, second[i].pc) << "at seq " << i;
        ASSERT_EQ(first[i].result, second[i].result) << "at seq " << i;
        ASSERT_EQ(first[i].nextPc, second[i].nextPc) << "at seq " << i;
    }
}

TEST_P(WorkloadTest, SequenceNumbersAreDense)
{
    // A record's sequence number is its position: v3 writes it from
    // there, and the strict reader checks every one, across 52 blocks.
    const auto trace = captureWorkloadTrace(GetParam(), 5000);
    ASSERT_EQ(trace.size(), 5000u);
    const char *dir = std::getenv("TMPDIR");
    const std::string path = std::string(dir ? dir : "/tmp") +
                             "/vpsim_dense_" + GetParam() + "_" +
                             std::to_string(::getpid()) + ".vptrace";
    ASSERT_TRUE(writeTraceV3(path, trace, 97).isOk());
    std::vector<TraceRecord> loaded;
    const Status read = readTraceV3(path, &loaded);
    EXPECT_TRUE(read.isOk()) << read.message();
    EXPECT_EQ(loaded.size(), trace.size());
    std::remove(path.c_str());
}

TEST_P(WorkloadTest, ControlFlowIsConsistent)
{
    const auto trace = captureWorkloadTrace(GetParam(), 30000);
    for (std::size_t i = 0; i + 1 < trace.size(); ++i) {
        ASSERT_EQ(trace[i].nextPc, trace[i + 1].pc)
            << "discontinuity at seq " << i;
        if (!trace[i].isControlFlow()) {
            ASSERT_EQ(trace[i].nextPc, trace[i].fallThrough())
                << "non-control instruction jumped at seq " << i;
        } else if (!trace[i].taken && trace[i].isConditional()) {
            ASSERT_EQ(trace[i].nextPc, trace[i].fallThrough())
                << "not-taken branch jumped at seq " << i;
        }
    }
}

TEST_P(WorkloadTest, HasSpecIntLikeMix)
{
    const auto trace = captureWorkloadTrace(GetParam(), 60000);
    const TraceStats stats = computeTraceStats(trace);

    // Every benchmark must have a healthy mix of memory, control and ALU.
    EXPECT_GT(stats.loads + stats.stores, stats.totalInsts / 20)
        << "too few memory operations";
    EXPECT_GT(stats.condBranches + stats.jumps, stats.totalInsts / 25)
        << "too little control flow";
    EXPECT_GT(stats.valueProducers, stats.totalInsts / 2)
        << "too few value-producing instructions";

    // Dynamic basic blocks should be SPECint-sized (go is the branchy
    // extreme at ~2.5, m88ksim the straight-line extreme).
    EXPECT_GE(stats.avgBasicBlock, 2.0);
    EXPECT_LE(stats.avgBasicBlock, 40.0);

    // The working set must revisit code (loops), not run off linearly.
    EXPECT_LT(stats.distinctPcs, 1000u);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadTest,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &param_info) {
                             return param_info.param;
                         });

class WorkloadParamsTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadParamsTest, ScaleChangesTheDataSetNotTheValidity)
{
    WorkloadParams big;
    big.scale = 4;
    const auto trace = captureWorkloadTrace(GetParam(), 40000, big);
    ASSERT_EQ(trace.size(), 40000u) << "scaled inputs must still run";
    // Consistent control flow at scale.
    for (std::size_t i = 0; i + 1 < trace.size(); ++i)
        ASSERT_EQ(trace[i].nextPc, trace[i + 1].pc);
}

TEST_P(WorkloadParamsTest, SeedChangesTheInputData)
{
    WorkloadParams a;
    WorkloadParams b_params;
    b_params.seed = 12345;
    const auto ta = captureWorkloadTrace(GetParam(), 30000, a);
    const auto tb = captureWorkloadTrace(GetParam(), 30000, b_params);
    ASSERT_EQ(ta.size(), tb.size());
    // Same program (static pcs identical at the start)...
    EXPECT_EQ(ta[0].pc, tb[0].pc);
    // ...but at least some produced values must differ (vortex is the
    // exception: its input is entirely self-generated).
    if (GetParam() == "vortex")
        return;
    bool differs = false;
    for (std::size_t i = 0; i < ta.size() && !differs; ++i) {
        differs = ta[i].result != tb[i].result ||
                  ta[i].pc != tb[i].pc;
    }
    EXPECT_TRUE(differs) << "seed had no effect on " << GetParam();
}

TEST_P(WorkloadParamsTest, DefaultParamsMatchLegacyBuilder)
{
    // The zero-argument path and explicit defaults must be identical.
    const auto legacy = captureWorkloadTrace(GetParam(), 10000);
    const auto expl = captureWorkloadTrace(GetParam(), 10000,
                                           WorkloadParams{});
    ASSERT_EQ(legacy.size(), expl.size());
    for (std::size_t i = 0; i < legacy.size(); ++i) {
        ASSERT_EQ(legacy[i].pc, expl[i].pc);
        ASSERT_EQ(legacy[i].result, expl[i].result);
    }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadParamsTest,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &param_info) {
                             return param_info.param;
                         });

TEST(WorkloadRegistry, ZeroScaleDies)
{
    WorkloadParams params;
    params.scale = 0;
    EXPECT_EXIT(buildWorkload("go", params),
                ::testing::ExitedWithCode(1), "scale");
}

TEST(WorkloadRegistry, DescriptionsExist)
{
    for (const auto &name : workloadNames()) {
        EXPECT_FALSE(workloadDescription(name).empty());
        EXPECT_NE(workloadDescription(name).find("SPEC"),
                  std::string::npos);
    }
}

TEST(WorkloadRegistry, KnowsAllEightBenchmarks)
{
    EXPECT_EQ(workloadNames().size(), 8u);
}

TEST(WorkloadRegistry, UnknownNameDies)
{
    EXPECT_EXIT(buildWorkload("specfp"), ::testing::ExitedWithCode(1),
                "unknown workload");
}

} // namespace
} // namespace vpsim
