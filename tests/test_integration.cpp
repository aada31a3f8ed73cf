/**
 * @file
 * End-to-end integration tests: run the actual paper experiments on
 * short traces and assert the qualitative results the paper reports.
 * These are the "does the reproduction reproduce" tests.
 */

#include <gtest/gtest.h>

#include "analysis/did.hpp"
#include "analysis/predictability.hpp"
#include "core/ideal_machine.hpp"
#include "core/pipeline_machine.hpp"
#include "workloads/workload.hpp"

namespace vpsim
{
namespace
{

constexpr std::uint64_t traceLen = 60000;

class BenchmarkIntegration : public ::testing::TestWithParam<std::string>
{
  protected:
    std::vector<TraceRecord>
    trace() const
    {
        return captureWorkloadTrace(GetParam(), traceLen);
    }
};

TEST_P(BenchmarkIntegration, AverageDidExceedsFour)
{
    // Paper Figure 3.3: every benchmark's average DID is greater than
    // the 4-wide fetch of 1998 processors.
    const DidAnalysis did = analyzeDid(trace());
    EXPECT_GT(did.averageDid, 4.0);
    EXPECT_GT(did.totalArcs, traceLen / 2);
}

TEST_P(BenchmarkIntegration, ManyDependenciesSpanAtLeastFour)
{
    // Paper Figure 3.4: a large share of dependencies (60% on average)
    // have DID >= 4; per benchmark we require at least 25%.
    const DidAnalysis did = analyzeDid(trace());
    EXPECT_GT(did.fracDidAtLeast4, 0.25);
}

TEST_P(BenchmarkIntegration, SpeedupGrowsWithFetchRate)
{
    // Paper Figure 3.1: the VP speedup is (weakly) monotone in the
    // fetch rate and near zero at 4 instructions/cycle.
    const auto records = trace();
    double previous = 0.0;
    for (const unsigned rate : {4u, 8u, 16u, 40u}) {
        IdealMachineConfig config;
        config.fetchRate = rate;
        const double gain = idealVpSpeedup(records, config) - 1.0;
        EXPECT_GE(gain, previous - 0.03)
            << "speedup dropped between fetch rates at BW=" << rate;
        previous = std::max(previous, gain);
    }
    IdealMachineConfig narrow;
    narrow.fetchRate = 4;
    EXPECT_LT(idealVpSpeedup(records, narrow) - 1.0, 0.08)
        << "at 4-wide fetch value prediction barely helps (paper)";
}

TEST_P(BenchmarkIntegration, VpNeverSlowsTheIdealMachineMuch)
{
    const auto records = trace();
    for (const unsigned rate : {4u, 16u, 40u}) {
        IdealMachineConfig config;
        config.fetchRate = rate;
        EXPECT_GT(idealVpSpeedup(records, config), 0.97);
    }
}

/** The ideal machine's fetch bound: the last instruction is fetched
 *  in cycle ceil(N / F) and executes frontendLatency cycles later. */
Cycle
fetchBoundCycles(std::size_t records, const IdealMachineConfig &config)
{
    return (records + config.fetchRate - 1) / config.fetchRate +
           config.frontendLatency;
}

constexpr unsigned paperFetchRates[] = {4, 8, 16, 32, 40};

TEST_P(BenchmarkIntegration, PerfectVpMeetsTheFetchBoundExactly)
{
    // With every value predicted correctly no operand waits, and at
    // W = 40 the window frees a slot exactly as fetch needs one, so
    // the schedule is fetch-bound.
    const auto records = trace();
    for (const unsigned rate : paperFetchRates) {
        IdealMachineConfig config;
        config.fetchRate = rate;
        config.windowSize = 40;
        config.useValuePrediction = true;
        config.perfectValuePrediction = true;
        EXPECT_EQ(runIdealMachine(records, config).cycles,
                  fetchBoundCycles(records.size(), config))
            << "BW=" << rate;
    }
}

TEST_P(BenchmarkIntegration, PerfectVpIsNeverSlowerThanNoVp)
{
    const auto records = trace();
    for (const unsigned rate : paperFetchRates) {
        IdealMachineConfig config;
        config.fetchRate = rate;
        config.windowSize = 40;
        const Cycle base = runIdealMachine(records, config).cycles;
        config.useValuePrediction = true;
        config.perfectValuePrediction = true;
        EXPECT_LE(runIdealMachine(records, config).cycles, base)
            << "BW=" << rate;
    }
}

TEST_P(BenchmarkIntegration, NoModeBeatsTheFetchBound)
{
    const auto records = trace();
    for (const unsigned rate : paperFetchRates) {
        IdealMachineConfig config;
        config.fetchRate = rate;
        config.windowSize = 40;
        const Cycle bound = fetchBoundCycles(records.size(), config);
        EXPECT_GE(runIdealMachine(records, config).cycles, bound)
            << "no VP, BW=" << rate;
        config.useValuePrediction = true;
        EXPECT_GE(runIdealMachine(records, config).cycles, bound)
            << "stride VP, BW=" << rate;
        config.perfectValuePrediction = true;
        EXPECT_GE(runIdealMachine(records, config).cycles, bound)
            << "perfect VP, BW=" << rate;
    }
}

TEST_P(BenchmarkIntegration, PipelineSpeedupGrowsWithTakenBranches)
{
    // Paper Figure 5.1 shape: more taken branches per cycle -> more VP
    // speedup, with perfect branch prediction.
    const auto records = trace();
    PipelineConfig config;
    config.perfectBranchPredictor = true;
    config.maxTakenBranches = 1;
    const double at1 = pipelineVpSpeedup(records, config);
    config.maxTakenBranches = 0;
    const double unlimited = pipelineVpSpeedup(records, config);
    EXPECT_GE(unlimited, at1 - 0.02);
    EXPECT_GT(unlimited, 0.99);
}

TEST_P(BenchmarkIntegration, TraceCacheRunsAndHits)
{
    const auto records = trace();
    PipelineConfig config;
    config.frontEnd = FrontEndKind::TraceCache;
    config.useValuePrediction = true;
    const PipelineResult result = runPipelineMachine(records, config);
    EXPECT_EQ(result.instructions, records.size());
    EXPECT_GT(result.tcHitRate, 0.2)
        << "looping benchmarks must hit a 64-line trace cache";
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, BenchmarkIntegration,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &param_info) {
                             return param_info.param;
                         });

TEST(PaperClaims, MostPredictableLongDistanceBenchmarksAreM88kAndVortex)
{
    // Paper Figure 3.5: m88ksim and vortex show the largest fraction of
    // dependencies that are BOTH value predictable AND DID >= 4, which
    // is why they benefit most from wide fetch.
    double m88k = 0.0;
    double vortex = 0.0;
    double best_other = 0.0;
    for (const auto &name : workloadNames()) {
        const auto records = captureWorkloadTrace(name, traceLen);
        const double frac =
            analyzePredictability(records).fracPredictableDid4Plus;
        if (name == "m88ksim")
            m88k = frac;
        else if (name == "vortex")
            vortex = frac;
        else
            best_other = std::max(best_other, frac);
    }
    EXPECT_GT(m88k, 0.3);
    EXPECT_GT(vortex, 0.3);
    EXPECT_GT((m88k + vortex) / 2.0, best_other)
        << "the two database/simulator codes lead, as in the paper";
}

TEST(PaperClaims, BtbAccuracyIsInThePaperBand)
{
    // Paper Section 5: their 2-level PAp BTB averaged 86% across the
    // benchmarks. Ours must land in a plausible band.
    double sum = 0.0;
    for (const auto &name : workloadNames()) {
        const auto records = captureWorkloadTrace(name, traceLen);
        PipelineConfig config;
        config.perfectBranchPredictor = false;
        config.maxTakenBranches = 4;
        sum += runPipelineMachine(records, config).branchAccuracy;
    }
    const double average = sum / 8.0;
    EXPECT_GT(average, 0.80);
    EXPECT_LT(average, 0.97);
}

TEST(PaperClaims, BadBranchPredictionThrottlesVpAtHighBandwidth)
{
    // Paper Figures 5.1 vs 5.2: at n=4 the realistic BTB yields less VP
    // speedup than the ideal predictor, on average.
    double ideal_sum = 0.0;
    double real_sum = 0.0;
    for (const auto &name : workloadNames()) {
        const auto records = captureWorkloadTrace(name, traceLen);
        PipelineConfig config;
        config.maxTakenBranches = 4;
        config.perfectBranchPredictor = true;
        ideal_sum += pipelineVpSpeedup(records, config);
        config.perfectBranchPredictor = false;
        real_sum += pipelineVpSpeedup(records, config);
    }
    EXPECT_GT(ideal_sum, real_sum)
        << "the 2-level BTB must not beat the oracle on average";
}

TEST(PaperClaims, TinyWindowsSuppressValuePrediction)
{
    // DESIGN.md ablation: per-benchmark window scaling is non-monotone
    // (a bigger window also speeds the baseline and exposes more wrong
    // speculations), but on average a 16-entry window leaves far less
    // room for value prediction than a 256-entry one at BW=40.
    double w16 = 0.0;
    double w256 = 0.0;
    for (const auto &name : workloadNames()) {
        const auto records = captureWorkloadTrace(name, traceLen);
        IdealMachineConfig config;
        config.fetchRate = 40;
        config.windowSize = 16;
        w16 += idealVpSpeedup(records, config);
        config.windowSize = 256;
        w256 += idealVpSpeedup(records, config);
    }
    EXPECT_GT(w256, w16);
}

} // namespace
} // namespace vpsim
