/**
 * @file
 * Component micro-benchmarks (google-benchmark): raw throughput of the
 * predictors, the branch predictor, the trace interpreter, the DID
 * collector, both machine models, and the experiment runtime (thread
 * pool scheduling overhead, trace-cache round trips, CRC-32). These guard
 * against performance regressions that would make the figure sweeps
 * impractically slow.
 */

#include <benchmark/benchmark.h>

#include <atomic>
#include <filesystem>

#include "analysis/did.hpp"
#include "bpred/two_level.hpp"
#include "common/crc32.hpp"
#include "common/thread_pool.hpp"
#include "core/ideal_machine.hpp"
#include "core/pipeline_machine.hpp"
#include "predictor/factory.hpp"
#include "trace/trace_cache_store.hpp"
#include "workloads/workload.hpp"

namespace
{

using namespace vpsim;

const std::vector<TraceRecord> &
sharedTrace()
{
    static const std::vector<TraceRecord> trace =
        captureWorkloadTrace("m88ksim", 100000);
    return trace;
}

void
benchPredictor(benchmark::State &state, PredictorKind kind)
{
    const auto &trace = sharedTrace();
    for (auto _ : state) {
        auto predictor = makeClassifiedPredictor(kind);
        for (const TraceRecord &rec : trace) {
            if (!rec.producesValue())
                continue;
            const ClassifiedPrediction p = predictor->predict(rec.pc);
            predictor->update(rec.pc, p, rec.result);
        }
        benchmark::DoNotOptimize(predictor->predictionsCorrect());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * trace.size()));
}

void
benchPredictorFused(benchmark::State &state, PredictorKind kind)
{
    // Same work as benchPredictor through the fused immediate-verify
    // entry point the ideal machine uses (one table probe per half).
    const auto &trace = sharedTrace();
    for (auto _ : state) {
        auto predictor = makeClassifiedPredictor(kind);
        for (const TraceRecord &rec : trace) {
            if (!rec.producesValue())
                continue;
            const VpOutcome outcome =
                predictor->predictAndTrain(rec.pc, rec.result);
            benchmark::DoNotOptimize(outcome.predicted);
        }
        benchmark::DoNotOptimize(predictor->predictionsCorrect());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * trace.size()));
}

void BM_LastValuePredictor(benchmark::State &state)
{ benchPredictor(state, PredictorKind::LastValue); }
void BM_StridePredictor(benchmark::State &state)
{ benchPredictor(state, PredictorKind::Stride); }
void BM_StridePredictorFused(benchmark::State &state)
{ benchPredictorFused(state, PredictorKind::Stride); }
void BM_HybridPredictor(benchmark::State &state)
{ benchPredictor(state, PredictorKind::Hybrid); }

void
BM_TwoLevelBtb(benchmark::State &state)
{
    const auto &trace = sharedTrace();
    for (auto _ : state) {
        TwoLevelPApPredictor bpred;
        for (const TraceRecord &rec : trace) {
            if (!rec.isControlFlow())
                continue;
            const BranchPrediction p = bpred.predict(rec);
            bpred.update(rec, p);
        }
        benchmark::DoNotOptimize(bpred.correctPredictions());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * trace.size()));
}

void
BM_TraceCapture(benchmark::State &state)
{
    for (auto _ : state) {
        const auto trace = captureWorkloadTrace("compress", 50000);
        benchmark::DoNotOptimize(trace.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 50000);
}

void
BM_DidCollector(benchmark::State &state)
{
    const auto &trace = sharedTrace();
    for (auto _ : state) {
        const DidAnalysis did = analyzeDid(trace);
        benchmark::DoNotOptimize(did.averageDid);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * trace.size()));
}

void
BM_IdealMachine(benchmark::State &state)
{
    const auto &trace = sharedTrace();
    IdealMachineConfig config;
    config.fetchRate = static_cast<unsigned>(state.range(0));
    config.useValuePrediction = true;
    for (auto _ : state) {
        const IdealMachineResult run = runIdealMachine(trace, config);
        benchmark::DoNotOptimize(run.cycles);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * trace.size()));
}

void
BM_PipelineMachine(benchmark::State &state)
{
    const auto &trace = sharedTrace();
    PipelineConfig config;
    config.useValuePrediction = true;
    config.maxTakenBranches = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        const PipelineResult run = runPipelineMachine(trace, config);
        benchmark::DoNotOptimize(run.cycles);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * trace.size()));
}

void
BM_PipelineTraceCache(benchmark::State &state)
{
    const auto &trace = sharedTrace();
    PipelineConfig config;
    config.useValuePrediction = true;
    config.frontEnd = FrontEndKind::TraceCache;
    for (auto _ : state) {
        const PipelineResult run = runPipelineMachine(trace, config);
        benchmark::DoNotOptimize(run.cycles);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * trace.size()));
}

void
BM_ThreadPoolSubmitWait(benchmark::State &state)
{
    // Scheduling overhead per (trivial) task: dominated by queue and
    // wakeup costs, the fixed tax every grid cell pays.
    ThreadPool pool(static_cast<unsigned>(state.range(0)));
    constexpr int tasksPerBatch = 256;
    for (auto _ : state) {
        std::atomic<int> done{0};
        for (int i = 0; i < tasksPerBatch; ++i) {
            pool.submit([&done] {
                done.fetch_add(1, std::memory_order_relaxed);
            });
        }
        pool.wait();
        benchmark::DoNotOptimize(done.load());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * tasksPerBatch);
}

void
BM_TraceCacheRoundTrip(benchmark::State &state)
{
    // 1M records: 16 default-size blocks, the shape of a figure bench's
    // cache entry, so per-block costs in the whole-file load show up.
    constexpr std::uint64_t insts = 1000000;
    static const std::vector<TraceRecord> trace =
        captureWorkloadTrace("m88ksim", insts);
    const auto dir = std::filesystem::temp_directory_path() /
        "vpsim-microbench-cache";
    std::filesystem::remove_all(dir);
    TraceCacheStore cache(dir.string());
    TraceCacheKey key;
    key.workload = "m88ksim";
    key.insts = insts;
    const Status stored = cache.store(key, trace);
    if (!stored.isOk())
        state.SkipWithError(stored.message().c_str());
    for (auto _ : state) {
        std::vector<TraceRecord> loaded;
        Status error = Status::ok();
        const bool hit = cache.tryLoad(key, &loaded, &error);
        benchmark::DoNotOptimize(hit);
        benchmark::DoNotOptimize(loaded.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * trace.size()));
    std::filesystem::remove_all(dir);
}

void
BM_Crc32(benchmark::State &state)
{
    // One default-size block's worth of encoded payload (~11 B/record).
    std::vector<unsigned char> bytes(static_cast<std::size_t>(
        state.range(0)));
    for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<unsigned char>(i * 131 + 7);
    for (auto _ : state)
        benchmark::DoNotOptimize(crc32(bytes.data(), bytes.size()));
    state.SetBytesProcessed(static_cast<std::int64_t>(
        state.iterations() * bytes.size()));
}

BENCHMARK(BM_ThreadPoolSubmitWait)->Arg(1)->Arg(4);
BENCHMARK(BM_TraceCacheRoundTrip);
BENCHMARK(BM_Crc32)->Arg(740 * 1024);
BENCHMARK(BM_LastValuePredictor);
BENCHMARK(BM_StridePredictor);
BENCHMARK(BM_StridePredictorFused);
BENCHMARK(BM_HybridPredictor);
BENCHMARK(BM_TwoLevelBtb);
BENCHMARK(BM_TraceCapture);
BENCHMARK(BM_DidCollector);
BENCHMARK(BM_IdealMachine)->Arg(4)->Arg(40);
BENCHMARK(BM_PipelineMachine)->Arg(1)->Arg(4);
BENCHMARK(BM_PipelineTraceCache);

} // namespace
