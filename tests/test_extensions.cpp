/**
 * @file
 * Tests for the library extensions beyond the paper's evaluated
 * configuration: the FCM predictor ([22]), profile-guided hints ([9])
 * and the branch address cache front end ([28]).
 */

#include <gtest/gtest.h>

#include "bpred/branch_predictor.hpp"
#include "core/pipeline_machine.hpp"
#include "fetch/branch_address_cache.hpp"
#include "fetch/sequential_fetch.hpp"
#include "fetch_bundles.hpp"
#include "predictor/factory.hpp"
#include "predictor/fcm.hpp"
#include "predictor/stride.hpp"
#include "predictor/profile.hpp"
#include "vm/interpreter.hpp"
#include "vm/program_builder.hpp"
#include "vptable/interleaved_table.hpp"
#include "workloads/regs.hpp"
#include "workloads/workload.hpp"

namespace vpsim
{
namespace
{

using namespace regs;

constexpr Addr pcA = 0x1000;

unsigned
sequentialHits(ValuePredictor &predictor, Addr pc,
               const std::vector<Value> &values)
{
    unsigned hits = 0;
    for (const Value value : values) {
        const RawPrediction raw = predictor.lookup(pc);
        const bool hit = raw.hasPrediction && raw.value == value;
        hits += hit ? 1 : 0;
        predictor.train(pc, value, hit);
    }
    return hits;
}

// ---------------------------------------------------------------------
// FCM predictor
// ---------------------------------------------------------------------

TEST(Fcm, LearnsPeriodicPattern)
{
    // A period-3 sequence defeats last-value and stride predictors but
    // is exactly what a context predictor catches.
    FcmPredictor fcm(2);
    std::vector<Value> stream;
    for (int i = 0; i < 60; ++i)
        stream.push_back(100 + (i % 3) * 7);
    const unsigned hits = sequentialHits(fcm, pcA, stream);
    EXPECT_GT(hits, 45u) << "after warmup every value is in context";

    StridePredictor stride;
    const unsigned stride_hits = sequentialHits(stride, pcA, stream);
    EXPECT_GT(hits, stride_hits)
        << "FCM must beat stride on periodic patterns";
}

TEST(Fcm, LearnsConstants)
{
    FcmPredictor fcm(2);
    std::vector<Value> stream(20, 42);
    EXPECT_GE(sequentialHits(fcm, pcA, stream), 17u);
}

TEST(Fcm, CannotPredictFreshStrides)
{
    // A pure counter never repeats a context, so order-2 FCM stays
    // silent or wrong — the classic FCM weakness stride handles.
    FcmPredictor fcm(2);
    std::vector<Value> stream;
    for (int i = 0; i < 30; ++i)
        stream.push_back(1000 + i);
    EXPECT_EQ(sequentialHits(fcm, pcA, stream), 0u);
}

TEST(Fcm, SeparatesPcs)
{
    FcmPredictor fcm(2);
    sequentialHits(fcm, 0x1000, {1, 2, 1, 2, 1, 2, 1, 2});
    sequentialHits(fcm, 0x2000, {9, 9, 9, 9});
    EXPECT_EQ(fcm.tableSize(), 2u);
}

TEST(Fcm, FactoryBuildsIt)
{
    const auto predictor = makePredictor(PredictorKind::Fcm);
    EXPECT_EQ(predictor->name(), "fcm-order2");
    EXPECT_EQ(predictorKindFromString("fcm"), PredictorKind::Fcm);
}

TEST(Fcm, StrideInfoBroadcastsValue)
{
    FcmPredictor fcm(2);
    sequentialHits(fcm, pcA, {5, 6, 5, 6, 5, 6, 5, 6});
    const StrideInfo info = fcm.strideInfo(pcA);
    EXPECT_TRUE(info.valid);
    EXPECT_EQ(info.stride, 0u) << "FCM merges broadcast one value";
}

// ---------------------------------------------------------------------
// Profile hints
// ---------------------------------------------------------------------

/** Synthetic training trace with one constant, one stride, one random
 *  producer (distinct pcs). */
std::vector<TraceRecord>
trainingTrace(int reps = 50)
{
    std::vector<TraceRecord> trace;
    Value noise = 7;
    for (int i = 0; i < reps; ++i) {
        TraceRecord constant;
        constant.pc = 0x1000;
        constant.op = OpCode::Addi;
        constant.rd = 1;
        constant.result = 55;
        trace.push_back(constant);

        TraceRecord striding = constant;
        striding.pc = 0x1004;
        striding.rd = 2;
        striding.result = 100 + static_cast<Value>(i) * 16;
        trace.push_back(striding);

        noise = noise * 6364136223846793005ull + 1442695040888963407ull;
        TraceRecord random = constant;
        random.pc = 0x1008;
        random.rd = 3;
        random.result = noise;
        trace.push_back(random);
    }
    return trace;
}

TEST(ProfileHintsTest, ClassifiesByBehaviour)
{
    const ProfileHints hints = ProfileHints::profile(trainingTrace());
    EXPECT_EQ(hints.hintFor(0x1000), ValueHint::LastValue);
    EXPECT_EQ(hints.hintFor(0x1004), ValueHint::Stride);
    EXPECT_EQ(hints.hintFor(0x1008), ValueHint::NotPredictable);
    EXPECT_EQ(hints.hintFor(0x9999), ValueHint::NotPredictable)
        << "unseen instructions default to not-predictable";
    EXPECT_EQ(hints.staticInstructions(), 3u);
    EXPECT_EQ(hints.hintedLastValue(), 1u);
    EXPECT_EQ(hints.hintedStride(), 1u);
    EXPECT_EQ(hints.hintedNotPredictable(), 1u);
}

TEST(ProfileHintsTest, RareInstructionsStayUnhinted)
{
    auto trace = trainingTrace(2); // below min_executions
    const ProfileHints hints = ProfileHints::profile(trace);
    EXPECT_EQ(hints.hintFor(0x1000), ValueHint::NotPredictable);
}

TEST(HintedHybrid, FollowsHints)
{
    const ProfileHints hints = ProfileHints::profile(trainingTrace());
    HintedHybridPredictor predictor(hints);
    // Constant pc: predicted after one sighting (last-value, no
    // confidence counters in the hinted design).
    EXPECT_EQ(sequentialHits(predictor, 0x1000, {55, 55, 55, 55}), 3u);
    // Stride pc.
    EXPECT_EQ(
        sequentialHits(predictor, 0x1004, {100, 116, 132, 148}), 2u);
    // Random pc: suppressed entirely.
    EXPECT_EQ(sequentialHits(predictor, 0x1008, {1, 2, 3}), 0u);
    EXPECT_EQ(predictor.suppressedLookups(), 3u);
}

TEST(HintedHybrid, SuppressionSavesTableBandwidth)
{
    const ProfileHints hints = ProfileHints::profile(trainingTrace());
    VpTableConfig config;
    config.banks = 1; // every access conflicts
    config.portsPerBank = 1;
    config.hints = &hints;
    InterleavedVpTable table(
        makeClassifiedPredictor(PredictorKind::Stride), config);
    // Bundle: predictable-constant + random + stride. The hint filter
    // removes the random request BEFORE arbitration, so both remaining
    // requests... still conflict on the single bank, but only one
    // access is denied instead of two.
    const auto grants = table.processBundle({0x1000, 0x1008, 0x1004});
    EXPECT_TRUE(grants[0].granted);
    EXPECT_FALSE(grants[1].granted) << "hint-filtered: no prediction";
    EXPECT_FALSE(grants[2].granted) << "bank conflict with 0x1000";
    EXPECT_EQ(table.hintFilteredRequests(), 1u);
    EXPECT_EQ(table.deniedAccesses(), 1u)
        << "without the filter there would be two conflicts";
}

// ---------------------------------------------------------------------
// Branch address cache
// ---------------------------------------------------------------------

std::vector<TraceRecord>
loopTrace(int iterations)
{
    ProgramBuilder b("loop");
    Label loop = b.newLabel();
    b.li(s0, iterations);
    b.bind(loop);
    b.addi(s1, s1, 1);
    b.addi(s0, s0, -1);
    b.bne(s0, zero, loop);
    b.halt();
    Program prog = b.build();
    std::vector<TraceRecord> trace;
    Interpreter interp(prog, Memory{});
    interp.run(0, &trace);
    return trace;
}

TEST(BranchAddressCache, WarmBundlesSpanMultipleBlocks)
{
    const auto trace = loopTrace(200);
    PerfectBranchPredictor oracle;
    BacConfig config;
    config.maxBlocksPerCycle = 3;
    // One loop block repeats: its start pc lands in one icache bank, so
    // consecutive iterations CONFLICT; use a 3-inst loop whose copies
    // share a bank -> expect conflicts counted but forward progress.
    BranchAddressCacheFetch engine(trace, oracle, config);
    std::vector<FetchedRecord> out;
    Cycle now = 0;
    while (!engine.done() && now < 10000)
        fetchInto(engine, ++now, 40, out);
    EXPECT_EQ(out.size(), trace.size());
    EXPECT_GT(engine.bacHits() + engine.bankConflicts(), 0u);
}

TEST(BranchAddressCache, HitRateGrowsWarm)
{
    // Alternate between two code regions so blocks land in different
    // banks; after warmup the BAC should serve multi-block bundles.
    const auto trace = captureWorkloadTrace("gcc", 20000);
    PerfectBranchPredictor oracle;
    BranchAddressCacheFetch engine(trace, oracle, {});
    std::vector<FetchedRecord> out;
    Cycle now = 0;
    while (!engine.done() && now < 200000)
        fetchInto(engine, ++now, 40, out);
    EXPECT_EQ(out.size(), trace.size());
    EXPECT_GT(engine.hitRate(), 0.5);
}

TEST(BranchAddressCache, BadGeometryDies)
{
    const auto trace = loopTrace(4);
    PerfectBranchPredictor oracle;
    BacConfig config;
    config.entries = 100;
    EXPECT_EXIT((BranchAddressCacheFetch{trace, oracle, config}),
                ::testing::ExitedWithCode(1), "power of two");
    config.entries = 1024;
    config.icacheBanks = 65; // one bit per bank in a 64-bit mask
    EXPECT_EXIT((BranchAddressCacheFetch{trace, oracle, config}),
                ::testing::ExitedWithCode(1), "1..64");
}

TEST(PipelineIntegration, BacFrontEndRuns)
{
    const auto trace = captureWorkloadTrace("m88ksim", 20000);
    PipelineConfig config;
    config.frontEnd = FrontEndKind::BranchAddressCache;
    config.useValuePrediction = true;
    const PipelineResult result = runPipelineMachine(trace, config);
    EXPECT_EQ(result.instructions, trace.size());
    EXPECT_GT(result.bacHitRate, 0.0);
}

/** A loop whose body is two basic blocks, both ending in taken
 *  transfers, with start addresses in different icache banks. */
std::vector<TraceRecord>
twoBlockLoopTrace(int iterations)
{
    ProgramBuilder b("two-block");
    Label loop = b.newLabel();
    Label second = b.newLabel();
    b.li(s0, iterations);
    b.bind(loop);
    b.addi(s1, s1, 1);
    b.addi(s2, s2, 1);
    b.addi(s3, s3, 1);
    b.beq(zero, zero, second); // always taken: ends block A
    for (int i = 0; i < 8; ++i)
        b.nop(); // dead padding pushes block B into another bank
    b.bind(second);
    b.addi(s4, s4, 1);
    b.addi(s5, s5, 1);
    b.addi(s0, s0, -1);
    b.bne(s0, zero, loop); // taken back edge: ends block B
    b.halt();
    Program prog = b.build();
    std::vector<TraceRecord> trace;
    Interpreter interp(prog, Memory{});
    interp.run(0, &trace);
    return trace;
}

TEST(PipelineIntegration, BacBeatsSingleTakenBranchWithVp)
{
    const auto trace = twoBlockLoopTrace(400);
    PipelineConfig seq;
    seq.useValuePrediction = true;
    seq.perfectValuePrediction = true;
    seq.frontEnd = FrontEndKind::Sequential;
    seq.maxTakenBranches = 1;
    PipelineConfig bac = seq;
    bac.frontEnd = FrontEndKind::BranchAddressCache;
    const double seq_ipc = runPipelineMachine(trace, seq).ipc;
    const double bac_ipc = runPipelineMachine(trace, bac).ipc;
    EXPECT_GT(bac_ipc, seq_ipc)
        << "multi-block fetch must beat one taken branch per cycle";
}

TEST(WrongPath, FetchWalksThePredictedPath)
{
    // A loop with a cold-BTB mispredicted back edge: once the branch
    // mispredicts, the engine must emit wrong-path records from the
    // static image (the fall-through path) until resolution.
    Workload workload = buildWorkload("gcc");
    const auto trace = captureWorkloadTrace("gcc", 5000);
    TwoLevelPApPredictor bpred;
    SequentialFetch engine(trace, bpred, 0, &workload.program);

    std::vector<FetchedRecord> out;
    Cycle now = 0;
    std::uint64_t wrong_path = 0;
    SeqNum pending_seq = invalidSeqNum;
    Cycle resolve_at = 0;
    while (!engine.done() && now < 100000) {
        ++now;
        // Resolve an outstanding misprediction three cycles after it
        // was fetched (a fake machine), leaving a wrong-path window.
        if (pending_seq != invalidSeqNum && now >= resolve_at) {
            engine.branchResolved(pending_seq, now);
            pending_seq = invalidSeqNum;
        }
        const std::size_t before = out.size();
        fetchInto(engine, now, 16, out);
        for (std::size_t i = before; i < out.size(); ++i)
            wrong_path += out[i].wrongPath ? 1 : 0;
        if (!out.empty() && out.back().mispredicted &&
            !out.back().wrongPath && pending_seq == invalidSeqNum) {
            pending_seq = out.back().position;
            resolve_at = now + 3;
        }
    }
    EXPECT_GT(wrong_path, 0u);
    EXPECT_EQ(engine.wrongPathFetched(), wrong_path);
    // Every correct-path record must still be delivered in order.
    std::size_t correct = 0;
    for (const FetchedRecord &inst : out) {
        if (inst.wrongPath)
            continue;
        EXPECT_EQ(inst.position, correct);
        EXPECT_EQ(inst.record.pc, trace[correct].pc);
        ++correct;
    }
    EXPECT_EQ(correct, trace.size());
}

TEST(WrongPath, PipelineSquashesAndStillCommitsEverything)
{
    Workload workload = buildWorkload("perl");
    const auto trace = captureWorkloadTrace("perl", 30000);
    PipelineConfig config;
    config.perfectBranchPredictor = false;
    config.maxTakenBranches = 4;
    config.useValuePrediction = true;
    config.modelWrongPath = true;
    config.program = &workload.program;
    const PipelineResult result = runPipelineMachine(trace, config);
    EXPECT_EQ(result.instructions, trace.size());
    EXPECT_GT(result.wrongPathFetched, 0u);
}

TEST(WrongPath, CostsCyclesVersusStallingFetch)
{
    // Wrong-path bubbles occupy window slots and pollute the predictor,
    // so modelling them can only slow the machine down (or tie).
    Workload workload = buildWorkload("go");
    const auto trace = captureWorkloadTrace("go", 30000);
    PipelineConfig config;
    config.perfectBranchPredictor = false;
    config.maxTakenBranches = 4;
    config.useValuePrediction = true;
    const Cycle stalled = runPipelineMachine(trace, config).cycles;
    config.modelWrongPath = true;
    config.program = &workload.program;
    const Cycle wrong_path = runPipelineMachine(trace, config).cycles;
    EXPECT_GE(wrong_path, stalled);
}

TEST(WrongPath, PerfectBpNeverTriggersIt)
{
    Workload workload = buildWorkload("li");
    const auto trace = captureWorkloadTrace("li", 10000);
    PipelineConfig config;
    config.perfectBranchPredictor = true;
    config.modelWrongPath = true;
    config.program = &workload.program;
    const PipelineResult result = runPipelineMachine(trace, config);
    EXPECT_EQ(result.wrongPathFetched, 0u);
}

TEST(WrongPath, RequiresProgramImage)
{
    const auto trace = captureWorkloadTrace("li", 1000);
    PipelineConfig config;
    config.modelWrongPath = true; // no program given
    EXPECT_EXIT(runPipelineMachine(trace, config),
                ::testing::ExitedWithCode(1), "program image");
}

TEST(WrongPath, AbandonReleasesInFlightSlots)
{
    StridePredictor predictor;
    predictor.train(0x1000, 10);
    predictor.train(0x1000, 20);
    predictor.lookup(0x1000); // in flight: 1 (squashed later)
    predictor.abandon(0x1000);
    // After the abandon, a wrong repair should project for 0 in-flight
    // copies, i.e. behave exactly like the sequential case.
    predictor.train(0x1000, 30, false);
    EXPECT_EQ(predictor.lookup(0x1000).value, 40u);
}

} // namespace
} // namespace vpsim
