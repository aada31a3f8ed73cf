/**
 * @file
 * Tests for the machine models: the Section 3 ideal machine (including
 * an exact reproduction of the paper's Table 3.2 schedule) and the
 * Section 5 pipeline machine (branch penalty timing, window policies,
 * value-misprediction semantics).
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include <unistd.h>

#include <gtest/gtest.h>

#include "analysis/did.hpp"
#include "core/ideal_machine.hpp"
#include "core/pipeline_machine.hpp"
#include "core/reference_machine.hpp"
#include "core/speedup.hpp"
#include "trace/streaming_source.hpp"
#include "trace/trace_v3.hpp"
#include "vm/interpreter.hpp"
#include "vm/program_builder.hpp"
#include "workloads/regs.hpp"
#include "workloads/workload.hpp"

namespace vpsim
{
namespace
{

using namespace regs;

TraceRecord
rec(SeqNum seq, RegIndex rd, RegIndex rs1 = invalidReg, Value result = 0)
{
    TraceRecord record;
    record.seq = seq;
    record.pc = 0x1000 + seq * instBytes;
    record.nextPc = record.pc + instBytes;
    record.op = rs1 == invalidReg ? OpCode::Addi : OpCode::Add;
    record.rd = rd;
    record.rs1 = rs1 == invalidReg ? 0 : rs1;
    record.rs2 = rs1 == invalidReg ? invalidReg : 0;
    record.result = result;
    return record;
}

/** The Figure 3.2 DFG (see test_analysis.cpp for the arc list). */
std::vector<TraceRecord>
figure32()
{
    return {
        rec(0, 1), rec(1, 2, 1), rec(2, 3), rec(3, 4, 2),
        rec(4, 5, 1), rec(5, 6, 5), rec(6, 7, 3), rec(7, 8, 7),
    };
}

/** A serial dependence chain of @p length instructions. */
std::vector<TraceRecord>
serialChain(std::size_t length)
{
    std::vector<TraceRecord> trace;
    trace.push_back(rec(0, 1, invalidReg, 1));
    for (SeqNum seq = 1; seq < length; ++seq)
        trace.push_back(rec(seq, 1, 1, seq + 1));
    return trace;
}

/** Fully independent instructions. */
std::vector<TraceRecord>
independent(std::size_t length)
{
    std::vector<TraceRecord> trace;
    for (SeqNum seq = 0; seq < length; ++seq)
        trace.push_back(rec(seq, static_cast<RegIndex>(1 + seq % 8)));
    return trace;
}

TEST(IdealMachine, Table32PerfectVpSchedule)
{
    IdealMachineConfig config;
    config.fetchRate = 4;
    config.useValuePrediction = true;
    config.perfectValuePrediction = true;
    const IdealMachineResult result =
        runIdealMachine(figure32(), config, true);
    // Paper Table 3.2: instructions 1-4 execute in cycle 3, 5-8 in 4.
    const std::vector<Cycle> expected = {3, 3, 3, 3, 4, 4, 4, 4};
    ASSERT_EQ(result.execCycle.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(result.execCycle[i], expected[i]) << "inst " << i + 1;
    EXPECT_EQ(result.cycles, 4u);
}

TEST(IdealMachine, Table32NoVpSchedule)
{
    IdealMachineConfig config;
    config.fetchRate = 4;
    config.useValuePrediction = false;
    const IdealMachineResult result =
        runIdealMachine(figure32(), config, true);
    // Without VP the dependents 2, 4, 6, 8 slip behind their producers;
    // 5 and 7 are untouched because their producers' values are ready
    // by the time they issue (the "useless prediction" case).
    const std::vector<Cycle> expected = {3, 4, 3, 5, 4, 5, 4, 5};
    ASSERT_EQ(result.execCycle.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(result.execCycle[i], expected[i]) << "inst " << i + 1;
}

TEST(IdealMachine, UselessPredictionsAreCounted)
{
    IdealMachineConfig config;
    config.fetchRate = 4;
    config.useValuePrediction = true;
    config.perfectValuePrediction = true;
    const IdealMachineResult result = runIdealMachine(figure32(), config);
    // With perfect VP every producer is predicted (8 made) but only the
    // four same-cycle dependents (2, 4, 6, 8) actually benefit.
    EXPECT_EQ(result.predictionsMade, 8u);
    EXPECT_EQ(result.usefulPredictions, 4u);
}

TEST(IdealMachine, WiderFetchMakesPredictionsUseful)
{
    IdealMachineConfig config;
    config.useValuePrediction = true;
    config.perfectValuePrediction = true;
    config.fetchRate = 1;
    const IdealMachineResult narrow =
        runIdealMachine(figure32(), config);
    EXPECT_EQ(narrow.usefulPredictions, 0u)
        << "at 1 inst/cycle every operand is ready by issue time";
    config.fetchRate = 8;
    const IdealMachineResult wide = runIdealMachine(figure32(), config);
    EXPECT_GT(wide.usefulPredictions, 4u)
        << "with all 8 fetched together even inst 5/7 benefit";
}

TEST(IdealMachine, FetchRateBoundsIpc)
{
    const auto trace = independent(4000);
    for (const unsigned rate : {4u, 8u, 16u}) {
        IdealMachineConfig config;
        config.fetchRate = rate;
        const IdealMachineResult result = runIdealMachine(trace, config);
        EXPECT_NEAR(result.ipc, rate, 0.2)
            << "independent instructions run at fetch bandwidth";
    }
}

TEST(IdealMachine, SerialChainRunsAtOneIpcWithoutVp)
{
    const auto trace = serialChain(2000);
    IdealMachineConfig config;
    config.fetchRate = 40;
    const IdealMachineResult result = runIdealMachine(trace, config);
    EXPECT_NEAR(result.ipc, 1.0, 0.05);
}

TEST(IdealMachine, PerfectVpBreaksSerialChain)
{
    const auto trace = serialChain(2000);
    IdealMachineConfig config;
    config.fetchRate = 40;
    config.useValuePrediction = true;
    config.perfectValuePrediction = true;
    const IdealMachineResult result = runIdealMachine(trace, config);
    EXPECT_GT(result.ipc, 30.0)
        << "a fully predicted chain runs at fetch bandwidth";
}

TEST(IdealMachine, StridePredictorBreaksStrideChain)
{
    // r1 = r1 + 1 repeatedly at the SAME pc: a classic stride chain the
    // real (non-oracle) predictor must break after warmup.
    std::vector<TraceRecord> trace;
    for (SeqNum seq = 0; seq < 4000; ++seq) {
        TraceRecord record = rec(seq, 1, 1, seq + 1);
        record.pc = 0x1000; // one static instruction
        trace.push_back(record);
    }
    IdealMachineConfig config;
    config.fetchRate = 40;
    config.useValuePrediction = true;
    const IdealMachineResult result = runIdealMachine(trace, config);
    EXPECT_GT(result.ipc, 20.0);
    EXPECT_GT(result.predictionsCorrect, 3900u);
}

TEST(IdealMachine, WindowLimitsIpc)
{
    const auto trace = independent(4000);
    IdealMachineConfig config;
    config.fetchRate = 40;
    config.windowSize = 8;
    const IdealMachineResult result = runIdealMachine(trace, config);
    EXPECT_LE(result.ipc, 8.05) << "window of 8 caps IPC at 8";
}

TEST(IdealMachine, WrongPredictionsCostPenalty)
{
    // Producer values are random; classifier confidence is forced by a
    // wide window of correct predictions first... simpler: compare a
    // machine with penalty 0 and penalty 3 on a mixed trace; more
    // penalty can never speed it up.
    std::vector<TraceRecord> trace;
    Value v = 99;
    for (SeqNum seq = 0; seq < 2000; ++seq) {
        v = v * 6364136223846793005ull + 1442695040888963407ull;
        TraceRecord record = rec(seq, 1, 1, v);
        record.pc = 0x1000;
        trace.push_back(record);
    }
    IdealMachineConfig config;
    config.fetchRate = 40;
    config.useValuePrediction = true;
    config.vpPenalty = 0;
    const Cycle no_penalty = runIdealMachine(trace, config).cycles;
    config.vpPenalty = 3;
    const Cycle with_penalty = runIdealMachine(trace, config).cycles;
    EXPECT_GE(with_penalty, no_penalty);
}

TEST(IdealMachine, TwoWrongOperandsReissueInAscendingReadyOrder)
{
    // The ideal machine's reissue rule (docs/MODELS.md section 1): the
    // wrongly predicted operands of one consumer are taken in ascending
    // order of their real values' ready cycles r, and each one that
    // arrives after the running completion moves it to r + penalty.
    // Hand-derived at F = 40, W = 40, frontend 2, penalty 2; every
    // record is fetched in cycle 1, so nothing executes before cycle 3.
    std::vector<TraceRecord> trace;
    SeqNum seq = 0;
    const auto push = [&trace, &seq](std::uint64_t pc, RegIndex rd,
                                     RegIndex rs1, RegIndex rs2,
                                     Value result) {
        TraceRecord record = rec(seq++, rd, rs1, result);
        record.pc = pc;
        record.nextPc = pc + instBytes;
        record.rs2 = rs2;
        trace.push_back(record);
    };
    // Training: producers A (r1) and B (r2) on strides 10 and 100, no
    // sources, all executing in cycle 3; the stride classifier becomes
    // confident in both.
    for (Value k = 1; k <= 6; ++k) {
        push(0xa000, 1, 0, invalidReg, 10 * k);
        push(0xb000, 2, 0, invalidReg, 100 * k);
    }
    // A chain on r3 through fresh pcs (never predicted): 3, 4, 5.
    push(0xc000, 3, 0, invalidReg, 1);
    push(0xc004, 3, 3, invalidReg, 2);
    push(0xc008, 3, 3, invalidReg, 3);
    // A off its stride, after the chain: exec 6, real value ready 7.
    push(0xa000, 1, 3, invalidReg, 12345);
    push(0xc00c, 3, 3, invalidReg, 4); // exec 6
    // B off its stride: exec 7, real value ready 8.
    push(0xb000, 2, 3, invalidReg, 54321);
    // The consumer: both operands predicted, so it issues at 3. Then
    // lo = 7 > 3 gives 7 + 2 = 9, and hi = 8 <= 9 costs nothing:
    // exec 9. Charging each operand against the issue cycle instead
    // (the pipeline's rule) would give hi + 2 = 10.
    push(0xd000, 4, 1, 2, 0);

    IdealMachineConfig config;
    config.fetchRate = 40;
    config.windowSize = 40;
    config.vpPenalty = 2;
    config.useValuePrediction = true;
    const IdealMachineResult primary =
        runIdealMachine(trace, config, /*keep_schedule=*/true);
    EXPECT_EQ(primary.predictionsWrong, 2u);
    ASSERT_EQ(primary.execCycle.size(), trace.size());
    EXPECT_EQ(primary.execCycle[trace.size() - 3], 6u) << "A";
    EXPECT_EQ(primary.execCycle[trace.size() - 2], 7u) << "B";
    EXPECT_EQ(primary.execCycle.back(), 9u) << "the consumer";
    EXPECT_EQ(primary.cycles, 9u);

    const IdealMachineResult reference =
        runReferenceIdealMachine(TraceSpan(trace), config);
    EXPECT_EQ(reference.predictionsWrong, 2u);
    EXPECT_EQ(reference.cycles, 9u);
}

TEST(IdealMachine, SpeedupHelperMatchesManualRatio)
{
    const auto trace = serialChain(500);
    IdealMachineConfig config;
    config.fetchRate = 16;
    config.perfectValuePrediction = true;
    const double speedup = idealVpSpeedup(trace, config);
    config.useValuePrediction = false;
    const double base =
        static_cast<double>(runIdealMachine(trace, config).cycles);
    config.useValuePrediction = true;
    const double vp =
        static_cast<double>(runIdealMachine(trace, config).cycles);
    EXPECT_DOUBLE_EQ(speedup, base / vp);
}

TEST(SpeedupHelpers, Means)
{
    EXPECT_DOUBLE_EQ(arithmeticMean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(arithmeticMean({}), 0.0);
}

// ---------------------------------------------------------------------
// Pipeline machine
// ---------------------------------------------------------------------

/** Capture a trace of a small loop program through the VM. */
std::vector<TraceRecord>
loopTrace(int iterations, int body_adds = 2)
{
    ProgramBuilder b("loop");
    Label loop = b.newLabel();
    b.li(s0, iterations);
    b.bind(loop);
    for (int i = 0; i < body_adds; ++i)
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

TEST(PipelineMachine, CommitsEverything)
{
    const auto trace = loopTrace(50);
    PipelineConfig config;
    const PipelineResult result = runPipelineMachine(trace, config);
    EXPECT_EQ(result.instructions, trace.size());
    EXPECT_GT(result.cycles, 0u);
    EXPECT_GT(result.ipc, 0.5);
}

TEST(PipelineMachine, PerfectBpHasNoMispredicts)
{
    const auto trace = loopTrace(50);
    PipelineConfig config;
    config.perfectBranchPredictor = true;
    const PipelineResult result = runPipelineMachine(trace, config);
    EXPECT_EQ(result.branchMispredicts, 0u);
}

TEST(PipelineMachine, MispredictionsCostCycles)
{
    const auto trace = loopTrace(50);
    PipelineConfig ideal;
    ideal.perfectBranchPredictor = true;
    PipelineConfig real;
    real.perfectBranchPredictor = false;
    const PipelineResult r_ideal = runPipelineMachine(trace, ideal);
    const PipelineResult r_real = runPipelineMachine(trace, real);
    EXPECT_GT(r_real.branchMispredicts, 0u);
    EXPECT_GT(r_real.cycles, r_ideal.cycles);
}

TEST(PipelineMachine, TakenBranchLimitThrottlesIpc)
{
    // Without value prediction the loop counter chain serializes the
    // iterations, so the taken-branch limit never binds (the paper's
    // core observation!). With perfect VP the iterations decouple and
    // the fetch limit becomes the bottleneck.
    const auto trace = loopTrace(300, 1);
    PipelineConfig config;
    config.useValuePrediction = true;
    config.perfectValuePrediction = true;
    config.maxTakenBranches = 1;
    const double ipc1 = runPipelineMachine(trace, config).ipc;
    config.maxTakenBranches = 4;
    const double ipc4 = runPipelineMachine(trace, config).ipc;
    EXPECT_GT(ipc4, ipc1 * 1.5)
        << "a 3-inst loop at 1 taken/cycle caps near IPC 3";
}

TEST(PipelineMachine, VpSpeedsUpStrideLoop)
{
    const auto trace = loopTrace(300, 1);
    PipelineConfig config;
    config.maxTakenBranches = 0;
    const double speedup = pipelineVpSpeedup(trace, config);
    EXPECT_GT(speedup, 1.1)
        << "the counter chain is stride predictable";
}

TEST(PipelineMachine, PerfectVpIsAnUpperBound)
{
    const auto trace = loopTrace(200, 3);
    PipelineConfig config;
    config.maxTakenBranches = 0;
    config.useValuePrediction = true;
    const Cycle real_vp = runPipelineMachine(trace, config).cycles;
    config.perfectValuePrediction = true;
    const Cycle perfect_vp = runPipelineMachine(trace, config).cycles;
    EXPECT_LE(perfect_vp, real_vp);
}

TEST(PipelineMachine, ExecuteFreedWindowBeatsLittlesLawCap)
{
    // A long serial chain in r1 (each link executes one cycle after its
    // parent) interleaved with bursts of independent instructions. The
    // independents flow through the scheduling window as soon as they
    // execute, even while the chain head blocks in-order commit.
    std::vector<TraceRecord> trace;
    SeqNum seq = 0;
    trace.push_back(rec(seq++, 1, invalidReg, 1));
    for (int link = 0; link < 60; ++link) {
        trace.push_back(rec(seq, 1, 1, seq));
        ++seq;
        for (int burst = 0; burst < 7; ++burst) {
            trace.push_back(
                rec(seq, static_cast<RegIndex>(2 + burst)));
            ++seq;
        }
    }

    PipelineConfig config;
    config.maxTakenBranches = 0;
    config.windowSize = 8;
    const PipelineResult result = runPipelineMachine(trace, config);

    // Little's law would cap a window whose slots free at commit: every
    // instruction would hold its slot from dispatch to commit — at
    // least frontendLatency (fetch -> earliest execute) + 1 (commit
    // follows execute) cycles — so IPC <= windowSize / depth. Slots
    // that free at execute are not subject to that cap: the window
    // turns over faster than commit ever could.
    const double min_depth = config.frontendLatency + 1.0;
    EXPECT_GT(result.ipc,
              static_cast<double>(config.windowSize) / min_depth);
}

TEST(PipelineMachine, RetireTimingUpdateIsNoBetter)
{
    const auto trace = loopTrace(400, 2);
    PipelineConfig config;
    config.maxTakenBranches = 0;
    config.useValuePrediction = true;
    config.vpUpdateTiming = VpUpdateTiming::Dispatch;
    const PipelineResult dispatch = runPipelineMachine(trace, config);
    config.vpUpdateTiming = VpUpdateTiming::Retire;
    const PipelineResult retire = runPipelineMachine(trace, config);
    EXPECT_GE(retire.cycles, dispatch.cycles)
        << "stale predictor state cannot make the machine faster";
}

TEST(PipelineMachine, TraceCacheBeatsSingleTakenBranch)
{
    // As above: the fetch-bandwidth comparison needs value prediction
    // to decouple the loop iterations first.
    const auto trace = loopTrace(400, 1);
    PipelineConfig seq;
    seq.useValuePrediction = true;
    seq.perfectValuePrediction = true;
    seq.frontEnd = FrontEndKind::Sequential;
    seq.maxTakenBranches = 1;
    PipelineConfig tc = seq;
    tc.frontEnd = FrontEndKind::TraceCache;
    const double seq_ipc = runPipelineMachine(trace, seq).ipc;
    const PipelineResult tc_result = runPipelineMachine(trace, tc);
    EXPECT_GT(tc_result.ipc, seq_ipc)
        << "trace lines cross taken branches";
    EXPECT_GT(tc_result.tcHitRate, 0.5);
}

TEST(PipelineMachine, InterleavedTableDenialsReduceSpeedup)
{
    const auto trace = loopTrace(400, 1);
    PipelineConfig config;
    config.frontEnd = FrontEndKind::TraceCache;
    config.useValuePrediction = true;
    config.useInterleavedVpTable = true;
    config.vpTableConfig.banks = 1; // worst case: everything conflicts
    const PipelineResult banked = runPipelineMachine(trace, config);
    EXPECT_GT(banked.vptDeniedRequests, 0u);

    config.useInterleavedVpTable = false;
    const PipelineResult free_table = runPipelineMachine(trace, config);
    EXPECT_LE(free_table.cycles, banked.cycles)
        << "denied predictions cannot make the machine faster";
}

TEST(PipelineTiming, IndependentBundleTakesFourCycles)
{
    // 4 independent instructions, one bundle: fetch c1, decode c2,
    // execute c3, commit c4.
    const auto trace = independent(4);
    PipelineConfig config;
    config.maxTakenBranches = 0;
    const PipelineResult result = runPipelineMachine(trace, config);
    EXPECT_EQ(result.cycles, 4u);
}

TEST(PipelineTiming, SerialChainAddsOneCyclePerLink)
{
    // i1 <- i0, i2 <- i1: execute cycles 3, 4, 5; last commit cycle 6.
    const std::vector<TraceRecord> trace = {
        rec(0, 1, invalidReg, 10),
        rec(1, 1, 1, 20),
        rec(2, 1, 1, 30),
    };
    PipelineConfig config;
    config.maxTakenBranches = 0;
    const PipelineResult result = runPipelineMachine(trace, config);
    EXPECT_EQ(result.cycles, 6u);
}

TEST(PipelineTiming, PerfectVpCollapsesTheChain)
{
    const std::vector<TraceRecord> trace = {
        rec(0, 1, invalidReg, 10),
        rec(1, 1, 1, 20),
        rec(2, 1, 1, 30),
    };
    PipelineConfig config;
    config.maxTakenBranches = 0;
    config.useValuePrediction = true;
    config.perfectValuePrediction = true;
    const PipelineResult result = runPipelineMachine(trace, config);
    EXPECT_EQ(result.cycles, 4u)
        << "all three execute in cycle 3 on predicted operands";
}

TEST(PipelineTiming, MispredictedBranchCostsThreeCycles)
{
    // A cold BTB mispredicts the taken branch. Branch: fetch c1, exec
    // c3, fetch resumes c4; the next instruction executes c6, commits
    // c7 — the paper's 3-cycle penalty relative to the 4-cycle ideal.
    std::vector<TraceRecord> trace;
    TraceRecord branch;
    branch.seq = 0;
    branch.pc = 0x1000;
    branch.op = OpCode::Beq;
    branch.rs1 = 0;
    branch.rs2 = 0;
    branch.taken = true;
    branch.nextPc = 0x2000;
    trace.push_back(branch);
    TraceRecord next = rec(1, 1, invalidReg, 5);
    next.pc = 0x2000;
    next.nextPc = 0x2004;
    trace.push_back(next);

    PipelineConfig config;
    config.maxTakenBranches = 0;
    config.perfectBranchPredictor = false;
    const PipelineResult result = runPipelineMachine(trace, config);
    EXPECT_EQ(result.cycles, 7u);
    EXPECT_EQ(result.branchMispredicts, 1u);
}

TEST(PipelineTiming, WrongValuePredictionCostsOneCycle)
{
    // Producer at the same pc twice with non-stride values: warm the
    // table so the second instance is predicted WRONG with a saturated
    // counter... simpler: perfect VP with penalty checked via the ideal
    // machine covers the arithmetic; here assert the pipeline's wrong
    // path produces a strictly larger cycle count than perfect VP on a
    // value stream that defeats the stride predictor.
    std::vector<TraceRecord> trace;
    Value v = 1;
    for (SeqNum i = 0; i < 64; ++i) {
        v = v * 2862933555777941757ull + 3037000493ull;
        TraceRecord producer = rec(i * 2, 1, invalidReg, v);
        producer.pc = 0x1000;
        TraceRecord consumer = rec(i * 2 + 1, 2, 1, v + 1);
        consumer.pc = 0x1004;
        trace.push_back(producer);
        trace.push_back(consumer);
    }
    for (SeqNum i = 0; i < trace.size(); ++i)
        trace[i].seq = i;
    PipelineConfig config;
    config.maxTakenBranches = 0;
    config.useValuePrediction = true;
    const Cycle real = runPipelineMachine(trace, config).cycles;
    config.perfectValuePrediction = true;
    const Cycle perfect = runPipelineMachine(trace, config).cycles;
    EXPECT_GE(real, perfect);
}

TEST(PipelineTiming, YoungerIndependentIssuesBeforeOlderDependent)
{
    // Issue is oldest first under the width, so a younger instruction
    // may take a slot no older one can use, never one an older one can.
    // Width 2, two per bundle, issue no earlier than dispatch + 2:
    //   c1: A r1 = 1        issue 3
    //       B r2 = r1       issue 4 (A's value at 4)
    //   c2: C r3 = r2       issue 5 (B's value at 5)
    //       D r4 = 2        issue 4: the younger D overtakes C
    //   c3: E r5 = r4       issue 5 (with C; cycle 5 is full)
    //       G r7 = r3       issue 6 (C's value at 6)
    //   c4: H r8 = 3        issue 6 (with G; cycle 6 is full)
    //       I r9 = r5       issue 7: ready at 6 like H, but H is older
    // Commits A 4, B 5, C D E 6, G H 7, I 8.
    const std::vector<TraceRecord> trace = {
        rec(0, 1), rec(1, 2, 1), rec(2, 3, 2), rec(3, 4),
        rec(4, 5, 4), rec(5, 7, 3), rec(6, 8), rec(7, 9, 5),
    };
    PipelineConfig config;
    config.maxTakenBranches = 0;
    config.issueWidth = 2;
    EXPECT_EQ(runPipelineMachine(trace, config).cycles, 8u);
    EXPECT_EQ(runReferencePipelineMachine(trace, config).cycles, 8u);

    // At width 1 fetch delivers one instruction per cycle as well, so
    // every operand is ready by dispatch + 2 and issue is in order:
    // instruction k (from 0) issues in cycle k + 3, the last commits
    // in cycle 11.
    config.issueWidth = 1;
    EXPECT_EQ(runPipelineMachine(trace, config).cycles, 11u);
    EXPECT_EQ(runReferencePipelineMachine(trace, config).cycles, 11u);
}

TEST(PipelineTiming, LateWrongPathBubblesGiveTheirIssueSlotsBack)
{
    // An 8-link chain feeds a taken bne that a cold BTB mispredicts;
    // fetch runs down the fall-through path until the bne executes.
    // Width 2, issue no earlier than dispatch + 2:
    //   c1-c4: chain links k = 0..7 issue in cycle k + 3
    //   c5:    bne issues (and resolves) in cycle 11
    //   c6:    bubbles issue in cycles 8 and 9 (1 free slot in each)
    //   c7:    bubbles: cycle 10, then none before 11
    //   c8-10: 6 bubbles, none before cycle 11
    //   c11:   the bne resolves; the 7 late bubbles squash unissued
    //   c12:   t0 t1 issue 14; c13: t2 t3 issue 15; c14: halt issues 16
    // The halt commits in cycle 17. Had the late bubbles kept the slots
    // they would have issued in (11, 12, 12, 13, 13, 14, 14), t0 and t1
    // would issue in 15, t2 and t3 in 16, the halt in 17, and the run
    // would take 18 cycles.
    ProgramBuilder b("late_bubbles");
    Label target = b.newLabel();
    b.addi(s0, zero, 1);
    for (int link = 1; link < 8; ++link)
        b.addi(s0, s0, 1);
    b.bne(s0, zero, target);
    for (int k = 0; k < 16; ++k)
        b.addi(s1, zero, k); // wrong path only
    b.bind(target);
    for (int k = 0; k < 4; ++k)
        b.addi(static_cast<RegIndex>(s2 + k), zero, k);
    b.halt();
    const Program program = b.build();
    std::vector<TraceRecord> trace;
    Interpreter interp(program, Memory{});
    ASSERT_TRUE(interp.run(0, &trace).halted);
    ASSERT_EQ(trace.size(), 14u); // 8 links, bne, t0..t3, halt

    PipelineConfig config;
    config.maxTakenBranches = 0;
    config.issueWidth = 2;
    config.perfectBranchPredictor = false;
    config.modelWrongPath = true;
    config.program = &program;
    for (const PipelineMachineFn machine :
         {&runPipelineMachine, &runReferencePipelineMachine}) {
        const PipelineResult result = machine(trace, config);
        EXPECT_EQ(result.cycles, 17u);
        EXPECT_EQ(result.branchMispredicts, 1u);
        EXPECT_EQ(result.wrongPathFetched, 10u);
    }
}

TEST(PipelineMachine, LoadsOnlyScopePredictsFewer)
{
    const auto trace = loopTrace(200, 2);
    PipelineConfig config;
    config.maxTakenBranches = 0;
    config.useValuePrediction = true;
    config.vpScope = VpScope::AllInstructions;
    const PipelineResult all = runPipelineMachine(trace, config);
    config.vpScope = VpScope::LoadsOnly;
    const PipelineResult loads = runPipelineMachine(trace, config);
    EXPECT_LT(loads.vpPredictionsMade, all.vpPredictionsMade);
    EXPECT_EQ(loads.vpPredictionsMade, 0u)
        << "this loop has no loads at all";
}

TEST(IdealMachine, LoadsOnlyScopeIsWeaker)
{
    // A same-pc stride chain (each instance predictable) with no loads.
    std::vector<TraceRecord> chain;
    for (SeqNum seq = 0; seq < 500; ++seq) {
        TraceRecord record = rec(seq, 1, 1, seq + 1);
        record.pc = 0x1000;
        chain.push_back(record);
    }
    IdealMachineConfig config;
    config.fetchRate = 40;
    config.useValuePrediction = true;
    config.vpScope = VpScope::LoadsOnly;
    const IdealMachineResult loads = runIdealMachine(chain, config);
    EXPECT_EQ(loads.predictionsMade, 0u) << "chain has no loads";
    config.vpScope = VpScope::AllInstructions;
    const IdealMachineResult all = runIdealMachine(chain, config);
    EXPECT_LT(all.cycles, loads.cycles);
}

TEST(Reports, IdealMachineReportMentionsPredictions)
{
    const auto trace = loopTrace(100, 2);
    IdealMachineConfig config;
    config.fetchRate = 16;
    config.useValuePrediction = true;
    const std::string text = runIdealMachine(trace, config).report();
    EXPECT_NE(text.find("ideal machine"), std::string::npos);
    EXPECT_NE(text.find("value predictions"), std::string::npos);
}

TEST(Reports, PipelineReportCoversEnabledFeatures)
{
    const auto trace = loopTrace(200, 2);
    PipelineConfig config;
    config.frontEnd = FrontEndKind::TraceCache;
    config.useValuePrediction = true;
    config.useInterleavedVpTable = true;
    const std::string text = runPipelineMachine(trace, config).report();
    EXPECT_NE(text.find("pipeline machine"), std::string::npos);
    EXPECT_NE(text.find("trace cache"), std::string::npos);
    EXPECT_NE(text.find("vp table"), std::string::npos);
}

TEST(PipelineMachine, EmptyTrace)
{
    const PipelineResult result = runPipelineMachine({}, {});
    EXPECT_EQ(result.cycles, 0u);
    EXPECT_EQ(result.instructions, 0u);
}

/** Property sweep: VP off vs on across front ends must terminate and
 *  commit every instruction. */
class PipelineProperty
    : public ::testing::TestWithParam<std::tuple<unsigned, bool, bool>>
{
};

TEST_P(PipelineProperty, AlwaysCommitsAll)
{
    const auto [taken, vp, ideal_bp] = GetParam();
    const auto trace = loopTrace(120, 3);
    PipelineConfig config;
    config.maxTakenBranches = taken;
    config.useValuePrediction = vp;
    config.perfectBranchPredictor = ideal_bp;
    const PipelineResult result = runPipelineMachine(trace, config);
    EXPECT_EQ(result.instructions, trace.size());
    EXPECT_GT(result.ipc, 0.1);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelineProperty,
    ::testing::Combine(::testing::Values(0u, 1u, 2u, 4u),
                       ::testing::Bool(), ::testing::Bool()));

/** Field-by-field equality for the span-API equivalence tests. */
void
expectSameIdealResult(const IdealMachineResult &a,
                      const IdealMachineResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.predictionsMade, b.predictionsMade);
    EXPECT_EQ(a.predictionsCorrect, b.predictionsCorrect);
    EXPECT_EQ(a.predictionsWrong, b.predictionsWrong);
    EXPECT_EQ(a.correctlyPredictedUses, b.correctlyPredictedUses);
    EXPECT_EQ(a.stallingUses, b.stallingUses);
    EXPECT_EQ(a.usefulPredictions, b.usefulPredictions);
    EXPECT_EQ(a.execCycle, b.execCycle);
}

/**
 * A real workload trace written as a v3 file with 257-record blocks, so
 * streamed spans end at odd offsets that never line up with the
 * in-memory 4096-record blocks.
 */
struct StreamedTrace
{
    std::vector<TraceRecord> records =
        captureWorkloadTrace("compress", 12000);
    std::string path;

    StreamedTrace()
    {
        const char *dir = std::getenv("TMPDIR");
        path = std::string(dir ? dir : "/tmp") + "/vpsim_core_stream_" +
               std::to_string(::getpid()) + ".vptrace";
        EXPECT_TRUE(writeTraceV3(path, records, 257).isOk());
    }
    ~StreamedTrace() { std::remove(path.c_str()); }
};

TEST(IdealMachine, SourceOverloadMatchesVectorOverload)
{
    const StreamedTrace trace;
    StreamingTraceSource source;
    ASSERT_TRUE(source.open(trace.path).isOk());
    for (const int mode : {0, 1, 2}) {
        SCOPED_TRACE("mode " + std::to_string(mode));
        IdealMachineConfig config;
        config.useValuePrediction = mode != 0;
        config.perfectValuePrediction = mode == 2;
        const IdealMachineResult from_vector =
            runIdealMachine(trace.records, config, /*keep_schedule=*/true);
        const IdealMachineResult from_source =
            runIdealMachine(source, config, /*keep_schedule=*/true);
        EXPECT_TRUE(source.status().isOk());
        expectSameIdealResult(from_vector, from_source);
    }
}

TEST(IdealMachine, SpeedupOverloadsAgree)
{
    const StreamedTrace trace;
    StreamingTraceSource source;
    ASSERT_TRUE(source.open(trace.path).isOk());
    IdealMachineConfig config;
    EXPECT_DOUBLE_EQ(idealVpSpeedup(trace.records, config),
                     idealVpSpeedup(source, config));
    EXPECT_TRUE(source.status().isOk());
}

TEST(Did, StreamedSourceMatchesInMemory)
{
    const StreamedTrace trace;
    StreamingTraceSource source;
    ASSERT_TRUE(source.open(trace.path).isOk());
    const DidAnalysis from_span = analyzeDid(trace.records);
    const DidAnalysis from_source = analyzeDid(source);
    EXPECT_TRUE(source.status().isOk());
    EXPECT_GT(from_span.totalArcs, 0u);
    EXPECT_EQ(from_span.totalArcs, from_source.totalArcs);
    EXPECT_DOUBLE_EQ(from_span.averageDid, from_source.averageDid);
    EXPECT_DOUBLE_EQ(from_span.averageDidTrimmed,
                     from_source.averageDidTrimmed);
    EXPECT_DOUBLE_EQ(from_span.fracDidAtLeast4,
                     from_source.fracDidAtLeast4);
    ASSERT_EQ(from_span.distribution.numBuckets(),
              from_source.distribution.numBuckets());
    for (std::size_t b = 0; b < from_span.distribution.numBuckets(); ++b)
        EXPECT_EQ(from_span.distribution.bucketCount(b),
                  from_source.distribution.bucketCount(b));
}

} // namespace
} // namespace vpsim
