/**
 * @file
 * Tests for the DID and predictability analyses, including an exact
 * reproduction of the paper's Figure 3.2 worked example.
 */

#include <cstdio>
#include <string>

#include <gtest/gtest.h>
#include <unistd.h>

#include "analysis/did.hpp"
#include "analysis/predictability.hpp"
#include "core/ideal_machine.hpp"
#include "core/pipeline_machine.hpp"
#include "core/reference_machine.hpp"
#include "trace/streaming_source.hpp"
#include "trace/trace_v3.hpp"
#include "workloads/workload.hpp"

namespace vpsim
{
namespace
{

/** Build a synthetic producer/consumer record for trace position @p at. */
TraceRecord
rec(SeqNum at, RegIndex rd, RegIndex rs1 = invalidReg,
    RegIndex rs2 = invalidReg, Value result = 0)
{
    TraceRecord record;
    record.pc = 0x1000 + at * instBytes;
    record.op = rs1 == invalidReg ? OpCode::Addi : OpCode::Add;
    record.rd = rd;
    record.rs1 = rs1 == invalidReg ? 0 : rs1;
    record.rs2 = rs2;
    record.result = result;
    return record;
}

/**
 * The Figure 3.2 dataflow graph: arcs 1->2 (DID 1), 2->4 (DID 2),
 * 1->5 (DID 4), 5->6 (DID 1), 3->7 (DID 4), 7->8 (DID 1).
 */
std::vector<TraceRecord>
figure32()
{
    return {
        rec(0, 1),          // inst 1
        rec(1, 2, 1),       // inst 2 <- 1
        rec(2, 3),          // inst 3
        rec(3, 4, 2),       // inst 4 <- 2
        rec(4, 5, 1),       // inst 5 <- 1
        rec(5, 6, 5),       // inst 6 <- 5
        rec(6, 7, 3),       // inst 7 <- 3
        rec(7, 8, 7),       // inst 8 <- 7
    };
}

TEST(Did, Figure32ArcsAndAverage)
{
    const DidAnalysis did = analyzeDid(figure32());
    EXPECT_EQ(did.totalArcs, 6u);
    // DIDs: 1, 2, 4, 1, 4, 1 -> average 13/6.
    EXPECT_NEAR(did.averageDid, 13.0 / 6.0, 1e-9);
    // DID >= 4: the two distance-4 arcs.
    EXPECT_NEAR(did.fracDidAtLeast4, 2.0 / 6.0, 1e-9);
}

TEST(Did, Figure32Histogram)
{
    const DidAnalysis did = analyzeDid(figure32());
    const Histogram &hist = did.distribution;
    EXPECT_EQ(hist.bucketCount(0), 3u) << "three arcs with DID 1";
    EXPECT_EQ(hist.bucketCount(1), 1u) << "one arc with DID 2";
    EXPECT_EQ(hist.bucketCount(2), 0u) << "no DID 3 arcs";
    EXPECT_EQ(hist.bucketCount(3), 2u) << "two arcs in the 4-7 bucket";
}

TEST(Did, BothSourcesCreateArcs)
{
    const std::vector<TraceRecord> trace = {
        rec(0, 1),
        rec(1, 2),
        rec(2, 3, 1, 2),
    };
    const DidAnalysis did = analyzeDid(trace);
    EXPECT_EQ(did.totalArcs, 2u);
    EXPECT_NEAR(did.averageDid, 1.5, 1e-9);
}

TEST(Did, RegisterZeroIsNotADependency)
{
    const std::vector<TraceRecord> trace = {
        rec(0, 1),
        rec(1, 2, 0), // reads r0: no arc
    };
    EXPECT_EQ(analyzeDid(trace).totalArcs, 0u);
}

TEST(Did, RedefinitionCutsOldArcs)
{
    const std::vector<TraceRecord> trace = {
        rec(0, 1),
        rec(1, 1),       // redefines r1
        rec(2, 2, 1),    // consumer depends on the RE-definition
    };
    const DidAnalysis did = analyzeDid(trace);
    EXPECT_EQ(did.totalArcs, 1u);
    EXPECT_NEAR(did.averageDid, 1.0, 1e-9);
}

TEST(Did, LoopCarriedDependenciesAreIncluded)
{
    // A producer consumed once per "iteration" 10 instructions apart:
    // the DFG must contain the inter-iteration arcs (no basic-block
    // boundary cuts them).
    std::vector<TraceRecord> trace;
    trace.push_back(rec(0, 5));
    for (SeqNum seq = 1; seq <= 30; ++seq) {
        if (seq % 10 == 0)
            trace.push_back(rec(seq, 5, 5)); // r5 = f(r5)
        else
            trace.push_back(rec(seq, 6));
    }
    const DidAnalysis did = analyzeDid(trace);
    EXPECT_EQ(did.totalArcs, 3u);
    EXPECT_NEAR(did.averageDid, 10.0, 1e-9);
    EXPECT_NEAR(did.fracDidAtLeast4, 1.0, 1e-9);
}

TEST(Did, StreamingCollectorMatchesBatch)
{
    const auto trace = figure32();
    DidCollector collector;
    for (const TraceRecord &record : trace)
        collector.observe(record);
    const DidAnalysis streamed = collector.finish();
    const DidAnalysis batch = analyzeDid(trace);
    EXPECT_EQ(streamed.totalArcs, batch.totalArcs);
    EXPECT_DOUBLE_EQ(streamed.averageDid, batch.averageDid);
}

TEST(Did, EmptyTrace)
{
    const DidAnalysis did = analyzeDid({});
    EXPECT_EQ(did.totalArcs, 0u);
    EXPECT_DOUBLE_EQ(did.averageDid, 0.0);
}

class DidBlockDelivery : public ::testing::TestWithParam<std::string>
{
};

TEST_P(DidBlockDelivery, SourceMatchesSpanAtEveryBlockSize)
{
    // A record's distance is its position, which the collector counts
    // across blocks: arcs that cross a block boundary, down to blocks
    // of one record, must come out as they do from one whole span.
    const auto trace = captureWorkloadTrace(GetParam(), 20000);
    const DidAnalysis whole = analyzeDid(trace);
    ASSERT_GT(whole.totalArcs, 0u);
    const char *dir = std::getenv("TMPDIR");
    const std::string path = std::string(dir ? dir : "/tmp") +
                             "/vpsim_did_blocks_" + GetParam() + "_" +
                             std::to_string(::getpid()) + ".vptrace";
    for (const std::uint32_t per_block : {1u, 7u, defaultRecordsPerBlock}) {
        SCOPED_TRACE("records per block " + std::to_string(per_block));
        ASSERT_TRUE(writeTraceV3(path, trace, per_block).isOk());
        StreamingTraceSource source;
        ASSERT_TRUE(source.open(path).isOk());
        const DidAnalysis blocks = analyzeDid(source);
        EXPECT_TRUE(source.status().isOk()) << source.status().message();
        EXPECT_EQ(blocks.totalArcs, whole.totalArcs);
        EXPECT_DOUBLE_EQ(blocks.averageDid, whole.averageDid);
        EXPECT_DOUBLE_EQ(blocks.averageDidTrimmed, whole.averageDidTrimmed);
        EXPECT_DOUBLE_EQ(blocks.fracDidAtLeast4, whole.fracDidAtLeast4);
        ASSERT_EQ(blocks.distribution.numBuckets(),
                  whole.distribution.numBuckets());
        for (std::size_t b = 0; b < whole.distribution.numBuckets(); ++b)
            EXPECT_EQ(blocks.distribution.bucketCount(b),
                      whole.distribution.bucketCount(b))
                << "bucket " << b;
    }
    std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, DidBlockDelivery,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &param_info) {
                             return param_info.param;
                         });

TEST(Predictability, ConstantProducerBecomesPredictable)
{
    // r1 = 42 repeatedly; consumers attach to each instance. The stride
    // predictor locks on after the second sighting.
    std::vector<TraceRecord> trace;
    SeqNum seq = 0;
    for (int i = 0; i < 10; ++i) {
        TraceRecord p = rec(seq, 1, invalidReg, invalidReg, 42);
        p.pc = 0x1000; // same static instruction every time
        trace.push_back(p);
        ++seq;
        TraceRecord c = rec(seq, 2, 1);
        c.pc = 0x1004;
        trace.push_back(c);
        ++seq;
    }
    const PredictabilityAnalysis pa = analyzePredictability(trace);
    EXPECT_EQ(pa.totalArcs, 10u);
    // First arc: producer unseen -> unpredictable. The rest predictable
    // with DID 1.
    EXPECT_NEAR(pa.fracUnpredictable, 0.1, 1e-9);
    EXPECT_NEAR(pa.fracPredictableDid1, 0.9, 1e-9);
    EXPECT_NEAR(pa.fracPredictable(), 0.9, 1e-9);
}

TEST(Predictability, RandomValuesStayUnpredictable)
{
    std::vector<TraceRecord> trace;
    SeqNum seq = 0;
    Value v = 12345;
    for (int i = 0; i < 20; ++i) {
        v = v * 6364136223846793005ull + 1442695040888963407ull;
        TraceRecord p = rec(seq, 1, invalidReg, invalidReg, v);
        p.pc = 0x1000;
        trace.push_back(p);
        ++seq;
        TraceRecord c = rec(seq, 2, 1);
        c.pc = 0x1004;
        trace.push_back(c);
        ++seq;
    }
    const PredictabilityAnalysis pa = analyzePredictability(trace);
    EXPECT_GT(pa.fracUnpredictable, 0.9);
}

TEST(Predictability, DidBucketsSplitCorrectly)
{
    // Producer at distance 5 from its consumer: predictable arcs land in
    // the >= 4 bucket.
    std::vector<TraceRecord> trace;
    SeqNum seq = 0;
    for (int i = 0; i < 10; ++i) {
        TraceRecord p = rec(seq, 1, invalidReg, invalidReg, 7);
        p.pc = 0x1000;
        trace.push_back(p);
        ++seq;
        for (int f = 0; f < 4; ++f) {
            TraceRecord filler = rec(seq, 3);
            filler.pc = 0x2000 + f * instBytes;
            trace.push_back(filler);
            ++seq;
        }
        TraceRecord c = rec(seq, 2, 1);
        c.pc = 0x1004;
        trace.push_back(c);
        ++seq;
    }
    const PredictabilityAnalysis pa = analyzePredictability(trace);
    EXPECT_NEAR(pa.fracPredictableDid4Plus, 0.9, 1e-9);
    EXPECT_DOUBLE_EQ(pa.fracPredictableDid1, 0.0);
    EXPECT_DOUBLE_EQ(pa.fracPredictableShort(), 0.0);
}

TEST(Predictability, FractionsSumToOne)
{
    const auto trace = figure32();
    const PredictabilityAnalysis pa = analyzePredictability(trace);
    EXPECT_NEAR(pa.fracUnpredictable + pa.fracPredictable(), 1.0, 1e-9);
}

TEST(RegisterBytes, RegistersOutsideTheArchitecturalFileIndexEveryTable)
{
    // A trace read from disk may carry any byte in rd, rs1 and rs2: the
    // v3 reader checks only the opcode. Renaming two registers of a
    // captured trace throughout (5 to 200, 6 to 32) keeps every
    // dependence, so every consumer of register numbers must give the
    // results it gives on the original, from a table slot past the 32
    // architectural registers.
    const auto original = captureWorkloadTrace("go", 20000);
    std::vector<TraceRecord> renamed = original;
    std::size_t to200 = 0;
    std::size_t to32 = 0;
    for (TraceRecord &record : renamed) {
        for (RegIndex *reg : {&record.rd, &record.rs1, &record.rs2}) {
            if (*reg == 5) {
                *reg = 200;
                ++to200;
            } else if (*reg == 6) {
                *reg = 32;
                ++to32;
            }
        }
    }
    ASSERT_GT(to200, 0u);
    ASSERT_GT(to32, 0u);

    const DidAnalysis did = analyzeDid(original);
    const DidAnalysis did_renamed = analyzeDid(renamed);
    EXPECT_EQ(did_renamed.totalArcs, did.totalArcs);
    EXPECT_EQ(did_renamed.averageDid, did.averageDid);
    EXPECT_EQ(did_renamed.averageDidTrimmed, did.averageDidTrimmed);
    for (std::size_t b = 0; b < did.distribution.numBuckets(); ++b)
        EXPECT_EQ(did_renamed.distribution.bucketCount(b),
                  did.distribution.bucketCount(b))
            << "bucket " << b;

    const PredictabilityAnalysis pa = analyzePredictability(original);
    const PredictabilityAnalysis pa_renamed = analyzePredictability(renamed);
    EXPECT_EQ(pa_renamed.totalArcs, pa.totalArcs);
    EXPECT_EQ(pa_renamed.fracUnpredictable, pa.fracUnpredictable);
    EXPECT_EQ(pa_renamed.fracPredictableDid1, pa.fracPredictableDid1);
    EXPECT_EQ(pa_renamed.fracPredictableDid4Plus,
              pa.fracPredictableDid4Plus);

    IdealMachineConfig ideal;
    ideal.fetchRate = 16;
    ideal.useValuePrediction = true;
    const IdealMachineResult want = runIdealMachine(original, ideal);
    ASSERT_GT(want.stallingUses, 0u);
    for (const IdealMachineResult &got :
         {runIdealMachine(renamed, ideal),
          runReferenceIdealMachine(TraceSpan(renamed), ideal)}) {
        EXPECT_EQ(got.cycles, want.cycles);
        EXPECT_EQ(got.stallingUses, want.stallingUses);
        EXPECT_EQ(got.usefulPredictions, want.usefulPredictions);
    }

    PipelineConfig pipeline;
    pipeline.useValuePrediction = true;
    pipeline.maxTakenBranches = 0;
    const PipelineResult timed = runPipelineMachine(original, pipeline);
    for (const PipelineResult &got :
         {runPipelineMachine(renamed, pipeline),
          runReferencePipelineMachine(TraceSpan(renamed), pipeline)}) {
        EXPECT_EQ(got.cycles, timed.cycles);
        EXPECT_EQ(got.stallingUses, timed.stallingUses);
        EXPECT_EQ(got.usefulPredictions, timed.usefulPredictions);
    }
}

} // namespace
} // namespace vpsim
