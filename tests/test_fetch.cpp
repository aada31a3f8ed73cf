/**
 * @file
 * Tests for the fetch engines: taken-branch limits, misprediction
 * stall/resume, trace-cache fill, hit/miss paths, partial hits, and line
 * invariants.
 */

#include <gtest/gtest.h>

#include "bpred/branch_predictor.hpp"
#include "bpred/two_level.hpp"
#include "fetch/collapsing_buffer.hpp"
#include "fetch/sequential_fetch.hpp"
#include "fetch/trace_cache.hpp"
#include "fetch_bundles.hpp"
#include "vm/program_builder.hpp"
#include "vm/interpreter.hpp"
#include "workloads/regs.hpp"

namespace vpsim
{
namespace
{

using namespace regs;

/** A trace of a tight 4-instruction counted loop plus a tail. */
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
    b.addi(s2, s1, 0);
    b.halt();
    Program prog = b.build();
    std::vector<TraceRecord> trace;
    Interpreter interp(prog, Memory{});
    interp.run(0, &trace);
    return trace;
}

std::vector<FetchedRecord>
fetchAll(TraceFetchBase &engine, unsigned width, Cycle max_cycles,
         std::vector<unsigned> *bundle_sizes = nullptr)
{
    std::vector<FetchedRecord> out;
    for (Cycle now = 1; now <= max_cycles && !engine.done(); ++now) {
        const std::size_t before = out.size();
        fetchInto(engine, now, width, out);
        if (bundle_sizes)
            bundle_sizes->push_back(
                static_cast<unsigned>(out.size() - before));
        // Resolve any misprediction immediately (oracle machine).
        if (!out.empty() && out.back().mispredicted)
            engine.branchResolved(out.back().position, now);
    }
    return out;
}

TEST(SequentialFetch, FetchesWholeTraceInOrder)
{
    const auto trace = loopTrace(10);
    PerfectBranchPredictor oracle;
    SequentialFetch engine(trace, oracle, 0);
    const auto fetched = fetchAll(engine, 40, 1000);
    ASSERT_EQ(fetched.size(), trace.size());
    for (std::size_t i = 0; i < fetched.size(); ++i)
        EXPECT_EQ(fetched[i].position, i);
    EXPECT_TRUE(engine.done());
}

TEST(SequentialFetch, RespectsWidth)
{
    const auto trace = loopTrace(20);
    PerfectBranchPredictor oracle;
    SequentialFetch engine(trace, oracle, 0);
    std::vector<unsigned> sizes;
    fetchAll(engine, 5, 1000, &sizes);
    for (const unsigned size : sizes)
        EXPECT_LE(size, 5u);
}

TEST(SequentialFetch, OneTakenBranchPerCycle)
{
    const auto trace = loopTrace(20);
    PerfectBranchPredictor oracle;
    SequentialFetch engine(trace, oracle, 1);
    std::vector<unsigned> sizes;
    fetchAll(engine, 40, 1000, &sizes);
    // Steady-state bundles must be one loop iteration (3 instructions,
    // ending at the taken bne).
    ASSERT_GE(sizes.size(), 10u);
    EXPECT_EQ(sizes[3], 3u);
    EXPECT_EQ(sizes[4], 3u);
}

TEST(SequentialFetch, TwoTakenBranchesDoubleTheBundle)
{
    const auto trace = loopTrace(20);
    PerfectBranchPredictor oracle;
    SequentialFetch engine(trace, oracle, 2);
    std::vector<unsigned> sizes;
    fetchAll(engine, 40, 1000, &sizes);
    EXPECT_EQ(sizes[3], 6u) << "two loop iterations per cycle";
}

TEST(SequentialFetch, UnlimitedTakenUsesFullWidth)
{
    const auto trace = loopTrace(100);
    PerfectBranchPredictor oracle;
    SequentialFetch engine(trace, oracle, 0);
    std::vector<unsigned> sizes;
    fetchAll(engine, 40, 1000, &sizes);
    EXPECT_EQ(sizes[1], 40u);
}

TEST(SequentialFetch, MispredictionStallsUntilResolved)
{
    const auto trace = loopTrace(8);
    TwoLevelPApPredictor bpred; // cold: first taken bne mispredicts
    SequentialFetch engine(trace, bpred, 0);

    std::vector<FetchedRecord> out;
    fetchInto(engine, 1, 40, out);
    ASSERT_FALSE(out.empty());
    EXPECT_TRUE(out.back().mispredicted)
        << "cold BTB mispredicts the first taken branch";
    const SeqNum bad = out.back().position;
    const std::size_t after_first = out.size();

    // Fetch is stalled until the branch resolves.
    fetchInto(engine, 2, 40, out);
    fetchInto(engine, 3, 40, out);
    EXPECT_EQ(out.size(), after_first);

    engine.branchResolved(bad, 5);
    fetchInto(engine, 5, 40, out);
    EXPECT_EQ(out.size(), after_first) << "resumes the cycle AFTER";
    fetchInto(engine, 6, 40, out);
    EXPECT_GT(out.size(), after_first);
    EXPECT_GE(engine.mispredicts(), 1u);
}

TEST(SequentialFetch, ForeignResolutionIsIgnored)
{
    const auto trace = loopTrace(8);
    TwoLevelPApPredictor bpred;
    SequentialFetch engine(trace, bpred, 0);
    std::vector<FetchedRecord> out;
    fetchInto(engine, 1, 40, out);
    const SeqNum bad = out.back().position;
    engine.branchResolved(bad + 999, 2); // not the pending branch
    const std::size_t size_before = out.size();
    fetchInto(engine, 3, 40, out);
    EXPECT_EQ(out.size(), size_before);
    engine.branchResolved(bad, 3);
    fetchInto(engine, 4, 40, out);
    EXPECT_GT(out.size(), size_before);
}

TEST(TraceCache, MissPathStopsAtTakenBranch)
{
    const auto trace = loopTrace(20);
    PerfectBranchPredictor oracle;
    TraceCacheFetch engine(trace, oracle, {});
    std::vector<FetchedRecord> out;
    fetchInto(engine, 1, 40, out); // li + first iteration, cold cache
    EXPECT_EQ(out.size(), 4u)
        << "miss path is contiguous up to the taken bne";
    EXPECT_EQ(engine.hits(), 0u);
}

TEST(TraceCache, HitsAfterFill)
{
    const auto trace = loopTrace(256);
    PerfectBranchPredictor oracle;
    TraceCacheFetch engine(trace, oracle, {});
    fetchAll(engine, 40, 10000);
    EXPECT_GT(engine.hits(), 0u);
    EXPECT_GT(engine.hitRate(), 0.5)
        << "a tight loop must hit once its lines are built";
    EXPECT_GT(engine.lineInstsDelivered(), 0u);
}

TEST(TraceCache, LinesCrossTakenBranches)
{
    // The whole point of a trace cache: one fetch cycle can deliver
    // multiple taken branches. Steady-state bundles must exceed one
    // basic block (3 insts).
    const auto trace = loopTrace(200);
    PerfectBranchPredictor oracle;
    TraceCacheFetch engine(trace, oracle, {});
    std::vector<unsigned> sizes;
    fetchAll(engine, 40, 10000, &sizes);
    unsigned best = 0;
    for (const unsigned size : sizes)
        best = std::max(best, size);
    EXPECT_GE(best, 12u) << "a line holds up to 6 basic blocks";
}

TEST(TraceCache, LineInvariantsHold)
{
    TraceCacheConfig config;
    config.maxLineInsts = 8;
    config.maxLineBlocks = 2;
    const auto trace = loopTrace(100);
    PerfectBranchPredictor oracle;
    TraceCacheFetch engine(trace, oracle, config);
    std::vector<unsigned> sizes;
    fetchAll(engine, 40, 10000, &sizes);
    for (const unsigned size : sizes)
        EXPECT_LE(size, 8u) << "no bundle can exceed the line size";
}

TEST(TraceCache, RespectsMachineBudget)
{
    const auto trace = loopTrace(100);
    PerfectBranchPredictor oracle;
    TraceCacheFetch engine(trace, oracle, {});
    std::vector<unsigned> sizes;
    fetchAll(engine, 7, 10000, &sizes);
    for (const unsigned size : sizes)
        EXPECT_LE(size, 7u);
}

TEST(TraceCache, DeliversCorrectPathOnly)
{
    const auto trace = loopTrace(64);
    PerfectBranchPredictor oracle;
    TraceCacheFetch engine(trace, oracle, {});
    const auto fetched = fetchAll(engine, 40, 10000);
    ASSERT_EQ(fetched.size(), trace.size());
    for (std::size_t i = 0; i < fetched.size(); ++i)
        EXPECT_EQ(fetched[i].record.pc, trace[i].pc);
}

TEST(TraceCache, StaleLineTruncatesWithoutPenaltyWhenPredicted)
{
    // Build a trace where a loop exits: the line built for the looping
    // path goes stale at the exit iteration. With a perfect predictor
    // the divergence is not a misprediction, so fetch truncates but
    // does not stall.
    const auto trace = loopTrace(6);
    PerfectBranchPredictor oracle;
    TraceCacheFetch engine(trace, oracle, {});
    const auto fetched = fetchAll(engine, 40, 10000);
    EXPECT_EQ(fetched.size(), trace.size());
    EXPECT_EQ(engine.mispredicts(), 0u);
}

TEST(TraceCache, HitDeliversTheLineAsReadAtHitTime)
{
    // One line, four instructions: the fill unit installs every line
    // into the slot being delivered. Cycle 1 misses and fills
    // {0x100: 100 104 108 10c}; cycle 2 misses on the taken branch at
    // 0x200, leaving it pending; cycle 3 hits 0x100, and after its
    // third delivered instruction the fill unit overwrites the line
    // with {0x200: 200 100 104 108}. Hardware read the whole line at
    // hit time, so the fourth instruction (0x10c) is still delivered.
    auto make = [](Addr pc, OpCode op) {
        TraceRecord record;
        record.pc = pc;
        record.op = op;
        record.nextPc = pc + instBytes;
        return record;
    };
    std::vector<TraceRecord> trace;
    for (const Addr pc : {0x100, 0x104, 0x108, 0x10c})
        trace.push_back(make(pc, OpCode::Addi));
    TraceRecord jump = make(0x200, OpCode::Jal);
    jump.taken = true;
    jump.nextPc = 0x100;
    trace.push_back(jump);
    for (const Addr pc : {0x100, 0x104, 0x108, 0x10c, 0x110})
        trace.push_back(make(pc, OpCode::Addi));

    TraceCacheConfig config;
    config.lines = 1;
    config.maxLineInsts = 4;
    config.missFetchWidth = 4;
    PerfectBranchPredictor oracle;
    TraceCacheFetch engine(trace, oracle, config);
    std::vector<FetchedRecord> out;
    fetchInto(engine, 1, 8, out);
    fetchInto(engine, 2, 8, out);
    ASSERT_EQ(out.size(), 5u);
    ASSERT_EQ(engine.hits(), 0u);
    ASSERT_EQ(engine.linesFilled(), 1u);

    out.clear();
    fetchInto(engine, 3, 8, out);
    EXPECT_EQ(engine.hits(), 1u);
    EXPECT_EQ(engine.linesFilled(), 2u)
        << "the fill unit overwrote the line mid-delivery";
    std::vector<Addr> delivered;
    for (const FetchedRecord &inst : out)
        delivered.push_back(inst.record.pc);
    EXPECT_EQ(delivered, (std::vector<Addr>{0x100, 0x104, 0x108, 0x10c}));
    EXPECT_EQ(engine.lineInstsDelivered(), 4u);
}

TEST(TraceCache, TwoLevelBtbDeliversTheTraceInOrder)
{
    // The hit and miss loops consult a real predictor: every record
    // arrives once, in order, and each misprediction ends its bundle.
    const auto trace = loopTrace(300);
    TwoLevelPApPredictor btb;
    TraceCacheFetch engine(trace, btb, {});
    const auto fetched = fetchAll(engine, 40, 100000);
    ASSERT_EQ(fetched.size(), trace.size());
    std::uint64_t mispredicted = 0;
    for (std::size_t i = 0; i < fetched.size(); ++i) {
        EXPECT_EQ(fetched[i].position, i);
        mispredicted += fetched[i].mispredicted ? 1 : 0;
    }
    EXPECT_GT(engine.mispredicts(), 0u) << "cold BTB, loop exit";
    EXPECT_EQ(mispredicted, engine.mispredicts());
    EXPECT_GT(engine.hits(), 0u);
}

TEST(TraceCache, MispredictionStallsUntilResolved)
{
    const auto trace = loopTrace(50);
    TwoLevelPApPredictor btb;
    TraceCacheFetch engine(trace, btb, {});
    std::vector<FetchedRecord> out;
    Cycle now = 1;
    while (!engine.done() && (out.empty() || !out.back().mispredicted))
        fetchInto(engine, now++, 40, out);
    ASSERT_TRUE(out.back().mispredicted) << "the cold BTB must miss";
    const std::size_t before = out.size();
    EXPECT_EQ(fetchInto(engine, now, 40, out), 0u)
        << "fetch waits for the branch to resolve";
    engine.branchResolved(out.back().position, now);
    EXPECT_EQ(fetchInto(engine, now, 40, out), 0u)
        << "fetch resumes the cycle after resolution";
    EXPECT_GT(fetchInto(engine, now + 1, 40, out), 0u);
    EXPECT_EQ(out[before].position, out[before - 1].position + 1);
}

TEST(CollapsingBuffer, CollapsesShortForwardBranch)
{
    // A taken forward branch whose target is in the same 32-byte line
    // must not cost a line window.
    ProgramBuilder b("cb");
    Label skip = b.newLabel();
    Label done = b.newLabel();
    b.li(s0, 1);
    b.beq(zero, zero, skip);   // always taken, +2 insts forward
    b.nop();
    b.bind(skip);
    b.li(s1, 2);
    b.j(done);
    b.bind(done);
    b.halt();
    Program prog = b.build();
    std::vector<TraceRecord> trace;
    Interpreter interp(prog, Memory{});
    interp.run(0, &trace);

    PerfectBranchPredictor oracle;
    CollapsingBufferFetch engine(trace, oracle, {});
    std::vector<FetchedRecord> out;
    fetchInto(engine, 1, 40, out);
    EXPECT_GE(engine.collapsedBranches(), 1u);
    EXPECT_GE(out.size(), 4u)
        << "fetch continued past the collapsed branch in one cycle";
}

TEST(CollapsingBuffer, TwoLinesPerCycle)
{
    const auto trace = loopTrace(40);
    PerfectBranchPredictor oracle;
    CollapsingBufferFetch engine(trace, oracle, {});
    const auto fetched = fetchAll(engine, 40, 10000);
    EXPECT_EQ(fetched.size(), trace.size());
}

TEST(CollapsingBuffer, BankConflictEndsBundle)
{
    CollapsingBufferConfig config;
    config.banks = 1; // every second line conflicts
    const auto trace = loopTrace(40);
    PerfectBranchPredictor oracle;
    CollapsingBufferFetch engine(trace, oracle, config);
    const auto fetched = fetchAll(engine, 40, 10000);
    EXPECT_EQ(fetched.size(), trace.size());
    EXPECT_GT(engine.bankConflicts(), 0u);
}

TEST(CollapsingBuffer, BadGeometryDies)
{
    const auto trace = loopTrace(4);
    PerfectBranchPredictor oracle;
    CollapsingBufferConfig config;
    config.lineBytes = 24;
    EXPECT_EXIT((CollapsingBufferFetch{trace, oracle, config}),
                ::testing::ExitedWithCode(1), "power of two");
    config.lineBytes = 32;
    config.banks = 65; // one bit per bank in a 64-bit mask
    EXPECT_EXIT((CollapsingBufferFetch{trace, oracle, config}),
                ::testing::ExitedWithCode(1), "1..64");
}

TEST(TraceCache, BadGeometryDies)
{
    const auto trace = loopTrace(4);
    PerfectBranchPredictor oracle;
    TraceCacheConfig config;
    config.lines = 48; // not a power of two
    EXPECT_EXIT((TraceCacheFetch{trace, oracle, config}),
                ::testing::ExitedWithCode(1), "power of two");
}

} // namespace
} // namespace vpsim
