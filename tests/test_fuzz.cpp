/**
 * @file
 * Randomized (fuzz) tests: generate random but well-formed programs,
 * execute them, and check cross-cutting invariants of the whole stack —
 * trace consistency, analysis conservation laws, machine-model sanity,
 * and trace-file round-trips. Seeds are fixed so failures reproduce.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/did.hpp"
#include "analysis/predictability.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "core/ideal_machine.hpp"
#include "core/pipeline_machine.hpp"
#include "core/reference_machine.hpp"
#include "trace/streaming_source.hpp"
#include "trace/trace_v3.hpp"
#include "vm/interpreter.hpp"
#include "vm/program_builder.hpp"

namespace vpsim
{
namespace
{

/**
 * Build a random structured program: a chain of basic blocks with
 * random ALU/memory bodies, counted loops, and function calls — always
 * terminating, never trapping.
 */
Program
randomProgram(std::uint64_t seed)
{
    Rng rng(seed);
    ProgramBuilder b("fuzz-" + std::to_string(seed));

    // Registers: 3..11 scratch, 12..17 loop counters, 2 = sp.
    const auto scratch = [&] {
        return static_cast<RegIndex>(3 + rng.nextBelow(9));
    };

    const unsigned num_functions = static_cast<unsigned>(1 + rng.nextBelow(3));
    std::vector<Label> functions;
    for (unsigned i = 0; i < num_functions; ++i)
        functions.push_back(b.newLabel());
    Label main_entry = b.newLabel();
    b.j(main_entry);

    // Leaf functions: straight-line arithmetic on a0.
    for (unsigned f = 0; f < num_functions; ++f) {
        b.bind(functions[f]);
        const unsigned body = static_cast<unsigned>(1 + rng.nextBelow(6));
        for (unsigned i = 0; i < body; ++i) {
            switch (rng.nextBelow(4)) {
              case 0:
                b.addi(22, 22, static_cast<std::int64_t>(
                                   rng.nextBelow(64)));
                break;
              case 1:
                b.xori(22, 22, static_cast<std::int64_t>(
                                   rng.nextBelow(255)));
                break;
              case 2:
                b.slli(22, 22, 1);
                break;
              default:
                b.srli(22, 22, 1);
                break;
            }
        }
        b.ret();
    }

    b.bind(main_entry);
    b.li(2, 0x80000); // stack
    const unsigned num_loops = static_cast<unsigned>(1 + rng.nextBelow(3));
    for (unsigned loop_i = 0; loop_i < num_loops; ++loop_i) {
        const auto counter = static_cast<RegIndex>(12 + loop_i);
        const auto iterations =
            static_cast<std::int64_t>(4 + rng.nextBelow(60));
        Label top = b.newLabel();
        b.li(counter, iterations);
        b.bind(top);
        // Random loop body.
        const unsigned body = static_cast<unsigned>(2 + rng.nextBelow(8));
        for (unsigned i = 0; i < body; ++i) {
            const RegIndex rd = scratch();
            switch (rng.nextBelow(6)) {
              case 0:
                b.add(rd, scratch(), scratch());
                break;
              case 1:
                b.mul(rd, scratch(), counter);
                break;
              case 2: {
                // Bounded memory traffic in a private page.
                b.andi(rd, scratch(), 0x3f8);
                b.addi(rd, rd, 0x40000);
                b.st(scratch(), rd, 0);
                b.ld(rd, rd, 0);
                break;
              }
              case 3:
                b.slt(rd, scratch(), counter);
                break;
              case 4:
                b.call(functions[rng.nextBelow(num_functions)]);
                break;
              default: {
                // A data-dependent forward skip.
                Label skip = b.newLabel();
                b.andi(rd, scratch(), 1);
                b.beq(rd, 0, skip);
                b.addi(scratch(), scratch(), 1);
                b.bind(skip);
                break;
              }
            }
        }
        b.addi(counter, counter, -1);
        b.bne(counter, 0, top);
    }
    b.halt();
    return b.build();
}

std::vector<TraceRecord>
fuzzTrace(std::uint64_t seed)
{
    Program program = randomProgram(seed);
    Interpreter interp(program, Memory{});
    std::vector<TraceRecord> trace;
    const auto result = interp.run(200000, &trace);
    EXPECT_TRUE(result.halted) << "fuzz programs must terminate";
    return trace;
}

class FuzzSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(FuzzSweep, TraceIsWellFormed)
{
    const auto trace = fuzzTrace(GetParam());
    ASSERT_FALSE(trace.empty());
    for (std::size_t i = 0; i + 1 < trace.size(); ++i) {
        ASSERT_EQ(trace[i].nextPc, trace[i + 1].pc)
            << "control-flow discontinuity at " << i;
        if (!trace[i].isControlFlow()) {
            ASSERT_EQ(trace[i].nextPc, trace[i].fallThrough());
        }
    }
    EXPECT_EQ(trace.back().op, OpCode::Halt);
}

TEST_P(FuzzSweep, AnalysesAgreeOnArcCounts)
{
    const auto trace = fuzzTrace(GetParam());
    const DidAnalysis did = analyzeDid(trace);
    const PredictabilityAnalysis pa = analyzePredictability(trace);
    EXPECT_EQ(did.totalArcs, pa.totalArcs)
        << "both analyses walk the same DFG";
    if (pa.totalArcs > 0) {
        EXPECT_NEAR(pa.fracUnpredictable + pa.fracPredictable(), 1.0,
                    1e-9);
    }
}

TEST_P(FuzzSweep, MachinesAgreeOnInstructionCount)
{
    const auto trace = fuzzTrace(GetParam());
    IdealMachineConfig ideal;
    ideal.fetchRate = 8;
    ideal.useValuePrediction = true;
    const IdealMachineResult ideal_result =
        runIdealMachine(trace, ideal);
    EXPECT_EQ(ideal_result.instructions, trace.size());
    EXPECT_GE(ideal_result.predictionsMade,
              ideal_result.predictionsCorrect);

    PipelineConfig pipe;
    pipe.useValuePrediction = true;
    pipe.maxTakenBranches = 2;
    const PipelineResult pipe_result = runPipelineMachine(trace, pipe);
    EXPECT_EQ(pipe_result.instructions, trace.size());
    EXPECT_GT(pipe_result.ipc, 0.0);
    // The pipeline pays front-end and commit costs the ideal model
    // ignores at the same nominal bandwidth (8 vs taken-limited), so
    // only weak sanity holds: both finish, neither exceeds its width.
    EXPECT_LE(ideal_result.ipc, 8.5);
}

TEST_P(FuzzSweep, VpNeverBreaksCorrectness)
{
    // Value prediction is a timing feature: cycles change, committed
    // instruction counts and program results must not.
    const auto trace = fuzzTrace(GetParam());
    PipelineConfig config;
    config.maxTakenBranches = 0;
    config.useValuePrediction = false;
    const PipelineResult off = runPipelineMachine(trace, config);
    config.useValuePrediction = true;
    const PipelineResult on = runPipelineMachine(trace, config);
    EXPECT_EQ(off.instructions, on.instructions);
}

/**
 * A random Section 5 configuration: window, widths, latencies, every
 * front end (with 1..64 instruction-cache banks) and BTB, every
 * value-prediction flavour, raw predictor kind, table capacity, counter
 * width, miss policy, scope and update timing, and wrong-path fetch on
 * the Sequential front end.
 */
PipelineConfig
randomPipelineConfig(Rng &rng, const Program &program)
{
    PipelineConfig config;
    config.windowSize = static_cast<unsigned>(rng.nextRange(4, 128));
    config.issueWidth = static_cast<unsigned>(rng.nextRange(1, 40));
    config.frontendLatency = static_cast<unsigned>(rng.nextRange(0, 6));
    config.vpPenalty = static_cast<unsigned>(rng.nextRange(0, 4));
    config.frontEnd = static_cast<FrontEndKind>(rng.nextBelow(4));
    config.bacConfig.icacheBanks = static_cast<unsigned>(rng.nextRange(1, 64));
    config.collapsingBufferConfig.banks = config.bacConfig.icacheBanks;
    config.maxTakenBranches = static_cast<unsigned>(rng.nextRange(0, 4));
    config.perfectBranchPredictor = rng.nextChance(1, 2);
    switch (rng.nextBelow(4)) {
      case 0:
        break;
      case 1:
        config.useValuePrediction = true;
        break;
      case 2:
        config.useValuePrediction = true;
        config.perfectValuePrediction = true;
        break;
      default:
        config.useValuePrediction = true;
        config.useInterleavedVpTable = true;
        config.vpTableConfig.banks =
            static_cast<unsigned>(rng.nextRange(1, 8));
        break;
    }
    // Every raw kind, so each per-kind kernel of the Plain path meets
    // the reference; finite tables, 3-bit counters and decrement-on-miss
    // each in about a third of the rounds.
    config.predictorKind = static_cast<PredictorKind>(rng.nextBelow(5));
    if (rng.nextChance(1, 3))
        config.tableCapacity = std::size_t{1} << rng.nextRange(3, 8);
    if (rng.nextChance(1, 3))
        config.counterBits = 3;
    if (rng.nextChance(1, 3))
        config.missPolicy = MissPolicy::Decrement;
    config.vpScope = rng.nextChance(1, 3) ? VpScope::LoadsOnly
                                          : VpScope::AllInstructions;
    config.vpUpdateTiming = rng.nextChance(1, 3) ? VpUpdateTiming::Retire
                                                 : VpUpdateTiming::Dispatch;
    if (config.frontEnd == FrontEndKind::Sequential && rng.nextChance(1, 2)) {
        config.modelWrongPath = true;
        config.program = &program;
    }
    return config;
}

TEST_P(FuzzSweep, PipelineMatchesReference)
{
    // Differential fuzzing of the program-order scheduler against the
    // polling reference pipeline: every result field must match, over
    // several random programs per seed and many configurations each.
    for (std::uint64_t variant = 0; variant < 4; ++variant) {
        const std::uint64_t program_seed = GetParam() + 1000 * variant;
        const Program program = randomProgram(program_seed);
        Interpreter interp(program, Memory{});
        std::vector<TraceRecord> trace;
        ASSERT_TRUE(interp.run(200000, &trace).halted);
        Rng rng(program_seed * 7919 + 1);
        for (int round = 0; round < 40; ++round) {
            const PipelineConfig config = randomPipelineConfig(rng, program);
            SCOPED_TRACE("program " + std::to_string(program_seed) +
                         ", round " + std::to_string(round) + ": window " +
                         std::to_string(config.windowSize) + ", width " +
                         std::to_string(config.issueWidth) +
                         ", front end " +
                         std::to_string(static_cast<int>(config.frontEnd)));
            const PipelineResult fast = runPipelineMachine(trace, config);
            const PipelineResult ref =
                runReferencePipelineMachine(trace, config);
            EXPECT_EQ(fast.cycles, ref.cycles);
            EXPECT_EQ(fast.instructions, ref.instructions);
            EXPECT_EQ(fast.ipc, ref.ipc);
            EXPECT_EQ(fast.branchAccuracy, ref.branchAccuracy);
            EXPECT_EQ(fast.branchMispredicts, ref.branchMispredicts);
            EXPECT_EQ(fast.vpPredictionsMade, ref.vpPredictionsMade);
            EXPECT_EQ(fast.vpPredictionsCorrect, ref.vpPredictionsCorrect);
            EXPECT_EQ(fast.vpPredictionsWrong, ref.vpPredictionsWrong);
            EXPECT_EQ(fast.correctlyPredictedUses,
                      ref.correctlyPredictedUses);
            EXPECT_EQ(fast.stallingUses, ref.stallingUses);
            EXPECT_EQ(fast.usefulPredictions, ref.usefulPredictions);
            EXPECT_EQ(fast.tcHitRate, ref.tcHitRate);
            EXPECT_EQ(fast.tcLookups, ref.tcLookups);
            EXPECT_EQ(fast.tcLineInsts, ref.tcLineInsts);
            EXPECT_EQ(fast.bacHitRate, ref.bacHitRate);
            EXPECT_EQ(fast.bacBankConflicts, ref.bacBankConflicts);
            EXPECT_EQ(fast.cbCollapsedBranches, ref.cbCollapsedBranches);
            EXPECT_EQ(fast.wrongPathFetched, ref.wrongPathFetched);
            EXPECT_EQ(fast.vptRequests, ref.vptRequests);
            EXPECT_EQ(fast.vptMergedRequests, ref.vptMergedRequests);
            EXPECT_EQ(fast.vptDeniedRequests, ref.vptDeniedRequests);
            EXPECT_EQ(fast.vptDistributorAdditions,
                      ref.vptDistributorAdditions);
        }
    }
}

TEST_P(FuzzSweep, TraceFilesRoundTrip)
{
    const auto trace = fuzzTrace(GetParam());
    const std::string path =
        "/tmp/vpsim_fuzz_" + std::to_string(GetParam()) + ".vptrace";
    ASSERT_TRUE(writeTraceV3(path, trace).isOk());
    std::vector<TraceRecord> reloaded;
    ASSERT_TRUE(readTraceV3(path, &reloaded).isOk());
    ASSERT_EQ(reloaded.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); i += 97) {
        EXPECT_EQ(reloaded[i].pc, trace[i].pc);
        EXPECT_EQ(reloaded[i].result, trace[i].result);
    }
    std::remove(path.c_str());
}

/** One v3 block frame located by walking the pristine file bytes. */
struct V3BlockInfo
{
    std::size_t offset;       ///< File offset of the "VPB3" magic.
    std::size_t payloadBytes; ///< Encoded payload size.
    std::uint32_t count;      ///< Records the frame declares.
};

std::uint32_t
leU32(const std::vector<unsigned char> &bytes, std::size_t at)
{
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i)
        value |= static_cast<std::uint32_t>(bytes[at + i]) << (8 * i);
    return value;
}

/** Walk the block frames of a pristine v3 file (header .. trailer). */
std::vector<V3BlockInfo>
walkV3Blocks(const std::vector<unsigned char> &bytes)
{
    std::vector<V3BlockInfo> blocks;
    std::size_t off = v3HeaderBytes;
    while (off + v3BlockFrameBytes <= bytes.size() &&
           std::memcmp(bytes.data() + off, "VPB3", 4) == 0) {
        V3BlockInfo info;
        info.offset = off;
        info.count = leU32(bytes, off + 4);
        info.payloadBytes = leU32(bytes, off + 8);
        blocks.push_back(info);
        off += v3BlockFrameBytes + info.payloadBytes + 4;
    }
    return blocks;
}

TEST_P(FuzzSweep, V3StrictReadKeepsExactlyTheIntactBlocks)
{
    // The corruption contract of the v3 format (docs/TRACE_FORMAT.md):
    // whatever single-block damage is on disk — a flipped bit at the
    // block boundary, a flip mid-payload, truncation mid-block, or
    // trailing garbage — a whole read fails kCorrupt holding exactly the
    // records of the intact blocks before the damage, and a stream
    // delivers exactly those records, then ends with a sticky kCorrupt.
    const auto trace = fuzzTrace(GetParam());
    ASSERT_FALSE(trace.empty());
    // Size blocks so every trace yields a handful of boundaries to
    // attack regardless of how long the fuzz program ran.
    const auto rpb = static_cast<std::uint32_t>(
        std::max<std::size_t>(16, (trace.size() + 7) / 8));
    const std::string path = "/tmp/vpsim_fuzz_v3_" +
                             std::to_string(GetParam()) + ".vptrace";
    ASSERT_TRUE(writeTraceV3(path, trace, rpb).isOk());

    std::vector<unsigned char> pristine;
    {
        std::FILE *file = std::fopen(path.c_str(), "rb");
        ASSERT_NE(file, nullptr);
        std::fseek(file, 0, SEEK_END);
        pristine.resize(static_cast<std::size_t>(std::ftell(file)));
        std::fseek(file, 0, SEEK_SET);
        ASSERT_EQ(std::fread(pristine.data(), 1, pristine.size(), file),
                  pristine.size());
        std::fclose(file);
    }
    const auto blocks = walkV3Blocks(pristine);
    ASSERT_GE(blocks.size(), 2u) << "need multiple blocks to attack";
    std::uint64_t declared = 0;
    for (const V3BlockInfo &b : blocks)
        declared += b.count;
    ASSERT_EQ(declared, trace.size()) << "frame walk lost records";

    const auto rewrite = [&](const std::vector<unsigned char> &bytes) {
        std::FILE *file = std::fopen(path.c_str(), "wb");
        ASSERT_NE(file, nullptr);
        ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), file),
                  bytes.size());
        std::fclose(file);
    };

    // A whole read and a stream of the file on disk must both end in
    // kCorrupt after exactly the records of blocks [0, intact).
    const auto expectIntactPrefix = [&](std::size_t intact,
                                        const std::string &what) {
        SCOPED_TRACE(what);
        std::size_t records = 0;
        for (std::size_t i = 0; i < intact; ++i)
            records += blocks[i].count;
        std::vector<TraceRecord> out;
        const Status read = readTraceV3(path, &out);
        EXPECT_EQ(read.code(), StatusCode::kCorrupt) << read.message();
        ASSERT_EQ(out.size(), records);
        for (std::size_t i = 0; i < records; ++i) {
            ASSERT_EQ(out[i].pc, trace[i].pc) << "record " << i;
            ASSERT_EQ(out[i].result, trace[i].result);
        }

        StreamingTraceSource source;
        ASSERT_TRUE(source.open(path).isOk());
        std::size_t streamed = 0;
        TraceSpan span;
        while (source.nextBlock(span)) {
            for (const TraceRecord &r : span) {
                ASSERT_EQ(r.pc, trace[streamed].pc) << "record " << streamed;
                ASSERT_EQ(r.result, trace[streamed++].result);
            }
        }
        EXPECT_EQ(streamed, records);
        EXPECT_EQ(source.status().code(), StatusCode::kCorrupt);
        EXPECT_EQ(source.status().message(), read.message());
    };

    // Pristine file: everything reads back.
    std::vector<TraceRecord> out;
    ASSERT_TRUE(readTraceV3(path, &out).isOk());
    ASSERT_EQ(out.size(), trace.size());

    // A flipped bit at every block boundary (the frame magic) and one
    // mid-payload per block.
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        const std::size_t attacks[2] = {
            blocks[b].offset,
            blocks[b].offset + v3BlockFrameBytes +
                blocks[b].payloadBytes / 2};
        for (const std::size_t at : attacks) {
            auto mutated = pristine;
            mutated[at] ^= 0xffu;
            rewrite(mutated);
            expectIntactPrefix(b, "flip at byte " + std::to_string(at));
        }
    }

    // Truncation mid-block: everything before the cut block survives.
    {
        const V3BlockInfo &last = blocks.back();
        const std::size_t cut =
            last.offset + v3BlockFrameBytes + last.payloadBytes / 2;
        rewrite({pristine.begin(),
                 pristine.begin() + static_cast<std::ptrdiff_t>(cut)});
        expectIntactPrefix(blocks.size() - 1, "mid-block truncation");
    }

    // Trailing garbage after a valid trailer: every block was intact.
    {
        auto mutated = pristine;
        mutated.insert(mutated.end(), 64, 0xa5u);
        rewrite(mutated);
        expectIntactPrefix(blocks.size(), "trailing garbage");
    }

    std::remove(path.c_str());
}

TEST_P(FuzzSweep, CorruptTraceFilesNeverCrashTheReader)
{
    // Whatever bytes are on disk, the strict reader must answer — ok
    // for the pristine file, non-ok for every mutation — and never
    // crash, hang, or over-allocate (every on-disk count is untrusted).
    // Unlike the block fuzzer above, damage may land anywhere,
    // header and trailer included.
    const auto trace = fuzzTrace(GetParam());
    const std::string path = "/tmp/vpsim_fuzz_corrupt_" +
                             std::to_string(GetParam()) + ".vptrace";
    ASSERT_TRUE(writeTraceV3(path, trace, 64).isOk());

    std::vector<unsigned char> pristine;
    {
        std::FILE *file = std::fopen(path.c_str(), "rb");
        ASSERT_NE(file, nullptr);
        std::fseek(file, 0, SEEK_END);
        pristine.resize(static_cast<std::size_t>(std::ftell(file)));
        std::fseek(file, 0, SEEK_SET);
        ASSERT_EQ(std::fread(pristine.data(), 1, pristine.size(), file),
                  pristine.size());
        std::fclose(file);
    }
    ASSERT_GE(pristine.size(), v3HeaderBytes + v3TrailerBytes);

    const auto rewrite = [&](const std::vector<unsigned char> &bytes) {
        std::FILE *file = std::fopen(path.c_str(), "wb");
        ASSERT_NE(file, nullptr);
        if (!bytes.empty()) {
            ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), file),
                      bytes.size());
        }
        std::fclose(file);
    };

    std::vector<TraceRecord> out;

    // Truncation at every section boundary: inside the header, at the
    // header/block seam, at each of the first block boundaries, and
    // inside the trailer.
    std::vector<std::size_t> cuts = {0, 1, 8, 15, v3HeaderBytes,
                                     pristine.size() - v3TrailerBytes,
                                     pristine.size() - 2,
                                     pristine.size() - 1};
    const auto blocks = walkV3Blocks(pristine);
    for (std::size_t b = 1; b < blocks.size() && b <= 4; ++b)
        cuts.push_back(blocks[b].offset);
    for (const std::size_t cut : cuts) {
        rewrite({pristine.begin(),
                 pristine.begin() + static_cast<std::ptrdiff_t>(cut)});
        const Status read = readTraceV3(path, &out);
        EXPECT_FALSE(read.isOk())
            << "truncation at byte " << cut << " must be detected";
    }

    // Random single-byte flips anywhere in the file. XOR with a
    // non-zero value guarantees the byte actually changes.
    Rng rng(GetParam() * 7919 + 1);
    for (int trial = 0; trial < 40; ++trial) {
        auto mutated = pristine;
        const auto at = static_cast<std::size_t>(
            rng.nextBelow(mutated.size()));
        mutated[at] ^= static_cast<unsigned char>(
            1 + rng.nextBelow(255));
        rewrite(mutated);
        const Status read = readTraceV3(path, &out);
        EXPECT_FALSE(read.isOk())
            << "flipped byte " << at << " must fail a checksum";
    }

    // The pristine bytes still read back fine.
    rewrite(pristine);
    EXPECT_TRUE(readTraceV3(path, &out).isOk());
    EXPECT_EQ(out.size(), trace.size());
    std::remove(path.c_str());
}

TEST_P(FuzzSweep, ResealedPayloadDamageNeverCrashesTheDecoder)
{
    // Payload damage under a recomputed frame CRC reaches the record
    // decoder itself, in its per-record-checked bulk and its per-byte
    // checked tail alike. Any answer is fine except a crash or an
    // out-of-bounds read (run under the sanitizers): a whole read
    // either decodes every record or fails kCorrupt, and a stream
    // delivers the same records and ends with the same Status.
    const auto trace = fuzzTrace(GetParam());
    const std::string path = "/tmp/vpsim_fuzz_resealed_" +
                             std::to_string(GetParam()) + ".vptrace";
    ASSERT_TRUE(writeTraceV3(path, trace, 64).isOk());
    std::vector<unsigned char> pristine;
    {
        std::FILE *file = std::fopen(path.c_str(), "rb");
        ASSERT_NE(file, nullptr);
        std::fseek(file, 0, SEEK_END);
        pristine.resize(static_cast<std::size_t>(std::ftell(file)));
        std::fseek(file, 0, SEEK_SET);
        ASSERT_EQ(std::fread(pristine.data(), 1, pristine.size(), file),
                  pristine.size());
        std::fclose(file);
    }
    const auto blocks = walkV3Blocks(pristine);
    ASSERT_FALSE(blocks.empty());

    Rng rng(GetParam() * 104729 + 3);
    std::vector<TraceRecord> out;
    for (int trial = 0; trial < 40; ++trial) {
        auto mutated = pristine;
        const V3BlockInfo &block =
            blocks[rng.nextBelow(blocks.size())];
        const std::size_t payload = block.offset + v3BlockFrameBytes;
        const auto flips = 1 + rng.nextBelow(3);
        for (std::uint64_t f = 0; f < flips; ++f) {
            mutated[payload + rng.nextBelow(block.payloadBytes)] ^=
                static_cast<unsigned char>(1 + rng.nextBelow(255));
        }
        const std::uint32_t crc = crc32(
            mutated.data() + block.offset,
            v3BlockFrameBytes + block.payloadBytes);
        for (int i = 0; i < 4; ++i) {
            mutated[payload + block.payloadBytes + i] =
                static_cast<unsigned char>(crc >> (8 * i));
        }
        std::FILE *file = std::fopen(path.c_str(), "wb");
        ASSERT_NE(file, nullptr);
        ASSERT_EQ(std::fwrite(mutated.data(), 1, mutated.size(), file),
                  mutated.size());
        std::fclose(file);

        const Status strict = readTraceV3(path, &out);
        if (strict.isOk())
            EXPECT_EQ(out.size(), trace.size());
        else
            EXPECT_EQ(strict.code(), StatusCode::kCorrupt)
                << strict.message();

        StreamingTraceSource source;
        ASSERT_TRUE(source.open(path).isOk());
        std::size_t streamed = 0;
        TraceSpan span;
        while (source.nextBlock(span))
            streamed += span.size();
        EXPECT_EQ(source.status().code(), strict.code());
        EXPECT_EQ(source.status().message(), strict.message());
        EXPECT_EQ(streamed, out.size());
    }
    std::remove(path.c_str());
}

TEST_P(FuzzSweep, FrontEndsDeliverIdenticalStreams)
{
    // Whatever the front end, the machine must see the same dynamic
    // instruction stream (trace-driven correctness).
    const auto trace = fuzzTrace(GetParam());
    for (const FrontEndKind kind :
         {FrontEndKind::Sequential, FrontEndKind::TraceCache,
          FrontEndKind::BranchAddressCache,
          FrontEndKind::CollapsingBuffer}) {
        PipelineConfig config;
        config.frontEnd = kind;
        config.maxTakenBranches = 2;
        const PipelineResult result = runPipelineMachine(trace, config);
        EXPECT_EQ(result.instructions, trace.size())
            << "front end " << static_cast<int>(kind);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u, 55u, 89u));

} // namespace
} // namespace vpsim
