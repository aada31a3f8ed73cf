/**
 * @file
 * The Sequential front end against an independent re-derivation of its
 * bundle rules (paper §5.1): each cycle fetches at most the budget, stops
 * after the n-th taken transfer (n = 1, 2, 4 or unlimited), ends the
 * bundle with a mispredicted control transfer, and then fetches nothing
 * until the cycle after the machine resolves that branch.
 *
 * The pipeline oracle (runReferencePipelineMachine) builds its front
 * end through the same PipelineComponents as the machine, so it cannot
 * see a fetch bug; this test can. The reference decides which records
 * mispredict with its own branch predictor instance, consulted once per
 * control record in trace order, as correct-path fetch does.
 */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "bpred/two_level.hpp"
#include "common/rng.hpp"
#include "fetch/sequential_fetch.hpp"

namespace vpsim
{
namespace
{

/**
 * A dynamic walk through a random static program of @p static_insts
 * instructions: ALU ops, biased conditional branches, direct jumps and
 * two-target indirect jumps.
 */
std::vector<TraceRecord>
randomProgramTrace(Rng &rng, std::size_t static_insts, std::size_t length)
{
    struct Static
    {
        OpCode op;
        std::size_t target;
        std::size_t altTarget;
        std::uint64_t takenPercent;
    };
    std::vector<Static> program;
    for (std::size_t i = 0; i < static_insts; ++i) {
        const std::uint64_t roll = rng.nextBelow(100);
        Static inst{OpCode::Add, rng.nextBelow(static_insts),
                    rng.nextBelow(static_insts), rng.nextBelow(101)};
        if (i + 1 == static_insts || roll < 8)
            inst.op = OpCode::Jal;
        else if (roll < 14)
            inst.op = OpCode::Jalr;
        else if (roll < 40)
            inst.op = OpCode::Beq;
        program.push_back(inst);
    }

    const auto pc_of = [](std::size_t index) {
        return Addr{0x1000} + index * instBytes;
    };
    std::vector<TraceRecord> trace;
    std::size_t at = 0;
    while (trace.size() < length) {
        const Static &inst = program[at];
        TraceRecord record;
        record.pc = pc_of(at);
        record.op = inst.op;
        record.rs1 = 2;
        record.rs2 = 3;
        record.rd = inst.op == OpCode::Add ? 4 : 0;
        std::size_t next = at + 1;
        if (inst.op == OpCode::Jal) {
            record.taken = true;
            next = inst.target;
        } else if (inst.op == OpCode::Jalr) {
            record.taken = true;
            next = rng.nextBelow(2) == 0 ? inst.target : inst.altTarget;
        } else if (inst.op == OpCode::Beq &&
                   rng.nextBelow(100) < inst.takenPercent) {
            record.taken = true;
            next = inst.target;
        }
        record.nextPc = pc_of(next);
        trace.push_back(record);
        at = next;
    }
    return trace;
}

/** One cycle's bundle as [first, first + size), plus its last record. */
struct Bundle
{
    std::size_t first = 0;
    std::size_t size = 0;
    bool endsInMispredict = false;

    bool
    operator==(const Bundle &other) const
    {
        return size == other.size &&
               (size == 0 || (first == other.first &&
                              endsInMispredict == other.endsInMispredict));
    }
};

/** The bundle rules, re-derived over precomputed mispredictions. */
class NaiveSequentialFetch
{
  public:
    NaiveSequentialFetch(const std::vector<TraceRecord> &trace,
                         std::vector<bool> mispredicted, unsigned max_taken)
        : trace(trace), mispredicts(std::move(mispredicted)),
          maxTaken(max_taken)
    {
    }

    Bundle
    fetch(Cycle now, unsigned budget)
    {
        Bundle bundle;
        bundle.first = cursor;
        if (waiting || now < resumeAt)
            return bundle;
        unsigned taken = 0;
        while (cursor < trace.size() && bundle.size < budget) {
            const TraceRecord &record = trace[cursor];
            ++bundle.size;
            if (mispredicts[cursor++]) {
                bundle.endsInMispredict = true;
                waiting = true;
                break;
            }
            if (isControl(record.op) && record.taken) {
                ++taken;
                if (taken == maxTaken)
                    break;
            }
        }
        return bundle;
    }

    void
    resolved(Cycle cycle)
    {
        waiting = false;
        resumeAt = cycle + 1;
    }

    bool done() const { return cursor == trace.size(); }

  private:
    const std::vector<TraceRecord> &trace;
    std::vector<bool> mispredicts;
    unsigned maxTaken;
    std::size_t cursor = 0;
    bool waiting = false;
    Cycle resumeAt = 0;
};

struct FetchCase
{
    unsigned maxTaken;
    bool idealBtb;
};

class SequentialFetchReference : public ::testing::TestWithParam<FetchCase>
{
};

TEST_P(SequentialFetchReference, BundlesMatchTheRules)
{
    const FetchCase param = GetParam();
    Rng rng(0x5e9f ^ (param.maxTaken * 2 + (param.idealBtb ? 1 : 0)));
    std::uint64_t total_mispredicts = 0;
    for (int program = 0; program < 40; ++program) {
        const std::vector<TraceRecord> trace = randomProgramTrace(
            rng, 8 + rng.nextBelow(120), 500 + rng.nextBelow(2500));

        std::vector<bool> mispredicted(trace.size(), false);
        if (!param.idealBtb) {
            TwoLevelPApPredictor btb;
            for (std::size_t i = 0; i < trace.size(); ++i) {
                const TraceRecord &record = trace[i];
                if (!isControl(record.op))
                    continue;
                const BranchPrediction prediction = btb.predict(record);
                btb.update(record, prediction);
                mispredicted[i] =
                    !BranchPredictor::correct(record, prediction);
            }
        }
        NaiveSequentialFetch reference(trace, mispredicted, param.maxTaken);

        PerfectBranchPredictor oracle;
        TwoLevelPApPredictor two_level;
        BranchPredictor &bpred = param.idealBtb
            ? static_cast<BranchPredictor &>(oracle)
            : static_cast<BranchPredictor &>(two_level);
        SequentialFetch engine(trace, bpred, param.maxTaken);

        std::optional<std::pair<SeqNum, Cycle>> pending;
        Cycle now = 0;
        while (!reference.done() || !engine.done()) {
            ++now;
            ASSERT_LT(now, Cycle{100000}) << "fetch stopped making progress";
            if (pending && pending->second == now) {
                engine.branchResolved(pending->first, now);
                reference.resolved(now);
                pending.reset();
            }
            const unsigned budget =
                1 + static_cast<unsigned>(rng.nextBelow(16));
            const Bundle expected = reference.fetch(now, budget);
            const FetchBundle got = engine.fetch(now, budget);
            ASSERT_FALSE(got.wrongPath);
            const Bundle actual{
                got.records.empty()
                    ? 0
                    : static_cast<std::size_t>(got.records.data() -
                                               trace.data()),
                got.records.size(), got.endsInMispredict};
            ASSERT_EQ(expected, actual)
                << "program " << program << " cycle " << now
                << ": expected [" << expected.first << " +"
                << expected.size << (expected.endsInMispredict ? " M" : "")
                << "], got [" << actual.first << " +" << actual.size
                << (actual.endsInMispredict ? " M" : "") << "]";
            ASSERT_TRUE(got.records.empty() || got.first == actual.first)
                << "the bundle names its first record's position";
            if (got.endsInMispredict) {
                // The machine resolves the branch a few cycles later.
                pending.emplace(actual.first + actual.size - 1,
                                now + 1 + rng.nextBelow(5));
            }
        }
        total_mispredicts += engine.mispredicts();
    }
    if (param.idealBtb)
        EXPECT_EQ(total_mispredicts, 0u);
    else
        EXPECT_GT(total_mispredicts, 0u)
            << "the fuzzed programs must exercise misprediction stalls";
}

INSTANTIATE_TEST_SUITE_P(
    TakenLimitsAndBtbs, SequentialFetchReference,
    ::testing::Values(FetchCase{1, true}, FetchCase{2, true},
                      FetchCase{4, true}, FetchCase{0, true},
                      FetchCase{1, false}, FetchCase{2, false},
                      FetchCase{4, false}, FetchCase{0, false}),
    [](const auto &info) {
        return (info.param.maxTaken == 0
                    ? std::string("unlimited")
                    : "taken" + std::to_string(info.param.maxTaken)) +
               (info.param.idealBtb ? "IdealBtb" : "TwoLevelBtb");
    });

} // namespace
} // namespace vpsim
