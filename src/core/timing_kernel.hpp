/**
 * @file
 * The per-instruction timing rule of both primary machine models, the
 * Section 3 ideal machine and the Section 5 pipeline (docs/MODELS.md
 * §1-2), which differ in it only through two compile-time policies: the
 * reissue order and the issue-slot search. The reference models do not
 * include it: they stay independent oracles. Each machine keeps one
 * RegisterRecord per RegIndex value (registerFileSize,
 * common/types.hpp), so any register byte a trace carries indexes it
 * without a check.
 */

#ifndef VPSIM_CORE_TIMING_KERNEL_HPP
#define VPSIM_CORE_TIMING_KERNEL_HPP

#include <algorithm>
#include <cstdint>

#include "common/types.hpp"
#include "predictor/classifier.hpp"
#include "trace/record.hpp"

namespace vpsim
{

/** What a consumer needs from the last writer of a register. */
struct RegisterRecord
{
    /** Cycle the real value is ready; 0 (imposes nothing) if unwritten. */
    Cycle ready = 0;
    /** The writer's value was predicted: consumers speculate on it. */
    bool predicted = false;
    /** The predicted value was the real one. */
    bool correct = false;
};

/** Operand-use counts, named as in IdealMachineResult and PipelineResult. */
struct OperandUses
{
    /** Uses whose real value is ready after the issue floor. */
    std::uint64_t stallingUses = 0;
    /** Uses of a correctly predicted value. */
    std::uint64_t correctlyPredictedUses = 0;
    /** Correctly predicted uses whose real value is ready after execute. */
    std::uint64_t usefulPredictions = 0;
};

/**
 * Section 3 reissue: the wrong operands in ascending ready order against
 * the running completion, so a later one sees the delay an earlier one
 * already caused. A wrong-operand argument of 0 means none.
 */
struct AscendingReissue
{
    static Cycle
    complete(Cycle issue, Cycle wrong1, Cycle wrong2, Cycle penalty)
    {
        const Cycle lo = std::min(wrong1, wrong2);
        const Cycle hi = std::max(wrong1, wrong2);
        const Cycle exec = lo > issue ? lo + penalty : issue;
        return hi > exec ? hi + penalty : exec;
    }
};

/** Section 5 reissue: each wrong operand against the issue cycle. */
struct IssueCycleReissue
{
    static Cycle
    complete(Cycle issue, Cycle wrong1, Cycle wrong2, Cycle penalty)
    {
        return std::max(wrong1 > issue ? wrong1 + penalty : issue,
                        wrong2 > issue ? wrong2 + penalty : issue);
    }
};

/** The ideal machine's issue-slot search: every cycle has room. */
struct UnboundedIssue
{
    Cycle operator()(Cycle earliest) const { return earliest; }
};

/**
 * Time @p record: classify each source operand as plain, correctly
 * predicted or wrongly predicted; issue at @p issue_slot's first free
 * cycle at or after @p floor and the plain operands; complete after the
 * wrong operands plus @p penalty, in Reissue's order; count the uses;
 * and, when the record writes a register, record it as ready @p wake
 * cycles after execute with the prediction outcome @p own_outcome()
 * returns. Returns the execute cycle.
 *
 * @p floor is the earliest issue cycle before operands (fetch, front
 * end and window permitting): a use whose value is ready later stalls.
 * The machine predicts the record's own value inside @p own_outcome, so
 * after its operands are read: a predictor called first puts its table
 * stores ahead of the operand loads, which made the ideal machine's VP
 * loop about a fifth slower.
 */
template <typename Reissue, bool UseVp, typename IssueSlot,
          typename OwnOutcome>
inline Cycle
timeInstruction(RegisterRecord *registers, const TraceRecord &record,
                Cycle floor, Cycle penalty, Cycle wake,
                IssueSlot &&issue_slot, OwnOutcome &&own_outcome,
                OperandUses &uses)
{
    // Straight-line selects, not branches: whether an operand was
    // predicted or correct flips with the simulated values, so a branchy
    // encoding pays a branch misprediction per dependent instruction.
    const RegisterRecord &src1 = registers[record.rs1];
    const RegisterRecord &src2 = registers[record.rs2];
    uses.stallingUses += (src1.ready > floor ? 1 : 0) +
                         (src2.ready > floor ? 1 : 0);
    Cycle exec;
    if constexpr (UseVp) {
        // Predicted operands impose no issue constraint: the consumer
        // speculates on the predicted value. A wrong one costs the
        // penalty only if its real value came after the consumer issued;
        // otherwise the consumer read the real value and the prediction
        // was merely useless.
        const bool correct1 = src1.predicted && src1.correct;
        const bool correct2 = src2.predicted && src2.correct;
        const Cycle plain1 = src1.predicted ? Cycle{0} : src1.ready;
        const Cycle plain2 = src2.predicted ? Cycle{0} : src2.ready;
        exec = Reissue::complete(
            issue_slot(std::max(std::max(floor, plain1), plain2)),
            src1.predicted && !src1.correct ? src1.ready : Cycle{0},
            src2.predicted && !src2.correct ? src2.ready : Cycle{0},
            penalty);
        // A correct prediction was useful when the operand would
        // otherwise have delayed the consumer past its actual execute.
        uses.correctlyPredictedUses +=
            (correct1 ? 1 : 0) + (correct2 ? 1 : 0);
        uses.usefulPredictions += (correct1 && src1.ready > exec ? 1 : 0) +
                                  (correct2 && src2.ready > exec ? 1 : 0);
    } else {
        exec = issue_slot(std::max(std::max(floor, src1.ready), src2.ready));
    }
    if (record.producesValue()) {
        const VpOutcome own = own_outcome();
        registers[record.rd] = {exec + wake, own.predicted, own.correct};
    }
    return exec;
}

} // namespace vpsim

#endif // VPSIM_CORE_TIMING_KERNEL_HPP
