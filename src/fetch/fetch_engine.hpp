/**
 * @file
 * Front-end fetch engine base class shared by the Section 5 experiments.
 *
 * A fetch engine walks the dynamic trace (the correct path) and decides,
 * cycle by cycle, which prefix of the remaining trace the machine gets to
 * see, given its bandwidth rules (taken-branch limits, trace-cache lines)
 * and the branch predictor's behaviour. A branch whose prediction
 * disagrees with the recorded outcome ends the cycle's bundle and stalls
 * fetch until the machine reports the branch resolved; fetch resumes the
 * cycle after resolution, which together with the 2-cycle front-end gives
 * the paper's 3-cycle misprediction penalty.
 */

#ifndef VPSIM_FETCH_FETCH_ENGINE_HPP
#define VPSIM_FETCH_FETCH_ENGINE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "bpred/branch_predictor.hpp"
#include "common/invariant.hpp"
#include "common/logging.hpp"
#include "common/types.hpp"
#include "trace/record.hpp"
#include "trace/span.hpp"

namespace vpsim
{

/** One fetched instruction plus its front-end fate. */
struct FetchedInst
{
    TraceRecord record;
    /** The branch predictor got this control instruction wrong. */
    bool mispredicted = false;
    /**
     * Fetched down the mispredicted path (synthetic record from the
     * static program image, values unknown); squashed at resolution.
     */
    bool wrongPath = false;
};

/**
 * Per-cycle fetch engine: a trace cursor, a branch predictor, and the
 * mispredict stall state machine shared by every front end. Each front
 * end supplies its bandwidth rules in fetch().
 */
class TraceFetchBase
{
  public:
    /**
     * @param trace_records Borrowed view of the dynamic trace; the
     *        viewed storage must outlive the engine. A
     *        std::vector<TraceRecord> converts implicitly.
     */
    TraceFetchBase(TraceSpan trace_records,
                   BranchPredictor &branch_predictor);
    virtual ~TraceFetchBase() = default;
    TraceFetchBase(const TraceFetchBase &) = delete;
    TraceFetchBase &operator=(const TraceFetchBase &) = delete;

    /**
     * Fetch the bundle for cycle @p now.
     *
     * @param now Current cycle.
     * @param max_insts Bundle budget for this cycle (machine width and
     *        free window slots).
     * @param out Fetched instructions are appended here.
     */
    virtual void fetch(Cycle now, unsigned max_insts,
                       std::vector<FetchedInst> &out) = 0;

    /** Engine name for reports. */
    virtual std::string name() const = 0;

    /** All trace records have been fetched. */
    bool done() const { return cursor >= trace.size(); }

    /**
     * The machine resolved the mispredicted branch @p seq in cycle
     * @p resolve_cycle; fetch may resume the following cycle.
     */
    virtual void branchResolved(SeqNum seq, Cycle resolve_cycle);

    /** Dynamic instructions fetched so far. */
    std::uint64_t fetchedInsts() const { return numFetched; }
    /** Mispredicted control transfers encountered. */
    std::uint64_t mispredicts() const { return numMispredicts; }

  protected:
    /** True while fetch is blocked on an unresolved misprediction. */
    bool stalled(Cycle now) const;

    /**
     * Consume the record at the cursor: consult/train the predictor for
     * control instructions and arm the stall machine on a misprediction.
     * Appends to @p out and advances the cursor.
     *
     * Inline: every front end calls this once per fetched instruction,
     * and as an out-of-line routine it was ~10% of the pipeline-machine
     * profile (mostly the call itself and re-loading cursor/counters
     * each time).
     *
     * @retval true The consumed instruction mispredicted (bundle over).
     */
    bool
    consumeRecord(std::vector<FetchedInst> &out)
    {
        panicIf(cursor >= trace.size(),
                "fetch past the end of the trace");
        const TraceRecord &record = trace[cursor];
        // Build the instruction in place: a local FetchedInst would be
        // copied wholesale into the bundle once per fetched
        // instruction.
        FetchedInst &inst = out.emplace_back();
        inst.record = record;
        if (record.isControlFlow()) {
            const BranchPrediction prediction = bpred.predict(record);
            bpred.update(record, prediction);
            inst.mispredicted =
                !BranchPredictor::correct(record, prediction);
            if (inst.mispredicted) {
                pendingBranch = record.seq;
                pendingPrediction = prediction;
                ++numMispredicts;
            }
        }
        ++cursor;
        ++numFetched;
        // Every fetched instruction is a trace record consumed exactly
        // once; a drift here means duplicated or dropped delivery.
        checkInvariant(InvariantLevel::Cheap, numFetched == cursor,
                       "fetch.delivered_matches_consumed", [&] {
                           return std::to_string(numFetched) +
                                  " fetched but trace cursor at " +
                                  std::to_string(cursor);
                       });
        return inst.mispredicted;
    }

    const TraceSpan trace;
    BranchPredictor &bpred;
    std::size_t cursor = 0;

    /** Sequence number of the unresolved mispredicted branch. */
    SeqNum pendingBranch = invalidSeqNum;
    /** The (wrong) prediction that armed the stall, for wrong-path
     *  navigation. */
    BranchPrediction pendingPrediction{};
    /** First cycle fetch may run again after a resolved mispredict. */
    Cycle resumeCycle = 0;

    std::uint64_t numFetched = 0;
    std::uint64_t numMispredicts = 0;
};

} // namespace vpsim

#endif // VPSIM_FETCH_FETCH_ENGINE_HPP
