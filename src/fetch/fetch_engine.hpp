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

#include "bpred/branch_predictor.hpp"
#include "common/invariant.hpp"
#include "common/logging.hpp"
#include "common/types.hpp"
#include "trace/record.hpp"
#include "trace/span.hpp"

namespace vpsim
{

/**
 * What one fetch cycle delivered, as a view: no record is copied.
 *
 * Correct-path fetch is always a contiguous slice of the trace, and
 * only its last record can be a mispredicted branch (a misprediction
 * ends the bundle). Wrong-path fetch never mixes with the correct path:
 * it views a buffer the engine owns, valid until its next fetch().
 */
struct FetchBundle
{
    TraceSpan records;
    /** The last record is a control transfer the predictor got wrong. */
    bool endsInMispredict = false;
    /**
     * The records were fetched down the mispredicted path (synthetic
     * records from the static program image, values unknown); they are
     * squashed at resolution.
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
     * @return A view of the fetched records, valid until the next call.
     */
    virtual FetchBundle fetch(Cycle now, unsigned max_insts) = 0;

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
     * Advances the cursor: the bundle is the slice the cursor passed
     * (delivered()).
     *
     * Inline: every front end calls this once per fetched instruction,
     * and as an out-of-line routine it was ~10% of the pipeline-machine
     * profile (mostly the call itself and re-loading cursor/counters
     * each time).
     *
     * @retval true The consumed instruction mispredicted (bundle over).
     */
    bool
    consumeRecord()
    {
        panicIf(cursor >= trace.size(),
                "fetch past the end of the trace");
        const TraceRecord &record = trace[cursor];
        bool mispredicted = false;
        if (record.isControlFlow()) {
            const BranchPrediction prediction = bpred.predict(record);
            bpred.update(record, prediction);
            mispredicted = !BranchPredictor::correct(record, prediction);
            if (mispredicted) {
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
        return mispredicted;
    }

    /** The correct-path bundle of the records consumed since @p first. */
    FetchBundle
    delivered(std::size_t first, bool mispredicted) const
    {
        return {TraceSpan(trace.data() + first, cursor - first),
                mispredicted, false};
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
